//! A single-threaded, deterministic drive of the admit → request →
//! progress → commit protocol over a spec stream — the outside-in
//! measurement of what the control plane costs per call when nothing else
//! (inboxes, actors, transports) is in the way.
//!
//! The same drive runs against a bare [`Scheduler`] (`core.sched`) and
//! against `wtpg-rt`'s [`ControlNode`] wrapping one (`rt.control`), so the
//! difference between the two is the control node's own bookkeeping. Up to
//! `WINDOW` transactions are active at once; a blocked or delayed request
//! (and a rejected admission) goes to the back of a FIFO and is retried
//! when it comes round again, so every count the drive produces repeats
//! exactly for a given spec stream.

use std::collections::VecDeque;

use wtpg_core::error::CoreError;
use wtpg_core::sched::{Admission, ControlOps, LockOutcome};
use wtpg_core::time::Tick;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_core::work::Work;
use wtpg_rt::control::ControlNode;
use wtpg_rt::engine::SendScheduler;

use crate::spans::Tracer;

/// Concurrently admitted transactions — `NetConfig::admit_window`'s default.
const WINDOW: usize = 32;
/// One transaction in this many has every call recorded as a span; the
/// per-call costs are computed from those spans alone.
const SAMPLE_EVERY: u64 = 32;

/// The five protocol calls, as both drive targets expose them.
pub trait Protocol {
    fn arrive(&mut self, spec: &TxnSpec) -> Result<Admission, CoreError>;
    fn request(&mut self, txn: TxnId, step: usize) -> Result<LockOutcome, CoreError>;
    fn progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError>;
    fn step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError>;
    fn commit(&mut self, txn: TxnId) -> Result<(), CoreError>;
}

impl Protocol for ControlNode {
    fn arrive(&mut self, spec: &TxnSpec) -> Result<Admission, CoreError> {
        ControlNode::arrive(self, spec)
    }
    fn request(&mut self, txn: TxnId, step: usize) -> Result<LockOutcome, CoreError> {
        ControlNode::request(self, txn, step)
    }
    fn progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError> {
        ControlNode::progress(self, txn, amount)
    }
    fn step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
        ControlNode::step_complete(self, txn, step)
    }
    fn commit(&mut self, txn: TxnId) -> Result<(), CoreError> {
        ControlNode::commit(self, txn).map(|_| ())
    }
}

/// A scheduler with nothing around it but the logical clock it needs: one
/// tick per call, exactly as the control node draws them.
pub struct Bare {
    sched: SendScheduler,
    tick: u64,
    /// Scheduler-internal work, summed over the drive.
    pub ops: ControlOps,
}

impl Bare {
    pub fn new(sched: SendScheduler) -> Bare {
        Bare {
            sched,
            tick: 0,
            ops: ControlOps::NONE,
        }
    }

    fn next_tick(&mut self) -> Tick {
        self.tick += 1;
        Tick(self.tick)
    }
}

impl Protocol for Bare {
    fn arrive(&mut self, spec: &TxnSpec) -> Result<Admission, CoreError> {
        let now = self.next_tick();
        let (admission, ops) = self.sched.on_arrive(spec, now)?;
        self.ops = self.ops.merge(ops);
        Ok(admission)
    }
    fn request(&mut self, txn: TxnId, step: usize) -> Result<LockOutcome, CoreError> {
        let now = self.next_tick();
        let (outcome, ops) = self.sched.on_request(txn, step, now)?;
        self.ops = self.ops.merge(ops);
        Ok(outcome)
    }
    fn progress(&mut self, txn: TxnId, amount: Work) -> Result<(), CoreError> {
        self.next_tick();
        self.sched.on_progress(txn, amount)
    }
    fn step_complete(&mut self, txn: TxnId, step: usize) -> Result<(), CoreError> {
        self.next_tick();
        self.sched.on_step_complete(txn, step)
    }
    fn commit(&mut self, txn: TxnId) -> Result<(), CoreError> {
        let now = self.next_tick();
        let res = self.sched.on_commit(txn, now)?;
        self.ops = self.ops.merge(res.ops);
        Ok(())
    }
}

/// How often each call ran in one drive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriveCounts {
    pub commits: u64,
    pub arrives: u64,
    pub rejections: u64,
    pub requests: u64,
    pub grants: u64,
    pub progresses: u64,
}

/// Runs `call` — inside a `(layer, name)` span when `sampled`.
fn timed<T>(
    tracer: &mut Tracer,
    sampled: bool,
    layer: &'static str,
    name: &'static str,
    call: impl FnOnce() -> T,
) -> T {
    if !sampled {
        return call();
    }
    let id = tracer.enter(layer, name);
    let out = call();
    tracer.exit(id, 1);
    out
}

/// Drives every spec to commit through `p`, `chunk_units` milli-objects
/// per progress report. Sampled calls are recorded under `layer` with the
/// call's name (`arrive`, `request`, `progress`, `step_complete`,
/// `commit`).
///
/// # Errors
/// A protocol error from the scheduler, or a wedge: a full turn of the
/// FIFO in which nothing was admitted, granted or committed.
pub fn drive<P: Protocol>(
    p: &mut P,
    specs: &[TxnSpec],
    chunk_units: u64,
    tracer: &mut Tracer,
    layer: &'static str,
) -> Result<DriveCounts, String> {
    let err = |e: CoreError| e.to_string();
    let mut counts = DriveCounts::default();
    // (index into `specs`, next step to request; `None` = not yet admitted).
    let mut fifo: VecDeque<(usize, Option<usize>)> = VecDeque::new();
    let mut next = 0usize;
    let mut idle_turns = 0usize;
    while next < specs.len() || !fifo.is_empty() {
        while fifo.len() < WINDOW && next < specs.len() {
            fifo.push_back((next, None));
            next += 1;
        }
        let Some((idx, state)) = fifo.pop_front() else {
            break;
        };
        let spec = &specs[idx];
        let sampled = spec.id.0.is_multiple_of(SAMPLE_EVERY);
        let mut moved = false;
        match state {
            None => {
                counts.arrives += 1;
                match timed(tracer, sampled, layer, "arrive", || p.arrive(spec)).map_err(err)? {
                    Admission::Admitted => {
                        moved = true;
                        fifo.push_back((idx, Some(0)));
                    }
                    Admission::Rejected => {
                        counts.rejections += 1;
                        fifo.push_back((idx, None));
                    }
                }
            }
            Some(step) => {
                counts.requests += 1;
                let outcome = timed(tracer, sampled, layer, "request", || {
                    p.request(spec.id, step)
                })
                .map_err(err)?;
                if outcome == LockOutcome::Granted {
                    moved = true;
                    counts.grants += 1;
                    let units = spec.steps()[step].actual_cost.units();
                    let mut offset = 0u64;
                    while offset < units {
                        let chunk = chunk_units.min(units - offset);
                        counts.progresses += 1;
                        timed(tracer, sampled, layer, "progress", || {
                            p.progress(spec.id, Work::from_units(chunk))
                        })
                        .map_err(err)?;
                        offset += chunk;
                    }
                    timed(tracer, sampled, layer, "step_complete", || {
                        p.step_complete(spec.id, step)
                    })
                    .map_err(err)?;
                    if step + 1 == spec.len() {
                        timed(tracer, sampled, layer, "commit", || p.commit(spec.id))
                            .map_err(err)?;
                        counts.commits += 1;
                    } else {
                        fifo.push_back((idx, Some(step + 1)));
                    }
                } else {
                    fifo.push_back((idx, state));
                }
            }
        }
        idle_turns = if moved { 0 } else { idle_turns + 1 };
        if idle_turns > 64 * WINDOW {
            return Err(format!(
                "drive wedged: {} transactions active, none admitted or granted in {idle_turns} tries",
                fifo.len()
            ));
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtpg_core::certify::certify_history;
    use wtpg_rt::sched_by_name;
    use wtpg_rt::workload::pattern_specs;
    use wtpg_workload::Pattern;

    #[test]
    fn both_targets_commit_everything_and_counts_repeat_exactly() {
        let (_, specs) = pattern_specs(Pattern::One, 300, 5);
        for name in ["chain", "k2"] {
            let run_bare = || {
                let mut bare = Bare::new(sched_by_name(name, 2, 5000).expect("known"));
                let c = drive(&mut bare, &specs, 1000, &mut Tracer::new(), "core.sched")
                    .expect("drive completes");
                (c, bare.ops)
            };
            let (a, a_ops) = run_bare();
            let (b, b_ops) = run_bare();
            assert_eq!(a, b, "{name}: the drive is deterministic");
            assert_eq!(a_ops, b_ops);
            assert_eq!(a.commits, 300);
            assert!(
                a.requests >= a.grants && a.grants == 4 * 300,
                "{name}: {a:?}"
            );

            let mut node = ControlNode::new(sched_by_name(name, 2, 5000).expect("known"));
            let mode = node.certify_mode();
            let mut tracer = Tracer::new();
            let c =
                drive(&mut node, &specs, 1000, &mut tracer, "rt.control").expect("drive completes");
            assert_eq!(
                c, a,
                "{name}: the control node adds no decisions of its own"
            );
            assert!(
                tracer.total("rt.control", "commit").1 > 0,
                "sampled spans exist"
            );
            let audit = node.into_audit();
            certify_history(&audit.history, &audit.specs, mode)
                .expect("the drive's history certifies");
        }
    }
}
