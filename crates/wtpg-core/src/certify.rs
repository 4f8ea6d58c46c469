//! Full-schedule certification by deterministic replay (DESIGN.md §10).
//!
//! [`certify_history`] re-executes a recorded [`History`] against a fresh
//! [`SchedCore`] — the same lock-table/WTPG state machine the schedulers
//! run on — and checks, event by event, that every decision the scheduler
//! took was one it was *allowed* to take:
//!
//! - **protocol shape** — steps requested in declared order, grants match
//!   the declared partition/mode, commits only after the last step;
//! - **lock exclusion** — no grant while a conflicting lock is held
//!   (replayed against the real lock table, not just the event stream);
//! - **deadlock freedom** — no grant closes a precedence cycle, and the
//!   WTPG stays acyclic after every replayed grant;
//! - **arena integrity** — the slot-arena invariants of
//!   [`Wtpg::check_invariants`] after every structural step, plus version
//!   monotonicity across the whole run;
//! - **chain form** ([`CertifyMode::Chain`]) — every admission leaves the
//!   WTPG chain-form, CC1's structural admission constraint;
//! - **K-conflict bound** ([`CertifyMode::KConflict`]) — every admission
//!   satisfies `|C(q)| ≤ K` for all outstanding declarations, and every
//!   grant's `E(q)` (recomputed with the clone-based reference estimator
//!   [`eq_estimate_naive`], *not* the overlay hot path it cross-checks) is
//!   finite. `E(q)`-minimality is spot-checked too, but losses are
//!   *counted* in the report rather than flagged as violations: the
//!   starvation guard legitimately grants a losing request, and finite `E`
//!   values drift with `T0`-weight progress between the scheduler's
//!   decision and the replay.
//!
//! [`CertifyMode::Exempt`] (NODC) skips everything lock-related — NODC
//! violates exclusion *by design* — and keeps only the protocol-shape and
//! strictness checks.
//!
//! The replay is possible because every scheduler drives the same
//! `SchedCore` and the history records every state-changing input
//! ([`Event::StepCompleted`] included, so `T0`-weight resets replay
//! exactly). ASL grants all locks at admission but its histories still
//! replay cleanly step by step: replayed holds are always a subset of
//! ASL's actual holds, and ASL admits only conflict-free lock sets.
//!
//! **The spec source.** The replay borrows each admission's declaration
//! from [`Declarations`]: a `wtpg-net` run's are the workload it was planned
//! with, not what its control node received.
//!
//! Every check here is *incremental*: [`certify_history`] and
//! [`StreamingCertifier`](crate::stream_certify::StreamingCertifier), which
//! certifies live runs event by event, drive one replay, and both retire the
//! certified prefix (bounded memory on million-transaction open-loop cells).
//! Strictness, lock exclusion and conflict serializability are folded into
//! the per-event replay; the old end-of-run whole-history sweep is gone.
//!
//! Each event also costs what it changed. Acyclicity, arena integrity and
//! chain form are each checked on what the event touched — the grant's new
//! edges, the touched slots, the admitted transaction's path — and backed by
//! a whole-graph **oracle** ([`Wtpg::has_cycle`], [`Wtpg::check_invariants`],
//! [`chain_components`](crate::chain::form::chain_components)) that runs on
//! every event under `debug_assertions` and on a fixed stride of 128 events
//! in release, with one more whole-arena check at the end of the run. The
//! lock-exclusion ledger and the `E(q)` checks are exact on every event.
//! The [`stream_certify`](crate::stream_certify) module docs tabulate which
//! fast check runs for which rule.
//!
//! [`SchedCore`]: crate::sched::SchedCore
//! [`Wtpg::check_invariants`]: crate::wtpg::Wtpg::check_invariants
//! [`Wtpg::has_cycle`]: crate::wtpg::Wtpg::has_cycle
//! [`eq_estimate_naive`]: crate::estimate::eq_estimate_naive

use std::collections::BTreeMap;

use crate::history::{Event, History};
use crate::partition::PartitionId;
use crate::stream_certify::{Checks, Replay, RETIRE_EVERY};
use crate::time::Tick;
use crate::txn::{TxnId, TxnSpec};

/// Which guarantees a history claims; returned by
/// [`crate::sched::Scheduler::certify_mode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CertifyMode {
    /// Lock-based baseline: exclusion, deadlock freedom, serializability.
    #[default]
    General,
    /// CC1: baseline plus chain-form compliance at every admission.
    Chain,
    /// CC2: baseline plus the `|C(q)| ≤ K` admission bound and finite-`E(q)`
    /// grants, with `E(q)`-minimality spot checks.
    KConflict(usize),
    /// No concurrency control at all (NODC): only protocol shape and
    /// strictness apply.
    Exempt,
}

/// Statistics from a successful certification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertifyReport {
    /// Events replayed.
    pub events: usize,
    /// Grants replayed and checked.
    pub grants: usize,
    /// Commits replayed.
    pub commits: usize,
    /// `E(q)` spot checks performed (K-WTPG runs only).
    pub eq_checks: usize,
    /// Grants whose `E(q)` was not minimal among the conflicting
    /// declarations at replay time (legitimate under the starvation guard
    /// and `T0`-weight drift; reported, never a violation).
    pub eq_losses: usize,
}

/// A certification failure: the first event the replay could not justify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifyViolation {
    /// Index of the offending event in the history (usize::MAX for
    /// whole-history checks that fail after replay).
    pub at: usize,
    /// Recorded time of the offending event.
    pub tick: Tick,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for CertifyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.at == usize::MAX {
            write!(f, "history check failed: {}", self.what)
        } else {
            write!(f, "event {} (t={}): {}", self.at, self.tick, self.what)
        }
    }
}

fn violation(at: usize, tick: Tick, what: impl Into<String>) -> CertifyViolation {
    CertifyViolation {
        at,
        tick,
        what: what.into(),
    }
}

/// Where a replay finds each admitted transaction's declaration: a map by
/// id, or a workload whose ids strictly ascend, by bisection. A miss fails
/// certification (admitted without a spec).
pub trait Declarations {
    /// The declaration of `txn`, if there is one.
    fn declaration(&self, txn: TxnId) -> Option<&TxnSpec>;
}

impl Declarations for BTreeMap<TxnId, TxnSpec> {
    fn declaration(&self, txn: TxnId) -> Option<&TxnSpec> {
        self.get(&txn)
    }
}

impl Declarations for [TxnSpec] {
    fn declaration(&self, txn: TxnId) -> Option<&TxnSpec> {
        self.binary_search_by_key(&txn, |s| s.id).ok().map(|i| &self[i])
    }
}

/// Replays `history` against a fresh [`SchedCore`](crate::sched::SchedCore)
/// and checks the guarantees claimed by `mode`. `specs` must hold the
/// declaration of every transaction the history admits (re-admissions after
/// rejection reuse the same spec, mirroring the simulator's retry loop).
///
/// This is a thin driver over the replay behind [`StreamingCertifier`]:
/// feed every event, handing each admission its spec from `specs` (borrowed,
/// never copied), retire the certified prefix every [`RETIRE_EVERY`]
/// events, finish. All checks — protocol shape, exclusion, deadlock
/// freedom, strictness, incremental conflict-serializability — run per
/// event, so violations always carry the index of the offending event
/// (never the `usize::MAX` whole-history marker, which only the shard merge
/// and the end-of-run arena check use).
///
/// [`StreamingCertifier`]: crate::stream_certify::StreamingCertifier
///
/// # Errors
/// The first [`CertifyViolation`] encountered.
pub fn certify_history<D: Declarations + ?Sized>(
    history: &History,
    specs: &D,
    mode: CertifyMode,
) -> Result<CertifyReport, CertifyViolation> {
    certify_history_with(history, specs, mode, Checks::DEFAULT)
}

/// [`certify_history`] running `checks` (tests only; see [`Checks`]).
///
/// # Errors
/// The first [`CertifyViolation`] encountered.
#[doc(hidden)]
pub fn certify_history_with<D: Declarations + ?Sized>(
    history: &History,
    specs: &D,
    mode: CertifyMode,
    checks: Checks,
) -> Result<CertifyReport, CertifyViolation> {
    let mut replay = Replay::new(mode, checks);
    for (i, &(tick, event)) in history.events().iter().enumerate() {
        let spec = match event {
            Event::Admitted(t) => specs.declaration(t),
            _ => None,
        };
        replay.feed(tick, event, spec)?;
        if (i + 1) % RETIRE_EVERY == 0 {
            replay.retire_prefix(|_| {});
        }
    }
    replay.finish()
}

/// The transaction an event belongs to.
fn event_txn(e: &Event) -> TxnId {
    match *e {
        Event::Admitted(t) | Event::Rejected(t) | Event::Committed(t) => t,
        Event::Granted { txn, .. } | Event::Progress { txn, .. } | Event::StepCompleted { txn, .. } => txn,
    }
}

/// The violation of a partition granted by two shards: `home`, the first
/// to grant it, and `si`, at `tick`.
fn partition_clash(partition: PartitionId, home: usize, si: usize, tick: Tick) -> CertifyViolation {
    violation(usize::MAX, tick, format!("{partition} granted by shard {home} and shard {si}"))
}

/// The partition half of [`merge_shard_histories`]' disjointness check, on
/// what each shard granted — every partition with the tick of the shard's
/// first grant on it — rather than on its history: a streamed shard
/// records none.
///
/// # Errors
/// A [`CertifyViolation`] (`at == usize::MAX`) naming the first shard, in
/// shard order, to grant a partition an earlier shard granted, at the
/// earliest such grant — the one [`merge_shard_histories`] reports.
pub fn check_shard_partitions(
    shards: &[&BTreeMap<PartitionId, Tick>],
) -> Result<(), CertifyViolation> {
    let mut home: BTreeMap<PartitionId, usize> = BTreeMap::new();
    for (si, granted) in shards.iter().enumerate() {
        let clash = granted.iter().filter_map(|(p, &t)| Some((t, *p, *home.get(p)?))).min();
        if let Some((t, p, h)) = clash {
            return Err(partition_clash(p, h, si, t));
        }
        for &p in granted.keys() {
            home.insert(p, si);
        }
    }
    Ok(())
}

/// Merges per-shard histories into one globally ordered history.
///
/// Sharded control planes split the WTPG by *conflict component*: a
/// transaction's every event lives on exactly one shard, and a partition is
/// only ever granted by the shard owning its component. Under that
/// disjointness, shards share no constraints — so any interleaving that
/// preserves each shard's internal order is a valid linearization, and the
/// merge picks the canonical one: sort by `(recorded tick, shard index)`
/// (stable, so within-shard order is untouched), then re-tick sequentially.
///
/// A single-shard slice returns the history untouched (same ticks), so
/// unsharded runs certify byte-identically to the unsharded path.
///
/// # Errors
/// A [`CertifyViolation`] (`at == usize::MAX`) if the disjointness premise
/// is violated: a transaction with events on two shards, or a partition
/// granted by two shards. A swapped cross-shard grant is caught here — the
/// merge refuses to manufacture an ordering the shards never agreed on.
pub fn merge_shard_histories(shards: &[&History]) -> Result<History, CertifyViolation> {
    if shards.len() == 1 {
        return Ok(shards[0].clone());
    }
    let mut txn_home: BTreeMap<TxnId, usize> = BTreeMap::new();
    let mut part_home: BTreeMap<PartitionId, usize> = BTreeMap::new();
    let mut all: Vec<(Tick, usize, Event)> = Vec::new();
    for (si, h) in shards.iter().enumerate() {
        for &(t, e) in h.events() {
            let txn = event_txn(&e);
            if let Some(&home) = txn_home.get(&txn) {
                if home != si {
                    return Err(violation(
                        usize::MAX,
                        t,
                        format!("{txn} has events on shard {home} and shard {si}"),
                    ));
                }
            } else {
                txn_home.insert(txn, si);
            }
            if let Event::Granted { partition, .. } = e {
                if let Some(&home) = part_home.get(&partition) {
                    if home != si {
                        return Err(partition_clash(partition, home, si, t));
                    }
                } else {
                    part_home.insert(partition, si);
                }
            }
            all.push((t, si, e));
        }
    }
    all.sort_by_key(|&(t, si, _)| (t, si));
    let mut merged = History::new();
    for (i, (_, _, e)) in all.into_iter().enumerate() {
        merged.push(Tick(i as u64 + 1), e);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;
    use crate::test_streams::record;
    use crate::txn::StepSpec;
    use crate::work::Work;

    fn spec(id: u64, steps: Vec<StepSpec>) -> TxnSpec {
        TxnSpec::new(TxnId(id), steps)
    }

    /// Records a scheduler's run of a toy workload.
    fn drive<S: Scheduler>(sched: S) -> (History, BTreeMap<TxnId, TxnSpec>, CertifyMode) {
        let ts = [
            spec(1, vec![StepSpec::write(0, 2.0), StepSpec::read(1, 1.0)]),
            spec(2, vec![StepSpec::write(2, 1.0)]),
            spec(3, vec![StepSpec::read(1, 1.0)]),
        ];
        record(sched, &ts, 0)
    }

    #[test]
    fn chain_run_certifies() {
        let (h, specs, mode) = drive(crate::sched::ChainScheduler::new(5000));
        assert_eq!(mode, CertifyMode::Chain);
        let report = certify_history(&h, &specs, mode).expect("clean run certifies");
        assert_eq!(report.commits, 3);
        assert!(report.grants >= 4);
    }

    #[test]
    fn kwtpg_run_certifies_with_eq_checks() {
        let (h, specs, mode) = drive(crate::sched::KWtpgScheduler::new(2, 5000));
        assert_eq!(mode, CertifyMode::KConflict(2));
        let report = certify_history(&h, &specs, mode).expect("clean run certifies");
        assert_eq!(report.commits, 3);
        assert!(report.eq_checks >= report.grants);
    }

    #[test]
    fn c2pl_run_certifies_general() {
        let (h, specs, mode) = drive(crate::sched::C2plScheduler::new());
        assert_eq!(mode, CertifyMode::General);
        certify_history(&h, &specs, mode).expect("clean run certifies");
    }

    /// The workload's id-ascending slice certifies what the map does; an id
    /// it does not hold fails closed, naming the transaction.
    #[test]
    fn an_ascending_slice_serves_as_the_declarations() {
        let (h, specs, mode) = drive(crate::sched::ChainScheduler::new(5000));
        let plan: Vec<TxnSpec> = specs.values().cloned().collect();
        assert_eq!(certify_history(&h, &plan[..], mode), certify_history(&h, &specs, mode));
        let v = certify_history(&h, &plan[1..], mode).expect_err("T1 has no declaration");
        assert!(v.what.contains("T1 admitted without a spec"), "{v}");
    }

    #[test]
    fn flipped_conflicting_grants_are_rejected() {
        // T1 and T2 both write P0; T1 is granted and holds the lock, so a
        // history claiming T2 was granted first must be rejected.
        let mut h = History::new();
        let mut specs = BTreeMap::new();
        let t1 = spec(1, vec![StepSpec::write(0, 1.0)]);
        let t2 = spec(2, vec![StepSpec::write(0, 1.0)]);
        specs.insert(t1.id, t1);
        specs.insert(t2.id, t2);
        h.push(Tick(0), Event::Admitted(TxnId(1)));
        h.push(Tick(0), Event::Admitted(TxnId(2)));
        h.push(
            Tick(1),
            Event::Granted {
                txn: TxnId(1),
                step: 0,
                partition: crate::partition::PartitionId(0),
                mode: crate::txn::AccessMode::Write,
            },
        );
        // Conflicting grant while T1 still holds P0.
        h.push(
            Tick(2),
            Event::Granted {
                txn: TxnId(2),
                step: 0,
                partition: crate::partition::PartitionId(0),
                mode: crate::txn::AccessMode::Write,
            },
        );
        let err = certify_history(&h, &specs, CertifyMode::General).unwrap_err();
        assert!(err.what.contains("while blocked"), "{err}");
    }

    /// Concurrent S grants on one partition are legal — the replay
    /// certifier must accept overlapping shared holders and only balk when
    /// an X grant lands while any of them is still live.
    #[test]
    fn concurrent_shared_grants_certify_and_block_writers() {
        let mut h = History::new();
        let mut specs = BTreeMap::new();
        let r1 = spec(1, vec![StepSpec::read(0, 1.0)]);
        let r2 = spec(2, vec![StepSpec::read(0, 1.0)]);
        let w = spec(3, vec![StepSpec::write(0, 1.0)]);
        for t in [&r1, &r2, &w] {
            specs.insert(t.id, t.clone());
            h.push(Tick(0), Event::Admitted(t.id));
        }
        let grant = |txn: u64, mode| Event::Granted {
            txn: TxnId(txn),
            step: 0,
            partition: crate::partition::PartitionId(0),
            mode,
        };
        let finish = |h: &mut History, txn: u64, tick: u64| {
            h.push(
                Tick(tick),
                Event::Progress {
                    txn: TxnId(txn),
                    amount: Work::from_objects(1),
                },
            );
            h.push(Tick(tick), Event::StepCompleted { txn: TxnId(txn), step: 0 });
            h.push(Tick(tick), Event::Committed(TxnId(txn)));
        };
        // Both readers hold S on P0 at once; the writer grants only after
        // both commits released it.
        h.push(Tick(1), grant(1, crate::txn::AccessMode::Read));
        h.push(Tick(1), grant(2, crate::txn::AccessMode::Read));
        finish(&mut h, 1, 2);
        finish(&mut h, 2, 2);
        h.push(Tick(3), grant(3, crate::txn::AccessMode::Write));
        finish(&mut h, 3, 4);
        let report =
            certify_history(&h, &specs, CertifyMode::General).expect("S/S co-grant is legal");
        assert_eq!(report.commits, 3);

        // Same prefix, but the writer jumps in while the readers still
        // hold S: rejected.
        let mut bad = History::new();
        for t in [&r1, &r2, &w] {
            bad.push(Tick(0), Event::Admitted(t.id));
        }
        bad.push(Tick(1), grant(1, crate::txn::AccessMode::Read));
        bad.push(Tick(1), grant(2, crate::txn::AccessMode::Read));
        bad.push(Tick(2), grant(3, crate::txn::AccessMode::Write));
        let err = certify_history(&bad, &specs, CertifyMode::General).unwrap_err();
        assert!(err.what.contains("while blocked"), "{err}");
    }

    #[test]
    fn dropped_commit_is_rejected() {
        // T1's commit is missing, so its conflicting grant of P0 by T2 must
        // be flagged (the lock was never released).
        let mut h = History::new();
        let mut specs = BTreeMap::new();
        let t1 = spec(1, vec![StepSpec::write(0, 1.0)]);
        let t2 = spec(2, vec![StepSpec::write(0, 1.0)]);
        specs.insert(t1.id, t1);
        specs.insert(t2.id, t2);
        h.push(Tick(0), Event::Admitted(TxnId(1)));
        h.push(Tick(0), Event::Admitted(TxnId(2)));
        h.push(
            Tick(1),
            Event::Granted {
                txn: TxnId(1),
                step: 0,
                partition: crate::partition::PartitionId(0),
                mode: crate::txn::AccessMode::Write,
            },
        );
        h.push(
            Tick(1),
            Event::Progress {
                txn: TxnId(1),
                amount: Work::from_objects(1),
            },
        );
        h.push(Tick(2), Event::StepCompleted { txn: TxnId(1), step: 0 });
        // Commit dropped here.
        h.push(
            Tick(3),
            Event::Granted {
                txn: TxnId(2),
                step: 0,
                partition: crate::partition::PartitionId(0),
                mode: crate::txn::AccessMode::Write,
            },
        );
        let err = certify_history(&h, &specs, CertifyMode::General).unwrap_err();
        assert!(err.what.contains("while blocked"), "{err}");
    }

    #[test]
    fn out_of_order_steps_are_rejected() {
        let mut h = History::new();
        let mut specs = BTreeMap::new();
        let t1 = spec(1, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]);
        specs.insert(t1.id, t1);
        h.push(Tick(0), Event::Admitted(TxnId(1)));
        h.push(
            Tick(1),
            Event::Granted {
                txn: TxnId(1),
                step: 1, // step 0 never granted
                partition: crate::partition::PartitionId(1),
                mode: crate::txn::AccessMode::Write,
            },
        );
        let err = certify_history(&h, &specs, CertifyMode::General).unwrap_err();
        assert!(err.what.contains("out of order"), "{err}");
    }

    #[test]
    fn premature_commit_is_rejected() {
        let mut h = History::new();
        let mut specs = BTreeMap::new();
        let t1 = spec(1, vec![StepSpec::write(0, 1.0), StepSpec::write(1, 1.0)]);
        specs.insert(t1.id, t1);
        h.push(Tick(0), Event::Admitted(TxnId(1)));
        h.push(Tick(1), Event::Committed(TxnId(1)));
        let err = certify_history(&h, &specs, CertifyMode::General).unwrap_err();
        assert!(err.what.contains("committed after 0 of 2"), "{err}");
    }

    #[test]
    fn k_bound_breach_is_rejected() {
        // Three single-step writers of P0: each pair conflicts, so the third
        // admission has |C(q)| = 2 > K = 1 for the already-present decls.
        let mut h = History::new();
        let mut specs = BTreeMap::new();
        for id in 1..=3 {
            let t = spec(id, vec![StepSpec::write(0, 1.0)]);
            specs.insert(t.id, t);
            h.push(Tick(0), Event::Admitted(TxnId(id)));
        }
        let err = certify_history(&h, &specs, CertifyMode::KConflict(1)).unwrap_err();
        assert!(err.what.contains("conflict bound"), "{err}");
    }

    #[test]
    fn exempt_mode_only_checks_strictness() {
        // Conflicting co-held locks — fine for NODC, but activity after
        // commit is still flagged.
        let mut h = History::new();
        let specs = BTreeMap::new();
        h.push(Tick(0), Event::Admitted(TxnId(1)));
        h.push(Tick(0), Event::Admitted(TxnId(2)));
        for id in [1u64, 2] {
            h.push(
                Tick(1),
                Event::Granted {
                    txn: TxnId(id),
                    step: 0,
                    partition: crate::partition::PartitionId(0),
                    mode: crate::txn::AccessMode::Write,
                },
            );
        }
        assert!(certify_history(&h, &specs, CertifyMode::Exempt).is_ok());
        h.push(Tick(2), Event::Committed(TxnId(1)));
        h.push(
            Tick(3),
            Event::Progress {
                txn: TxnId(1),
                amount: Work::from_objects(1),
            },
        );
        let err = certify_history(&h, &specs, CertifyMode::Exempt).unwrap_err();
        assert!(err.what.contains("after commit"), "{err}");
    }

    /// Records `ts` through `sched` from `start_tick` — a stand-in for one
    /// control shard working its conflict component.
    fn drive_component<S: Scheduler>(
        sched: S,
        ts: &[TxnSpec],
        start_tick: u64,
    ) -> (History, BTreeMap<TxnId, TxnSpec>) {
        let (h, specs, _) = record(sched, ts, start_tick);
        (h, specs)
    }

    /// `count` transactions confined to partitions `[base, base + 3)` —
    /// one conflict component per `base`.
    fn component_specs(base: u32, first_id: u64, count: u64) -> Vec<TxnSpec> {
        (0..count)
            .map(|i| {
                // Vary the shapes so the shard histories interleave
                // nontrivially when merged.
                let steps = match i % 3 {
                    0 => vec![StepSpec::write(base, 2.0), StepSpec::read(base + 1, 1.0)],
                    1 => vec![StepSpec::read(base + 1, 1.0), StepSpec::write(base + 2, 1.0)],
                    _ => vec![StepSpec::write(base + 2, 1.0)],
                };
                TxnSpec::new(TxnId(first_id + i), steps)
            })
            .collect()
    }

    #[test]
    fn disjoint_shard_histories_certify_clean() {
        // Three shards, each a chain run over its own partition range and
        // its own (deliberately overlapping) tick range.
        for shards in 2..=3usize {
            let parts: Vec<(History, BTreeMap<TxnId, TxnSpec>)> = (0..shards)
                .map(|s| {
                    drive_component(
                        crate::sched::ChainScheduler::new(5000),
                        &component_specs(10 * s as u32, 100 * s as u64 + 1, 4),
                        s as u64, // skewed starts → interleaved merge order
                    )
                })
                .collect();
            let merged = merge_shard_histories(
                &parts.iter().map(|(h, _)| h).collect::<Vec<_>>(),
            )
            .unwrap();
            let specs: BTreeMap<TxnId, TxnSpec> =
                parts.iter().flat_map(|(_, s)| s.clone()).collect();
            let report = certify_history(&merged, &specs, CertifyMode::Chain)
                .expect("disjoint shards certify");
            assert_eq!(report.commits, 4 * shards);
            assert_eq!(
                merged.len(),
                parts.iter().map(|(h, _)| h.len()).sum::<usize>()
            );
            // Re-ticked sequentially: strictly increasing from 1.
            for (i, &(t, _)) in merged.events().iter().enumerate() {
                assert_eq!(t, Tick(i as u64 + 1));
            }
        }
    }

    #[test]
    fn swapped_cross_shard_grants_are_rejected() {
        // Both "shards" claim a grant on partition 0 — the disjointness
        // premise of sharded certification, so the merge must refuse.
        let (h1, _) = drive_component(
            crate::sched::ChainScheduler::new(5000),
            &component_specs(0, 1, 2),
            0,
        );
        let (h2, _) = drive_component(
            crate::sched::ChainScheduler::new(5000),
            &component_specs(0, 100, 2),
            0,
        );
        let err = merge_shard_histories(&[&h1, &h2]).unwrap_err();
        assert_eq!(err.at, usize::MAX);
        assert!(err.what.contains("granted by shard"), "{err}");

        // A transaction with events on two shards is just as illegal.
        let mut h2b = History::new();
        h2b.push(Tick(0), Event::Admitted(TxnId(1))); // txn 1 lives in h1
        let err =
            merge_shard_histories(&[&h1, &h2b]).expect_err("split txn must be rejected");
        assert!(err.what.contains("events on shard"), "{err}");
    }

    #[test]
    fn shards_that_granted_one_partition_are_rejected_without_a_history() {
        let granted = |ps: &[(u32, u64)]| -> BTreeMap<PartitionId, Tick> {
            ps.iter().map(|&(p, t)| (PartitionId(p), Tick(t))).collect()
        };
        let (a, b) = (granted(&[(0, 2), (1, 5)]), granted(&[(2, 1), (3, 9)]));
        check_shard_partitions(&[&a, &b]).expect("disjoint shards pass");
        check_shard_partitions(&[&a]).expect("one shard is disjoint from none");
        // Shard 2 granted partitions 3 (shard 1's) at tick 7 and 0 (shard
        // 0's) at tick 4: the earliest clash is reported, as the history
        // merge reports it.
        let c = granted(&[(0, 4), (3, 7), (8, 1)]);
        let err = check_shard_partitions(&[&a, &b, &c]).unwrap_err();
        assert_eq!((err.at, err.tick), (usize::MAX, Tick(4)));
        assert_eq!(err.what, "P0 granted by shard 0 and shard 2");

        // The same message as the history merge's, on the same histories.
        let (h1, _) = drive_component(
            crate::sched::ChainScheduler::new(5000),
            &component_specs(0, 1, 2),
            0,
        );
        let (h2, _) = drive_component(
            crate::sched::ChainScheduler::new(5000),
            &component_specs(0, 100, 2),
            0,
        );
        let firsts = |h: &History| {
            let mut g = BTreeMap::new();
            for &(t, e) in h.events() {
                if let Event::Granted { partition, .. } = e {
                    g.entry(partition).or_insert(t);
                }
            }
            g
        };
        let (g1, g2) = (firsts(&h1), firsts(&h2));
        assert_eq!(
            check_shard_partitions(&[&g1, &g2]).unwrap_err(),
            merge_shard_histories(&[&h1, &h2]).unwrap_err()
        );
    }

    #[test]
    fn single_shard_merge_is_byte_identical() {
        let (h, specs) = drive_component(
            crate::sched::ChainScheduler::new(5000),
            &component_specs(0, 1, 3),
            7,
        );
        let merged = merge_shard_histories(&[&h]).unwrap();
        assert_eq!(merged.events(), h.events(), "ticks and order untouched");
        let direct = certify_history(&h, &specs, CertifyMode::Chain).unwrap();
        let sharded = certify_history(&merged, &specs, CertifyMode::Chain).unwrap();
        assert_eq!(direct, sharded);
    }
}
