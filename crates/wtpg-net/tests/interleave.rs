//! A whole run — one control shard, two data nodes, two clients — stepped
//! single-threaded through the `Actor` trait alone, in an order a seeded
//! `XorShift` picks: seeded interleavings of the actor protocol.
//!
//! Every link is a plain queue, and each actor moves the way `actor::run`
//! moves it: it takes its mail while it has some, runs `before_block` once
//! its queue is empty, then sleeps until mail comes or its wait runs out.
//! At each step the generator picks one actor that can move. When none can,
//! time jumps to the earliest wait and those actors get `idle`. Time is
//! virtual — nothing else moves it — and the flush window is an hour, so
//! real time never changes how messages are framed. Once control stops, the
//! driver sends each data node `Shutdown`, as the threaded runtime does.
//! Faults and duplicates are not explored here. A failing seed is reported as
//! the `run_seed` call that repeats it.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wtpg_core::certify::certify_history;
use wtpg_core::partition::Catalog;
use wtpg_core::txn::AccessMode;
use wtpg_net::actor::{Actor, Flow};
use wtpg_net::client::ClientActor;
use wtpg_net::control::{ControlActor, ControlParams};
use wtpg_net::data::{DataActor, DataNodeParams};
use wtpg_net::transport::MsgTx;
use wtpg_net::{Msg, NetConfig, NetError};
use wtpg_obs::Registry;
use wtpg_rt::backoff::XorShift;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::Pattern;

/// Steps one run may take: about ten times what a run needs.
const BUDGET: usize = 3_000;

/// One actor's inbox: what its peers sent it, in order.
#[derive(Default)]
struct Queue(Mutex<VecDeque<Msg>>);

impl MsgTx for Queue {
    fn send(&self, m: &Msg) -> bool {
        self.0.lock().expect("queue lock").push_back(m.clone());
        true
    }
}

/// One actor and the queue it reads; once stopped, what it returned.
struct Slot<'q, A: Actor> {
    actor: Option<A>,
    inbox: &'q Queue,
    /// Between `before_block` and the next message or `idle`, asleep — until
    /// this instant, or (`None`) until mail comes.
    asleep: Option<Option<Instant>>,
    out: Option<A::Outcome>,
}

impl<'q, A: Actor> Slot<'q, A> {
    fn new(actor: A, inbox: &'q Queue) -> Self {
        Slot {
            actor: Some(actor),
            inbox,
            asleep: None,
            out: None,
        }
    }

    fn has_mail(&self) -> bool {
        !self.inbox.0.lock().expect("queue lock").is_empty()
    }

    fn live(&mut self) -> Result<&mut A, NetError> {
        self.actor
            .as_mut()
            .ok_or_else(|| NetError::Protocol("a stopped actor was stepped".into()))
    }

    /// A stop finishes the actor.
    fn settle(&mut self, flow: Flow) -> Result<(), NetError> {
        if flow == Flow::Stop {
            let actor = self.actor.take();
            self.out = actor.map(Actor::finish).transpose()?;
        }
        Ok(())
    }
}

/// What the driver asks of a slot, whichever actor is in it.
trait Step {
    fn running(&self) -> bool;
    /// Whether the actor can move now: it has mail, or it is awake.
    fn ready(&self) -> bool;
    /// Its next message, or — its queue empty — `before_block`.
    fn step(&mut self, now: Instant) -> Result<(), NetError>;
    /// When its wait runs out, if it sleeps on one.
    fn wakes_at(&self) -> Option<Instant>;
    fn idle(&mut self, now: Instant) -> Result<(), NetError>;
}

impl<A: Actor> Step for Slot<'_, A> {
    fn running(&self) -> bool {
        self.actor.is_some()
    }

    fn ready(&self) -> bool {
        self.running() && (self.asleep.is_none() || self.has_mail())
    }

    fn step(&mut self, now: Instant) -> Result<(), NetError> {
        let mail = self.inbox.0.lock().expect("queue lock").pop_front();
        let flow = match mail {
            Some(m) => {
                self.asleep = None;
                self.live()?.deliver(m, now)?
            }
            None => match self.live()?.before_block(now)? {
                Some(wait) => {
                    self.asleep = Some(now.checked_add(wait));
                    Flow::Continue
                }
                None => Flow::Stop,
            },
        };
        self.settle(flow)
    }

    fn wakes_at(&self) -> Option<Instant> {
        self.asleep.flatten().filter(|_| self.running())
    }

    fn idle(&mut self, now: Instant) -> Result<(), NetError> {
        self.asleep = None;
        let flow = self.live()?.idle(now)?;
        self.settle(flow)
    }
}

/// Steps one whole run of `sched` in the order `seed` picks, then checks
/// what it left behind: every transaction committed, the control audit
/// replay-certified, and every declared write unit in the stores.
fn run_seed(sched: &str, seed: u64) -> Result<(), String> {
    let (paper, specs) = pattern_specs(Pattern::Two { num_hots: 4 }, 24, 11);
    let catalog = Catalog::new(paper.partitions().map(|p| paper.size(p)).collect(), 2);
    let cfg = NetConfig::default();
    let watchdog = Duration::from_millis(cfg.watchdog_ms);
    let reg = Registry::new();
    let queue = || Arc::new(Queue::default());
    let (control_q, data_q, client_q) = (queue(), [queue(), queue()], [queue(), queue()]);
    let link = |q: &Arc<Queue>| -> Arc<dyn MsgTx> { q.clone() };
    let to_control = link(&control_q);
    let to_data: Vec<Arc<dyn MsgTx>> = data_q.iter().map(link).collect();
    let to_clients: Vec<Arc<dyn MsgTx>> = client_q.iter().map(link).collect();

    // A four-deep admission window under six-deep clients, and eight-message
    // frames: the backlog is used and a burst can split across frames.
    let params = ControlParams {
        sched: sched_by_name(sched, 2, 2000).ok_or("unknown scheduler")?,
        clients: 2,
        retry: cfg.retry,
        watchdog,
        batch_max: 8,
        batch_window: Duration::from_secs(3600),
        admit_window: 4,
        shard: 0,
        ckpt: None,
        stream: None,
        reg: &reg,
        mvcc: None,
    };
    let shard = ControlActor::start(params, &catalog, cfg.chunk_units, &to_data, &to_clients);
    let mut control = Slot::new(shard, &control_q);
    let mut data = [0, 1].map(|n: u32| {
        let params = DataNodeParams {
            catalog: &catalog,
            node: n,
            crash: None,
            kill: None,
            batch_max: 8,
            log: None,
            reg: &reg,
            mvcc: None,
        };
        let node = DataActor::start(params, &to_control).expect("a log-less node starts");
        Slot::new(node, &data_q[n as usize])
    });
    let mut clients = [0, 1].map(|c: u32| {
        let client = ClientActor::start(c, 2, &specs, None, &to_control, watchdog, 6, &reg);
        Slot::new(client, &client_q[c as usize])
    });

    let mut rng = XorShift::new(seed);
    let mut now = Instant::now();
    let mut steps = 0;
    loop {
        let [d0, d1] = &mut data;
        let [c0, c1] = &mut clients;
        let mut slots: [&mut dyn Step; 5] = [&mut control, d0, d1, c0, c1];
        let control_was_running = slots[0].running();
        steps += 1;
        if steps > BUDGET {
            return Err(format!("no end within {BUDGET} steps"));
        }
        let ready: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].ready()).collect();
        if !ready.is_empty() {
            let pick = ready[rng.next_below(ready.len() as u64) as usize];
            slots[pick].step(now).map_err(|e| e.to_string())?;
        } else if slots.iter().all(|s| !s.running()) {
            break;
        } else {
            let next = slots.iter().filter_map(|s| s.wakes_at()).min();
            now = next.ok_or("every actor sleeps until mail none sends")?;
            for s in slots.iter_mut().filter(|s| s.wakes_at() == Some(now)) {
                s.idle(now).map_err(|e| e.to_string())?;
            }
        }
        if control_was_running && !slots[0].running() {
            for tx in &to_data {
                tx.send(&Msg::Shutdown);
            }
        }
    }

    let out = control.out.ok_or("control never finished")?;
    if out.audit.counters.commits != specs.len() as u64 {
        return Err(format!("{} of {} committed", out.audit.counters.commits, specs.len()));
    }
    certify_history(&out.audit.history, &out.audit.specs, out.mode)
        .map_err(|v| format!("certification: {v:?}"))?;
    let expected: u64 = specs
        .iter()
        .flat_map(|t| t.steps())
        .filter(|st| st.mode == AccessMode::Write)
        .map(|st| st.actual_cost.units())
        .sum();
    let stores = data.map(|d| d.out.map(|o| (o.write_units, o.cell_sum)));
    let (units, cells) = stores
        .into_iter()
        .try_fold((0, 0), |(u, c), o| o.map(|(du, dc)| (u + du, c + dc)))
        .ok_or("a data node never finished")?;
    if (units, cells) != (expected, expected) {
        return Err(format!("stores hold {units} units, {cells} in cells; {expected} declared"));
    }
    Ok(())
}

#[test]
fn seeded_interleavings_stop_certify_and_conserve() {
    let failures: Vec<String> = ["chain", "k2"]
        .into_iter()
        .flat_map(|sched| (1..=200).map(move |seed| (sched, seed)))
        .filter_map(|(sched, seed)| {
            let e = run_seed(sched, seed).err()?;
            Some(format!("run_seed({sched:?}, {seed}): {e}"))
        })
        .collect();
    assert!(failures.is_empty(), "{} of 400 failed:\n{}", failures.len(), failures.join("\n"));
}
