//! Deterministic fault injection for control ↔ data links.
//!
//! A [`FaultPlan`] seeds three failure modes the retry/idempotency layers
//! must absorb for a run to certify clean:
//!
//! * **delay** — a message is held back a random interval before delivery
//!   (FIFO order is preserved: the link forwards in order, so a delay
//!   stalls everything behind it, like a congested link);
//! * **duplicate delivery** — a message is delivered twice (handlers
//!   de-duplicate via applied-marks and completed-sets);
//! * **crash/restart** — one data node discards everything it receives for
//!   a window, modelled inside the data actor ([`CrashPlan`]); the control
//!   node's redelivery watchdog re-sends unanswered `Access` orders.
//!
//! Faults apply only to control ↔ data links. Client ↔ control links stay
//! reliable: the paper's clients are terminals on the same machine, and
//! keeping them clean isolates the fault semantics to the shared-nothing
//! boundary under test.
//!
//! Each faulty link is a [`FaultLink`]: a bounded queue plus a forwarder
//! thread that pops in order, sleeps out injected delays, and delivers one
//! or two copies downstream. Decisions come from a per-link
//! [`XorShift`] stream seeded from the plan, so the *decision sequence* is
//! reproducible even though wall-clock interleaving is not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wtpg_rt::backoff::XorShift;
use wtpg_rt::queue::BoundedQueue;

use crate::msg::Msg;
use crate::transport::MsgTx;

/// Per-message fault probabilities for one link direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFaults {
    /// Percent chance (0–100) a message is delayed before delivery.
    pub delay_prob_pct: u8,
    /// Upper bound on an injected delay, microseconds.
    pub max_delay_us: u64,
    /// Percent chance (0–100) a message is delivered twice.
    pub dup_prob_pct: u8,
}

impl LinkFaults {
    /// No link faults.
    pub const NONE: LinkFaults = LinkFaults {
        delay_prob_pct: 0,
        max_delay_us: 0,
        dup_prob_pct: 0,
    };

    /// True when any fault can fire.
    pub fn active(&self) -> bool {
        self.delay_prob_pct > 0 || self.dup_prob_pct > 0
    }
}

/// A single data node's crash/restart window, simulated inside the actor:
/// everything it receives during the window is discarded (its durable
/// [`NodeStore`](wtpg_rt::store::NodeStore) and applied-marks survive,
/// modelling storage that outlives the process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Which data node crashes.
    pub node: usize,
    /// The crash fires when the node is about to process its
    /// `after_msgs`-th message (that message is lost too).
    pub after_msgs: u64,
    /// How long the node stays down, milliseconds.
    pub down_ms: u64,
}

/// A real process-death simulation: unlike [`CrashPlan`] (which merely
/// drops messages while durable state survives in memory), a kill tears
/// the data-node *actor* down — its in-memory store, applied-marks, and
/// buffered replies are destroyed — and restarts it from its on-disk
/// write-ahead log. Requires `Durability::{Buffered,Sync}` plus a log dir.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillPlan {
    /// Which data node dies; `None` kills *every* node (full-cluster kill —
    /// each node dies at its own `after_msgs` mark).
    pub node: Option<usize>,
    /// The kill fires when the node is about to process its
    /// `after_msgs`-th message (that message is lost too).
    pub after_msgs: u64,
    /// How long the node stays down before replaying its log, ms.
    pub down_ms: u64,
}

/// The run's complete fault schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every link's decision stream (each link mixes in its id).
    pub seed: u64,
    /// Delay/duplicate faults on every control ↔ data link.
    pub link: LinkFaults,
    /// At most one data-node crash/restart.
    pub crash: Option<CrashPlan>,
    /// Kill-and-restart-from-log: one node or the whole cluster.
    pub kill: Option<KillPlan>,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            link: LinkFaults::NONE,
            crash: None,
            kill: None,
        }
    }

    /// Message delay + duplicate delivery on every control ↔ data link:
    /// 20% of messages delayed up to 2 ms, 10% duplicated.
    pub fn flaky_links(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            link: LinkFaults {
                delay_prob_pct: 20,
                max_delay_us: 2_000,
                dup_prob_pct: 10,
            },
            crash: None,
            kill: None,
        }
    }

    /// [`FaultPlan::flaky_links`] plus a crash/restart of data node
    /// `node` after its 20th message, down for 30 ms.
    pub fn flaky_with_crash(seed: u64, node: usize) -> FaultPlan {
        FaultPlan {
            crash: Some(CrashPlan {
                node,
                after_msgs: 20,
                down_ms: 30,
            }),
            ..FaultPlan::flaky_links(seed)
        }
    }

    /// A kill-and-restart of data node `node` after its 20th message, down
    /// 30 ms, with no link faults (isolates the durability path).
    pub fn kill_node(node: usize) -> FaultPlan {
        FaultPlan {
            kill: Some(KillPlan {
                node: Some(node),
                after_msgs: 20,
                down_ms: 30,
            }),
            ..FaultPlan::none()
        }
    }

    /// [`FaultPlan::flaky_links`] plus a kill of data node `node`.
    pub fn flaky_with_kill(seed: u64, node: usize) -> FaultPlan {
        FaultPlan {
            kill: Some(KillPlan {
                node: Some(node),
                after_msgs: 20,
                down_ms: 30,
            }),
            ..FaultPlan::flaky_links(seed)
        }
    }

    /// Kills *every* data node once (each after its 15th message, down 20
    /// ms), no link faults: the full-cluster kill-and-restart drill.
    pub fn kill_cluster() -> FaultPlan {
        FaultPlan {
            kill: Some(KillPlan {
                node: None,
                after_msgs: 15,
                down_ms: 20,
            }),
            ..FaultPlan::none()
        }
    }

    /// The plan's report label.
    pub fn label(&self) -> &'static str {
        match (self.link.active(), self.crash.is_some(), self.kill.is_some()) {
            (false, false, false) => "none",
            (true, false, false) => "fault",
            (false, true, false) => "crash",
            (true, true, false) => "fault+crash",
            (false, false, true) => "kill",
            (true, false, true) => "fault+kill",
            (false, true, true) => "crash+kill",
            (true, true, true) => "fault+crash+kill",
        }
    }
}

/// Counters of faults a [`FaultLink`] actually injected.
#[derive(Default)]
pub struct FaultCounters {
    delayed: AtomicU64,
    duplicated: AtomicU64,
}

impl FaultCounters {
    /// Messages held back before delivery.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Messages delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }
}

/// A fault-injecting wrapper around one link direction: senders enqueue,
/// a forwarder thread delivers (late, twice, but never out of order).
pub struct FaultLink {
    q: Arc<BoundedQueue<Msg>>,
}

impl FaultLink {
    /// Wraps `inner` with `faults`, spawning the forwarder thread under
    /// `name`. The forwarder drains remaining messages and exits when the
    /// last sender handle is dropped; join the handle after that.
    pub fn spawn(
        name: String,
        inner: Arc<dyn MsgTx>,
        faults: LinkFaults,
        seed: u64,
        counters: Arc<FaultCounters>,
    ) -> (Arc<FaultLink>, JoinHandle<()>) {
        let q: Arc<BoundedQueue<Msg>> = Arc::new(BoundedQueue::new(4096));
        let pump = Arc::clone(&q);
        let handle = crate::spawn_named(name, move || {
            let mut rng = XorShift::new(seed);
            while let Some(m) = pump.pop() {
                if faults.delay_prob_pct > 0
                    && rng.next_below(100) < u64::from(faults.delay_prob_pct)
                {
                    let us = rng.next_below(faults.max_delay_us + 1);
                    if us > 0 {
                        std::thread::sleep(Duration::from_micros(us));
                    }
                    counters.delayed.fetch_add(1, Ordering::Relaxed);
                }
                if !inner.send(&m) {
                    // Receiver gone: drain-and-drop what remains.
                    continue;
                }
                if faults.dup_prob_pct > 0
                    && rng.next_below(100) < u64::from(faults.dup_prob_pct)
                {
                    counters.duplicated.fetch_add(1, Ordering::Relaxed);
                    inner.send(&m);
                }
            }
        });
        (Arc::new(FaultLink { q }), handle)
    }
}

impl MsgTx for FaultLink {
    fn send(&self, m: &Msg) -> bool {
        self.q.push(m.clone())
    }
}

impl Drop for FaultLink {
    fn drop(&mut self) {
        // Closing on last-handle drop lets the forwarder drain and exit
        // without a separate shutdown channel.
        self.q.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtpg_core::txn::TxnId;
    use wtpg_rt::queue::PopResult;

    struct SinkTx(Arc<BoundedQueue<Msg>>);
    impl MsgTx for SinkTx {
        fn send(&self, m: &Msg) -> bool {
            self.0.push(m.clone())
        }
    }

    #[test]
    fn labels_cover_the_grid() {
        assert_eq!(FaultPlan::none().label(), "none");
        assert_eq!(FaultPlan::flaky_links(1).label(), "fault");
        assert_eq!(FaultPlan::flaky_with_crash(1, 0).label(), "fault+crash");
        assert_eq!(FaultPlan::kill_node(0).label(), "kill");
        assert_eq!(FaultPlan::kill_cluster().label(), "kill");
        assert_eq!(FaultPlan::flaky_with_kill(1, 0).label(), "fault+kill");
    }

    #[test]
    fn faulty_link_preserves_order_and_injects_dups() {
        let out: Arc<BoundedQueue<Msg>> = Arc::new(BoundedQueue::new(4096));
        let counters = Arc::new(FaultCounters::default());
        let faults = LinkFaults {
            delay_prob_pct: 30,
            max_delay_us: 200,
            dup_prob_pct: 40,
        };
        let (link, pump) = FaultLink::spawn(
            "fault".into(),
            Arc::new(SinkTx(Arc::clone(&out))),
            faults,
            7,
            Arc::clone(&counters),
        );
        let total = 200u64;
        for i in 0..total {
            assert!(link.send(&Msg::Commit { client: 0, txn: TxnId(i) }));
        }
        drop(link); // closes the queue; forwarder drains and exits
        pump.join().expect("forwarder exits after drain");
        let mut last = 0u64;
        let mut delivered = 0u64;
        loop {
            match out.try_pop() {
                PopResult::Item(Msg::Commit { txn, .. }) => {
                    assert!(txn.0 >= last, "FIFO violated: {} after {last}", txn.0);
                    last = txn.0;
                    delivered += 1;
                }
                PopResult::Item(m) => panic!("unexpected {m:?}"),
                _ => break,
            }
        }
        assert_eq!(
            delivered,
            total + counters.duplicated(),
            "every message delivered once, plus one per injected duplicate"
        );
        assert!(counters.duplicated() > 0, "40% dup rate must fire in 200 msgs");
        assert!(counters.delayed() > 0, "30% delay rate must fire in 200 msgs");
    }

    #[test]
    fn decision_sequence_is_reproducible() {
        // Two links with the same seed inject identical dup/delay counts
        // over the same traffic.
        let run = |seed: u64| {
            let out: Arc<BoundedQueue<Msg>> = Arc::new(BoundedQueue::new(4096));
            let counters = Arc::new(FaultCounters::default());
            let (link, pump) = FaultLink::spawn(
                "fault".into(),
                Arc::new(SinkTx(out)),
                LinkFaults {
                    delay_prob_pct: 25,
                    max_delay_us: 10,
                    dup_prob_pct: 25,
                },
                seed,
                Arc::clone(&counters),
            );
            for i in 0..100 {
                link.send(&Msg::Commit { client: 0, txn: TxnId(i) });
            }
            drop(link);
            pump.join().expect("forwarder exits");
            (counters.delayed(), counters.duplicated())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds draw different streams");
    }
}
