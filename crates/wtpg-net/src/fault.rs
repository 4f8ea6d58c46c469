//! Deterministic fault injection for control ↔ data links.
//!
//! A [`FaultPlan`] seeds three failure modes the retry/idempotency layers
//! must absorb for a run to certify clean:
//!
//! * **delay** — a message is held back a random interval before delivery
//!   (FIFO order is preserved: a delay stalls everything behind it on the
//!   link, like a congested link);
//! * **duplicate delivery** — a message is delivered twice (handlers
//!   de-duplicate via applied-marks and completed-sets);
//! * **crash/restart** — one data node discards everything it receives for
//!   a window, modelled inside the data actor ([`CrashPlan`]); the control
//!   node's redelivery re-sends unanswered `Access` orders.
//!
//! Faults apply only to control ↔ data links. Client ↔ control links stay
//! reliable: the paper's clients are terminals on the same machine, and
//! keeping them clean isolates the fault semantics to the shared-nothing
//! boundary under test.
//!
//! Delay and duplication are how a sender's frames are delivered, so they
//! live in the sender's [`Coalescer`](crate::batch::Coalescer): each
//! control ↔ data coalescer sends its flushed frames through a delay line
//! whose decisions come from a per-link [`XorShift`](wtpg_rt::backoff::XorShift)
//! seeded by `FaultPlan::line_seed`, and whose due times come from the
//! instants its actor is stepped at. Under a virtual clock a run's faults
//! therefore repeat exactly, by seed.

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
    /// How long the node stays down, milliseconds; [`CrashPlan::FOREVER`]
    /// never lifts.
    pub down_ms: u64,
}

impl CrashPlan {
    /// A `down_ms` that never lifts: the node drops everything for good,
    /// a node that never answers again.
    pub const FOREVER: u64 = u64::MAX;
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

    /// The seed of one delay line: the plan's seed mixed with the direction
    /// (`dir` 1 towards data node `node`, 2 back) and the sending control
    /// `shard`, so no two lines of a run draw the same stream. Shard 0 mixes
    /// in nothing.
    pub(crate) fn line_seed(&self, dir: u64, node: usize, shard: usize) -> u64 {
        self.seed
            ^ dir.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (node as u64 + 1).wrapping_mul(0xff51_afd7_ed55_8ccd)
            ^ (shard as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
    fn every_line_of_a_run_draws_its_own_stream() {
        let plan = FaultPlan::flaky_links(9);
        let mut seeds = BTreeSet::new();
        for shard in 0..4 {
            for node in 0..8 {
                assert!(seeds.insert(plan.line_seed(1, node, shard)));
            }
        }
        for node in 0..8 {
            assert!(seeds.insert(plan.line_seed(2, node, 0)));
        }
    }
}
