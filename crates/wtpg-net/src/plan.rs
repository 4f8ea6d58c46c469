//! The validated description of one shared-nothing run.
//!
//! [`RunPlan::new`] is the only place a cell is refused or normalised. It
//! takes what a caller can say about a run — a [`NetConfig`], a
//! [`FaultPlan`], a [`Transport`], the catalog and the workload — and
//! either returns a [`PlanError`] naming the one rule the combination
//! breaks, or a plan holding every value the runtime derives before its
//! first thread exists: the effective client and shard counts, the
//! [`ShardMap`], the round-robin workload split and (open loop) the Poisson
//! arrival schedule dealt the same way. Of the [`Transport`] it keeps only the report label.
//!
//! Building a plan has no side effect: it reads the WAL directory's
//! listing and nothing else, so a rejected plan leaves no directory,
//! socket, thread or scheduler behind.

use std::path::{Path, PathBuf};

use wtpg_core::partition::Catalog;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_rt::shard::ShardMap;
use wtpg_workload::poisson_arrivals_us;

use crate::fault::FaultPlan;
use crate::runtime::NetConfig;
use crate::transport::Transport;

/// Why a combination of [`NetConfig`] and [`FaultPlan`] is not a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The MVCC snapshot plane with a kill fault: version chains are
    /// in-memory only, so a node restarted from its log would come back
    /// with empty chains and serve wrong snapshots. (A *crash* is fine —
    /// the actor's memory survives a message-drop window.)
    MvccWithKill,
    /// A kill fault under `Durability::None`: the node restarts *from
    /// disk*, so there must be a log to replay.
    KillWithoutLog,
    /// A log-keeping durability level without `NetConfig::wal_dir`.
    LogWithoutDir,
    /// The WAL directory already holds a run's logs or checkpoints. Logs
    /// open append-only and recovery replays everything it finds, so a
    /// second run into the same directory would recover both runs' records.
    WalDirNotFresh {
        /// The directory that was refused.
        dir: PathBuf,
        /// The first offending file name found in it.
        found: String,
    },
    /// The workload's transaction ids do not strictly ascend. Each client
    /// strides the workload in order, and a control shard's low-water mark
    /// rests on every client's ids ascending: an id below one already
    /// submitted would read as long retired.
    IdsNotAscending {
        /// The id that should have been the larger.
        prev: TxnId,
        /// The id that follows it.
        next: TxnId,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MvccWithKill => f.write_str(
                "the MVCC snapshot plane is incompatible with kill faults: \
                 version chains do not survive a restart-from-log",
            ),
            PlanError::KillWithoutLog => f.write_str(
                "a kill fault needs durability buffered or sync: \
                 the node restarts from its write-ahead log",
            ),
            PlanError::LogWithoutDir => {
                f.write_str("durability buffered or sync needs a wal dir to log into")
            }
            PlanError::WalDirNotFresh { dir, found } => write!(
                f,
                "wal dir {} already holds a run's state ({found}): \
                 use an empty or new directory",
                dir.display()
            ),
            PlanError::IdsNotAscending { prev, next } => write!(
                f,
                "transaction ids must strictly ascend: txn {} follows txn {}",
                next.0, prev.0
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One run the runtime is able to execute. See the module docs.
///
/// Only [`RunPlan::new`] makes one; the runtime's build, drive and assemble
/// phases read its fields and never re-check them.
pub struct RunPlan<'a> {
    pub(crate) cfg: &'a NetConfig,
    pub(crate) fault: &'a FaultPlan,
    pub(crate) catalog: &'a Catalog,
    pub(crate) specs: &'a [TxnSpec],
    /// The transport's report label.
    pub(crate) transport: &'static str,
    pub(crate) data_nodes: usize,
    /// Effective client count: never more clients than transactions.
    pub(crate) clients: usize,
    /// Conflict components decide how many control shards actually run.
    pub(crate) map: ShardMap,
    /// Where the data nodes' logs and snapshots go — `Some` exactly when
    /// the durability level keeps a log.
    pub(crate) wal_dir: Option<&'a Path>,
    /// Open loop: one shared Poisson schedule, one arrival per spec. Client
    /// c of N takes every N-th from c of both (`client::share`), so arrival
    /// i still drives spec i.
    pub(crate) arrivals: Option<Vec<u64>>,
}

/// The first log or snapshot in `dir` a previous run's data nodes would
/// have written, if any. A directory that cannot be listed (missing, most
/// often) holds nothing; if it is unusable for another reason, creating it
/// in the build phase reports the real I/O error.
fn leftover(dir: &Path) -> Option<String> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| {
            (name.starts_with("node") && name.ends_with(".wal")) || name.ends_with(".ckpt")
        })
        // `read_dir` order is the filesystem's; report a stable witness.
        .min()
}

impl<'a> RunPlan<'a> {
    /// Validates the combination and derives the run's fixed values.
    ///
    /// # Errors
    /// The one [`PlanError`] the combination breaks, checked in variant
    /// order.
    pub fn new(
        cfg: &'a NetConfig,
        fault: &'a FaultPlan,
        transport: &dyn Transport,
        catalog: &'a Catalog,
        specs: &'a [TxnSpec],
    ) -> Result<RunPlan<'a>, PlanError> {
        let logs = cfg.durability.requires_log();
        if cfg.mvcc && fault.kill.is_some() {
            return Err(PlanError::MvccWithKill);
        }
        if fault.kill.is_some() && !logs {
            return Err(PlanError::KillWithoutLog);
        }
        let wal_dir = match (logs, cfg.wal_dir.as_deref()) {
            (false, _) => None,
            (true, None) => return Err(PlanError::LogWithoutDir),
            (true, Some(dir)) => {
                if let Some(found) = leftover(dir) {
                    return Err(PlanError::WalDirNotFresh {
                        dir: dir.to_path_buf(),
                        found,
                    });
                }
                Some(dir)
            }
        };
        if let Some([a, b]) = specs.windows(2).find(|w| matches!(w, [a, b] if a.id >= b.id)) {
            return Err(PlanError::IdsNotAscending { prev: a.id, next: b.id });
        }

        let clients = cfg.clients.clamp(1, specs.len().max(1));
        let map = ShardMap::build(specs, cfg.shards.max(1));
        let arrivals = cfg
            .open_loop
            .map(|ol| poisson_arrivals_us(specs.len(), ol.lambda_tps, ol.seed));
        Ok(RunPlan {
            cfg,
            fault,
            catalog,
            specs,
            transport: transport.name(),
            data_nodes: catalog.num_nodes() as usize,
            clients,
            map,
            wal_dir,
            arrivals,
        })
    }

    /// Client actors the run will spawn.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Control shards the run will spawn.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::share;
    use crate::runtime::OpenLoop;
    use crate::transport::InProc;
    use wtpg_dur::Durability;
    use wtpg_rt::workload::pattern_specs;
    use wtpg_workload::Pattern;

    #[test]
    fn derived_values_follow_the_workload_and_the_log() {
        let (catalog, specs) =
            pattern_specs(Pattern::Clustered { groups: 2, hots_per_group: 4 }, 10, 3);
        let cfg = NetConfig {
            clients: 64,
            shards: 8,
            wal_dir: Some(PathBuf::from("/nonexistent/wtpg-plan-test")),
            open_loop: Some(OpenLoop {
                lambda_tps: 1000.0,
                seed: 1,
                inflight: 4,
            }),
            ..NetConfig::default()
        };
        let fault = FaultPlan::none();
        let plan = RunPlan::new(&cfg, &fault, &InProc, &catalog, &specs).expect("legal plan");
        assert_eq!(plan.clients(), 10, "never more clients than transactions");
        assert_eq!(plan.shards(), 2, "never more shards than conflict components");
        // Nothing is dealt out: each client strides the one workload and the
        // one schedule, and between them they cover every index once.
        let arrivals = plan.arrivals.as_deref().expect("open loop has a schedule");
        assert_eq!(arrivals.len(), specs.len());
        let ids = |c| {
            let mine = share(specs.len(), c, plan.clients());
            mine.map(|i| specs[i].id).collect::<Vec<_>>()
        };
        assert_eq!(ids(3), vec![specs[3].id], "ten clients, ten specs: one each");
        let mut dealt: Vec<_> = (0..10).flat_map(ids).collect();
        dealt.sort();
        assert_eq!(dealt, specs.iter().map(|s| s.id).collect::<Vec<_>>());
        assert_eq!(plan.wal_dir, None, "no log: the directory is dropped, not inspected");

        let logged = NetConfig {
            durability: Durability::Buffered,
            ..cfg.clone()
        };
        let plan = RunPlan::new(&logged, &fault, &InProc, &catalog, &specs).expect("legal plan");
        assert_eq!(plan.wal_dir, logged.wal_dir.as_deref(), "a missing dir is fresh");
    }
}
