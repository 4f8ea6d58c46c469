//! One description of a shared-nothing cell for the command line: the
//! flags `wtpg net` and `wtpg load` share, parsed once, and the inputs of
//! `wtpg_net::run_cell_load` built from them. What the two commands do
//! *not* share (the fault plan and report of `net`; λ, SLO and window tap
//! of `load`) stays in their own files and reaches the parser as a
//! callback.
//!
//! Nothing here judges whether the combination is a legal run — that is
//! `wtpg_net::RunPlan`'s job, and its `PlanError` is what the user sees.

use std::path::PathBuf;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::TxnSpec;
use wtpg_net::{Durability, FaultPlan, InProc, NetConfig, Tcp, Transport};
use wtpg_rt::SendScheduler;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{Pattern, ReadMix};

/// The shared flags, as typed.
pub(crate) struct CellArgs {
    pub sched: String,
    pub clients: usize,
    /// `None` lets the command pick its own default batch size.
    pub txns: Option<usize>,
    pub pattern: u32,
    pub hots: u32,
    pub groups: u32,
    pub seed: u64,
    pub transport: String,
    pub chunk: u64,
    pub k: usize,
    pub keeptime: u64,
    pub shards: usize,
    pub durability: Option<String>,
    pub wal_dir: Option<String>,
    pub read_mix: f64,
    pub read_theta: f64,
    pub mvcc: bool,
}

/// Parses `args`: the shared flags land in the returned [`CellArgs`]; any
/// other flag is offered to `extra(flag, take)` — `take()` yields the
/// flag's value — which answers `false` for a flag it does not know either.
pub(crate) fn parse(
    args: &[String],
    mut extra: impl FnMut(&str, &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>,
) -> Result<CellArgs, String> {
    let mut a = CellArgs {
        sched: "chain".into(),
        clients: 4,
        txns: None,
        pattern: 1,
        hots: 8,
        groups: 4,
        seed: 42,
        transport: "inproc".into(),
        chunk: 1000,
        k: 2,
        keeptime: 5000,
        shards: 1,
        durability: None,
        wal_dir: None,
        read_mix: 0.0,
        read_theta: 0.0,
        mvcc: false,
    };
    let mut i = 0;
    while let Some(flag) = args.get(i) {
        let mut take = || -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--sched" | "--scheduler" => a.sched = take()?,
            "--clients" => a.clients = value(flag, take()?)?,
            "--txns" => a.txns = Some(value(flag, take()?)?),
            "--pattern" => a.pattern = value(flag, take()?)?,
            "--hots" => a.hots = value(flag, take()?)?,
            "--groups" => a.groups = value(flag, take()?)?,
            "--seed" => a.seed = value(flag, take()?)?,
            "--transport" => a.transport = take()?,
            "--chunk" => a.chunk = value(flag, take()?)?,
            "--k" => a.k = value(flag, take()?)?,
            "--keeptime" => a.keeptime = value(flag, take()?)?,
            "--shards" => a.shards = value(flag, take()?)?,
            "--durability" => a.durability = Some(take()?),
            "--wal-dir" => a.wal_dir = Some(take()?),
            "--read-mix" => a.read_mix = value(flag, take()?)?,
            "--read-theta" => a.read_theta = value(flag, take()?)?,
            "--mvcc" => a.mvcc = true,
            other => {
                if !extra(other, &mut take)? {
                    return Err(format!("unknown option {other:?}"));
                }
            }
        }
        i += 1;
    }
    if !(0.0..=1.0).contains(&a.read_mix) {
        return Err("--read-mix must be within 0..=1".into());
    }
    if a.read_theta < 0.0 {
        return Err("--read-theta must be non-negative".into());
    }
    Ok(a)
}

/// Parses a numeric flag value.
pub(crate) fn value<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag}"))
}

fn pattern_of(pattern: u32, hots: u32, groups: u32) -> Result<Pattern, String> {
    match pattern {
        1 => Ok(Pattern::One),
        2 => Ok(Pattern::Two { num_hots: hots }),
        3 => Ok(Pattern::Three { num_hots: hots }),
        // The sharding ablation: `--groups` disjoint conflict components,
        // each with `--hots` private hot partitions.
        4 => Ok(Pattern::Clustered {
            groups,
            hots_per_group: hots,
        }),
        other => Err(format!("--pattern must be 1, 2, 3 or 4, got {other}")),
    }
}

fn transport_of(name: &str) -> Result<&'static dyn Transport, String> {
    match name {
        "inproc" => Ok(&InProc),
        "tcp" => Ok(&Tcp),
        other => Err(format!("--transport must be inproc or tcp, got {other:?}")),
    }
}

/// A per-run WAL directory under the system temp dir, removed on drop.
struct TempWalDir(PathBuf);

impl Drop for TempWalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything `run_cell_load` takes, built from the shared flags.
pub(crate) struct Cell {
    /// The shared knobs filled in, everything else at its default; a
    /// command overrides what is its own with struct-update syntax.
    pub cfg: NetConfig,
    pub fault: FaultPlan,
    pub transport: &'static dyn Transport,
    pub catalog: Catalog,
    pub specs: Vec<TxnSpec>,
    pub pattern: Pattern,
    pub sched: SchedRecipe,
    _temp_wal: Option<TempWalDir>,
}

/// How to make the cell's scheduler; each control shard makes its own.
pub(crate) struct SchedRecipe {
    name: String,
    k: usize,
    keeptime: u64,
}

impl SchedRecipe {
    pub(crate) fn make(&self) -> SendScheduler {
        sched_by_name(&self.name, self.k, self.keeptime)
            .expect("scheduler name checked when the cell was built")
    }
}

impl CellArgs {
    /// Builds the cell: `txns` pattern transactions under `fault`.
    ///
    /// Two defaults fill in what the flags left out. A kill fault without
    /// `--durability` runs under `sync` (it cannot heal without a log), and
    /// a log-keeping level without `--wal-dir` gets a fresh per-run temp
    /// directory, removed when the returned [`Cell`] drops.
    pub(crate) fn build(&self, fault: FaultPlan, txns: usize) -> Result<Cell, String> {
        let pattern = pattern_of(self.pattern, self.hots, self.groups)?;
        let transport = transport_of(&self.transport)?;
        if sched_by_name(&self.sched, self.k, self.keeptime).is_none() {
            return Err(format!("unknown scheduler {:?}", self.sched));
        }
        let durability = match self.durability.as_deref() {
            Some(s) => Durability::parse(s)
                .ok_or_else(|| format!("--durability must be none, buffered or sync, got {s:?}"))?,
            None if fault.kill.is_some() => Durability::Sync,
            None => Durability::None,
        };
        let mut temp_wal = None;
        let wal_dir = match &self.wal_dir {
            Some(d) => Some(PathBuf::from(d)),
            None if durability.requires_log() => {
                let dir = std::env::temp_dir().join(format!("wtpg-wal-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                temp_wal = Some(TempWalDir(dir.clone()));
                Some(dir)
            }
            None => None,
        };
        let (catalog, mut specs) = pattern_specs(pattern, txns, self.seed);
        // `fraction == 0` is a guaranteed no-op, so plain cells stay untouched.
        ReadMix::skewed(self.read_mix, self.read_theta).apply(&catalog, &mut specs, self.seed);
        Ok(Cell {
            cfg: NetConfig {
                clients: self.clients,
                chunk_units: self.chunk,
                shards: self.shards,
                durability,
                wal_dir,
                mvcc: self.mvcc,
                ..NetConfig::default()
            },
            fault,
            transport,
            catalog,
            specs,
            pattern,
            sched: SchedRecipe {
                name: self.sched.clone(),
                k: self.k,
                keeptime: self.keeptime,
            },
            _temp_wal: temp_wal,
        })
    }
}
