//! A whole run — one control shard, two data nodes, two clients — stepped
//! single-threaded by the runtime's own executor (`actor::step_all`), with a
//! seeded `XorShift` picking which ready actor moves next: seeded
//! interleavings of the actor protocol. A sharded run adds a second control
//! shard and the router that deals the shared control inbox to both, over a
//! workload of two conflict components.
//!
//! Every link is an in-process queue, and each actor moves as it does in a
//! run: it takes its mail while it has some, runs `before_block` once its
//! queue is empty, then sleeps until mail comes or its wait runs out. At each
//! step the generator picks one actor that can move. When none can, a
//! virtual clock jumps to the earliest wait and those actors can move, by
//! `idle`. Nothing else moves the clock, and the flush window is an hour, so
//! real time never changes how messages are framed. Once every control shard
//! stops, the run closes a router's inbox and sends each data node
//! `Shutdown`, as the runtime does.
//!
//! A faulted run puts `FaultPlan::flaky_links(seed)`'s link faults on every
//! control ↔ data coalescer: frames are delayed and duplicated by a line
//! seeded from the run's seed, due at instants of the same virtual clock,
//! so a faulted seed repeats its run exactly. A failing seed is reported as
//! the `run_seed` call that repeats it.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtpg_core::certify::certify_history;
use wtpg_core::partition::Catalog;
use wtpg_core::txn::AccessMode;
use wtpg_net::actor::{step_all, Clock, Slot, Step};
use wtpg_net::client::ClientActor;
use wtpg_net::control::{ControlActor, ControlParams};
use wtpg_net::data::{DataActor, DataNodeParams};
use wtpg_net::runtime::Router;
use wtpg_net::transport::{Inbox, Mailbox};
use wtpg_net::{FaultPlan, InProc, Msg, NetConfig, NetError, Transport};
use wtpg_obs::window::metric;
use wtpg_obs::Registry;
use wtpg_rt::backoff::XorShift;
use wtpg_rt::sched_by_name;
use wtpg_rt::shard::{merge_audits, ShardMap};
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::Pattern;

/// Steps one run may take: several times what a run needs (a sharded,
/// faulted run, the longest, takes under 1,200).
const BUDGET: usize = 3_000;

/// Time that moves only when every actor sleeps: to the earliest wait.
struct Virtual(Instant);

impl Clock for Virtual {
    fn now(&mut self) -> Instant {
        self.0
    }

    fn wait_until(&mut self, until: Option<Instant>) -> Result<(), NetError> {
        let stuck = || NetError::Protocol("every actor sleeps until mail none sends".into());
        self.0 = until.ok_or_else(stuck)?;
        Ok(())
    }
}

/// What a run left behind that tells seeds apart, and the link faults it
/// met.
struct Ran {
    history: String,
    dups: u64,
    delays: u64,
}

/// Steps one whole unsharded run of `sched` in the order `seed` picks —
/// with link faults seeded by `seed` too if `faulted` — then checks what it
/// left behind (see [`run`]).
fn run_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    run(1, sched, seed, faulted)
}

/// [`run_seed`] with two control shards and a router, over two conflict
/// components.
fn run_sharded_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    run(2, sched, seed, faulted)
}

/// Steps one whole run of `sched` on `shards` control shards (1 or 2) in
/// the order `seed` picks, then checks what it left behind: every
/// transaction committed, the merged control audit replay-certified, and
/// every declared write unit in the stores.
fn run(shards: usize, sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    let pattern = if shards == 1 {
        Pattern::Two { num_hots: 4 }
    } else {
        Pattern::Clustered { groups: 2, hots_per_group: 4 }
    };
    let (paper, specs) = pattern_specs(pattern, 24, 11);
    let map = ShardMap::build(&specs, shards);
    if map.shards() != shards {
        return Err(format!("{} shards, not {shards}", map.shards()));
    }
    let catalog = Catalog::new(paper.partitions().map(|p| paper.size(p)).collect(), 2);
    let cfg = NetConfig::default();
    let watchdog = Duration::from_millis(cfg.watchdog_ms);
    let reg = Registry::new();
    let f = InProc.build(2, 2).map_err(|e| e.to_string())?;
    let fault = if faulted { FaultPlan::flaky_links(seed) } else { FaultPlan::none() };
    // One shard reads the fabric's control inbox; two read queues the
    // router fills from it.
    let shard_inboxes: Vec<Inbox> = if shards == 1 {
        vec![Arc::clone(&f.control_inbox)]
    } else {
        (0..shards).map(|_| Mailbox::queue()).collect()
    };

    // A four-deep admission window under six-deep clients, and eight-message
    // frames: the backlog is used and a burst can split across frames.
    let mut controls = Vec::new();
    for (si, inbox) in shard_inboxes.iter().enumerate() {
        let params = ControlParams {
            sched: sched_by_name(sched, 2, 2000).ok_or("unknown scheduler")?,
            clients: 2,
            retry: cfg.retry,
            watchdog,
            batch_max: 8,
            batch_window: Duration::from_secs(3600),
            admit_window: 4,
            shard: si,
            fault,
            ckpt: None,
            stream: None,
            reg: &reg,
            mvcc: None,
        };
        let shard =
            ControlActor::start(params, &catalog, cfg.chunk_units, &f.to_data, &f.to_clients);
        controls.push(Slot::new(Ok(shard), inbox));
    }
    let router = Router::new(&map, &shard_inboxes, &reg);
    let mut router = (shards > 1).then(|| Slot::new(Ok(router), &f.control_inbox));
    let mut data = [0, 1].map(|n: usize| {
        let params = DataNodeParams {
            catalog: &catalog,
            node: n as u32,
            fault,
            batch_max: 8,
            log: None,
            reg: &reg,
            mvcc: None,
        };
        Slot::new(DataActor::start(params, &f.data_to_control[n]), &f.data_inboxes[n])
    });
    let mut clients = [0, 1].map(|c: usize| {
        let to_control = &f.client_to_control[c];
        let client = ClientActor::start(c as u32, 2, &specs, None, to_control, watchdog, 6, &reg);
        Slot::new(Ok(client), &f.client_inboxes[c])
    });

    let mut rng = XorShift::new(seed);
    let mut steps = 0;
    let pick = |slots: &[&mut dyn Step], now: Instant| {
        steps += 1;
        if steps > BUDGET {
            return Err(NetError::Protocol(format!("no end within {BUDGET} steps")));
        }
        let ready: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].ready(now)).collect();
        Ok((!ready.is_empty()).then(|| ready[rng.next_below(ready.len() as u64) as usize]))
    };
    let mut shut_down = false;
    let teardown = |slots: &[&mut dyn Step]| {
        if !shut_down && slots[..shards].iter().all(|s| s.ended().is_some()) {
            shut_down = true;
            if shards > 1 {
                f.control_inbox.close();
            }
            for tx in &f.to_data {
                tx.send(&Msg::Shutdown);
            }
        }
    };
    {
        // Control shards first, as the teardown reads them; then the router,
        // the data nodes and the clients.
        let mut slots: Vec<&mut dyn Step> = Vec::new();
        slots.extend(controls.iter_mut().map(|s| s as &mut dyn Step));
        slots.extend(router.iter_mut().map(|s| s as &mut dyn Step));
        slots.extend(data.iter_mut().map(|s| s as &mut dyn Step));
        slots.extend(clients.iter_mut().map(|s| s as &mut dyn Step));
        let mut clock = Virtual(Instant::now());
        step_all(&mut slots, &mut clock, pick, teardown).map_err(|e| e.to_string())?;
    }

    if let Some(router) = router {
        router.outcome().map_err(|e| format!("router: {e}"))?;
    }
    let (mut audits, mut mode) = (Vec::new(), None);
    for (si, control) in controls.into_iter().enumerate() {
        let out = control.outcome().map_err(|e| format!("control {si}: {e}"))?;
        mode = Some(out.mode);
        audits.push(out.audit);
    }
    let audit = merge_audits(audits).map_err(|v| format!("merge: {v:?}"))?;
    if audit.counters.commits != specs.len() as u64 {
        return Err(format!("{} of {} committed", audit.counters.commits, specs.len()));
    }
    let mode = mode.ok_or("no control shard")?;
    certify_history(&audit.history, &audit.specs, mode)
        .map_err(|v| format!("certification: {v:?}"))?;
    let expected: u64 = specs
        .iter()
        .flat_map(|t| t.steps())
        .filter(|st| st.mode == AccessMode::Write)
        .map(|st| st.actual_cost.units())
        .sum();
    let (mut units, mut cells) = (0, 0);
    for d in data {
        let o = d.outcome().map_err(|e| format!("data node: {e}"))?;
        (units, cells) = (units + o.write_units, cells + o.cell_sum);
    }
    if (units, cells) != (expected, expected) {
        return Err(format!("stores hold {units} units, {cells} in cells; {expected} declared"));
    }
    let totals = reg.totals();
    let count = |name| totals.get(name).copied().unwrap_or(0);
    Ok(Ran {
        history: format!("{:?}", audit.history),
        dups: count(metric::FAULT_DUPS),
        delays: count(metric::FAULT_DELAYS),
    })
}

/// Runs `seeds` seeds × {chain, k2} of `shards` shards; panics with the
/// failing seeds' repro lines. Returns, per scheduler, how many distinct
/// histories the seeds gave, and the faults met in all.
fn explore(shards: usize, seeds: u64, faulted: bool) -> (Vec<(&'static str, usize)>, u64, u64) {
    let (mut failures, mut distinct, mut dups, mut delays) = (Vec::new(), Vec::new(), 0, 0);
    let repro = if shards == 1 { "run_seed" } else { "run_sharded_seed" };
    for sched in ["chain", "k2"] {
        let mut histories = BTreeSet::new();
        for seed in 1..=seeds {
            match run(shards, sched, seed, faulted) {
                Ok(ran) => {
                    histories.insert(ran.history);
                    (dups, delays) = (dups + ran.dups, delays + ran.delays);
                }
                Err(e) => failures.push(format!("{repro}({sched:?}, {seed}, {faulted}): {e}")),
            }
        }
        distinct.push((sched, histories.len()));
    }
    let n = 2 * seeds;
    assert!(failures.is_empty(), "{} of {n} failed:\n{}", failures.len(), failures.join("\n"));
    (distinct, dups, delays)
}

#[test]
fn seeded_interleavings_stop_certify_and_conserve() {
    let (distinct, dups, delays) = explore(1, 200, false);
    assert_eq!((dups, delays), (0, 0), "no link faults without a plan");
    // The seed must steer the run: one schedule for every seed explores
    // nothing.
    for (sched, n) in distinct {
        assert!(n >= 190, "{sched}: 200 seeds gave only {n} distinct histories");
    }
}

#[test]
fn seeded_interleavings_under_link_faults_stop_certify_and_conserve() {
    let (distinct, dups, delays) = explore(1, 200, true);
    assert!(dups > 0 && delays > 0, "{dups} duplicated and {delays} delayed frames");
    for (sched, n) in distinct {
        assert!(n >= 190, "{sched}: 200 faulted seeds gave only {n} distinct histories");
    }
}

#[test]
fn sharded_interleavings_merge_certify_and_conserve() {
    let (distinct, dups, delays) = explore(2, 100, false);
    assert_eq!((dups, delays), (0, 0), "no link faults without a plan");
    for (sched, n) in distinct {
        assert!(n >= 95, "{sched}: 100 sharded seeds gave only {n} distinct histories");
    }
}

#[test]
fn sharded_interleavings_under_link_faults_merge_certify_and_conserve() {
    let (distinct, dups, delays) = explore(2, 100, true);
    assert!(dups > 0 && delays > 0, "{dups} duplicated and {delays} delayed frames");
    for (sched, n) in distinct {
        assert!(n >= 95, "{sched}: 100 faulted sharded seeds gave only {n} distinct histories");
    }
}

/// One line per seed — `sched faulted seed digest` — over seeds 1–50 ×
/// {chain, k2} × {fault-free, faulted}, the digest being the FNV-1a hash of
/// the run's history string.
const DIGESTS: &str = include_str!("golden/interleave_digests.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins concurrent decisions by value: a change to a book's data structure
/// that reorders any decision, message or wake shows as a changed digest.
#[test]
fn seeded_interleavings_match_the_committed_digests() {
    let mut actual = String::new();
    for faulted in [false, true] {
        for sched in ["chain", "k2"] {
            for seed in 1..=50 {
                let ran = run_seed(sched, seed, faulted)
                    .unwrap_or_else(|e| panic!("run_seed({sched:?}, {seed}, {faulted}): {e}"));
                actual += &format!(
                    "{sched} {faulted} {seed} {:016x}\n",
                    fnv1a(ran.history.as_bytes())
                );
            }
        }
    }
    if actual != DIGESTS {
        let path = std::env::temp_dir().join("interleave_digests.actual.txt");
        std::fs::write(&path, &actual).expect("write the observed digests");
        panic!(
            "interleaving histories drifted from tests/golden/interleave_digests.txt; \
             observed digests written to {}",
            path.display()
        );
    }
}

#[test]
fn a_faulted_seed_repeats_its_history_exactly() {
    type Runner = fn(&str, u64, bool) -> Result<Ran, String>;
    let runners: [(&str, Runner); 2] =
        [("run_seed", run_seed), ("run_sharded_seed", run_sharded_seed)];
    for (name, runner) in runners {
        for sched in ["chain", "k2"] {
            let run = || runner(sched, 17, true).unwrap_or_else(|e| panic!("{name} {sched}: {e}"));
            let (first, again) = (run(), run());
            let (a, b) = (&first.history, &again.history);
            assert!(first.dups + first.delays > 0, "{name} {sched}: seed 17 met no fault");
            assert_eq!(a, b, "{name} {sched}: seed 17 ran twice differently");
            assert_eq!((first.dups, first.delays), (again.dups, again.delays));
        }
    }
}
