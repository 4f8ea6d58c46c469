//! A whole run — one control shard, two data nodes, two clients — stepped
//! single-threaded by the runtime's own executor (`actor::step_all`), with a
//! seeded `XorShift` picking which ready actor moves next: seeded
//! interleavings of the actor protocol.
//!
//! Every link is an in-process queue, and each actor moves as it does in a
//! run: it takes its mail while it has some, runs `before_block` once its
//! queue is empty, then sleeps until mail comes or its wait runs out. At each
//! step the generator picks one actor that can move. When none can, a
//! virtual clock jumps to the earliest wait and those actors can move, by
//! `idle`. Nothing else moves the clock, and the flush window is an hour, so
//! real time never changes how messages are framed. Once control stops, the
//! run sends each data node `Shutdown`, as the runtime does.
//!
//! A faulted run puts `FaultPlan::flaky_links(seed)`'s link faults on every
//! control ↔ data coalescer: frames are delayed and duplicated by a line
//! seeded from the run's seed, due at instants of the same virtual clock,
//! so a faulted seed repeats its run exactly. A failing seed is reported as
//! the `run_seed` call that repeats it.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use wtpg_core::certify::certify_history;
use wtpg_core::partition::Catalog;
use wtpg_core::txn::AccessMode;
use wtpg_net::actor::{step_all, Clock, Slot, Step};
use wtpg_net::client::ClientActor;
use wtpg_net::control::{ControlActor, ControlParams};
use wtpg_net::data::{DataActor, DataNodeParams};
use wtpg_net::{FaultPlan, InProc, Msg, NetConfig, NetError, Transport};
use wtpg_obs::window::metric;
use wtpg_obs::Registry;
use wtpg_rt::backoff::XorShift;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::Pattern;

/// Steps one run may take: about ten times what a run needs.
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

/// Steps one whole run of `sched` in the order `seed` picks — with link
/// faults seeded by `seed` too if `faulted` — then checks what it left
/// behind: every transaction committed, the control audit replay-certified,
/// and every declared write unit in the stores.
fn run_seed(sched: &str, seed: u64, faulted: bool) -> Result<Ran, String> {
    let (paper, specs) = pattern_specs(Pattern::Two { num_hots: 4 }, 24, 11);
    let catalog = Catalog::new(paper.partitions().map(|p| paper.size(p)).collect(), 2);
    let cfg = NetConfig::default();
    let watchdog = Duration::from_millis(cfg.watchdog_ms);
    let reg = Registry::new();
    let f = InProc.build(2, 2).map_err(|e| e.to_string())?;
    let fault = if faulted { FaultPlan::flaky_links(seed) } else { FaultPlan::none() };

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
        fault,
        ckpt: None,
        stream: None,
        reg: &reg,
        mvcc: None,
    };
    let shard = ControlActor::start(params, &catalog, cfg.chunk_units, &f.to_data, &f.to_clients);
    let mut control = Slot::new(Ok(shard), &f.control_inbox);
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
        if !shut_down && slots[0].ended().is_some() {
            shut_down = true;
            for tx in &f.to_data {
                tx.send(&Msg::Shutdown);
            }
        }
    };
    {
        let [d0, d1] = &mut data;
        let [c0, c1] = &mut clients;
        let mut slots: [&mut dyn Step; 5] = [&mut control, d0, d1, c0, c1];
        let mut clock = Virtual(Instant::now());
        step_all(&mut slots, &mut clock, pick, teardown).map_err(|e| e.to_string())?;
    }

    let out = control.outcome().map_err(|e| format!("control: {e}"))?;
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
        history: format!("{:?}", out.audit.history),
        dups: count(metric::FAULT_DUPS),
        delays: count(metric::FAULT_DELAYS),
    })
}

/// Runs 200 seeds × {chain, k2}; panics with the failing seeds' repro lines.
/// Returns, per scheduler, how many distinct histories the seeds gave, and
/// the faults met in all.
fn explore(faulted: bool) -> (Vec<(&'static str, usize)>, u64, u64) {
    let (mut failures, mut distinct, mut dups, mut delays) = (Vec::new(), Vec::new(), 0, 0);
    for sched in ["chain", "k2"] {
        let mut histories = BTreeSet::new();
        for seed in 1..=200 {
            match run_seed(sched, seed, faulted) {
                Ok(ran) => {
                    histories.insert(ran.history);
                    (dups, delays) = (dups + ran.dups, delays + ran.delays);
                }
                Err(e) => failures.push(format!("run_seed({sched:?}, {seed}, {faulted}): {e}")),
            }
        }
        distinct.push((sched, histories.len()));
    }
    assert!(failures.is_empty(), "{} of 400 failed:\n{}", failures.len(), failures.join("\n"));
    (distinct, dups, delays)
}

#[test]
fn seeded_interleavings_stop_certify_and_conserve() {
    let (distinct, dups, delays) = explore(false);
    assert_eq!((dups, delays), (0, 0), "no link faults without a plan");
    // The seed must steer the run: one schedule for every seed explores
    // nothing.
    for (sched, n) in distinct {
        assert!(n >= 190, "{sched}: 200 seeds gave only {n} distinct histories");
    }
}

#[test]
fn seeded_interleavings_under_link_faults_stop_certify_and_conserve() {
    let (distinct, dups, delays) = explore(true);
    assert!(dups > 0 && delays > 0, "{dups} duplicated and {delays} delayed frames");
    for (sched, n) in distinct {
        assert!(n >= 190, "{sched}: 200 faulted seeds gave only {n} distinct histories");
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
    for sched in ["chain", "k2"] {
        let run = || run_seed(sched, 17, true).unwrap_or_else(|e| panic!("{sched}: {e}"));
        let (first, again) = (run(), run());
        assert!(first.dups + first.delays > 0, "{sched}: seed 17 met no fault");
        assert_eq!(first.history, again.history, "{sched}: seed 17 ran twice differently");
        assert_eq!((first.dups, first.delays), (again.dups, again.delays));
    }
}
