//! End-to-end stress: ≥500-transaction runs over both transports, with and
//! without injected faults, must commit everything, replay-certify, and
//! conserve every committed milli-object — the issue's acceptance bar.

#![expect(
    clippy::expect_used,
    clippy::panic,
    reason = "test code: a failed check is a failed test"
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the wedge tests time how soon a run ends on the wall clock"
)]

use std::sync::mpsc;
use std::time::{Duration, Instant};

use wtpg_net::{
    run_cell, run_cell_load, CrashPlan, Durability, FaultPlan, InProc, KillPlan, LinkFaults,
    NetConfig, NetError, NetReport, OpenLoop, Tcp, Transport,
};
use wtpg_rt::backoff::Backoff;
use wtpg_rt::sched_by_name;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::{poisson_arrivals_us, Pattern};

fn stress(name: &str, txns: usize, transport: &dyn Transport, fault: &FaultPlan) -> NetReport {
    let (catalog, specs) = pattern_specs(Pattern::One, txns, 11);
    let cfg = NetConfig::default();
    let r = run_cell(
        &cfg,
        &|| sched_by_name(name, 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        transport,
        fault,
    )
        .expect("stress run completes cleanly");
    assert_eq!(r.committed as usize, txns, "{name} lost transactions");
    assert!(r.certified, "history must replay-certify");
    assert!(r.store_consistent, "conservation failed: {r:?}");
    r
}

#[test]
fn inproc_chain_500_with_faults_certifies() {
    let r = stress(
        "chain",
        500,
        &InProc,
        &FaultPlan::flaky_with_crash(21, 0),
    );
    assert!(r.dup_deliveries > 0, "dup injection must fire: {r:?}");
    assert!(r.crash_drops > 0, "crash window must drop messages: {r:?}");
}

#[test]
fn tcp_chain_500_with_faults_certifies() {
    let r = stress("chain", 500, &Tcp, &FaultPlan::flaky_with_crash(22, 0));
    assert!(r.bytes_sent > 0 && r.bytes_received > 0, "TCP must move bytes");
    assert!(r.dup_deliveries > 0 && r.delayed_deliveries > 0, "{r:?}");
    assert!(r.crash_drops > 0, "crash window must drop messages: {r:?}");
}

#[test]
fn tcp_kwtpg_500_with_faults_certifies() {
    let r = stress("k2", 500, &Tcp, &FaultPlan::flaky_with_crash(23, 0));
    assert!(r.certify_eq_checks >= r.certify_grants, "{r:?}");
    assert!(r.crash_drops > 0, "crash window must drop messages: {r:?}");
}

/// Every name `sched_by_name` maps runs on the one wall-clock plane — the
/// matrix tests range over three of them; G-WTPG, ASL, the two hybrids and
/// NODC (whose history certifies in exempt mode, and whose additive updates
/// still conserve units) get their concurrent run here.
#[test]
fn every_named_scheduler_runs_clean_in_proc() {
    for name in ["chain", "k2", "gwtpg", "asl", "c2pl", "chain-c2pl", "k2-c2pl", "nodc"] {
        stress(name, 100, &InProc, &FaultPlan::none());
    }
}

#[test]
fn tcp_clean_run_reports_wire_traffic() {
    let r = stress("c2pl", 200, &Tcp, &FaultPlan::none());
    assert_eq!(r.dup_deliveries, 0);
    assert_eq!(r.crash_drops, 0);
    assert_eq!(
        r.frames_sent, r.frames_received,
        "every frame written is read: {r:?}"
    );
    assert_eq!(
        r.bytes_sent, r.bytes_received,
        "and every byte of it is counted where it is decoded: {r:?}"
    );
    // Loopback TCP costs real bytes; in-proc the same workload costs none.
    assert!(r.bytes_per_commit() > 0.0);
    assert!(
        r.msgs_per_commit() < 10.0,
        "pipelining + batching must stay under 10 msgs/commit: {:.2}",
        r.msgs_per_commit()
    );
    assert!(r.batched_inner > 0, "TCP runs must coalesce frames: {r:?}");
}

/// The open-loop client sheds on what its inbox has read and sleeps until its
/// next arrival is due; over TCP both are its own socket's, read after one
/// `ppoll` as long as the gap. At a rate the box sustains with room to spare
/// that path must deliver every ack: everything offered commits and nothing
/// is shed.
#[test]
fn tcp_open_loop_commits_everything_it_offers() {
    let (catalog, specs) = pattern_specs(Pattern::One, 300, 11);
    let cfg = NetConfig {
        open_loop: Some(OpenLoop {
            lambda_tps: 1000.0,
            seed: 11,
            inflight: 256,
        }),
        stream_certify: true,
        ..NetConfig::default()
    };
    let r = run_cell(
        &cfg,
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &Tcp,
        &FaultPlan::none(),
    )
    .expect("open-loop TCP run completes cleanly");
    assert_eq!(r.offered, 300);
    assert_eq!(r.shed, 0, "a sustainable rate sheds nothing: {r:?}");
    assert_eq!(r.committed, 300);
    assert!(r.certified && r.store_consistent, "{r:?}");
    assert_eq!(r.frames_sent, r.frames_received, "{r:?}");
}

/// Sixteen clients share a slow Poisson stream, so each one's window sits
/// empty for over 250 ms between its own arrivals, and control often has
/// nothing in flight between the run's: every actor may sleep until mail
/// while a client sleeps until its next arrival. That is no wedge — a
/// client's arrival is a deadline it holds — so the run must end clean.
/// (A silence watchdog once tripped across such gaps unless each ack came
/// back before the client's next wake-up; delaying every control ↔ data
/// message up to 5 ms makes sure none does.)
#[test]
fn a_sparse_open_loop_client_finds_no_false_wedge() {
    let (txns, clients, lambda_tps, seed) = (64, 16, 40.0, 9);
    let arrivals = poisson_arrivals_us(txns, lambda_tps, seed);
    let gaps = |step: usize, from: usize| -> Vec<u64> {
        let mine: Vec<u64> = arrivals.iter().skip(from).step_by(step).copied().collect();
        mine.windows(2).map(|w| w[1] - w[0]).collect()
    };
    assert!(arrivals[0] < 125_000 && gaps(1, 0).iter().all(|&g| g < 125_000));
    assert!((0..clients).flat_map(|c| gaps(clients, c)).any(|g| g > 250_000));
    let (catalog, specs) = pattern_specs(Pattern::One, txns, 11);
    let cfg = NetConfig {
        clients,
        open_loop: Some(OpenLoop {
            lambda_tps,
            seed,
            inflight: 4,
        }),
        ..NetConfig::default()
    };
    let r = run_cell(
        &cfg,
        &|| sched_by_name("chain", 2, 2000).expect("known scheduler"),
        &catalog,
        &specs,
        &InProc,
        &FaultPlan {
            link: LinkFaults {
                delay_prob_pct: 100,
                max_delay_us: 5_000,
                dup_prob_pct: 0,
            },
            ..FaultPlan::none()
        },
    )
    .expect("a sparse open loop completes cleanly");
    assert_eq!((r.offered, r.shed, r.committed), (64, 0, 64), "{r:?}");
    assert!(r.certified && r.store_consistent, "{r:?}");
}

/// A dark window that opens on the run's `Shutdown` itself: node 0's fault
/// fires after exactly as many messages as the workload has steps homed on
/// it, so — barring a redelivery — the triggering message is the teardown
/// broadcast. The node must notice and exit; at `00db9ad` a crash window
/// swallowed the `Shutdown`, went back to a blocking pop and wedged
/// `run_cell` for good (the kill window always remembered it). The cell runs
/// on a helper thread so a wedge fails the test instead of hanging the suite.
fn window_opens_on_shutdown(tcp: bool, kill: bool) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (catalog, specs) = pattern_specs(Pattern::One, 12, 7);
        let after_msgs = specs
            .iter()
            .flat_map(|s| s.steps())
            .filter(|st| catalog.node_of(st.partition) == 0)
            .count() as u64;
        let dir = std::env::temp_dir().join(format!(
            "wtpg-net-stress-{}-{}",
            std::process::id(),
            if tcp { "tcp" } else { "inproc" }
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fault = FaultPlan::none();
        let mut cfg = NetConfig::default();
        if kill {
            fault.kill = Some(KillPlan { node: Some(0), after_msgs, down_ms: 30 });
            cfg.durability = Durability::Buffered;
            cfg.wal_dir = Some(dir.clone());
        } else {
            fault.crash = Some(CrashPlan { node: 0, after_msgs, down_ms: 30 });
        }
        let sched = || sched_by_name("chain", 2, 2000).expect("known scheduler");
        let transport: &dyn Transport = if tcp { &Tcp } else { &InProc };
        let r = run_cell(&cfg, &sched, &catalog, &specs, transport, &fault);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = tx.send(r);
    });
    let r = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("run_cell wedged: a down data node swallowed the run's Shutdown")
        .expect("the cell completes cleanly");
    assert_eq!(r.committed, 12);
    assert!(r.certified && r.store_consistent, "{r:?}");
    assert!(r.crash_drops >= 1, "the window must have opened: {r:?}");
}

#[test]
fn crash_window_opening_on_shutdown_does_not_wedge_inproc() {
    window_opens_on_shutdown(false, false);
}

#[test]
fn kill_window_opening_on_shutdown_does_not_wedge_inproc() {
    window_opens_on_shutdown(false, true);
}

#[test]
fn crash_window_opening_on_shutdown_does_not_wedge_tcp() {
    window_opens_on_shutdown(true, false);
}

#[test]
fn kill_window_opening_on_shutdown_does_not_wedge_tcp() {
    window_opens_on_shutdown(true, true);
}

/// A run whose data node 0 drops everything for good, after its fifth
/// message, under a 3-attempt redelivery budget (1 + 2 + 4 + 4 ms): control
/// parks the node's orders past the budget, nothing is due anywhere, and
/// the run is wedged. Returns the error and how long the run took.
fn dead_node_run(
    transport: &dyn Transport,
    obs: Option<std::sync::Arc<dyn wtpg_obs::Observer>>,
) -> (NetError, Duration) {
    let (catalog, specs) = pattern_specs(Pattern::One, 40, 11);
    let cfg = NetConfig {
        retry: Backoff { base_us: 1_000, cap_us: 4_000, max_attempts: 3 },
        window_ms: 1,
        ..NetConfig::default()
    };
    let dead = FaultPlan {
        crash: Some(CrashPlan { node: 0, after_msgs: 5, down_ms: CrashPlan::FOREVER }),
        ..FaultPlan::none()
    };
    let sched = || sched_by_name("chain", 2, 2000).expect("known scheduler");
    let t0 = Instant::now();
    let ran = run_cell_load(&cfg, &sched, &catalog, &specs, transport, &dead, obs, None);
    (ran.expect_err("a dead node must end the run"), t0.elapsed())
}

/// The wedge is the executor's to see, at once, and its error names what
/// each actor is owed: control, the dead node's orders; each client, its
/// acks. A run handed an observer, whose window flush holds a deadline of
/// its own, is wedged as soon.
fn a_dead_node_wedges_the_run_at_once(transport: &dyn Transport, within: Duration) {
    let sink = std::sync::Arc::<wtpg_obs::MemorySink>::default();
    for obs in [None, Some(sink as std::sync::Arc<dyn wtpg_obs::Observer>)] {
        let (err, took) = dead_node_run(transport, obs);
        let NetError::Wedged(why) = err else {
            panic!("a dead node must wedge the run, got {err}");
        };
        assert!(took < within, "{:?} to see the wedge: {why}", took);
        assert!(why.contains("control shard 0 is owed; replies from data node 0: txn "), "{why}");
        assert!(why.contains("(past the redelivery budget)"), "{why}");
        assert!(why.contains("client 3 is owed 10 commit ack(s), txns 4, 8, "), "{why}");
    }
}

#[test]
fn a_dead_node_wedges_an_in_process_run_at_once() {
    a_dead_node_wedges_the_run_at_once(&InProc, Duration::from_secs(2));
}

#[test]
fn a_dead_node_wedges_a_tcp_run_within_the_grace() {
    a_dead_node_wedges_the_run_at_once(&Tcp, Duration::from_secs(4));
}
