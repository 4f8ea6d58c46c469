//! Serial-drive-vs-net differential: the message-passing runtime must be an
//! *implementation detail*, not a semantic change. A single-client InProc
//! run with nothing pipelined makes the control node see exactly the call
//! sequence of a plain loop over the workload — arrive, then per step
//! request / step-complete, then commit (a data node applies a step whole
//! and answers it once) — so the recorded history (and therefore
//! the certified serialization order), the logical clock, and the bulk-read
//! checksums must match that loop tick for tick. With real concurrency the interleavings differ, but everything
//! that is a function of the committed workload must still equal the
//! loop's.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "test code: a failed check is a failed test"
)]

use wtpg_core::certify::certify_history;
use wtpg_core::history::Event;
use wtpg_core::partition::Catalog;
use wtpg_core::sched::{Admission, LockOutcome};
use wtpg_core::txn::{AccessMode, TxnSpec};
use wtpg_net::{run_cell, FaultPlan, InProc, NetConfig, NetReport};
use wtpg_rt::control::ControlNode;
use wtpg_rt::sched_by_name;
use wtpg_rt::store::NodeStore;
use wtpg_rt::workload::pattern_specs;
use wtpg_workload::Pattern;

/// The same three `plan_matrix.rs` ranges over.
const SCHEDULERS: &[&str] = &["chain", "k2", "c2pl"];

/// What the reference loop measured, under `NetReport`'s field names.
struct Serial {
    committed: u64,
    history_events: usize,
    logical_ticks: u64,
    certify_grants: usize,
    certify_eq_checks: usize,
    read_checksum: u64,
    store_write_units: u64,
    expected_write_units: u64,
    rejected_admissions: u64,
    store_consistent: bool,
}

/// The reference: one `ControlNode`, one `NodeStore` per catalog node, and
/// each transaction driven to commit before the next arrives. With one
/// transaction live nothing is ever rejected, blocked or delayed.
fn serial_drive(sched: &str, catalog: &Catalog, specs: &[TxnSpec]) -> Serial {
    let mut control = ControlNode::new(sched_by_name(sched, 2, 2000).expect("known scheduler"));
    let mode = control.certify_mode();
    let mut stores: Vec<NodeStore> = (0..catalog.num_nodes())
        .map(|n| NodeStore::for_node(catalog, n))
        .collect();
    let mut read_checksum = 0u64;
    let mut expected_write_units = 0u64;
    for spec in specs {
        assert_eq!(control.arrive(spec).expect("arrive"), Admission::Admitted);
        for (i, step) in spec.steps().iter().enumerate() {
            assert_eq!(control.request(spec.id, i).expect("request"), LockOutcome::Granted);
            let store = &mut stores[catalog.node_of(step.partition) as usize];
            let units = step.actual_cost.units();
            let sum = store
                .apply_chunk(step.partition, step.mode, 0, units)
                .expect("partition is homed on its node");
            if step.mode == AccessMode::Read {
                read_checksum = read_checksum.wrapping_add(sum);
            }
            if step.mode == AccessMode::Write {
                expected_write_units += units;
            }
            control.step_complete(spec.id, i).expect("step_complete");
        }
        control.commit(spec.id).expect("commit");
    }
    let audit = control.into_audit();
    let cert = certify_history(&audit.history, &audit.specs, mode).expect("serial drive certifies");
    let store_write_units: u64 = stores.iter().map(NodeStore::write_units).sum();
    let cell_sum: u64 = stores.iter().map(NodeStore::cell_sum).sum();
    Serial {
        committed: audit.history.committed().len() as u64,
        history_events: audit.history.len(),
        logical_ticks: audit.final_tick.millis(),
        certify_grants: cert.grants,
        certify_eq_checks: cert.eq_checks,
        read_checksum,
        store_write_units,
        expected_write_units,
        rejected_admissions: audit
            .history
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, Event::Rejected(_)))
            .count() as u64,
        store_consistent: store_write_units == expected_write_units
            && cell_sum == expected_write_units,
    }
}

fn net_run(sched: &str, cfg: &NetConfig, catalog: &Catalog, specs: &[TxnSpec]) -> NetReport {
    run_cell(
        cfg,
        &|| sched_by_name(sched, 2, 2000).expect("known scheduler"),
        catalog,
        specs,
        &InProc,
        &FaultPlan::none(),
    )
    .expect("net run")
}

#[test]
fn single_stream_runs_are_tick_identical_to_the_serial_drive() {
    let (catalog, specs) = pattern_specs(Pattern::One, 80, 13);
    for &sched in SCHEDULERS {
        let serial = serial_drive(sched, &catalog, &specs);
        let net = net_run(
            sched,
            &NetConfig {
                clients: 1,
                // Strict one-at-a-time submission: the identity below only
                // holds when the client never races its own transactions.
                pipeline: 1,
                ..NetConfig::default()
            },
            &catalog,
            &specs,
        );
        // One client, no faults, nothing in flight beside the transaction
        // in hand: the control actor makes the reference loop's calls in
        // the reference loop's order, so every history-derived quantity is
        // equal — this is the serialization-order identity.
        assert_eq!(net.committed, serial.committed, "{sched}");
        assert_eq!(net.history_events, serial.history_events, "{sched}");
        assert_eq!(net.logical_ticks, serial.logical_ticks, "{sched}");
        assert_eq!(net.certify_grants, serial.certify_grants, "{sched}");
        assert_eq!(net.certify_eq_checks, serial.certify_eq_checks, "{sched}");
        assert_eq!(net.read_checksum, serial.read_checksum, "{sched}");
        assert_eq!(net.store_write_units, serial.store_write_units, "{sched}");
        assert_eq!(net.expected_write_units, serial.expected_write_units, "{sched}");
        assert_eq!(net.rejected_admissions, serial.rejected_admissions, "{sched}");
        assert!(net.certified, "{sched}");
    }
}

#[test]
fn concurrent_runs_agree_on_every_interleaving_free_quantity() {
    let (catalog, specs) = pattern_specs(Pattern::Two { num_hots: 4 }, 120, 17);
    for &sched in SCHEDULERS {
        let serial = serial_drive(sched, &catalog, &specs);
        assert!(serial.store_consistent, "{sched}");
        let net = net_run(sched, &NetConfig::default(), &catalog, &specs);
        assert_eq!(net.committed, serial.committed, "{sched}");
        assert_eq!(net.store_write_units, serial.store_write_units, "{sched}");
        assert_eq!(net.expected_write_units, serial.expected_write_units, "{sched}");
        assert!(net.certified, "{sched}");
        assert!(net.store_consistent, "{sched}");
    }
}
