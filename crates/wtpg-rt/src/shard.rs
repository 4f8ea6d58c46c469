//! Sharding the control plane by conflict component.
//!
//! Two transactions can only ever constrain each other — block, delay,
//! chain-order, count toward `|C(q)|` — if their declared partition sets
//! are connected through some chain of shared partitions. The conflict
//! graph's connected components are therefore *independent*: a scheduler
//! deciding one component never needs to see another. [`ShardMap`] computes
//! those components over a workload's declarations (union-find over each
//! spec's partitions) and deals them across up to `requested` control
//! shards, so each shard runs its own full scheduler over a disjoint slice
//! of the WTPG.
//!
//! The assignment is deterministic: components are ordered largest-first
//! (transaction count, tie-broken by smallest member partition) and dealt
//! greedily to the least-loaded shard (tie-broken by lowest shard index).
//! The effective shard count never exceeds the component count — a
//! workload whose declarations form one component (every paper pattern
//! routed through the shared hot partitions does) collapses to one shard,
//! which is the honest answer: there is no independence to exploit.
//!
//! [`merge_audits`] is the inverse at run end: per-shard [`ControlAudit`]s
//! merge into one — histories via the cross-shard certifier's canonical
//! merge ([`merge_shard_histories`]), streamed reports by field-wise sum —
//! after checking on each shard's granted partitions that no two shards
//! granted one ([`check_shard_partitions`]).
//! A single-shard merge returns the audit untouched, so an unsharded run's
//! history is exactly what its one control node recorded.

use std::collections::BTreeMap;

use wtpg_core::certify::{
    check_shard_partitions, merge_shard_histories, CertifyReport, CertifyViolation,
};
use wtpg_core::history::History;
use wtpg_core::partition::PartitionId;
use wtpg_core::time::Tick;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_core::window::IdWindow;

use crate::control::ControlAudit;

/// A deterministic transaction → control-shard assignment.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: usize,
    /// Each declared transaction's shard: indexed by id, since the router
    /// of a sharded run looks one up per message it deals.
    assign: IdWindow<usize>,
}

impl ShardMap {
    /// Computes conflict components over `specs` and deals them across at
    /// most `requested` shards (clamped to ≥ 1 and to the component count).
    pub fn build(specs: &[TxnSpec], requested: usize) -> ShardMap {
        // The partitions the specs name, ascending: a union-find over their
        // ranks, in which each spec unions the partitions of its steps.
        let mut ids: Vec<u32> =
            specs.iter().flat_map(TxnSpec::steps).map(|s| s.partition.0).collect();
        ids.sort_unstable();
        ids.dedup();
        let rank = |p: PartitionId| ids.binary_search(&p.0).unwrap_or_default();
        let mut parent: Vec<usize> = (0..ids.len()).collect();
        for spec in specs {
            let mut parts = spec.steps().iter().map(|s| rank(s.partition));
            if let Some(first) = parts.next() {
                let a = find(&mut parent, first);
                for p in parts {
                    let b = find(&mut parent, p);
                    if let Some(up) = parent.get_mut(b) {
                        *up = a;
                    }
                }
            }
        }
        // Per component (by root): its transactions and its smallest
        // partition's rank. A spec without steps joins the one extra root,
        // `ids.len()`, whose smallest partition sorts as `u32::MAX`.
        let (mut txns, mut least) = (vec![0usize; ids.len() + 1], vec![usize::MAX; ids.len() + 1]);
        let roots: Vec<usize> = specs
            .iter()
            .map(|spec| {
                let first = spec.steps().first();
                let root = first.map_or(ids.len(), |s| find(&mut parent, rank(s.partition)));
                for s in spec.steps() {
                    let p = rank(s.partition);
                    if let Some(l) = least.get_mut(find(&mut parent, p)) {
                        *l = (*l).min(p);
                    }
                }
                if let Some(n) = txns.get_mut(root) {
                    *n += 1;
                }
                root
            })
            .collect();
        // Largest component first; ties by smallest member partition, which
        // no two components share.
        let mut order: Vec<(usize, usize)> =
            txns.iter().copied().enumerate().filter(|&(_, n)| n > 0).collect();
        order.sort_by_key(|&(root, n)| {
            let smallest = least.get(root).and_then(|&l| ids.get(l)).copied();
            (usize::MAX - n, smallest.unwrap_or(u32::MAX))
        });
        let shards = requested.max(1).min(order.len().max(1));
        let mut loads = vec![0u64; shards];
        // The shard of each component, by root.
        let mut comp_shard = vec![0usize; ids.len() + 1];
        for (root, n) in order {
            let target = loads
                .iter()
                .enumerate()
                .min_by_key(|&(i, &l)| (l, i))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if let Some(load) = loads.get_mut(target) {
                *load += n as u64;
            }
            if let Some(slot) = comp_shard.get_mut(root) {
                *slot = target;
            }
        }
        let mut assign = IdWindow::new();
        for (spec, root) in specs.iter().zip(roots) {
            assign.insert(spec.id, comp_shard.get(root).copied().unwrap_or(0));
        }
        ShardMap { shards, assign }
    }

    /// Effective shard count (≤ requested, ≤ component count, ≥ 1).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `txn`'s conflict component.
    pub fn shard_of(&self, txn: TxnId) -> usize {
        self.assign.get(txn).copied().unwrap_or(0)
    }
}

/// The root of `p`'s set in the union-find `parent`, halving the path on
/// the way up.
fn find(parent: &mut [usize], mut p: usize) -> usize {
    while let Some(&up) = parent.get(p) {
        if up == p {
            break;
        }
        let grand = parent.get(up).copied().unwrap_or(up);
        if let Some(slot) = parent.get_mut(p) {
            *slot = grand;
        }
        p = grand;
    }
    p
}

fn sum_reports(a: &CertifyReport, b: &CertifyReport) -> CertifyReport {
    CertifyReport {
        events: a.events + b.events,
        grants: a.grants + b.grants,
        commits: a.commits + b.commits,
        eq_checks: a.eq_checks + b.eq_checks,
        eq_losses: a.eq_losses + b.eq_losses,
    }
}

/// Merges per-shard audits into one run-level audit: histories through the
/// canonical cross-shard merge, streamed reports and final ticks by sum
/// (total logical instants drawn across shards). The
/// merged verdict is the first shard's violation, if any shard latched one.
/// A one-element vector is returned untouched.
///
/// # Errors
/// A [`CertifyViolation`] if the shards are not component-disjoint (see
/// [`merge_shard_histories`]): a transaction with events on two shards, or
/// a partition granted by two — checked on what each shard granted, so a
/// streamed shard, which records no history, is held to it too.
pub fn merge_audits(mut audits: Vec<ControlAudit>) -> Result<ControlAudit, CertifyViolation> {
    if audits.len() == 1 {
        return Ok(audits.remove(0));
    }
    let hists: Vec<&History> = audits.iter().map(|a| &a.history).collect();
    let history = merge_shard_histories(&hists)?;
    let granted: Vec<_> = audits.iter().map(|a| &a.granted).collect();
    check_shard_partitions(&granted)?;
    let mut merged = ControlAudit {
        history,
        specs: BTreeMap::new(),
        final_tick: Tick::ZERO,
        granted: BTreeMap::new(),
        verdict: None,
    };
    for a in audits {
        merged.specs.extend(a.specs);
        merged.final_tick = Tick(merged.final_tick.0 + a.final_tick.0);
        merged.granted.extend(a.granted);
        merged.verdict = match (merged.verdict, a.verdict) {
            (Some(Ok(x)), Some(Ok(y))) => Some(Ok(sum_reports(&x, &y))),
            (Some(Err(v)), _) | (_, Some(Err(v))) => Some(Err(v)),
            (v, None) | (None, v) => v,
        };
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtpg_core::txn::StepSpec;

    fn spec(id: u64, parts: &[u32]) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            parts
                .iter()
                .map(|&p| StepSpec::write(p, 1.0))
                .collect(),
        )
    }

    #[test]
    fn disjoint_groups_balance_across_shards() {
        // Four components of 3, 2, 2, 1 transactions.
        let specs = vec![
            spec(1, &[0, 1]),
            spec(2, &[1]),
            spec(3, &[0]),
            spec(4, &[10, 11]),
            spec(5, &[11]),
            spec(6, &[20]),
            spec(7, &[21, 20]),
            spec(8, &[30]),
        ];
        let map = ShardMap::build(&specs, 2);
        assert_eq!(map.shards(), 2);
        let on = |shard| specs.iter().filter(|s| map.shard_of(s.id) == shard).count();
        assert_eq!(on(0) + on(1), 8);
        // Largest component (3 txns) one side, the rest dealt to balance.
        assert_eq!(on(0).max(on(1)), 4);
        // A component never straddles shards.
        assert_eq!(map.shard_of(TxnId(1)), map.shard_of(TxnId(2)));
        assert_eq!(map.shard_of(TxnId(1)), map.shard_of(TxnId(3)));
        assert_eq!(map.shard_of(TxnId(4)), map.shard_of(TxnId(5)));
        assert_eq!(map.shard_of(TxnId(6)), map.shard_of(TxnId(7)));
        // Deterministic rebuild.
        let again = ShardMap::build(&specs, 2);
        for s in &specs {
            assert_eq!(map.shard_of(s.id), again.shard_of(s.id));
        }
    }

    #[test]
    fn one_component_collapses_to_one_shard() {
        // Everything chained through partition 1: one component.
        let specs = vec![spec(1, &[0, 1]), spec(2, &[1, 2]), spec(3, &[2, 3])];
        let map = ShardMap::build(&specs, 4);
        assert_eq!(map.shards(), 1, "no independence to exploit");
        for s in &specs {
            assert_eq!(map.shard_of(s.id), 0);
        }
    }

    #[test]
    fn streamed_shards_that_granted_one_partition_do_not_merge() {
        use crate::control::ControlNode;
        use wtpg_core::sched::{Admission, C2plScheduler, LockOutcome};

        // Two streamed nodes, each committing its transactions over `parts`.
        let shard = |first: u64, parts: &[u32]| {
            let mut cn = ControlNode::with_telemetry(Box::new(C2plScheduler::new()), None, true);
            for (id, p) in (first..).zip(parts) {
                assert_eq!(cn.arrive(&spec(id, &[*p])).unwrap(), Admission::Admitted);
                assert_eq!(cn.request(TxnId(id), 0).unwrap(), LockOutcome::Granted);
                cn.step_complete(TxnId(id), 0).unwrap();
                cn.commit(TxnId(id)).unwrap();
            }
            cn.into_audit()
        };
        let merged = merge_audits(vec![shard(1, &[0, 1]), shard(10, &[2, 3])])
            .expect("disjoint shards merge");
        assert_eq!(merged.history.len(), 0, "streamed shards record no history");
        assert_eq!(merged.granted.len(), 4);
        let report = merged.verdict.expect("streamed").expect("both shards certify");
        assert_eq!((report.commits, report.grants), (4, 4));

        let err = merge_audits(vec![shard(1, &[0, 1]), shard(10, &[2, 1])])
            .err()
            .expect("partition 1 granted by both shards");
        assert_eq!(err.what, "P1 granted by shard 0 and shard 1");
    }

    #[test]
    fn empty_workload_still_has_one_shard() {
        let map = ShardMap::build(&[], 4);
        assert_eq!(map.shards(), 1);
        assert_eq!(map.shard_of(TxnId(1)), 0, "an unknown id lands on shard 0");
    }
}
