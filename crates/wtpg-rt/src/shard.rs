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
//! merge ([`merge_shard_histories`]), counters and stats by field-wise sum.
//! A single-shard merge returns the audit untouched, so an unsharded run's
//! history is exactly what its one control node recorded.

use std::collections::BTreeMap;

use wtpg_core::certify::{merge_shard_histories, CertifyViolation};
use wtpg_core::history::History;
use wtpg_core::partition::PartitionId;
use wtpg_core::time::Tick;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_core::window::IdWindow;
use wtpg_obs::ControlStats;

use crate::control::{ControlAudit, ControlCounters};

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
        // Union-find over partitions; each spec unions its partition set.
        let mut parent: BTreeMap<PartitionId, PartitionId> = BTreeMap::new();
        fn find(parent: &mut BTreeMap<PartitionId, PartitionId>, p: PartitionId) -> PartitionId {
            let up = *parent.entry(p).or_insert(p);
            if up == p {
                return p;
            }
            let root = find(parent, up);
            parent.insert(p, root);
            root
        }
        for spec in specs {
            let parts = spec.partitions();
            if let Some((&first, rest)) = parts.split_first() {
                let a = find(&mut parent, first);
                for &p in rest {
                    let b = find(&mut parent, p);
                    parent.insert(b, a);
                    // Keep `a` canonical for this spec's chain of unions.
                    parent.insert(a, a);
                }
            }
        }
        // Component membership per transaction.
        let mut comp_txns: BTreeMap<PartitionId, Vec<TxnId>> = BTreeMap::new();
        let mut txn_comp: Vec<(TxnId, PartitionId)> = Vec::with_capacity(specs.len());
        for spec in specs {
            let root = spec
                .partitions()
                .first()
                .map(|&p| find(&mut parent, p))
                .unwrap_or(PartitionId(u32::MAX));
            comp_txns.entry(root).or_default().push(spec.id);
            txn_comp.push((spec.id, root));
        }
        // Largest component first; ties by smallest member partition (the
        // BTreeMap key is already the canonical smallest-ish root, but the
        // root choice is union-order dependent, so order by explicit min).
        let mut comp_min: BTreeMap<PartitionId, PartitionId> = BTreeMap::new();
        for spec in specs {
            for &p in &spec.partitions() {
                let root = find(&mut parent, p);
                let e = comp_min.entry(root).or_insert(p);
                if p < *e {
                    *e = p;
                }
            }
        }
        let mut order: Vec<(PartitionId, usize)> = comp_txns
            .iter()
            .map(|(&root, txns)| (root, txns.len()))
            .collect();
        order.sort_by_key(|&(root, n)| {
            (
                usize::MAX - n,
                comp_min.get(&root).copied().unwrap_or(root),
            )
        });
        let shards = requested.max(1).min(order.len().max(1));
        let mut loads = vec![0u64; shards];
        let mut comp_shard: BTreeMap<PartitionId, usize> = BTreeMap::new();
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
            comp_shard.insert(root, target);
        }
        let mut assign = IdWindow::new();
        for (txn, root) in txn_comp {
            assign.insert(txn, comp_shard.get(&root).copied().unwrap_or(0));
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

/// Field-wise sum of two [`ControlStats`].
fn sum_stats(a: &ControlStats, b: &ControlStats) -> ControlStats {
    ControlStats {
        w_recomputes: a.w_recomputes + b.w_recomputes,
        w_reuses: a.w_reuses + b.w_reuses,
        eq_cache_hits: a.eq_cache_hits + b.eq_cache_hits,
        eq_cache_misses: a.eq_cache_misses + b.eq_cache_misses,
        eq_cache_invalidations: a.eq_cache_invalidations + b.eq_cache_invalidations,
        dd_cache_hits: a.dd_cache_hits + b.dd_cache_hits,
        dd_cache_misses: a.dd_cache_misses + b.dd_cache_misses,
        aborts_non_chain: a.aborts_non_chain + b.aborts_non_chain,
        aborts_k_conflict: a.aborts_k_conflict + b.aborts_k_conflict,
        aborts_lock_denied: a.aborts_lock_denied + b.aborts_lock_denied,
        delays_deadlock: a.delays_deadlock + b.delays_deadlock,
        delays_minimality: a.delays_minimality + b.delays_minimality,
    }
}

fn sum_counters(a: &ControlCounters, b: &ControlCounters) -> ControlCounters {
    ControlCounters {
        admissions: a.admissions + b.admissions,
        rejections: a.rejections + b.rejections,
        grants: a.grants + b.grants,
        blocks: a.blocks + b.blocks,
        delays: a.delays + b.delays,
        commits: a.commits + b.commits,
        ops: a.ops.merge(b.ops),
    }
}

/// Merges per-shard audits into one run-level audit: histories through the
/// canonical cross-shard merge, counters and stats by sum, final tick by
/// sum (total logical instants drawn across shards). A one-element vector
/// is returned untouched.
///
/// # Errors
/// A [`CertifyViolation`] if the shard histories are not component-disjoint
/// (see [`merge_shard_histories`]).
pub fn merge_audits(mut audits: Vec<ControlAudit>) -> Result<ControlAudit, CertifyViolation> {
    if audits.len() == 1 {
        return Ok(audits.remove(0));
    }
    let hists: Vec<&History> = audits.iter().map(|a| &a.history).collect();
    let history = merge_shard_histories(&hists)?;
    let mut specs = BTreeMap::new();
    let mut counters = ControlCounters::default();
    let mut stats = ControlStats::default();
    let mut final_tick = Tick::ZERO;
    for a in &audits {
        for (id, spec) in &a.specs {
            specs.insert(*id, spec.clone());
        }
        counters = sum_counters(&counters, &a.counters);
        stats = sum_stats(&stats, &a.stats);
        final_tick = Tick(final_tick.0 + a.final_tick.0);
    }
    Ok(ControlAudit {
        history,
        specs,
        counters,
        final_tick,
        stats,
    })
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
    fn empty_workload_still_has_one_shard() {
        let map = ShardMap::build(&[], 4);
        assert_eq!(map.shards(), 1);
        assert_eq!(map.shard_of(TxnId(1)), 0, "an unknown id lands on shard 0");
    }
}
