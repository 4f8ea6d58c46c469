//! Seeded batch workloads, built from the paper's patterns.

use rand::rngs::StdRng;
use rand::SeedableRng;

use wtpg_core::partition::Catalog;
use wtpg_core::txn::{TxnId, TxnSpec};
use wtpg_workload::Pattern;

/// Draws a batch of `txns` transactions from `pattern` under `seed`, paired
/// with the pattern's catalog. Ids run `1..=txns` in submission order, so a
/// run is reproducible given (pattern, txns, seed) — only the thread
/// interleaving varies.
pub fn pattern_specs(pattern: Pattern, txns: usize, seed: u64) -> (Catalog, Vec<TxnSpec>) {
    let catalog = pattern.catalog();
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = (1..=txns as u64)
        .map(|id| TxnSpec::new(TxnId(id), pattern.draw(&mut rng)))
        .collect();
    (catalog, specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_reproducible() {
        let (c1, s1) = pattern_specs(Pattern::One, 25, 9);
        let (c2, s2) = pattern_specs(Pattern::One, 25, 9);
        assert_eq!(c1.num_nodes(), c2.num_nodes());
        assert_eq!(s1.len(), 25);
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.steps(), b.steps());
        }
    }

    #[test]
    fn hot_pattern_targets_the_hot_set() {
        let (catalog, specs) = pattern_specs(Pattern::Two { num_hots: 8 }, 50, 3);
        assert_eq!(catalog.partitions().count(), 16);
        for t in &specs {
            assert_eq!(t.steps().len(), 3);
            for s in t.steps() {
                assert!(catalog.partitions().any(|p| p == s.partition));
            }
        }
    }
}
