//! The paper's transaction patterns (§4.2–§4.4).

use rand::Rng;
use serde::{Deserialize, Serialize};
use wtpg_core::partition::{Catalog, PartitionId};
use wtpg_core::txn::{AccessMode, StepSpec};
use wtpg_core::work::Work;

/// One of the paper's transaction patterns.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Pattern {
    /// Experiment 1/4 —
    /// `r(F1:1) → r(F2:5) → w(F1:0.2) → w(F2:1)` over `NumParts = 16`
    /// partitions of 5 objects each; F1 ≠ F2 chosen uniformly. Models
    /// "join the selected result of F1 with F2, then update both depending
    /// on the joined result"; the read steps take X-locks (lock-mode
    /// promotion) because the partitions are updated later.
    One,
    /// Experiment 2 — `r(B:5) → w(F1:1) → w(F2:1)`. `B` is one of 8
    /// read-only partitions (size 5, one per node); `F1 ≠ F2` come from the
    /// `num_hots` hot partitions (size 1).
    Two {
        /// Number of hot partitions (4, 8, 16 or 32 in the paper).
        num_hots: u32,
    },
    /// Experiment 3 — `r(B:4) → w(F1:1) → w(F2:2)` with `num_hots = 8`:
    /// same structure as Pattern 2 but with longer blocking times.
    Three {
        /// Number of hot partitions (8 in the paper).
        num_hots: u32,
    },
    /// Sharding ablation — Pattern 2's step shape (`r(B:5) → w(F1:1) →
    /// w(F2:1)`) confined to one of `groups` disjoint partition clusters:
    /// each group owns a private read partition and a private hot set, and
    /// a transaction draws its group first, then both hots from *that
    /// group*. The paper's patterns route everything through one shared
    /// partition pool, so their conflict graphs collapse to a single
    /// component; clustered groups are independent components by
    /// construction, which is what a sharded control plane can exploit.
    Clustered {
        /// Number of independent groups (conflict components).
        groups: u32,
        /// Hot partitions per group (≥ 2, a pair is drawn within-group).
        hots_per_group: u32,
    },
}

impl Pattern {
    /// The partition catalog this pattern runs against (`NumNodes = 8`).
    pub fn catalog(self) -> Catalog {
        match self {
            Pattern::One => Catalog::uniform(16, 5, 8),
            Pattern::Two { num_hots } | Pattern::Three { num_hots } => {
                // Partitions 0..8 are the read-only ones (size 5, one per
                // node); 8..8+num_hots are the hot set (size 1).
                let mut sizes = vec![Work::from_objects(5); 8];
                sizes.extend(vec![Work::from_objects(1); num_hots as usize]);
                Catalog::new(sizes, 8)
            }
            Pattern::Clustered {
                groups,
                hots_per_group,
            } => {
                // Group g owns partition g*(1+hots) (its read partition,
                // size 5) followed by its `hots_per_group` size-1 hots.
                let mut sizes = Vec::new();
                for _ in 0..groups {
                    sizes.push(Work::from_objects(5));
                    sizes.extend(vec![Work::from_objects(1); hots_per_group as usize]);
                }
                Catalog::new(sizes, 8)
            }
        }
    }

    /// Label used in reports.
    pub fn label(self) -> String {
        match self {
            Pattern::One => "Pattern1".into(),
            Pattern::Two { num_hots } => format!("Pattern2(hots={num_hots})"),
            Pattern::Three { num_hots } => format!("Pattern3(hots={num_hots})"),
            Pattern::Clustered {
                groups,
                hots_per_group,
            } => format!("Clustered(g={groups},hots={hots_per_group})"),
        }
    }

    /// Draws one transaction's step list (lock modes already promoted).
    pub fn draw<R: Rng>(self, rng: &mut R) -> Vec<StepSpec> {
        let steps = match self {
            Pattern::One => {
                let (f1, f2) = distinct_pair(rng, 0, 16);
                vec![
                    StepSpec::read(f1, 1.0),
                    StepSpec::read(f2, 5.0),
                    StepSpec::write(f1, 0.2),
                    StepSpec::write(f2, 1.0),
                ]
            }
            Pattern::Two { num_hots } => {
                let b = rng.gen_range(0..8u32);
                let (f1, f2) = distinct_pair(rng, 8, num_hots);
                vec![
                    StepSpec::read(b, 5.0),
                    StepSpec::write(f1, 1.0),
                    StepSpec::write(f2, 1.0),
                ]
            }
            Pattern::Three { num_hots } => {
                let b = rng.gen_range(0..8u32);
                let (f1, f2) = distinct_pair(rng, 8, num_hots);
                vec![
                    StepSpec::read(b, 4.0),
                    StepSpec::write(f1, 1.0),
                    StepSpec::write(f2, 2.0),
                ]
            }
            Pattern::Clustered {
                groups,
                hots_per_group,
            } => {
                assert!(groups >= 1, "need at least one group");
                let g = rng.gen_range(0..groups);
                let base = g * (1 + hots_per_group);
                let (f1, f2) = distinct_pair(rng, base + 1, hots_per_group);
                vec![
                    StepSpec::read(base, 5.0),
                    StepSpec::write(f1, 1.0),
                    StepSpec::write(f2, 1.0),
                ]
            }
        };
        promote_lock_modes(steps)
    }
}

/// Two distinct partitions drawn uniformly from `[base, base + count)`.
fn distinct_pair<R: Rng>(rng: &mut R, base: u32, count: u32) -> (u32, u32) {
    assert!(count >= 2, "need at least two partitions to pick a pair");
    let f1 = rng.gen_range(0..count);
    let mut f2 = rng.gen_range(0..count - 1);
    if f2 >= f1 {
        f2 += 1;
    }
    (base + f1, base + f2)
}

/// Promotes every step's access mode to the strongest mode its transaction
/// declares on the same partition. A transaction that reads a partition it
/// will later bulk-update takes the X-lock at the first access ("the first
/// two steps of Pattern 1 require X-locks"); costs are untouched.
pub fn promote_lock_modes(mut steps: Vec<StepSpec>) -> Vec<StepSpec> {
    let writes: Vec<PartitionId> = steps
        .iter()
        .filter(|s| s.mode == AccessMode::Write)
        .map(|s| s.partition)
        .collect();
    for s in &mut steps {
        if writes.contains(&s.partition) {
            s.mode = AccessMode::Write;
        }
    }
    steps
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "hash sets as test oracles; their order is never observed"
)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pattern1_shape_matches_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        let steps = Pattern::One.draw(&mut rng);
        assert_eq!(steps.len(), 4);
        let costs: Vec<f64> = steps.iter().map(|s| s.cost.objects()).collect();
        assert_eq!(costs, vec![1.0, 5.0, 0.2, 1.0]);
        // F1 at steps 0 and 2, F2 at steps 1 and 3, F1 ≠ F2.
        assert_eq!(steps[0].partition, steps[2].partition);
        assert_eq!(steps[1].partition, steps[3].partition);
        assert_ne!(steps[0].partition, steps[1].partition);
        // Lock-mode promotion: ALL steps exclusive.
        assert!(steps.iter().all(|s| s.mode == AccessMode::Write));
        // Total declared work = 7.2 objects.
        let total: Work = steps.iter().map(|s| s.cost).sum();
        assert_eq!(total, Work::from_objects_f64(7.2));
    }

    #[test]
    fn pattern1_partitions_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let steps = Pattern::One.draw(&mut rng);
            for s in &steps {
                assert!(s.partition.0 < 16);
            }
        }
    }

    #[test]
    fn pattern2_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let steps = Pattern::Two { num_hots: 4 }.draw(&mut rng);
            assert_eq!(steps.len(), 3);
            // Read-only partition in 0..8, S-lock (never promoted).
            assert!(steps[0].partition.0 < 8);
            assert_eq!(steps[0].mode, AccessMode::Read);
            assert_eq!(steps[0].cost, Work::from_objects(5));
            // Two distinct hot partitions in 8..12.
            assert!(steps[1].partition.0 >= 8 && steps[1].partition.0 < 12);
            assert!(steps[2].partition.0 >= 8 && steps[2].partition.0 < 12);
            assert_ne!(steps[1].partition, steps[2].partition);
            assert_eq!(steps[1].mode, AccessMode::Write);
        }
    }

    #[test]
    fn pattern3_costs() {
        let mut rng = StdRng::seed_from_u64(3);
        let steps = Pattern::Three { num_hots: 8 }.draw(&mut rng);
        let costs: Vec<f64> = steps.iter().map(|s| s.cost.objects()).collect();
        assert_eq!(costs, vec![4.0, 1.0, 2.0]);
    }

    #[test]
    fn catalogs_match_the_experiments() {
        let c1 = Pattern::One.catalog();
        assert_eq!(c1.num_parts(), 16);
        assert_eq!(c1.size(PartitionId(0)), Work::from_objects(5));
        let c2 = Pattern::Two { num_hots: 32 }.catalog();
        assert_eq!(c2.num_parts(), 40);
        assert_eq!(c2.size(PartitionId(7)), Work::from_objects(5));
        assert_eq!(c2.size(PartitionId(8)), Work::from_objects(1));
        assert_eq!(c2.num_nodes(), 8);
    }

    #[test]
    fn promotion_only_affects_read_of_written_partitions() {
        let steps = vec![
            StepSpec::read(0, 1.0),
            StepSpec::read(1, 1.0),
            StepSpec::write(0, 1.0),
        ];
        let promoted = promote_lock_modes(steps);
        assert_eq!(promoted[0].mode, AccessMode::Write); // read of written P0
        assert_eq!(promoted[1].mode, AccessMode::Read); // P1 never written
        assert_eq!(promoted[0].cost, Work::from_objects(1)); // cost untouched
    }

    #[test]
    fn clustered_draws_stay_inside_one_group() {
        let p = Pattern::Clustered {
            groups: 4,
            hots_per_group: 4,
        };
        let c = p.catalog();
        assert_eq!(c.num_parts(), 4 * 5);
        assert_eq!(c.num_nodes(), 8);
        assert_eq!(c.size(PartitionId(0)), Work::from_objects(5));
        assert_eq!(c.size(PartitionId(1)), Work::from_objects(1));
        assert_eq!(c.size(PartitionId(5)), Work::from_objects(5));
        let mut rng = StdRng::seed_from_u64(9);
        let mut groups_seen = std::collections::HashSet::new();
        for _ in 0..300 {
            let steps = p.draw(&mut rng);
            assert_eq!(steps.len(), 3);
            let g = steps[0].partition.0 / 5;
            groups_seen.insert(g);
            assert_eq!(steps[0].partition.0 % 5, 0, "read partition leads its group");
            assert_eq!(steps[0].mode, AccessMode::Read);
            for s in &steps[1..] {
                assert_eq!(s.partition.0 / 5, g, "hots come from the same group");
                assert_ne!(s.partition.0 % 5, 0);
                assert_eq!(s.mode, AccessMode::Write);
            }
            assert_ne!(steps[1].partition, steps[2].partition);
        }
        assert_eq!(groups_seen.len(), 4, "uniform group choice hits all groups");
        assert_eq!(p.label(), "Clustered(g=4,hots=4)");
    }

    #[test]
    fn draws_cover_the_partition_space() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            for s in Pattern::One.draw(&mut rng) {
                seen.insert(s.partition.0);
            }
        }
        assert_eq!(seen.len(), 16, "uniform choice should hit all partitions");
    }
}
