//! Chain-form WTPGs and the shortest-critical-path optimisers.
//!
//! Finding the full SR-order with the shortest critical path in an arbitrary
//! WTPG is NP-hard (paper Theorem 3, by reduction from job-shop scheduling).
//! The CHAIN scheduler therefore restricts the WTPG to *chain form*
//! (Definition 2): every transaction conflicts with at most its two label
//! neighbours, i.e. the undirected conflict structure is a disjoint union of
//! simple paths. On a chain, the optimisation is polynomial.
//!
//! This module provides three interchangeable optimisers over a
//! [`ChainProblem`]:
//!
//! * [`brute::solve`] — exhaustive enumeration, `O(2^N)`. The test oracle.
//! * [`threshold::solve`] — binary search on the answer with an `O(N)`
//!   feasibility DP, `O(N log ΣW)` total. Handles *forced* (already
//!   resolved) edges, so it is the production path used by the scheduler.
//! * [`paper_dp::solve`] — a faithful transcription of the paper's appendix
//!   algorithm (`Lcomp`/`Rcomp`, Theorems 1–2), `O(N²)`, for fully
//!   unresolved chains. Property-tested against the oracle.
//!
//! All three agree on the optimal critical-path *length*; ties between
//! orientations may be broken differently.

pub mod brute;
pub mod form;
pub mod paper_dp;
pub mod threshold;

pub use form::{chain_components, ChainComponent, NotChainForm};

use crate::wtpg::Dir;

/// A chain-form optimisation instance: `n` nodes labelled `0..n` along the
/// path, with
///
/// * `r[i]` — weight of `T0 → n[i]` (work node `i` must do before commit),
/// * `a[i]` — weight of the *downward* resolution `n[i] → n[i+1]`,
/// * `b[i]` — weight of the *upward* resolution `n[i+1] → n[i]`,
/// * `forced[i]` — `Some(dir)` when edge `i` was already resolved by an
///   earlier lock grant and must keep that orientation.
///
/// All weights are raw [`crate::work::Work`] units.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainProblem {
    /// Per-node `T0` weights; `n = r.len()`.
    pub r: Vec<u64>,
    /// Downward weights of the `n-1` chain edges.
    pub a: Vec<u64>,
    /// Upward weights of the `n-1` chain edges.
    pub b: Vec<u64>,
    /// Pre-resolved orientations.
    pub forced: Vec<Option<Dir>>,
}

/// An optimal (or candidate) full SR-order for one chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSolution {
    /// Orientation of each chain edge.
    pub orient: Vec<Dir>,
    /// The critical-path length achieved by `orient`.
    pub critical_path: u64,
}

impl ChainProblem {
    /// An unconstrained problem (no forced edges).
    ///
    /// # Panics
    /// Panics unless `a`, `b` have exactly `r.len() - 1` entries
    /// (`r` nonempty).
    pub fn new(r: Vec<u64>, a: Vec<u64>, b: Vec<u64>) -> ChainProblem {
        let forced = vec![None; r.len().saturating_sub(1)];
        ChainProblem::with_forced(r, a, b, forced)
    }

    /// A problem with pre-resolved edges.
    pub fn with_forced(
        r: Vec<u64>,
        a: Vec<u64>,
        b: Vec<u64>,
        forced: Vec<Option<Dir>>,
    ) -> ChainProblem {
        assert!(!r.is_empty(), "a chain needs at least one node");
        assert_eq!(a.len(), r.len() - 1, "one downward weight per edge");
        assert_eq!(b.len(), r.len() - 1, "one upward weight per edge");
        assert_eq!(forced.len(), r.len() - 1, "one constraint slot per edge");
        ChainProblem { r, a, b, forced }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// True for the (impossible) empty chain; kept for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.r.len() - 1
    }

    /// True if `orient` honours every forced edge.
    pub fn respects_forced(&self, orient: &[Dir]) -> bool {
        self.forced
            .iter()
            .zip(orient)
            .all(|(f, &o)| f.is_none_or(|d| d == o))
    }

    /// Critical-path length (longest `T0 → Tf` path) of the chain resolved
    /// by `orient`, in `O(N)`.
    ///
    /// In an oriented path graph every directed path is a monotone run, so
    /// the longest path ending at node `i` arrives either through a run of
    /// downward edges (accumulated left to right) or a run of upward edges
    /// (right to left); each node is also reachable directly from `T0` with
    /// cost `r[i]` — the "entry point" of a run. This is the same quantity
    /// the paper's `V(h)` recurrence computes.
    ///
    /// # Panics
    /// Panics if `orient.len() != self.num_edges()`.
    pub fn critical_path(&self, orient: &[Dir]) -> u64 {
        critical_path_of(&self.r, &self.a, &self.b, orient)
    }

    /// A trivially feasible orientation: forced edges as forced, free edges
    /// downward.
    pub fn default_orientation(&self) -> Vec<Dir> {
        self.forced.iter().map(|f| f.unwrap_or(Dir::Down)).collect()
    }
}

/// [`ChainProblem::critical_path`] over borrowed weights, for callers that
/// keep them in reusable buffers.
pub(crate) fn critical_path_of(r: &[u64], a: &[u64], b: &[u64], orient: &[Dir]) -> u64 {
    assert_eq!(orient.len(), r.len() - 1);
    let n = r.len();
    let mut best = 0u64;
    // Longest path ending at node i that arrived moving rightward.
    let mut down = 0u64;
    for i in 0..n {
        down = if i > 0 && orient[i - 1] == Dir::Down {
            r[i].max(down + a[i - 1])
        } else {
            r[i]
        };
        best = best.max(down);
    }
    // Longest path ending at node i that arrived moving leftward.
    let mut up = 0u64;
    for i in (0..n).rev() {
        up = if i + 1 < n && orient[i] == Dir::Up {
            r[i].max(up + b[i])
        } else {
            r[i]
        };
        best = best.max(up);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 chain: T1 – T2 – T3 with the Example 3.1 weights.
    pub(crate) fn figure2_problem() -> ChainProblem {
        ChainProblem::new(vec![5, 2, 4], vec![1, 4], vec![5, 2])
    }

    #[test]
    fn critical_path_matches_example_3_2() {
        let p = figure2_problem();
        // W = {T1→T2, T3→T2}: length 6.
        assert_eq!(p.critical_path(&[Dir::Down, Dir::Up]), 6);
        // Chain of blocking {T1→T2→T3}: length 10.
        assert_eq!(p.critical_path(&[Dir::Down, Dir::Down]), 10);
    }

    #[test]
    fn critical_path_other_orientations() {
        let p = figure2_problem();
        // {T2→T1, T2→T3}: longest is T0→T3 =4? vs T0→T2→T1 = 2+5 = 7.
        assert_eq!(p.critical_path(&[Dir::Up, Dir::Down]), 7);
        // {T3→T2→T1}: T0→T3→T2→T1 = 4+2+5 = 11.
        assert_eq!(p.critical_path(&[Dir::Up, Dir::Up]), 11);
    }

    #[test]
    fn single_node_chain() {
        let p = ChainProblem::new(vec![7], vec![], vec![]);
        assert_eq!(p.critical_path(&[]), 7);
    }

    #[test]
    fn entry_points_matter_mid_run() {
        // Node 1 has a huge r; a down-run through it must still count the
        // entry at node 1: T0→n1→n2 = 100+1.
        let p = ChainProblem::new(vec![1, 100, 1], vec![1, 1], vec![1, 1]);
        assert_eq!(p.critical_path(&[Dir::Down, Dir::Down]), 101);
    }

    #[test]
    fn respects_forced() {
        let p = ChainProblem::with_forced(
            vec![1, 1, 1],
            vec![1, 1],
            vec![1, 1],
            vec![Some(Dir::Up), None],
        );
        assert!(p.respects_forced(&[Dir::Up, Dir::Down]));
        assert!(p.respects_forced(&[Dir::Up, Dir::Up]));
        assert!(!p.respects_forced(&[Dir::Down, Dir::Down]));
        assert_eq!(p.default_orientation(), vec![Dir::Up, Dir::Down]);
    }

    #[test]
    #[should_panic(expected = "one downward weight per edge")]
    fn mismatched_lengths_rejected() {
        let _ = ChainProblem::new(vec![1, 2], vec![], vec![3]);
    }
}
