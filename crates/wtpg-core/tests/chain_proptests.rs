//! Property tests for the chain optimisers: the paper's appendix DP and the
//! production threshold DP must both match the exhaustive oracle.

use proptest::prelude::*;

use wtpg_core::chain::{brute, paper_dp, threshold, ChainProblem};
use wtpg_core::wtpg::Dir;

fn arb_problem(max_nodes: usize, max_w: u64) -> impl Strategy<Value = ChainProblem> {
    (1..=max_nodes).prop_flat_map(move |n| {
        let r = proptest::collection::vec(0..max_w, n);
        let a = proptest::collection::vec(0..max_w, n - 1);
        let b = proptest::collection::vec(0..max_w, n - 1);
        (r, a, b).prop_map(|(r, a, b)| ChainProblem::new(r, a, b))
    })
}

fn arb_forced_problem(max_nodes: usize, max_w: u64) -> impl Strategy<Value = ChainProblem> {
    (1..=max_nodes).prop_flat_map(move |n| {
        let r = proptest::collection::vec(0..max_w, n);
        let a = proptest::collection::vec(0..max_w, n - 1);
        let b = proptest::collection::vec(0..max_w, n - 1);
        let forced = proptest::collection::vec(
            prop_oneof![Just(None), Just(Some(Dir::Down)), Just(Some(Dir::Up))],
            n - 1,
        );
        (r, a, b, forced).prop_map(|(r, a, b, f)| ChainProblem::with_forced(r, a, b, f))
    })
}

proptest! {
    /// The paper's O(N²) DP finds the same optimum as exhaustive search on
    /// fully unresolved chains.
    #[test]
    fn paper_dp_matches_oracle(p in arb_problem(12, 50)) {
        let dp = paper_dp::solve(&p);
        let oracle = brute::solve(&p);
        prop_assert_eq!(dp.critical_path, oracle.critical_path, "{:?}", p);
        // The returned orientation must actually achieve the reported value.
        prop_assert_eq!(p.critical_path(&dp.orient), dp.critical_path);
    }

    /// The threshold DP matches the oracle on unconstrained chains.
    #[test]
    fn threshold_matches_oracle(p in arb_problem(12, 50)) {
        let t = threshold::solve(&p);
        let oracle = brute::solve(&p);
        prop_assert_eq!(t.critical_path, oracle.critical_path, "{:?}", p);
        prop_assert_eq!(p.critical_path(&t.orient), t.critical_path);
    }

    /// …and on chains with forced (already resolved) edges.
    #[test]
    fn threshold_matches_oracle_with_forced_edges(p in arb_forced_problem(12, 50)) {
        let t = threshold::solve(&p);
        let oracle = brute::solve(&p);
        prop_assert_eq!(t.critical_path, oracle.critical_path, "{:?}", p);
        prop_assert!(p.respects_forced(&t.orient));
        prop_assert_eq!(p.critical_path(&t.orient), t.critical_path);
    }

    /// The *faithful* transcription (paper pseudocode verbatim, including its
    /// `Rcomp` curr slip) never overestimates the optimum — it can only drop
    /// path terms.
    #[test]
    fn faithful_paper_dp_never_overestimates(p in arb_problem(12, 50)) {
        let dp = paper_dp::solve_faithful(&p);
        let oracle = brute::solve(&p);
        prop_assert!(dp.critical_path <= oracle.critical_path, "{:?}", p);
    }

    /// Zero-heavy chains (many equal optima) still agree on the value.
    #[test]
    fn optimisers_agree_on_sparse_weights(p in arb_problem(10, 3)) {
        let dp = paper_dp::solve(&p);
        let t = threshold::solve(&p);
        let oracle = brute::solve(&p);
        prop_assert_eq!(dp.critical_path, oracle.critical_path, "{:?}", p);
        prop_assert_eq!(t.critical_path, oracle.critical_path, "{:?}", p);
    }

    /// The optimum is monotone: raising any weight can never shorten the
    /// optimal critical path.
    #[test]
    fn optimum_is_monotone_in_weights(p in arb_problem(10, 30), bump in 1u64..10) {
        let base = threshold::solve(&p).critical_path;
        let mut p2 = p.clone();
        if !p2.a.is_empty() {
            p2.a[0] += bump;
        } else {
            p2.r[0] += bump;
        }
        let bumped = threshold::solve(&p2).critical_path;
        prop_assert!(bumped >= base);
    }

    /// Lower bound: the optimum is at least max(r).
    #[test]
    fn optimum_at_least_max_r(p in arb_problem(12, 50)) {
        let t = threshold::solve(&p);
        prop_assert!(t.critical_path >= p.r.iter().copied().max().unwrap());
    }

    /// One `Solver` reused across differently sized problems (forced edges
    /// included) answers each exactly as a fresh `threshold::solve` does —
    /// orientation and length — and as long as the oracle. A stale `parents`
    /// or `orient` entry from a longer earlier problem would show here.
    #[test]
    fn reused_solver_matches_fresh_solves(
        problems in proptest::collection::vec(arb_forced_problem(12, 50), 1..12)
    ) {
        let mut solver = threshold::Solver::new();
        for p in &problems {
            let length = solver.solve(&p.r, &p.a, &p.b, &p.forced);
            let fresh = threshold::solve(p);
            prop_assert_eq!(solver.orient(), &fresh.orient[..], "{:?}", p);
            prop_assert_eq!(length, fresh.critical_path, "{:?}", p);
            prop_assert_eq!(length, brute::solve(p).critical_path, "{:?}", p);
        }
    }
}
