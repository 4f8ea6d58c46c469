//! The production chain optimiser: binary search on the critical-path value
//! with an `O(N)` feasibility DP per probe — `O(N log ΣW)` overall.
//!
//! Unlike the paper's appendix DP it natively supports **forced edges**
//! (conflicting edges that earlier lock grants already resolved), which the
//! CHAIN scheduler needs on every recomputation of `W`.
//!
//! ## Feasibility check
//!
//! In an oriented path graph, paths are monotone runs, and the critical path
//! is the maximum over maximal same-direction segments of the best
//! entry-point cost. Scanning left to right with a threshold `M`:
//!
//! * inside a *down* segment we carry `down[k] = max(r[k], down[k-1]+a[k-1])`
//!   — the longest path ending at `k` moving rightward; it must stay `≤ M`;
//! * inside an *up* segment starting at node `s` we carry
//!   `B = b[s] + … + b[k-1]`, and each node `m` of the segment is an entry
//!   whose path to the segment's left end costs `r[m] + B(m) ≤ M`.
//!
//! Both transitions are monotone in the carried value, so keeping the
//! *minimal* carry per (node, direction) state is complete, and parent
//! pointers reconstruct a witness orientation.

use crate::wtpg::Dir;

use super::{critical_path_of, ChainProblem, ChainSolution};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum From {
    DownState,
    UpState,
}

/// Solves the chain problem optimally, honouring forced edges.
pub fn solve(problem: &ChainProblem) -> ChainSolution {
    let mut solver = Solver::new();
    let critical_path = solver.solve(&problem.r, &problem.a, &problem.b, &problem.forced);
    ChainSolution {
        orient: solver.orient,
        critical_path,
    }
}

/// The optimiser's working memory, reusable across problems of any size:
/// the CHAIN scheduler owns one and re-solves every component of the WTPG
/// through it without allocating. [`solve`] is this on fresh buffers.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    /// `parents[k]` = for each state (down, up) of node `k`, the state at
    /// node `k-1` its carry came from. Only entries written by the current
    /// probe are ever read back, so the buffer is never cleared.
    parents: Vec<[From; 2]>,
    orient: Vec<Dir>,
}

impl Solver {
    /// A solver with empty buffers.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// The witness orientation of the most recent [`Self::solve`].
    pub fn orient(&self) -> &[Dir] {
        &self.orient
    }

    /// Solves the chain with node weights `r`, edge weights `a` (down) and
    /// `b` (up) and pre-resolved edges `forced`; returns the optimal
    /// critical-path length and leaves the witness in [`Self::orient`].
    ///
    /// # Panics
    /// Panics unless `r` is nonempty and `a`, `b`, `forced` have
    /// `r.len() - 1` entries — the [`ChainProblem`] shape.
    pub fn solve(&mut self, r: &[u64], a: &[u64], b: &[u64], forced: &[Option<Dir>]) -> u64 {
        let n = r.len();
        assert!(n >= 1 && a.len() == n - 1 && b.len() == n - 1 && forced.len() == n - 1);
        // A trivially feasible start: forced edges as forced, free ones down.
        self.orient.clear();
        self.orient
            .extend(forced.iter().map(|f| f.unwrap_or(Dir::Down)));
        if n == 1 {
            return r[0];
        }
        if self.parents.len() < n {
            self.parents.resize(n, [From::DownState; 2]);
        }
        // The answer is at least the largest r (every node is reachable from
        // T0) and at most the cost of any feasible orientation.
        let mut lo = r.iter().copied().max().unwrap_or(0);
        let mut hi = critical_path_of(r, a, b, &self.orient);
        debug_assert!(lo <= hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.feasible(r, a, b, forced, mid).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        // lo == hi is feasible by construction; the default stands otherwise.
        if let Some(mut state) = self.feasible(r, a, b, forced, lo) {
            for k in (0..n - 1).rev() {
                let (dir, idx) = match state {
                    From::DownState => (Dir::Down, 0),
                    From::UpState => (Dir::Up, 1),
                };
                self.orient[k] = dir;
                state = self.parents[k + 1][idx];
            }
        }
        debug_assert_eq!(critical_path_of(r, a, b, &self.orient), lo);
        lo
    }

    /// Whether an orientation with critical path `≤ m` exists; if so, the
    /// surviving state at the last node, from which `parents` backtracks to
    /// a witness (reaching `DownState` at node `k` means edge `k-1` is Down).
    fn feasible(
        &mut self,
        r: &[u64],
        a: &[u64],
        b: &[u64],
        forced: &[Option<Dir>],
        m: u64,
    ) -> Option<From> {
        if r[0] > m {
            return None;
        }
        // Minimal carries at the current node. Node 0: degenerate start of a
        // down run (carry r[0]) or left end of an up run (carry 0); both
        // require only r[0] ≤ m, checked above.
        let (mut down, mut up) = (Some(r[0]), Some(0u64));
        for k in 0..r.len() - 1 {
            let (mut next_down, mut next_up) = (None, None);
            let parent = &mut self.parents[k + 1];
            let allow = |d: Dir| forced[k].is_none_or(|f| f == d);
            if allow(Dir::Down) {
                // Continue a down run.
                if let Some(v) = down {
                    let nv = r[k + 1].max(v + a[k]);
                    if nv <= m {
                        next_down = Some(nv);
                        parent[0] = From::DownState;
                    }
                }
                // Close an up run at node k and start a fresh down run there.
                if up.is_some() {
                    let nv = r[k + 1].max(r[k] + a[k]);
                    if nv <= m && next_down.is_none_or(|cur| nv < cur) {
                        next_down = Some(nv);
                        parent[0] = From::UpState;
                    }
                }
            }
            if allow(Dir::Up) {
                // Continue an up run: extend the accumulated b-sum.
                if let Some(bsum) = up {
                    let nb = bsum + b[k];
                    if r[k + 1] + nb <= m {
                        next_up = Some(nb);
                        parent[1] = From::UpState;
                    }
                }
                // Close a down run at node k and open an up run with left end k.
                if down.is_some() {
                    let nb = b[k];
                    if r[k + 1] + nb <= m && next_up.is_none_or(|cur| nb < cur) {
                        next_up = Some(nb);
                        parent[1] = From::DownState;
                    }
                }
            }
            if next_down.is_none() && next_up.is_none() {
                return None;
            }
            (down, up) = (next_down, next_up);
        }
        Some(if down.is_some() {
            From::DownState
        } else {
            From::UpState
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::brute;

    #[test]
    fn solves_paper_figure2() {
        let p = ChainProblem::new(vec![5, 2, 4], vec![1, 4], vec![5, 2]);
        let s = solve(&p);
        assert_eq!(s.critical_path, 6);
        assert_eq!(p.critical_path(&s.orient), 6);
    }

    #[test]
    fn honours_forced_edges() {
        let mut p = ChainProblem::new(vec![5, 2, 4], vec![1, 4], vec![5, 2]);
        p.forced[0] = Some(Dir::Up);
        let s = solve(&p);
        assert_eq!(s.critical_path, 7);
        assert_eq!(s.orient[0], Dir::Up);
    }

    #[test]
    fn matches_oracle_on_handpicked_cases() {
        let cases = vec![
            ChainProblem::new(vec![1], vec![], vec![]),
            ChainProblem::new(vec![3, 3], vec![10, 0][..1].to_vec(), vec![0]),
            ChainProblem::new(vec![0, 100, 0, 100, 0], vec![1, 1, 1, 1], vec![1, 1, 1, 1]),
            ChainProblem::new(
                vec![7, 0, 9, 2, 5, 5],
                vec![3, 8, 0, 2, 6],
                vec![4, 1, 9, 9, 0],
            ),
        ];
        for p in cases {
            assert_eq!(
                solve(&p).critical_path,
                brute::solve(&p).critical_path,
                "{p:?}"
            );
        }
    }

    #[test]
    fn fully_forced_reproduces_evaluation() {
        let p = ChainProblem::with_forced(
            vec![5, 2, 4],
            vec![1, 4],
            vec![5, 2],
            vec![Some(Dir::Down), Some(Dir::Down)],
        );
        let s = solve(&p);
        assert_eq!(s.critical_path, 10);
        assert_eq!(s.orient, vec![Dir::Down, Dir::Down]);
    }

    #[test]
    fn long_alternating_chain() {
        // 50 nodes with heavy up-weights: optimum should avoid long up runs.
        let n = 50;
        let p = ChainProblem::new(vec![1; n], vec![1; n - 1], vec![100; n - 1]);
        let s = solve(&p);
        // All-down keeps each entry path short? all-down gives r[0]+sum a = 50.
        // Better: alternate direction to cut runs. Verify against evaluation.
        assert_eq!(p.critical_path(&s.orient), s.critical_path);
        assert!(s.critical_path <= 50);
    }
}
