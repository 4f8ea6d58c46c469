//! Chain-form detection and extraction (paper Definition 2).
//!
//! A WTPG is *chain-form* when its transactions can be labelled `1..N` so
//! that each conflicts only with its label neighbours — equivalently, the
//! undirected conflict structure (unresolved conflicting edges **plus**
//! already-resolved precedence edges, which are conflicts too) is a disjoint
//! union of simple paths: every node has conflict degree ≤ 2 and no
//! component is a cycle. The paper tests this "by the depth first traverse";
//! we do the same walk and additionally *extract* each path component
//! together with its weights, ready for the optimisers.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::CoreError;
use crate::lock::ArrivalConflict;
use crate::txn::TxnId;
use crate::wtpg::{Dir, Wtpg};

use super::{threshold, ChainProblem};

/// Witness that the WTPG is not chain-form, with the offending transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NotChainForm {
    /// A transaction conflicts with three or more others.
    DegreeTooHigh(TxnId),
    /// A conflict component closes a cycle.
    Cycle(TxnId),
}

impl std::fmt::Display for NotChainForm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NotChainForm::DegreeTooHigh(t) => {
                write!(f, "{t} conflicts with more than two transactions")
            }
            NotChainForm::Cycle(t) => write!(f, "conflict cycle through {t}"),
        }
    }
}

/// One path component of a chain-form WTPG: the transactions in path order
/// and the corresponding optimisation instance.
#[derive(Clone, Debug)]
pub struct ChainComponent {
    /// Transactions along the path. `nodes[i]` is chain label `i`.
    pub nodes: Vec<TxnId>,
    /// The weights/constraints of this component.
    pub problem: ChainProblem,
}

/// Decomposes the WTPG's conflict structure into path components, or reports
/// why it is not chain-form.
///
/// Deterministic: components are discovered in ascending order of their
/// smallest endpoint, and each path is oriented to start at its
/// smaller-id endpoint.
pub fn chain_components(wtpg: &Wtpg) -> Result<Vec<ChainComponent>, NotChainForm> {
    // Undirected conflict adjacency: conflicting edges + precedence edges.
    let mut adj: BTreeMap<TxnId, Vec<TxnId>> = BTreeMap::new();
    for t in wtpg.txn_ids() {
        let mut n: Vec<TxnId> = wtpg.conflict_partners(t);
        n.extend(wtpg.precedence_successors(t));
        n.extend(wtpg.precedence_predecessors(t));
        n.sort_unstable();
        n.dedup();
        if n.len() > 2 {
            return Err(NotChainForm::DegreeTooHigh(t));
        }
        adj.insert(t, n);
    }
    let mut visited: BTreeSet<TxnId> = BTreeSet::new();
    let mut components = Vec::new();
    // Walk from endpoints (degree ≤ 1) first; anything left is a cycle.
    let endpoints: Vec<TxnId> = adj
        .iter()
        .filter(|(_, n)| n.len() <= 1)
        .map(|(&t, _)| t)
        .collect();
    for start in endpoints {
        if visited.contains(&start) {
            continue;
        }
        let mut nodes = vec![start];
        visited.insert(start);
        let mut cur = start;
        loop {
            let next = adj[&cur].iter().copied().find(|t| !visited.contains(t));
            match next {
                Some(t) => {
                    visited.insert(t);
                    nodes.push(t);
                    cur = t;
                }
                None => break,
            }
        }
        components.push(build_component(wtpg, nodes));
    }
    if let Some(&t) = adj.keys().find(|t| !visited.contains(t)) {
        // Every unvisited node has degree exactly 2: a cycle.
        return Err(NotChainForm::Cycle(t));
    }
    Ok(components)
}

/// True if the WTPG satisfies Definition 2 — the CHAIN admission test.
pub fn is_chain_form(wtpg: &Wtpg) -> bool {
    chain_components(wtpg).is_ok()
}

fn build_component(wtpg: &Wtpg, nodes: Vec<TxnId>) -> ChainComponent {
    let r: Vec<u64> = nodes
        .iter()
        .map(|&t| wtpg.t0_weight(t).expect("component node is live").units())
        .collect();
    let mut a = Vec::with_capacity(nodes.len().saturating_sub(1));
    let mut b = Vec::with_capacity(a.capacity());
    let mut forced = Vec::with_capacity(a.capacity());
    for pair in nodes.windows(2) {
        let (x, y) = (pair[0], pair[1]);
        if let Some((w_xy, w_yx)) = wtpg.conflict_weights(x, y) {
            a.push(w_xy.units());
            b.push(w_yx.units());
            forced.push(None);
        } else if let Some(w) = wtpg.precedence_weight(x, y) {
            a.push(w.units());
            b.push(0);
            forced.push(Some(Dir::Down));
        } else if let Some(w) = wtpg.precedence_weight(y, x) {
            a.push(0);
            b.push(w.units());
            forced.push(Some(Dir::Up));
        } else {
            unreachable!("adjacent chain nodes {x} and {y} share no edge");
        }
    }
    let problem = ChainProblem::with_forced(r, a, b, forced);
    ChainComponent { nodes, problem }
}

// ---- The schedulers' change-proportional path (DESIGN.md §9) ----
//
// `chain_components` above rebuilds the whole conflict structure and is the
// oracle (certifiers, `wtpg plan`, tests). The schedulers keep the WTPG
// chain-form by construction — every admission goes through
// `arrival_keeps_chain_form`, and neither a grant nor a commit ever joins
// two transactions that were not adjacent already — so they read degrees
// and paths straight off the slot arena instead.

/// Slots adjacent to `s` in the undirected conflict structure. A pair
/// carries at most one edge of any kind, so there are no repeats.
pub(crate) fn neighbours(wtpg: &Wtpg, s: u32) -> impl Iterator<Item = u32> + '_ {
    let conf = wtpg.conf_of(s).iter().map(|e| e.slot);
    let out = wtpg.out_of(s).iter().map(|e| e.slot);
    let inc = wtpg.inc_of(s).iter().map(|e| e.slot);
    conf.chain(out).chain(inc)
}

/// Conflict degree of slot `s`: its neighbours in the undirected structure.
pub(crate) fn degree(wtpg: &Wtpg, s: u32) -> usize {
    wtpg.conf_of(s).len() + wtpg.out_of(s).len() + wtpg.inc_of(s).len()
}

/// The CHAIN admission test, read-only: would a chain-form `wtpg` still be
/// chain-form with a new transaction adjacent to every `other` named in
/// `conflicts` (its [`LockTable::arrival_conflicts`])?
///
/// The newcomer's degree is the number of distinct transactions it
/// conflicts with, each of which gains exactly one neighbour, and a new
/// cycle has to pass through the newcomer. So: at most two of them, each a
/// path endpoint today (degree ≤ 1), and — when there are two — not the two
/// ends of one path.
///
/// [`LockTable::arrival_conflicts`]: crate::lock::LockTable::arrival_conflicts
pub(crate) fn arrival_keeps_chain_form(
    wtpg: &Wtpg,
    conflicts: &[ArrivalConflict],
) -> Result<bool, CoreError> {
    let mut ends: [Option<u32>; 2] = [None, None];
    for c in conflicts {
        let other = c.other();
        let s = wtpg.slot_of(other).ok_or(CoreError::UnknownTxn(other))?;
        if ends.contains(&Some(s)) {
            continue;
        }
        let Some(free) = ends.iter_mut().find(|e| e.is_none()) else {
            return Ok(false); // a third neighbour
        };
        if degree(wtpg, s) > 1 {
            return Ok(false); // `other` is interior to its path already
        }
        *free = Some(s);
    }
    let [Some(from), Some(to)] = ends else {
        return Ok(true);
    };
    // Walk from one endpoint to the far end of its path.
    let (mut prev, mut cur) = (from, from);
    for _ in 0..wtpg.len() {
        match neighbours(wtpg, cur).find(|&n| n != prev) {
            Some(next) => (prev, cur) = (cur, next),
            None => break,
        }
    }
    Ok(cur != to)
}

/// CHAIN's `W` recomputation with its working memory: walks every path
/// component off the slot arena, solves each through one reusable
/// [`threshold::Solver`], and allocates nothing in steady state.
#[derive(Clone, Debug, Default)]
pub(crate) struct WPlanner {
    /// Per-slot visited flags of the current walk.
    visited: Vec<bool>,
    /// The component being solved: transactions in path order and their
    /// [`ChainProblem`] weights.
    nodes: Vec<TxnId>,
    r: Vec<u64>,
    a: Vec<u64>,
    b: Vec<u64>,
    forced: Vec<Option<Dir>>,
    solver: threshold::Solver,
}

impl WPlanner {
    /// Replaces `w` with the full SR-order of shortest critical path: one
    /// oriented pair `(from, to)` per chain edge, sorted. Components and
    /// path directions are those of [`chain_components`] (ascending
    /// smaller-id endpoint, walked from that endpoint), so the optimiser
    /// sees identical problems and breaks ties identically.
    pub(crate) fn recompute(
        &mut self,
        wtpg: &Wtpg,
        w: &mut Vec<(TxnId, TxnId)>,
    ) -> Result<(), NotChainForm> {
        w.clear();
        self.visited.clear();
        self.visited.resize(wtpg.slot_count(), false);
        let mut walked = 0;
        for start in wtpg.live_slots() {
            match degree(wtpg, start) {
                0 | 1 => {}
                2 => continue,
                _ => return Err(NotChainForm::DegreeTooHigh(wtpg.slot_txn(start))),
            }
            if self.visited[start as usize] {
                continue; // the far end of a path already walked
            }
            self.walk(wtpg, start);
            walked += self.nodes.len();
            if self.nodes.len() == 1 {
                continue;
            }
            self.solver.solve(&self.r, &self.a, &self.b, &self.forced);
            for (pair, dir) in self.nodes.windows(2).zip(self.solver.orient()) {
                w.push(match dir {
                    Dir::Down => (pair[0], pair[1]),
                    Dir::Up => (pair[1], pair[0]),
                });
            }
        }
        if walked != wtpg.len() {
            // Every node no walk reached has degree exactly 2: a cycle.
            let on_cycle = wtpg.live_slots().find(|&s| !self.visited[s as usize]);
            return Err(NotChainForm::Cycle(wtpg.slot_txn(
                on_cycle.expect("fewer walked than live leaves one unvisited"),
            )));
        }
        w.sort_unstable();
        Ok(())
    }

    /// Fills `nodes`/`r`/`a`/`b`/`forced` with the path starting at the
    /// endpoint `start`, marking it visited.
    fn walk(&mut self, wtpg: &Wtpg, start: u32) {
        self.nodes.clear();
        self.r.clear();
        self.a.clear();
        self.b.clear();
        self.forced.clear();
        let mut cur = start;
        loop {
            self.visited[cur as usize] = true;
            self.nodes.push(wtpg.slot_txn(cur));
            self.r.push(wtpg.slot_t0(cur).units());
            let unvisited = |s: u32| !self.visited[s as usize];
            // The edge to the next node: an unresolved pair carries both
            // weights (the reverse one in the partner's list); a precedence
            // edge only its own direction's.
            let (next, a, b, forced) =
                if let Some(e) = wtpg.conf_of(cur).iter().find(|e| unvisited(e.slot)) {
                    let back = wtpg.conf_of(e.slot).iter().find(|c| c.slot == cur);
                    let back = back.expect("invariant: conflict edges are symmetric");
                    (e.slot, e.w.units(), back.w.units(), None)
                } else if let Some(e) = wtpg.out_of(cur).iter().find(|e| unvisited(e.slot)) {
                    (e.slot, e.w.units(), 0, Some(Dir::Down))
                } else if let Some(e) = wtpg.inc_of(cur).iter().find(|e| unvisited(e.slot)) {
                    let back = wtpg.out_of(e.slot).iter().find(|o| o.slot == cur);
                    let back = back.expect("invariant: inc mirrors the source's out edge");
                    (e.slot, 0, back.w.units(), Some(Dir::Up))
                } else {
                    return;
                };
            self.a.push(a);
            self.b.push(b);
            self.forced.push(forced);
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::Work;

    fn w(o: u64) -> Work {
        Work::from_objects(o)
    }

    fn add(g: &mut Wtpg, id: u64, t0: u64) {
        g.add_txn(TxnId(id), w(t0)).unwrap();
    }

    fn conflict(g: &mut Wtpg, a: u64, b: u64, ab: u64, ba: u64) {
        g.add_or_merge_conflict(TxnId(a), TxnId(b), w(ab), w(ba))
            .unwrap();
    }

    #[test]
    fn figure2_is_one_chain() {
        let mut g = Wtpg::new();
        add(&mut g, 1, 5);
        add(&mut g, 2, 2);
        add(&mut g, 3, 4);
        conflict(&mut g, 1, 2, 1, 5);
        conflict(&mut g, 2, 3, 4, 2);
        let comps = chain_components(&g).unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].nodes, vec![TxnId(1), TxnId(2), TxnId(3)]);
        let p = &comps[0].problem;
        assert_eq!(p.r, vec![5000, 2000, 4000]);
        assert_eq!(p.a, vec![1000, 4000]);
        assert_eq!(p.b, vec![5000, 2000]);
        assert!(p.forced.iter().all(Option::is_none));
    }

    #[test]
    fn isolated_nodes_are_singleton_chains() {
        let mut g = Wtpg::new();
        add(&mut g, 1, 3);
        add(&mut g, 2, 7);
        let comps = chain_components(&g).unwrap();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].problem.r, vec![3000]);
        assert_eq!(comps[1].problem.r, vec![7000]);
    }

    #[test]
    fn multiple_disjoint_chains() {
        let mut g = Wtpg::new();
        for i in 1..=5 {
            add(&mut g, i, i);
        }
        conflict(&mut g, 1, 2, 1, 1);
        conflict(&mut g, 4, 5, 1, 1);
        let comps = chain_components(&g).unwrap();
        assert_eq!(comps.len(), 3);
        let sizes: Vec<usize> = comps.iter().map(|c| c.nodes.len()).collect();
        assert_eq!(sizes, vec![2, 1, 2]);
    }

    #[test]
    fn degree_three_rejected() {
        let mut g = Wtpg::new();
        for i in 1..=4 {
            add(&mut g, i, 1);
        }
        conflict(&mut g, 1, 2, 1, 1);
        conflict(&mut g, 2, 3, 1, 1);
        conflict(&mut g, 2, 4, 1, 1);
        // TxnId(2) conflicts with 1, 3 and 4.
        assert!(matches!(
            chain_components(&g),
            Err(NotChainForm::DegreeTooHigh(TxnId(2)))
        ));
        assert!(!is_chain_form(&g));
    }

    #[test]
    fn cycle_rejected() {
        let mut g = Wtpg::new();
        for i in 1..=3 {
            add(&mut g, i, 1);
        }
        conflict(&mut g, 1, 2, 1, 1);
        conflict(&mut g, 2, 3, 1, 1);
        conflict(&mut g, 3, 1, 1, 1);
        assert!(matches!(chain_components(&g), Err(NotChainForm::Cycle(_))));
    }

    #[test]
    fn precedence_edges_count_as_conflicts_and_are_forced() {
        let mut g = Wtpg::new();
        add(&mut g, 1, 5);
        add(&mut g, 2, 2);
        add(&mut g, 3, 4);
        conflict(&mut g, 1, 2, 1, 5);
        conflict(&mut g, 2, 3, 4, 2);
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        let comps = chain_components(&g).unwrap();
        assert_eq!(comps.len(), 1);
        let p = &comps[0].problem;
        assert_eq!(p.forced, vec![Some(Dir::Down), None]);
        assert_eq!(p.a, vec![1000, 4000]);
    }

    #[test]
    fn upward_precedence_forces_up() {
        let mut g = Wtpg::new();
        add(&mut g, 1, 5);
        add(&mut g, 2, 2);
        conflict(&mut g, 1, 2, 1, 5);
        g.resolve(TxnId(2), TxnId(1)).unwrap();
        let comps = chain_components(&g).unwrap();
        let p = &comps[0].problem;
        assert_eq!(p.forced, vec![Some(Dir::Up)]);
        assert_eq!(p.b, vec![5000]);
        assert_eq!(p.a, vec![0]);
    }

    #[test]
    fn empty_wtpg_has_no_components() {
        let g = Wtpg::new();
        assert!(chain_components(&g).unwrap().is_empty());
    }
}
