//! The K-WTPG contention estimator `E(q)` (paper §3.3).
//!
//! `E(q)` scores a lock request `q` of transaction `T` by the critical path
//! the *present* schedule would have if `q` were granted:
//!
//! 1. Overlay the WTPG with the resolutions granting `q` implies
//!    (`T → T'` for every `T'` holding a conflicting declaration on the
//!    granule). A contradiction or cycle is a (future) deadlock: `E(q) = ∞`.
//! 2. Resolve every conflicting edge `(Ti, Tj)` with `Ti ∈ before(T)` and
//!    `Tj ∈ after(T)` into `Ti → Tj` — those orders are implied by
//!    transitivity through `T`.
//! 3. Delete the remaining conflicting edges and return the length of the
//!    critical path from `T0` to `Tf`.
//!
//! Complexity is `O(max(n, e))`: one DFS for the before/after sets plus one
//! topological pass for the critical path.
//!
//! The overlay never materialises a second graph. Hypothetical precedence
//! edges go into an [`EqScratch`] delta — per-slot linked lists of extra
//! edges plus a resolved-pair list — and every traversal (step 1's cycle
//! checks, step 2's before/after, step 3's critical path) walks the base
//! arena and the delta together. The scratch is reusable across requests, so
//! an estimate in steady state performs no allocation at all; the previous
//! clone-per-request implementation is retained as [`eq_estimate_naive`] and
//! serves as the differential-testing reference.

use crate::txn::TxnId;
use crate::work::Work;
use crate::wtpg::Wtpg;

/// The value of `E(q)`: either a finite critical-path length or ∞ (deadlock).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EqValue {
    /// Granting `q` keeps the schedule deadlock-free; the payload is the
    /// estimated critical path.
    Finite(Work),
    /// Granting `q` would (eventually) deadlock.
    Infinite,
}

impl EqValue {
    /// True for the ∞ case.
    pub fn is_infinite(self) -> bool {
        matches!(self, EqValue::Infinite)
    }
}

impl PartialOrd for EqValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EqValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use EqValue::*;
        match (self, other) {
            (Finite(a), Finite(b)) => a.cmp(b),
            (Finite(_), Infinite) => std::cmp::Ordering::Less,
            (Infinite, Finite(_)) => std::cmp::Ordering::Greater,
            (Infinite, Infinite) => std::cmp::Ordering::Equal,
        }
    }
}

const NIL: u32 = u32::MAX;

/// A hypothetical precedence edge in the overlay delta, chained per source
/// slot through `next`.
#[derive(Clone, Copy, Debug)]
struct ExtraEdge {
    to: u32,
    w: Work,
    next: u32,
}

/// Reusable overlay state for [`eq_estimate_with`]. One instance per
/// scheduler; buffers grow to the arena size once and are reused for every
/// subsequent request.
#[derive(Clone, Debug, Default)]
pub struct EqScratch {
    /// Head of the extra-edge chain per source slot (`NIL` = none).
    extra_head: Vec<u32>,
    extra: Vec<ExtraEdge>,
    /// Slots whose `extra_head` is set — for O(delta) reset.
    touched: Vec<u32>,
    /// Conflicting pairs resolved inside the overlay, as `(from, to)` slots.
    resolved: Vec<(u32, u32)>,
    /// Epoch-stamped visit marks for the reachability DFS.
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    /// Epoch-stamped membership of `before(txn)` / `after(txn)`.
    before: Vec<u32>,
    after: Vec<u32>,
    ba_epoch: u32,
    // Kahn scratch for the overlay critical path.
    indeg: Vec<u32>,
    dist: Vec<Work>,
    queue: Vec<u32>,
}

impl EqScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> EqScratch {
        EqScratch::default()
    }

    /// Clears the delta and sizes the per-slot arrays for `graph`.
    #[expect(
        clippy::indexing_slicing,
        reason = "touched holds indices reset sized extra_head for"
    )]
    fn reset(&mut self, graph: &Wtpg) {
        for &s in &self.touched {
            self.extra_head[s as usize] = NIL;
        }
        self.touched.clear();
        self.extra.clear();
        self.resolved.clear();
        let n = graph.slot_count();
        if self.extra_head.len() < n {
            self.extra_head.resize(n, NIL);
        }
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        if self.before.len() < n {
            self.before.resize(n, 0);
        }
        if self.after.len() < n {
            self.after.resize(n, 0);
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "reset sized extra_head to slot_count; slot ids are in range"
    )]
    fn add_extra(&mut self, from: u32, to: u32, w: Work) {
        let head = &mut self.extra_head[from as usize];
        if *head == NIL {
            self.touched.push(from);
        }
        self.extra.push(ExtraEdge {
            to,
            w,
            next: *head,
        });
        *head = self.extra.len() as u32 - 1;
    }

    fn pair_resolved(&self, a: u32, b: u32) -> bool {
        self.resolved
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// True if the overlay already has the precedence edge `from → to`
    /// (base arena or delta).
    #[expect(
        clippy::indexing_slicing,
        reason = "extra_head entries index into extra by construction"
    )]
    fn has_edge(&self, graph: &Wtpg, from: u32, to: u32) -> bool {
        let to_id = graph.slot_txn(to);
        if graph
            .out_of(from)
            .binary_search_by(|e| e.id.cmp(&to_id))
            .is_ok()
        {
            return true;
        }
        let mut e = self.extra_head[from as usize];
        while e != NIL {
            let edge = self.extra[e as usize];
            if edge.to == to {
                return true;
            }
            e = edge.next;
        }
        false
    }

    /// DFS over base + delta out-edges: can `start` reach `target`?
    #[expect(
        clippy::indexing_slicing,
        reason = "mark is resized to slot_count; stack holds slot ids"
    )]
    fn reaches(&mut self, graph: &Wtpg, start: u32, target: u32) -> bool {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.push_successors(graph, start);
        while let Some(s) = self.stack.pop() {
            if s == target {
                return true;
            }
            if self.mark[s as usize] != self.epoch {
                self.mark[s as usize] = self.epoch;
                self.push_successors(graph, s);
            }
        }
        false
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "extra_head entries index into extra by construction"
    )]
    fn push_successors(&mut self, graph: &Wtpg, s: u32) {
        for e in graph.out_of(s) {
            self.stack.push(e.slot);
        }
        let mut e = self.extra_head[s as usize];
        while e != NIL {
            let edge = self.extra[e as usize];
            self.stack.push(edge.to);
            e = edge.next;
        }
    }

    /// Stamps `before(txn)` and `after(txn)` under the overlay into the
    /// `before`/`after` arrays with a fresh `ba_epoch`.
    ///
    /// `after` walks base + delta edges forward. `before` only needs the
    /// base arena: every delta edge originates at `txn` itself at this
    /// point (step 1 adds `txn → other` only), and an extra edge extending
    /// `before(txn)` would close a cycle through `txn`, which step 1 just
    /// excluded.
    #[expect(
        clippy::indexing_slicing,
        reason = "before/after/stack are sized to slot_count by reset"
    )]
    fn stamp_before_after(&mut self, graph: &Wtpg, s_txn: u32) {
        self.ba_epoch = self.ba_epoch.wrapping_add(1);
        if self.ba_epoch == 0 {
            self.before.fill(0);
            self.after.fill(0);
            self.ba_epoch = 1;
        }
        let epoch = self.ba_epoch;
        self.stack.clear();
        for e in graph.inc_of(s_txn) {
            self.stack.push(e.slot);
        }
        while let Some(s) = self.stack.pop() {
            if self.before[s as usize] != epoch {
                self.before[s as usize] = epoch;
                for e in graph.inc_of(s) {
                    self.stack.push(e.slot);
                }
            }
        }
        self.stack.clear();
        self.push_successors(graph, s_txn);
        while let Some(s) = self.stack.pop() {
            if self.after[s as usize] != epoch {
                self.after[s as usize] = epoch;
                self.push_successors(graph, s);
            }
        }
    }

    /// Longest `T0 → Tf` path of the overlay (base + delta precedence
    /// edges), or `None` on a cycle. Mirrors [`Wtpg::critical_path`].
    #[expect(
        clippy::indexing_slicing,
        reason = "indeg/dist are resized to slot_count; queue holds slot ids"
    )]
    fn critical_path(&mut self, graph: &Wtpg) -> Option<Work> {
        let n = graph.slot_count();
        self.indeg.clear();
        self.indeg.resize(n, 0);
        self.dist.clear();
        self.dist.resize(n, Work::ZERO);
        self.queue.clear();
        for e in &self.extra {
            self.indeg[e.to as usize] += 1;
        }
        let mut live = 0usize;
        for s in graph.live_slots() {
            live += 1;
            self.indeg[s as usize] += graph.inc_of(s).len() as u32;
            if self.indeg[s as usize] == 0 {
                self.queue.push(s);
            }
        }
        let mut best = Work::ZERO;
        let mut head = 0;
        while head < self.queue.len() {
            let s = self.queue[head];
            head += 1;
            let dt = self.dist[s as usize].max(graph.slot_t0(s));
            best = best.max(dt);
            for e in graph.out_of(s) {
                let cand = dt + e.w;
                if cand > self.dist[e.slot as usize] {
                    self.dist[e.slot as usize] = cand;
                }
                self.indeg[e.slot as usize] -= 1;
                if self.indeg[e.slot as usize] == 0 {
                    self.queue.push(e.slot);
                }
            }
            let mut x = self.extra_head[s as usize];
            while x != NIL {
                let edge = self.extra[x as usize];
                let cand = dt + edge.w;
                if cand > self.dist[edge.to as usize] {
                    self.dist[edge.to as usize] = cand;
                }
                self.indeg[edge.to as usize] -= 1;
                if self.indeg[edge.to as usize] == 0 {
                    self.queue.push(edge.to);
                }
                x = edge.next;
            }
        }
        (head == live).then_some(best)
    }
}

/// Computes `E(q)` with a reusable [`EqScratch`] — the hot-path entry point
/// used by the schedulers. The WTPG itself is never mutated; hypothetical
/// resolutions live in the scratch delta.
#[expect(
    clippy::indexing_slicing,
    reason = "all indices are slot ids or Ok results of binary searches"
)]
pub fn eq_estimate_with(
    scratch: &mut EqScratch,
    wtpg: &Wtpg,
    txn: TxnId,
    implied: &[TxnId],
) -> EqValue {
    scratch.reset(wtpg);
    let s_txn = wtpg.slot_of(txn);
    // Step 1: apply the implied resolutions; any of them closing a directed
    // cycle (including contradicting an existing precedence edge) means the
    // grant would deadlock.
    for &other in implied {
        if other == txn {
            continue;
        }
        let Some(s_other) = wtpg.slot_of(other) else {
            continue;
        };
        let Some(s_txn) = s_txn else {
            // The clone-based algorithm fails the resolve on an unknown
            // requester; keep that contract.
            return EqValue::Infinite;
        };
        if scratch.reaches(wtpg, s_other, s_txn) {
            return EqValue::Infinite;
        }
        if !scratch.has_edge(wtpg, s_txn, s_other) {
            // resolve(txn, other): carry the stored conflict weight if the
            // pair is (still) unresolved, zero otherwise.
            let other_id = wtpg.slot_txn(s_other);
            let w = wtpg
                .conf_of(s_txn)
                .binary_search_by(|e| e.id.cmp(&other_id))
                .ok()
                .filter(|_| !scratch.pair_resolved(s_txn, s_other))
                .map(|i| wtpg.conf_of(s_txn)[i].w)
                .unwrap_or(Work::ZERO);
            scratch.add_extra(s_txn, s_other, w);
            scratch.resolved.push((s_txn, s_other));
        }
    }
    // Step 2: orders implied by transitivity through txn.
    if let Some(s_txn) = s_txn {
        scratch.stamp_before_after(wtpg, s_txn);
        let epoch = scratch.ba_epoch;
        for sa in wtpg.live_slots() {
            let a = wtpg.slot_txn(sa);
            for i in 0..wtpg.conf_of(sa).len() {
                let e = wtpg.conf_of(sa)[i];
                if a >= e.id || scratch.pair_resolved(sa, e.slot) {
                    continue;
                }
                let sb = e.slot;
                let w_ab = e.w;
                let a_before = scratch.before[sa as usize] == epoch;
                let a_after = scratch.after[sa as usize] == epoch;
                let b_before = scratch.before[sb as usize] == epoch;
                let b_after = scratch.after[sb as usize] == epoch;
                let (from, to, w) = if a_before && b_after {
                    (sa, sb, w_ab)
                } else if b_before && a_after {
                    let back = wtpg.conf_of(sb);
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: conflict edges are symmetric"
                    )]
                    let j = back
                        .binary_search_by(|x| x.id.cmp(&a))
                        .expect("invariant: conflict edges are symmetric");
                    (sb, sa, back[j].w)
                } else {
                    continue;
                };
                scratch.add_extra(from, to, w);
                scratch.resolved.push((from, to));
            }
        }
    }
    // Step 3: remaining conflicting edges are ignored by the critical path.
    match scratch.critical_path(wtpg) {
        Some(cp) => EqValue::Finite(cp),
        None => EqValue::Infinite,
    }
}

/// Computes `E(q)` for a hypothetical grant to `txn` that would resolve the
/// conflicting edges listed in `implied` as `txn → other`.
///
/// Convenience wrapper over [`eq_estimate_with`] with a throwaway scratch;
/// the schedulers hold a long-lived [`EqScratch`] instead.
pub fn eq_estimate(wtpg: &Wtpg, txn: TxnId, implied: &[TxnId]) -> EqValue {
    let mut scratch = EqScratch::new();
    eq_estimate_with(&mut scratch, wtpg, txn, implied)
}

/// The original clone-per-request estimator: applies the overlay to a full
/// copy of the WTPG through the public mutation API. Kept as the reference
/// implementation for differential tests and benchmarks — `eq_estimate_with`
/// must agree with it on every input.
pub fn eq_estimate_naive(wtpg: &Wtpg, txn: TxnId, implied: &[TxnId]) -> EqValue {
    eq_estimate_naive_in(&mut Wtpg::new(), wtpg, txn, implied)
}

/// [`eq_estimate_naive`] on a copy the caller keeps: `overlay` is refilled
/// from `wtpg` with `clone_from`, which reuses its allocations, so a caller
/// estimating many requests (the replay certifier) copies without
/// allocating. The algorithm is the same, step for step.
pub fn eq_estimate_naive_in(
    overlay: &mut Wtpg,
    wtpg: &Wtpg,
    txn: TxnId,
    implied: &[TxnId],
) -> EqValue {
    overlay.clone_from(wtpg);
    // Step 1: apply the implied resolutions; any of them closing a directed
    // cycle (including contradicting an existing precedence edge) means the
    // grant would deadlock.
    for &other in implied {
        if other == txn || !overlay.contains(other) {
            continue;
        }
        if overlay.would_deadlock(txn, other) {
            return EqValue::Infinite;
        }
        if overlay.resolve(txn, other).is_err() {
            return EqValue::Infinite;
        }
    }
    // Step 2: orders implied by transitivity through txn. Only a pair with
    // one end on each side resolves, so when `txn` has no predecessor or no
    // successor there is nothing to resolve.
    let linked = overlay
        .slot_of(txn)
        .is_some_and(|s| !overlay.inc_of(s).is_empty() && !overlay.out_of(s).is_empty());
    if linked {
        let before = overlay.before(txn);
        let after = overlay.after(txn);
        let (is_before, is_after) = (
            |t: &TxnId| before.binary_search(t).is_ok(),
            |t: &TxnId| after.binary_search(t).is_ok(),
        );
        for (a, b, _, _) in overlay.conflict_edges() {
            let (from, to) = if is_before(&a) && is_after(&b) {
                (a, b)
            } else if is_before(&b) && is_after(&a) {
                (b, a)
            } else {
                continue;
            };
            if overlay.resolve(from, to).is_err() {
                return EqValue::Infinite;
            }
        }
    }
    // Step 3: remaining conflicting edges are ignored by critical_path().
    match overlay.critical_path() {
        Some(cp) => EqValue::Finite(cp),
        None => EqValue::Infinite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(o: u64) -> Work {
        Work::from_objects(o)
    }

    /// The paper's Figure 4-(a): precedence T4→T5 (weight 0), conflicts
    /// (T4,T6) with w(T4→T6)=10, w(T6→T4)=1, and (T5,T6) with w(T5→T6)=3,
    /// w(T6→T5)=1. All `w(T0→Ti) = 0` as the example assumes.
    ///
    /// The weights are chosen to reproduce Example 3.4/3.5: granting T5's
    /// request resolves (T5,T6) into T5→T6, before(T5)={T4}, after(T5)={T6},
    /// so (T4,T6) resolves into T4→T6 and the critical path is T4→T6 of
    /// length 10, E(q) = 10. Granting T6's conflicting request instead gives
    /// E(q') = 1.
    fn figure4() -> Wtpg {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(4), Work::ZERO).unwrap();
        g.add_txn(TxnId(5), Work::ZERO).unwrap();
        g.add_txn(TxnId(6), Work::ZERO).unwrap();
        g.add_or_merge_conflict(TxnId(4), TxnId(5), w(0), w(9))
            .unwrap();
        g.resolve(TxnId(4), TxnId(5)).unwrap();
        g.add_or_merge_conflict(TxnId(4), TxnId(6), w(10), w(1))
            .unwrap();
        g.add_or_merge_conflict(TxnId(5), TxnId(6), w(3), w(1))
            .unwrap();
        g
    }

    #[test]
    fn example_3_4_eq_of_t5() {
        let g = figure4();
        // T5 requests a lock conflicting with T6.
        let e = eq_estimate(&g, TxnId(5), &[TxnId(6)]);
        assert_eq!(e, EqValue::Finite(w(10))); // critical path T4→T6 = 10
    }

    #[test]
    fn example_3_5_eq_of_t6_is_smaller() {
        let g = figure4();
        // T6's conflicting request q': resolves (T6,T5) into T6→T5.
        // before(T6) = {}, after(T6) = {T5}; (T4,T6) is NOT resolvable by
        // step 2 (T4 not in before(T6)) and is deleted; critical path is
        // T6→T5 … but w(T6→T5)=1 and all T0 weights are 0 → E(q') = 1.
        let e = eq_estimate(&g, TxnId(6), &[TxnId(5)]);
        assert_eq!(e, EqValue::Finite(w(1)));
        // CC2 would therefore delay T5's request: E(q) = 10 > E(q') = 1.
        assert!(eq_estimate(&g, TxnId(5), &[TxnId(6)]) > e);
    }

    #[test]
    fn deadlock_is_infinite() {
        let g = figure4();
        // T5 → T4 contradicts the existing T4 → T5 precedence edge.
        assert_eq!(eq_estimate(&g, TxnId(5), &[TxnId(4)]), EqValue::Infinite);
    }

    #[test]
    fn transitive_deadlock_is_infinite() {
        let mut g = Wtpg::new();
        for i in 1..=3 {
            g.add_txn(TxnId(i), Work::ZERO).unwrap();
        }
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(1), w(1))
            .unwrap();
        g.add_or_merge_conflict(TxnId(2), TxnId(3), w(1), w(1))
            .unwrap();
        g.add_or_merge_conflict(TxnId(1), TxnId(3), w(1), w(1))
            .unwrap();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        g.resolve(TxnId(2), TxnId(3)).unwrap();
        // T3 → T1 closes the cycle through T2.
        assert_eq!(eq_estimate(&g, TxnId(3), &[TxnId(1)]), EqValue::Infinite);
    }

    #[test]
    fn t0_weights_enter_the_estimate() {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(7)).unwrap();
        g.add_txn(TxnId(2), w(2)).unwrap();
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(4), w(1))
            .unwrap();
        // Granting T1's request: path T0→T1→T2 = 7 + 4 = 11.
        assert_eq!(
            eq_estimate(&g, TxnId(1), &[TxnId(2)]),
            EqValue::Finite(w(11))
        );
        // Granting T2's: path T0→T2→T1 = 2 + 1 = 3 vs r(T1)=7 → 7.
        assert_eq!(
            eq_estimate(&g, TxnId(2), &[TxnId(1)]),
            EqValue::Finite(w(7))
        );
    }

    #[test]
    fn no_conflicts_yields_current_critical_path() {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(5)).unwrap();
        g.add_txn(TxnId(2), w(3)).unwrap();
        assert_eq!(eq_estimate(&g, TxnId(1), &[]), EqValue::Finite(w(5)));
    }

    #[test]
    fn eq_value_ordering() {
        assert!(EqValue::Finite(w(10)) < EqValue::Infinite);
        assert!(EqValue::Finite(w(1)) < EqValue::Finite(w(2)));
        assert_eq!(
            EqValue::Infinite.cmp(&EqValue::Infinite),
            std::cmp::Ordering::Equal
        );
        assert!(EqValue::Infinite.is_infinite());
        assert!(!EqValue::Finite(Work::ZERO).is_infinite());
    }

    #[test]
    fn estimator_does_not_mutate_the_wtpg() {
        let g = figure4();
        let before = g.to_dot();
        let _ = eq_estimate(&g, TxnId(5), &[TxnId(6)]);
        assert_eq!(g.to_dot(), before);
    }

    #[test]
    fn overlay_agrees_with_naive_on_the_paper_examples() {
        let g = figure4();
        let mut scratch = EqScratch::new();
        let cases: &[(TxnId, &[TxnId])] = &[
            (TxnId(5), &[TxnId(6)]),
            (TxnId(6), &[TxnId(5)]),
            (TxnId(5), &[TxnId(4)]),
            (TxnId(4), &[TxnId(5), TxnId(6)]),
            (TxnId(5), &[]),
            (TxnId(9), &[TxnId(5)]), // unknown requester
            (TxnId(5), &[TxnId(9)]), // unknown partner
        ];
        for &(txn, implied) in cases {
            assert_eq!(
                eq_estimate_with(&mut scratch, &g, txn, implied),
                eq_estimate_naive(&g, txn, implied),
                "txn {txn:?} implied {implied:?}"
            );
        }
    }

    #[test]
    fn scratch_is_reusable_across_requests() {
        let g = figure4();
        let mut scratch = EqScratch::new();
        // Alternate between deadlocking and finite requests; stale delta
        // state from an earlier call must never leak into the next one.
        for _ in 0..3 {
            assert_eq!(
                eq_estimate_with(&mut scratch, &g, TxnId(5), &[TxnId(6)]),
                EqValue::Finite(w(10))
            );
            assert_eq!(
                eq_estimate_with(&mut scratch, &g, TxnId(5), &[TxnId(4)]),
                EqValue::Infinite
            );
            assert_eq!(
                eq_estimate_with(&mut scratch, &g, TxnId(6), &[TxnId(5)]),
                EqValue::Finite(w(1))
            );
        }
    }
}
