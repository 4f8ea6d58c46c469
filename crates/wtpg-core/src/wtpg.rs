//! The Weighted Transaction Precedence Graph (paper §3.1, Definition 1).
//!
//! Nodes are the live transactions plus two virtual endpoints: `T0`, the
//! initial transaction, and `Tf`, the final one. Between transactions there
//! are two kinds of edges:
//!
//! * **conflicting edges** `(Ti, Tj)` — an unresolved pair of directed edges
//!   created when both transactions have issued conflicting lock declarations
//!   on some granule, carrying *both* candidate weights;
//! * **precedence edges** `Ti → Tj` — a resolved serialization decision,
//!   produced only by resolving a conflicting edge.
//!
//! Weights count work in objects (fixed-point [`Work`] units):
//! `w(T0→Ti)` is what `Ti` must still access before it commits (decremented
//! live, one message per processed object), `w(Ti→Tj)` is what `Tj` must
//! access *after `Ti` commits* before `Tj` itself commits, and `w(Ti→Tf)` is
//! zero under the paper's cost model (bulk-updated data are written back
//! immediately). The longest `T0 → Tf` path of a fully resolved WTPG is the
//! earliest possible completion time of the whole schedule — the quantity
//! both CHAIN and K-WTPG minimise.
//!
//! Committed transactions are removed: their locks are gone and their
//! outgoing precedence edges are satisfied constraints (see DESIGN.md §5).
//!
//! # Storage layout
//!
//! The schedulers hammer `critical_path`, `before`/`after` and
//! `would_deadlock` on every grant decision, so nodes live in a slot arena:
//! a contiguous `Vec<Slot>` with a free list, plus a `TxnId → slot` index —
//! an [`IdWindow`], so the lookup every operation starts with is one
//! subtraction, and the live slots walk in ascending id order.
//! Adjacency lists are `TxnId`-sorted `Vec`s carrying the partner's slot, so
//! traversals walk dense `u32` indices instead of chasing `BTreeMap` nodes,
//! and the public enumeration orders are unchanged from the map-based
//! implementation. Traversal state (Kahn queue, distance array, visit
//! stamps) lives in a reusable scratch behind a `RefCell`, so the read-only
//! query methods allocate nothing in steady state.
//!
//! Every structural mutation — node add/remove, conflict add/merge,
//! resolution — bumps a monotone [`version`](Wtpg::version) counter that the
//! schedulers key their `E(q)`/`W` caches on. Pure `w(T0→Ti)` adjustments
//! (`set_t0_weight`, `decrement_t0_weight`) deliberately do *not* bump it:
//! they model the keeptime drift of §3.4, which the paper's own reuse of `W`
//! between structural changes already tolerates.

use std::cell::RefCell;

use crate::error::CoreError;
use crate::lock::ArrivalConflict;
use crate::txn::TxnId;
use crate::window::IdWindow;
use crate::work::Work;

/// Orientation of a resolved chain edge, in chain-label order: `Down` means
/// `n[k] → n[k+1]`, `Up` means `n[k+1] → n[k]` (paper appendix notation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Dir {
    /// Lower label precedes higher label.
    Down,
    /// Higher label precedes lower label.
    Up,
}

impl Dir {
    /// The opposite orientation.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Down => Dir::Up,
            Dir::Up => Dir::Down,
        }
    }
}

/// Outgoing precedence edge: successor and `w(me → successor)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OutEdge {
    pub(crate) id: TxnId,
    pub(crate) slot: u32,
    pub(crate) w: Work,
}

/// Source of an incoming precedence edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Neighbor {
    pub(crate) id: TxnId,
    pub(crate) slot: u32,
}

/// Unresolved conflicting edge: partner and `w(me → partner)`. Symmetric —
/// the partner's list holds the reverse weight.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConfEdge {
    pub(crate) id: TxnId,
    pub(crate) slot: u32,
    pub(crate) w: Work,
}

/// One arena slot. Dead slots keep their (cleared) adjacency buffers so a
/// reused slot starts with warm allocations.
#[derive(Debug)]
struct Slot {
    live: bool,
    id: TxnId,
    /// `w(T0 → Ti)`: declared work remaining before commit.
    t0_weight: Work,
    /// Outgoing precedence edges, sorted by successor id.
    out: Vec<OutEdge>,
    /// Incoming precedence edge sources, sorted by id.
    inc: Vec<Neighbor>,
    /// Unresolved conflicting edges, sorted by partner id.
    conf: Vec<ConfEdge>,
}

impl Clone for Slot {
    fn clone(&self) -> Slot {
        Slot {
            live: self.live,
            id: self.id,
            t0_weight: self.t0_weight,
            out: self.out.clone(),
            inc: self.inc.clone(),
            conf: self.conf.clone(),
        }
    }

    // `clone_from` keeps the destination's adjacency buffers, so overlay
    // scratch graphs refresh without reallocating.
    fn clone_from(&mut self, src: &Slot) {
        self.live = src.live;
        self.id = src.id;
        self.t0_weight = src.t0_weight;
        self.out.clone_from(&src.out);
        self.inc.clone_from(&src.inc);
        self.conf.clone_from(&src.conf);
    }
}

/// Reusable traversal state. `mark` is an epoch-stamped visited array: a
/// traversal bumps `epoch` instead of clearing the whole vector.
#[derive(Debug, Default)]
struct Scratch {
    indeg: Vec<u32>,
    dist: Vec<Work>,
    queue: Vec<u32>,
    mark: Vec<u32>,
    stack: Vec<u32>,
    epoch: u32,
}

impl Scratch {
    /// Starts a traversal over `n` slots and returns the fresh epoch.
    fn begin_mark(&mut self, n: usize) -> u32 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: old stamps become ambiguous, reset them.
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// The Weighted Transaction Precedence Graph over the live transactions.
#[derive(Debug, Default)]
pub struct Wtpg {
    slots: Vec<Slot>,
    free: Vec<u32>,
    index: IdWindow<u32>,
    version: u64,
    scratch: RefCell<Scratch>,
}

impl Clone for Wtpg {
    fn clone(&self) -> Wtpg {
        Wtpg {
            slots: self.slots.clone(),
            free: self.free.clone(),
            index: self.index.clone(),
            version: self.version,
            scratch: RefCell::default(),
        }
    }

    fn clone_from(&mut self, src: &Wtpg) {
        self.slots.clone_from(&src.slots);
        self.free.clone_from(&src.free);
        self.index.clone_from(&src.index);
        self.version = src.version;
    }
}

fn find_out(list: &[OutEdge], id: TxnId) -> Result<usize, usize> {
    list.binary_search_by(|e| e.id.cmp(&id))
}

fn find_inc(list: &[Neighbor], id: TxnId) -> Result<usize, usize> {
    list.binary_search_by(|e| e.id.cmp(&id))
}

fn find_conf(list: &[ConfEdge], id: TxnId) -> Result<usize, usize> {
    list.binary_search_by(|e| e.id.cmp(&id))
}

impl Wtpg {
    /// An empty WTPG (just `T0` and `Tf`, conceptually).
    pub fn new() -> Wtpg {
        Wtpg::default()
    }

    /// Number of live transaction nodes.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no transactions are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if `txn` is a live node.
    pub fn contains(&self, txn: TxnId) -> bool {
        self.index.contains(txn)
    }

    /// Live transaction ids, ascending.
    pub fn txn_ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.index.keys()
    }

    /// Monotone structural version: bumped by every node or edge mutation
    /// (add/remove/conflict/resolve), *not* by `w(T0→Ti)` adjustments.
    /// Schedulers key memoised `E(q)` values and chain decompositions on it.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn lookup(&self, txn: TxnId) -> Result<u32, CoreError> {
        self.index.get(txn).copied().ok_or(CoreError::UnknownTxn(txn))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "slot ids are minted by add_txn and always < slots.len()"
    )]
    fn slot(&self, s: u32) -> &Slot {
        &self.slots[s as usize]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "slot ids are minted by add_txn and always < slots.len()"
    )]
    fn slot_mut(&mut self, s: u32) -> &mut Slot {
        &mut self.slots[s as usize]
    }

    // ---- crate-internal views for the overlay estimator (estimate.rs) ----

    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn slot_of(&self, txn: TxnId) -> Option<u32> {
        self.index.get(txn).copied()
    }

    /// Live slots in ascending `TxnId` order.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.index.values().copied()
    }

    pub(crate) fn slot_txn(&self, s: u32) -> TxnId {
        self.slot(s).id
    }

    pub(crate) fn slot_t0(&self, s: u32) -> Work {
        self.slot(s).t0_weight
    }

    pub(crate) fn out_of(&self, s: u32) -> &[OutEdge] {
        &self.slot(s).out
    }

    pub(crate) fn inc_of(&self, s: u32) -> &[Neighbor] {
        &self.slot(s).inc
    }

    pub(crate) fn conf_of(&self, s: u32) -> &[ConfEdge] {
        &self.slot(s).conf
    }

    /// Pushes `txn`'s slot and its neighbours' slots (over every edge kind)
    /// onto `out`: the slots an event on `txn` can have changed. Nothing
    /// when `txn` is not live.
    pub(crate) fn slot_and_neighbours(&self, txn: TxnId, out: &mut Vec<u32>) {
        let Some(s) = self.slot_of(txn) else {
            return;
        };
        out.push(s);
        if let Some(slot) = self.slots.get(s as usize) {
            out.extend(slot.conf.iter().map(|e| e.slot));
            out.extend(slot.out.iter().map(|e| e.slot));
            out.extend(slot.inc.iter().map(|e| e.slot));
        }
    }

    /// Adds a transaction node with its initial `w(T0 → Ti) = due(s_0)`.
    ///
    /// # Errors
    /// [`CoreError::DuplicateTxn`] if the id is already live.
    pub fn add_txn(&mut self, txn: TxnId, t0_weight: Work) -> Result<(), CoreError> {
        if self.index.contains(txn) {
            return Err(CoreError::DuplicateTxn(txn));
        }
        let s = match self.free.pop() {
            Some(s) => {
                let slot = self.slot_mut(s);
                debug_assert!(!slot.live && slot.out.is_empty());
                slot.live = true;
                slot.id = txn;
                slot.t0_weight = t0_weight;
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    live: true,
                    id: txn,
                    t0_weight,
                    out: Vec::new(),
                    inc: Vec::new(),
                    conf: Vec::new(),
                });
                s
            }
        };
        self.index.insert(txn, s);
        self.version += 1;
        self.debug_validate();
        Ok(())
    }

    /// Removes a committed (or aborted) transaction and every incident edge.
    pub fn remove_txn(&mut self, txn: TxnId) -> Result<(), CoreError> {
        let s = self.index.remove(txn).ok_or(CoreError::UnknownTxn(txn))?;
        // Take the adjacency lists out, detach the partners, then hand the
        // cleared buffers back so a reused slot keeps its capacity.
        let mut out = std::mem::take(&mut self.slot_mut(s).out);
        for e in &out {
            let succ = self.slot_mut(e.slot);
            if let Ok(i) = find_inc(&succ.inc, txn) {
                succ.inc.remove(i);
            }
        }
        out.clear();
        let mut inc = std::mem::take(&mut self.slot_mut(s).inc);
        for e in &inc {
            let pred = self.slot_mut(e.slot);
            if let Ok(i) = find_out(&pred.out, txn) {
                pred.out.remove(i);
            }
        }
        inc.clear();
        let mut conf = std::mem::take(&mut self.slot_mut(s).conf);
        for e in &conf {
            let partner = self.slot_mut(e.slot);
            if let Ok(i) = find_conf(&partner.conf, txn) {
                partner.conf.remove(i);
            }
        }
        conf.clear();
        let slot = self.slot_mut(s);
        slot.live = false;
        slot.out = out;
        slot.inc = inc;
        slot.conf = conf;
        self.free.push(s);
        self.version += 1;
        self.debug_validate();
        Ok(())
    }

    /// Ingests the conflicts discovered at `txn`'s arrival: held-lock
    /// conflicts become precedence edges `other → txn` immediately; declared
    /// conflicts become (or merge into) conflicting edges, with the paper's
    /// max rule aggregating multiple granule conflicts per pair.
    ///
    /// Held conflicts are applied first so that a pair which is already
    /// ordered by a held lock folds its declared conflicts into the
    /// precedence edge rather than creating a phantom conflicting edge.
    pub fn ingest_arrival(
        &mut self,
        txn: TxnId,
        conflicts: &[ArrivalConflict],
    ) -> Result<(), CoreError> {
        for c in conflicts {
            if let ArrivalConflict::Held { other, my_due } = *c {
                self.add_or_merge_precedence(other, txn, my_due)?;
            }
        }
        for c in conflicts {
            if let ArrivalConflict::Declared {
                other,
                my_due,
                other_due,
            } = *c
            {
                self.add_or_merge_conflict(txn, other, other_due, my_due)?;
            }
        }
        Ok(())
    }

    /// Adds (or max-merges) a conflicting edge between `a` and `b` with
    /// weights `w_ab = w(a→b)` and `w_ba = w(b→a)`.
    ///
    /// If the pair already carries a precedence edge — the serialization
    /// order was decided by an earlier grant or a held lock — the matching
    /// directed weight is merged into it instead (the other candidate weight
    /// is moot: a resolved pair stays resolved).
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is the Ok of a binary search on the same vec"
    )]
    pub fn add_or_merge_conflict(
        &mut self,
        a: TxnId,
        b: TxnId,
        w_ab: Work,
        w_ba: Work,
    ) -> Result<(), CoreError> {
        if a == b {
            return Ok(()); // a transaction never conflicts with itself
        }
        let sa = self.lookup(a)?;
        let sb = self.lookup(b)?;
        if let Ok(i) = find_out(&self.slot(sa).out, b) {
            let w = &mut self.slot_mut(sa).out[i].w;
            *w = (*w).max(w_ab);
            self.version += 1;
            return Ok(());
        }
        if let Ok(i) = find_out(&self.slot(sb).out, a) {
            let w = &mut self.slot_mut(sb).out[i].w;
            *w = (*w).max(w_ba);
            self.version += 1;
            return Ok(());
        }
        {
            let ea = self.slot_mut(sa);
            match find_conf(&ea.conf, b) {
                Ok(i) => ea.conf[i].w = ea.conf[i].w.max(w_ab),
                Err(i) => ea.conf.insert(i, ConfEdge { id: b, slot: sb, w: w_ab }),
            }
        }
        {
            let eb = self.slot_mut(sb);
            match find_conf(&eb.conf, a) {
                Ok(i) => eb.conf[i].w = eb.conf[i].w.max(w_ba),
                Err(i) => eb.conf.insert(i, ConfEdge { id: a, slot: sa, w: w_ba }),
            }
        }
        self.version += 1;
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "every index is the Ok of a binary search on the same vec"
    )]
    fn add_or_merge_precedence(
        &mut self,
        from: TxnId,
        to: TxnId,
        w: Work,
    ) -> Result<(), CoreError> {
        if from == to {
            return Ok(());
        }
        let sf = self.lookup(from)?;
        let st = self.lookup(to)?;
        debug_assert!(
            find_out(&self.slot(st).out, from).is_err(),
            "precedence edge {to}→{from} contradicts requested {from}→{to}"
        );
        // A conflicting edge between the pair collapses into the precedence edge.
        let ef = self.slot_mut(sf);
        let conf_w = match find_conf(&ef.conf, to) {
            Ok(i) => Some(ef.conf.remove(i).w),
            Err(_) => None,
        };
        let et = self.slot_mut(st);
        if let Ok(i) = find_conf(&et.conf, from) {
            et.conf.remove(i);
        }
        let merged = conf_w.map_or(w, |c| c.max(w));
        let ef = self.slot_mut(sf);
        match find_out(&ef.out, to) {
            Ok(i) => ef.out[i].w = ef.out[i].w.max(merged),
            Err(i) => ef.out.insert(i, OutEdge { id: to, slot: st, w: merged }),
        }
        let et = self.slot_mut(st);
        if let Err(i) = find_inc(&et.inc, from) {
            et.inc.insert(i, Neighbor { id: from, slot: sf });
        }
        self.version += 1;
        Ok(())
    }

    /// Resolves the conflicting edge `(from, to)` into the precedence edge
    /// `from → to`, carrying the stored `w(from→to)` weight (paper
    /// Definition 1, item 2). Resolving an already-resolved pair in the same
    /// direction is a no-op; in the opposite direction it is a logic error
    /// caught in debug builds.
    #[expect(
        clippy::indexing_slicing,
        reason = "conf index is the Ok of a binary search on the same vec"
    )]
    pub fn resolve(&mut self, from: TxnId, to: TxnId) -> Result<(), CoreError> {
        let sf = self.lookup(from)?;
        self.lookup(to)?;
        if find_out(&self.slot(sf).out, to).is_ok() {
            return Ok(());
        }
        let w = match find_conf(&self.slot(sf).conf, to) {
            Ok(i) => self.slot(sf).conf[i].w,
            Err(_) => Work::ZERO,
        };
        self.add_or_merge_precedence(from, to, w)
    }

    /// `w(T0 → txn)`.
    pub fn t0_weight(&self, txn: TxnId) -> Result<Work, CoreError> {
        Ok(self.slot(self.lookup(txn)?).t0_weight)
    }

    /// Sets `w(T0 → txn)` outright — used at step boundaries, where the
    /// remaining declared work is known exactly (`due(next step)`).
    pub fn set_t0_weight(&mut self, txn: TxnId, w: Work) -> Result<(), CoreError> {
        let s = self.lookup(txn)?;
        self.slot_mut(s).t0_weight = w;
        Ok(())
    }

    /// Decrements `w(T0 → txn)` by `amount`, never dropping below `floor` —
    /// the per-object weight-adjustment message from the data node (§3.1).
    /// The floor protects against over-decrement when declared costs are
    /// erroneous (Experiment 4).
    pub fn decrement_t0_weight(
        &mut self,
        txn: TxnId,
        amount: Work,
        floor: Work,
    ) -> Result<(), CoreError> {
        let s = self.lookup(txn)?;
        let e = self.slot_mut(s);
        e.t0_weight = e.t0_weight.saturating_sub(amount).max(floor);
        Ok(())
    }

    /// Weight of the precedence edge `from → to`, if that edge exists.
    #[expect(
        clippy::indexing_slicing,
        reason = "out index is the Ok of a binary search on the same vec"
    )]
    pub fn precedence_weight(&self, from: TxnId, to: TxnId) -> Option<Work> {
        let s = self.slot_of(from)?;
        find_out(&self.slot(s).out, to)
            .ok()
            .map(|i| self.slot(s).out[i].w)
    }

    /// Weights `(w(a→b), w(b→a))` of the conflicting edge between `a` and
    /// `b`, if the pair is (still) unresolved.
    #[expect(
        clippy::indexing_slicing,
        reason = "conf indices are the Ok of binary searches on the same vecs"
    )]
    pub fn conflict_weights(&self, a: TxnId, b: TxnId) -> Option<(Work, Work)> {
        let sa = self.slot_of(a)?;
        let sb = self.slot_of(b)?;
        let ab = find_conf(&self.slot(sa).conf, b)
            .ok()
            .map(|i| self.slot(sa).conf[i].w)?;
        let ba = find_conf(&self.slot(sb).conf, a)
            .ok()
            .map(|i| self.slot(sb).conf[i].w)?;
        Some((ab, ba))
    }

    /// Partners of `txn` over *unresolved* conflicting edges, ascending.
    pub fn conflict_partners(&self, txn: TxnId) -> Vec<TxnId> {
        self.slot_of(txn)
            .map(|s| self.slot(s).conf.iter().map(|e| e.id).collect())
            .unwrap_or_default()
    }

    /// Direct precedence successors of `txn`.
    pub fn precedence_successors(&self, txn: TxnId) -> Vec<TxnId> {
        self.slot_of(txn)
            .map(|s| self.slot(s).out.iter().map(|e| e.id).collect())
            .unwrap_or_default()
    }

    /// Direct precedence predecessors of `txn`.
    pub fn precedence_predecessors(&self, txn: TxnId) -> Vec<TxnId> {
        self.slot_of(txn)
            .map(|s| self.slot(s).inc.iter().map(|e| e.id).collect())
            .unwrap_or_default()
    }

    /// All unresolved conflicting edges as `(a, b, w(a→b), w(b→a))` with
    /// `a < b`, ascending.
    #[expect(
        clippy::indexing_slicing,
        reason = "back[j] is the Ok of a binary search on back"
    )]
    pub fn conflict_edges(&self) -> Vec<(TxnId, TxnId, Work, Work)> {
        let mut out = Vec::new();
        for (a, &sa) in self.index.iter() {
            for e in &self.slot(sa).conf {
                if a < e.id {
                    let back = &self.slot(e.slot).conf;
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: conflict edges are symmetric"
                    )]
                    let j = find_conf(back, a).expect("invariant: conflict edges are symmetric");
                    out.push((a, e.id, e.w, back[j].w));
                }
            }
        }
        out
    }

    /// All precedence edges as `(from, to, weight)`, ascending by source.
    pub fn precedence_edges(&self) -> Vec<(TxnId, TxnId, Work)> {
        let mut out = Vec::new();
        for (a, &sa) in self.index.iter() {
            for e in &self.slot(sa).out {
                out.push((a, e.id, e.w));
            }
        }
        out
    }

    /// `before(txn)`: transactions that (transitively) precede `txn` along
    /// precedence edges (paper §3.3 Step 1), ascending.
    #[expect(
        clippy::indexing_slicing,
        reason = "begin_mark sizes `mark` to slots.len(); slot ids are in range"
    )]
    pub fn before(&self, txn: TxnId) -> Vec<TxnId> {
        let mut seen = Vec::new();
        let Some(s0) = self.slot_of(txn) else {
            return seen;
        };
        let mut scratch = self.scratch.borrow_mut();
        let epoch = scratch.begin_mark(self.slots.len());
        let Scratch { mark, stack, .. } = &mut *scratch;
        stack.clear();
        stack.extend(self.slot(s0).inc.iter().map(|e| e.slot));
        while let Some(s) = stack.pop() {
            if mark[s as usize] != epoch {
                mark[s as usize] = epoch;
                let slot = self.slot(s);
                seen.push(slot.id);
                stack.extend(slot.inc.iter().map(|e| e.slot));
            }
        }
        seen.sort_unstable();
        seen
    }

    /// `after(txn)`: transactions that `txn` (transitively) precedes,
    /// ascending.
    #[expect(
        clippy::indexing_slicing,
        reason = "begin_mark sizes `mark` to slots.len(); slot ids are in range"
    )]
    pub fn after(&self, txn: TxnId) -> Vec<TxnId> {
        let mut seen = Vec::new();
        let Some(s0) = self.slot_of(txn) else {
            return seen;
        };
        let mut scratch = self.scratch.borrow_mut();
        let epoch = scratch.begin_mark(self.slots.len());
        let Scratch { mark, stack, .. } = &mut *scratch;
        stack.clear();
        stack.extend(self.slot(s0).out.iter().map(|e| e.slot));
        while let Some(s) = stack.pop() {
            if mark[s as usize] != epoch {
                mark[s as usize] = epoch;
                let slot = self.slot(s);
                seen.push(slot.id);
                stack.extend(slot.out.iter().map(|e| e.slot));
            }
        }
        seen.sort_unstable();
        seen
    }

    /// True if the precedence edges contain a directed cycle — a deadlock.
    /// (Never true while the schedulers' grant checks hold; used as a
    /// validation invariant and by hypothetical overlays.)
    pub fn has_cycle(&self) -> bool {
        self.critical_path().is_none()
    }

    /// True if adding the precedence edge `from → to` would create a cycle:
    /// the deadlock *prediction* primitive (C2PL, and `E(q) = ∞`). Runs a
    /// DFS from `to` that exits as soon as it reaches `from`.
    pub fn would_deadlock(&self, from: TxnId, to: TxnId) -> bool {
        from == to || self.any_reaches(&[to], from)
    }

    /// True if some live transaction of `from` reaches `to` along
    /// precedence edges (a transaction reaches itself) — whether edges
    /// `to → f`, one for each `f` of `from`, close a cycle. One DFS from all
    /// of `from` at once, so it costs what they reach, not the graph.
    #[expect(
        clippy::indexing_slicing,
        reason = "begin_mark sizes `mark` to slots.len(); slot ids are in range"
    )]
    pub(crate) fn any_reaches(&self, from: &[TxnId], to: TxnId) -> bool {
        let Some(st) = self.slot_of(to) else {
            return false;
        };
        let mut scratch = self.scratch.borrow_mut();
        let epoch = scratch.begin_mark(self.slots.len());
        let Scratch { mark, stack, .. } = &mut *scratch;
        stack.clear();
        stack.extend(from.iter().filter_map(|&f| self.slot_of(f)));
        while let Some(s) = stack.pop() {
            if s == st {
                return true;
            }
            if mark[s as usize] != epoch {
                mark[s as usize] = epoch;
                stack.extend(self.slot(s).out.iter().map(|e| e.slot));
            }
        }
        false
    }

    /// Longest `T0 → Tf` path over the precedence edges alone (conflicting
    /// edges ignored — `E(q)`'s Step 3 deletion), or `None` when the
    /// precedence edges are cyclic.
    ///
    /// `dist(T) = max(w(T0→T), max over predecessors P of dist(P) + w(P→T))`
    /// and the critical path is `max over T of dist(T)` since every
    /// `w(T → Tf)` is zero. One Kahn pass over the arena, with the in-degree,
    /// distance and queue arrays reused across calls.
    #[expect(
        clippy::indexing_slicing,
        reason = "indeg/dist are resized to slots.len(); queue holds slot ids"
    )]
    pub fn critical_path(&self) -> Option<Work> {
        if self.index.is_empty() {
            // Fast path: no live transactions, the schedule is just T0 → Tf.
            return Some(Work::ZERO);
        }
        let n = self.slots.len();
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            indeg, dist, queue, ..
        } = &mut *scratch;
        indeg.clear();
        indeg.resize(n, 0);
        dist.clear();
        dist.resize(n, Work::ZERO);
        queue.clear();
        for (s, slot) in self.slots.iter().enumerate() {
            if !slot.live {
                continue;
            }
            indeg[s] = slot.inc.len() as u32;
            if slot.inc.is_empty() {
                queue.push(s as u32);
            }
        }
        let mut best = Work::ZERO;
        let mut head = 0;
        while head < queue.len() {
            let s = queue[head] as usize;
            head += 1;
            let slot = &self.slots[s];
            let dt = dist[s].max(slot.t0_weight);
            best = best.max(dt);
            for e in &slot.out {
                let t = e.slot as usize;
                let cand = dt + e.w;
                if cand > dist[t] {
                    dist[t] = cand;
                }
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(e.slot);
                }
            }
        }
        (head == self.index.len()).then_some(best)
    }

    /// Builds the WTPG of a set of simultaneously declared transactions —
    /// every pair's conflicts become conflicting edges with the §3.1
    /// weights, nothing resolved. The static analogue of what a scheduler
    /// constructs incrementally; used by the planner, the CLI and tests.
    ///
    /// # Errors
    /// [`CoreError::DuplicateTxn`] on repeated ids.
    pub fn from_declared(specs: &[crate::txn::TxnSpec]) -> Result<Wtpg, CoreError> {
        let mut locks = crate::lock::LockTable::new();
        let mut g = Wtpg::new();
        let mut conflicts = Vec::new();
        for spec in specs {
            if g.contains(spec.id) {
                return Err(CoreError::DuplicateTxn(spec.id));
            }
            locks.declare(spec);
            g.add_txn(spec.id, spec.total_declared())?;
            locks.arrival_conflicts(spec, &mut conflicts);
            g.ingest_arrival(spec.id, &conflicts)?;
        }
        Ok(g)
    }

    /// Deep structural self-check of the arena (DESIGN.md §10). Verifies:
    ///
    /// - index ↔ slot agreement: every indexed slot is in bounds, live, and
    ///   carries the id it is indexed under; live-slot count matches;
    /// - free-list / live-slot disjointness: free entries are dead, unique,
    ///   and `free + live` partitions the arena;
    /// - dead slots have empty adjacency (the reuse contract of `add_txn`);
    /// - adjacency is sorted, self-loop-free, targets live slots with
    ///   matching ids, and is mirrored (`out`/`inc`, symmetric `conf`);
    /// - no pair carries both a conflicting and a precedence edge;
    /// - scratch epoch-stamps never exceed the current epoch.
    ///
    /// Costs `O(V + E log E)`; meant for tests, `debug_assertions` hooks and
    /// the [`crate::certify`] replay — not the grant path.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    #[expect(
        clippy::indexing_slicing,
        reason = "indices are validated against slots.len() before use"
    )]
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.slots.len();
        for (txn, &s) in self.index.iter() {
            let Some(slot) = self.slots.get(s as usize) else {
                return Err(format!("index maps {txn} to out-of-bounds slot {s}"));
            };
            if !slot.live {
                return Err(format!("index maps {txn} to dead slot {s}"));
            }
            if slot.id != txn {
                return Err(format!("slot {s} holds {} but is indexed as {txn}", slot.id));
            }
        }
        let live = self.slots.iter().filter(|s| s.live).count();
        if live != self.index.len() {
            return Err(format!(
                "{live} live slots but {} index entries",
                self.index.len()
            ));
        }
        let mut free_seen = vec![false; n];
        for &s in &self.free {
            let Some(slot) = self.slots.get(s as usize) else {
                return Err(format!("free list holds out-of-bounds slot {s}"));
            };
            if slot.live {
                return Err(format!("free list holds live slot {s}"));
            }
            if free_seen[s as usize] {
                return Err(format!("free list holds slot {s} twice"));
            }
            free_seen[s as usize] = true;
        }
        if self.free.len() + self.index.len() != n {
            return Err(format!(
                "free ({}) + live ({}) != slots ({n})",
                self.free.len(),
                self.index.len()
            ));
        }
        for s in 0..n {
            self.check_slot(s as u32)?;
        }
        let scratch = self.scratch.borrow();
        if scratch.mark.iter().any(|&m| m > scratch.epoch) {
            return Err("scratch mark stamped past the current epoch".to_string());
        }
        Ok(())
    }

    /// The invariants of [`Wtpg::check_invariants`] that one slot carries:
    /// a dead slot has empty adjacency; a live one is indexed under its id,
    /// and its adjacency is sorted, self-loop-free, aimed at live slots with
    /// matching ids, mirrored in its partners' lists, and never both
    /// conflicting and resolved for one pair. Costs `O(d log d)` for a slot
    /// of degree `d`: what the replay certifier checks on the slots an event
    /// touched.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    #[expect(
        clippy::indexing_slicing,
        reason = "indices are validated against slots.len() before use"
    )]
    pub(crate) fn check_slot(&self, s: u32) -> Result<(), String> {
        let Some(slot) = self.slots.get(s as usize) else {
            return Err(format!("slot {s} is out of bounds"));
        };
        if !slot.live {
            if !slot.out.is_empty() || !slot.inc.is_empty() || !slot.conf.is_empty() {
                return Err(format!("dead slot {s} has non-empty adjacency"));
            }
            return Ok(());
        }
        let a = slot.id;
        if self.index.get(a) != Some(&s) {
            return Err(format!(
                "live slot {s} holds {a} but is not indexed under it"
            ));
        }
        if !slot.out.windows(2).all(|w| w[0].id < w[1].id) {
            return Err(format!("slot {s} ({a}) out-edges not strictly sorted"));
        }
        if !slot.inc.windows(2).all(|w| w[0].id < w[1].id) {
            return Err(format!("slot {s} ({a}) inc-edges not strictly sorted"));
        }
        if !slot.conf.windows(2).all(|w| w[0].id < w[1].id) {
            return Err(format!("slot {s} ({a}) conf-edges not strictly sorted"));
        }
        for e in &slot.out {
            if e.id == a {
                return Err(format!("{a} has a precedence self-edge"));
            }
            let t = self
                .slots
                .get(e.slot as usize)
                .filter(|t| t.live && t.id == e.id);
            if t.is_none() {
                return Err(format!("{a} → {} points at a stale slot", e.id));
            }
            let target = &self.slots[e.slot as usize];
            if find_inc(&target.inc, a).is_err() {
                return Err(format!("{a} → {} missing the mirror inc entry", e.id));
            }
        }
        for e in &slot.inc {
            let p = self
                .slots
                .get(e.slot as usize)
                .filter(|p| p.live && p.id == e.id);
            if p.is_none() {
                return Err(format!("{a} ← {} points at a stale slot", e.id));
            }
            if find_out(&self.slots[e.slot as usize].out, a).is_err() {
                return Err(format!("{a} ← {} missing the mirror out entry", e.id));
            }
        }
        for e in &slot.conf {
            if e.id == a {
                return Err(format!("{a} has a conflicting self-edge"));
            }
            let p = self
                .slots
                .get(e.slot as usize)
                .filter(|p| p.live && p.id == e.id);
            if p.is_none() {
                return Err(format!("{a} ~ {} points at a stale slot", e.id));
            }
            let partner = &self.slots[e.slot as usize];
            if find_conf(&partner.conf, a).is_err() {
                return Err(format!("{a} ~ {} missing the symmetric conf entry", e.id));
            }
            if find_out(&slot.out, e.id).is_ok() || find_out(&partner.out, a).is_ok() {
                return Err(format!(
                    "{a} ~ {} is both conflicting and resolved",
                    e.id
                ));
            }
        }
        Ok(())
    }

    /// The invariants of [`Wtpg::check_invariants`] that an event on `txn`
    /// can have broken. `touched` is `txn`'s slot, checked whole
    /// ([`Wtpg::check_slot`]; dead and empty after a commit), then the
    /// slots whose lists the event edited an entry for `txn` in: each must
    /// still be sorted and free of self-edges, and its entry for `txn`,
    /// if `txn` is live, mirrored in `txn`'s slot — or gone, if not. Costs
    /// `txn`'s slot check plus `O(d)` per other slot of degree `d`, reading
    /// no third slot.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    #[expect(
        clippy::indexing_slicing,
        reason = "windows(2) yields two-element slices"
    )]
    pub(crate) fn check_around(&self, txn: TxnId, touched: &[u32]) -> Result<(), String> {
        let Some((&own, others)) = touched.split_first() else {
            return Ok(());
        };
        self.check_slot(own)?;
        let own = self
            .slot_of(txn)
            .and_then(|s| self.slots.get(s as usize).map(|o| (s, o)));
        for &n in others {
            let slot = match self.slots.get(n as usize) {
                Some(slot) if slot.live => slot,
                _ => {
                    self.check_slot(n)?;
                    continue;
                }
            };
            let a = slot.id;
            let sorted = slot.out.windows(2).all(|w| w[0].id < w[1].id)
                && slot.inc.windows(2).all(|w| w[0].id < w[1].id)
                && slot.conf.windows(2).all(|w| w[0].id < w[1].id);
            if !sorted {
                return Err(format!("slot {n} ({a}) adjacency not strictly sorted"));
            }
            if find_out(&slot.out, a).is_ok() || find_conf(&slot.conf, a).is_ok() {
                return Err(format!("{a} has a self-edge"));
            }
            let out = find_out(&slot.out, txn).ok().and_then(|i| slot.out.get(i));
            let inc = find_inc(&slot.inc, txn).ok().and_then(|i| slot.inc.get(i));
            let conf = find_conf(&slot.conf, txn)
                .ok()
                .and_then(|i| slot.conf.get(i));
            let Some((s, o)) = own else {
                if out.is_some() || inc.is_some() || conf.is_some() {
                    return Err(format!("{a} still names the removed {txn}"));
                }
                continue;
            };
            if out.is_some_and(|e| e.slot != s || find_inc(&o.inc, a).is_err()) {
                return Err(format!("{a} → {txn} missing the mirror inc entry"));
            }
            if inc.is_some_and(|e| e.slot != s || find_out(&o.out, a).is_err()) {
                return Err(format!("{a} ← {txn} missing the mirror out entry"));
            }
            if conf.is_some_and(|e| e.slot != s || find_conf(&o.conf, a).is_err()) {
                return Err(format!("{a} ~ {txn} missing the symmetric conf entry"));
            }
            if conf.is_some() && (out.is_some() || inc.is_some()) {
                return Err(format!("{a} ~ {txn} is both conflicting and resolved"));
            }
        }
        Ok(())
    }

    /// `debug_assert!`-level hook: panics on a broken invariant in debug
    /// builds, compiles to nothing in release.
    #[expect(
        clippy::panic,
        reason = "deliberate debug-only assertion, absent from release builds"
    )]
    #[inline]
    pub(crate) fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        if let Err(what) = self.check_invariants() {
            panic!("WTPG invariant violated: {what}");
        }
    }

    /// Test hook: corrupts `txn`'s slot with a conflicting self-edge, which
    /// [`Wtpg::check_slot`] and [`Wtpg::check_invariants`] must both reject.
    #[cfg(test)]
    pub(crate) fn corrupt_slot(&mut self, txn: TxnId) {
        if let Some(s) = self.slot_of(txn) {
            self.slot_mut(s).conf.push(ConfEdge {
                id: txn,
                slot: s,
                w: Work::ZERO,
            });
        }
    }

    /// Test hook: adds the precedence edge `from → to` with no checks at
    /// all — how a seeded mutation makes a replayed grant close a cycle.
    #[cfg(test)]
    pub(crate) fn force_precedence(&mut self, from: TxnId, to: TxnId) {
        let (Some(sf), Some(st)) = (self.slot_of(from), self.slot_of(to)) else {
            return;
        };
        let out = &mut self.slot_mut(sf).out;
        if let Err(i) = find_out(out, to) {
            out.insert(
                i,
                OutEdge {
                    id: to,
                    slot: st,
                    w: Work::ZERO,
                },
            );
        }
        let inc = &mut self.slot_mut(st).inc;
        if let Err(i) = find_inc(inc, from) {
            inc.insert(i, Neighbor { id: from, slot: sf });
        }
    }

    /// Renders the WTPG in Graphviz DOT: solid arrows for precedence edges,
    /// dashed double arrows for conflicting pairs, and `T0` with its weights.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph wtpg {\n  rankdir=LR;\n  T0 [shape=doublecircle];\n");
        for (t, &st) in self.index.iter() {
            let _ = writeln!(s, "  \"{t}\";");
            let _ = writeln!(
                s,
                "  T0 -> \"{t}\" [label=\"{}\", color=gray];",
                self.slot(st).t0_weight
            );
        }
        for (a, b, w) in self.precedence_edges() {
            let _ = writeln!(s, "  \"{a}\" -> \"{b}\" [label=\"{w}\"];");
        }
        for (a, b, w_ab, w_ba) in self.conflict_edges() {
            let _ = writeln!(s, "  \"{a}\" -> \"{b}\" [label=\"{w_ab}\", style=dashed];");
            let _ = writeln!(s, "  \"{b}\" -> \"{a}\" [label=\"{w_ba}\", style=dashed];");
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(o: u64) -> Work {
        Work::from_objects(o)
    }

    /// Builds the paper's Figure 2-(a): T1/T2 conflict on A, T2/T3 on C.
    ///
    /// Weights from Example 3.1: w(T0→T1)=5, w(T0→T2)=2, w(T0→T3)=4;
    /// (T1,T2): w(T1→T2)=1, w(T2→T1)=5; (T2,T3): w(T2→T3)=4, w(T3→T2)=2.
    fn figure2a() -> Wtpg {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(5)).unwrap();
        g.add_txn(TxnId(2), w(2)).unwrap();
        g.add_txn(TxnId(3), w(4)).unwrap();
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(1), w(5))
            .unwrap();
        g.add_or_merge_conflict(TxnId(2), TxnId(3), w(4), w(2))
            .unwrap();
        g
    }

    /// Example 3.2: resolving by W = {T1→T2, T3→T2} yields critical path 6.
    #[test]
    fn example_3_2_short_critical_path() {
        let mut g = figure2a();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        g.resolve(TxnId(3), TxnId(2)).unwrap();
        assert_eq!(g.critical_path(), Some(w(6))); // T0 →5 T1 →1 T2
    }

    /// Example 3.2: the chain of blocking {T1→T2→T3} yields length 10.
    #[test]
    fn example_3_2_chain_of_blocking() {
        let mut g = figure2a();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        g.resolve(TxnId(2), TxnId(3)).unwrap();
        assert_eq!(g.critical_path(), Some(w(10))); // T0 →5 T1 →1 T2 →4 T3
    }

    #[test]
    fn unresolved_conflicts_are_ignored_by_critical_path() {
        let g = figure2a();
        // No precedence edges yet: critical path = max T0 weight = 5.
        assert_eq!(g.critical_path(), Some(w(5)));
    }

    #[test]
    fn conflict_max_merge_across_granules() {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(9)).unwrap();
        g.add_txn(TxnId(2), w(9)).unwrap();
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(1), w(4))
            .unwrap();
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(3), w(2))
            .unwrap();
        assert_eq!(g.conflict_weights(TxnId(1), TxnId(2)), Some((w(3), w(4))));
    }

    #[test]
    fn conflict_after_resolution_merges_into_precedence() {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(9)).unwrap();
        g.add_txn(TxnId(2), w(9)).unwrap();
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(1), w(4))
            .unwrap();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        assert_eq!(g.precedence_weight(TxnId(1), TxnId(2)), Some(w(1)));
        // A later conflict on another granule folds into the existing edge.
        g.add_or_merge_conflict(TxnId(2), TxnId(1), w(7), w(2))
            .unwrap();
        assert_eq!(g.precedence_weight(TxnId(1), TxnId(2)), Some(w(2)));
        assert_eq!(g.conflict_weights(TxnId(1), TxnId(2)), None);
    }

    #[test]
    fn ingest_arrival_held_then_declared() {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(5)).unwrap();
        g.add_txn(TxnId(2), w(3)).unwrap();
        g.ingest_arrival(
            TxnId(2),
            &[
                ArrivalConflict::Declared {
                    other: TxnId(1),
                    my_due: w(2),
                    other_due: w(4),
                },
                ArrivalConflict::Held {
                    other: TxnId(1),
                    my_due: w(3),
                },
            ],
        )
        .unwrap();
        // Held conflict resolves the pair T1 → T2; declared conflict merges.
        assert_eq!(g.precedence_weight(TxnId(1), TxnId(2)), Some(w(3)));
        assert!(g.conflict_weights(TxnId(1), TxnId(2)).is_none());
    }

    #[test]
    fn before_and_after_are_transitive() {
        let mut g = figure2a();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        g.resolve(TxnId(2), TxnId(3)).unwrap();
        assert_eq!(g.before(TxnId(3)), [TxnId(1), TxnId(2)]);
        assert_eq!(g.after(TxnId(1)), [TxnId(2), TxnId(3)]);
        assert!(g.before(TxnId(1)).is_empty());
    }

    #[test]
    fn deadlock_prediction() {
        let mut g = figure2a();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        g.resolve(TxnId(2), TxnId(3)).unwrap();
        assert!(g.would_deadlock(TxnId(3), TxnId(1)));
        assert!(g.would_deadlock(TxnId(2), TxnId(1)));
        assert!(!g.would_deadlock(TxnId(1), TxnId(3)));
        assert!(g.would_deadlock(TxnId(1), TxnId(1)));
    }

    #[test]
    fn remove_txn_detaches_all_edges() {
        let mut g = figure2a();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        g.remove_txn(TxnId(2)).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.precedence_successors(TxnId(1)).is_empty());
        assert!(g.conflict_partners(TxnId(3)).is_empty());
        assert_eq!(g.critical_path(), Some(w(5)));
    }

    #[test]
    fn weight_decrement_with_floor() {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(5)).unwrap();
        g.decrement_t0_weight(TxnId(1), w(1), Work::ZERO).unwrap();
        assert_eq!(g.t0_weight(TxnId(1)).unwrap(), w(4));
        // Floor stops the decrement (erroneous-declaration clamp).
        g.decrement_t0_weight(TxnId(1), w(10), w(2)).unwrap();
        assert_eq!(g.t0_weight(TxnId(1)).unwrap(), w(2));
    }

    #[test]
    fn duplicate_and_unknown_txn_errors() {
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(1)).unwrap();
        assert_eq!(
            g.add_txn(TxnId(1), w(1)),
            Err(CoreError::DuplicateTxn(TxnId(1)))
        );
        assert_eq!(g.t0_weight(TxnId(9)), Err(CoreError::UnknownTxn(TxnId(9))));
        assert_eq!(g.remove_txn(TxnId(9)), Err(CoreError::UnknownTxn(TxnId(9))));
    }

    #[test]
    fn cycle_makes_critical_path_none() {
        // Cycles cannot arise through resolve() under the schedulers' checks,
        // but critical_path must stay total for validation code.
        let mut g = Wtpg::new();
        g.add_txn(TxnId(1), w(1)).unwrap();
        g.add_txn(TxnId(2), w(1)).unwrap();
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(1), w(1))
            .unwrap();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        // Force the reverse edge directly (bypassing debug assert via a fresh
        // conflict is impossible — simulate by second conflict pair).
        g.add_txn(TxnId(3), w(1)).unwrap();
        g.add_or_merge_conflict(TxnId(2), TxnId(3), w(1), w(1))
            .unwrap();
        g.add_or_merge_conflict(TxnId(3), TxnId(1), w(1), w(1))
            .unwrap();
        g.resolve(TxnId(2), TxnId(3)).unwrap();
        g.resolve(TxnId(3), TxnId(1)).unwrap();
        assert!(g.has_cycle());
        assert_eq!(g.critical_path(), None);
    }

    #[test]
    fn from_declared_builds_figure2a() {
        use crate::txn::{StepSpec, TxnSpec};
        let specs = vec![
            TxnSpec::new(
                TxnId(1),
                vec![
                    StepSpec::read(0, 1.0),
                    StepSpec::read(1, 3.0),
                    StepSpec::write(0, 1.0),
                ],
            ),
            TxnSpec::new(
                TxnId(2),
                vec![StepSpec::read(2, 1.0), StepSpec::write(0, 1.0)],
            ),
            TxnSpec::new(
                TxnId(3),
                vec![StepSpec::write(2, 1.0), StepSpec::read(3, 3.0)],
            ),
        ];
        let g = Wtpg::from_declared(&specs).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.conflict_weights(TxnId(1), TxnId(2)), Some((w(1), w(5))));
        assert_eq!(g.conflict_weights(TxnId(2), TxnId(3)), Some((w(4), w(2))));
        assert_eq!(g.t0_weight(TxnId(1)).unwrap(), w(5));
        assert!(Wtpg::from_declared(&[specs[0].clone(), specs[0].clone()]).is_err());
    }

    #[test]
    fn resolve_same_direction_is_idempotent() {
        let mut g = figure2a();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        assert_eq!(g.precedence_weight(TxnId(1), TxnId(2)), Some(w(1)));
    }

    #[test]
    fn dot_export_mentions_all_nodes() {
        let g = figure2a();
        let dot = g.to_dot();
        assert!(dot.contains("\"T1\""));
        assert!(dot.contains("\"T2\""));
        assert!(dot.contains("\"T3\""));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn empty_graph_critical_path_fast_path() {
        let g = Wtpg::new();
        assert_eq!(g.critical_path(), Some(Work::ZERO));
        assert!(!g.has_cycle());
        // Emptied graphs hit the same path even with retired slots around.
        let mut g = figure2a();
        for i in 1..=3 {
            g.remove_txn(TxnId(i)).unwrap();
        }
        assert!(g.is_empty());
        assert_eq!(g.critical_path(), Some(Work::ZERO));
    }

    #[test]
    fn version_tracks_structural_mutations_only() {
        let mut g = Wtpg::new();
        let v0 = g.version();
        g.add_txn(TxnId(1), w(5)).unwrap();
        g.add_txn(TxnId(2), w(2)).unwrap();
        let v1 = g.version();
        assert!(v1 > v0);
        // Weight-only T0 adjustments (keeptime drift) do not bump.
        g.set_t0_weight(TxnId(1), w(4)).unwrap();
        g.decrement_t0_weight(TxnId(1), w(1), Work::ZERO).unwrap();
        assert_eq!(g.version(), v1);
        // Edge mutations do.
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(1), w(1))
            .unwrap();
        let v2 = g.version();
        assert!(v2 > v1);
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        let v3 = g.version();
        assert!(v3 > v2);
        // Idempotent same-direction resolve is a no-op: no bump.
        g.resolve(TxnId(1), TxnId(2)).unwrap();
        assert_eq!(g.version(), v3);
        g.remove_txn(TxnId(2)).unwrap();
        assert!(g.version() > v3);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut g = Wtpg::new();
        for i in 1..=4 {
            g.add_txn(TxnId(i), w(1)).unwrap();
        }
        g.add_or_merge_conflict(TxnId(1), TxnId(2), w(2), w(3))
            .unwrap();
        g.resolve(TxnId(3), TxnId(4)).ok();
        g.remove_txn(TxnId(2)).unwrap();
        g.remove_txn(TxnId(3)).unwrap();
        let arena = g.slot_count();
        // New admissions fill the retired slots instead of growing the arena.
        g.add_txn(TxnId(5), w(7)).unwrap();
        g.add_txn(TxnId(6), w(8)).unwrap();
        assert_eq!(g.slot_count(), arena);
        // And the recycled nodes behave like fresh ones.
        assert!(g.conflict_partners(TxnId(5)).is_empty());
        assert!(g.precedence_successors(TxnId(6)).is_empty());
        g.add_or_merge_conflict(TxnId(5), TxnId(6), w(1), w(2))
            .unwrap();
        assert_eq!(g.conflict_weights(TxnId(5), TxnId(6)), Some((w(1), w(2))));
        assert_eq!(
            g.txn_ids().collect::<Vec<_>>(),
            vec![TxnId(1), TxnId(4), TxnId(5), TxnId(6)]
        );
    }
}
