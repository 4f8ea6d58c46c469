//! An id-keyed window: the books a control, scheduler or data plane keeps
//! per live transaction, indexed instead of searched.
//!
//! Transaction ids are dense — a workload numbers its transactions `1..=n`
//! and each client strides its share — and the live ones sit in a narrow
//! band that moves up as the run goes. [`IdWindow`] keeps its values in a
//! ring indexed by `id − base`, where `base` is the lowest id it holds, so a
//! lookup is one subtraction and one bounds check, and it walks in ascending
//! id order like the `BTreeMap` it replaces. The ring is trimmed to its
//! lowest and highest held ids on every removal, so it spans the live band,
//! not the run.
//!
//! Any id stays correct and bounded: an id the ring could only reach by
//! allocating a gap far wider than what it holds (a peer's stray id, a
//! straggler left far behind the band) lives in a small ordered overflow map
//! instead, and moves into the ring once the ring grows over it. Every
//! operation, and the ascending walk, covers both.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::txn::TxnId;

/// A span the ring may always cover, whatever it holds: a few pages of
/// slots, so a small book never overflows.
const DENSE_SPAN: u64 = 1024;

/// Ring slots a window may hold beyond a small multiple of its span.
const SLACK: usize = 64;

/// Beyond [`DENSE_SPAN`], the ring covers at most this many slots per value
/// it holds: a book one client in sixteen fills stays in the ring.
const SPARSITY: u64 = 16;

/// A map from transaction ids to values, iterated in ascending id order
/// (see the module docs).
pub struct IdWindow<V> {
    /// Id of `ring`'s first slot.
    base: u64,
    /// One slot per id of `base..base + ring.len()`; the first and last are
    /// always occupied.
    ring: VecDeque<Option<V>>,
    /// Occupied slots of `ring`.
    in_ring: usize,
    /// Values whose ids lie outside the ring.
    far: BTreeMap<u64, V>,
}

impl<V> Default for IdWindow<V> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            ring: VecDeque::new(),
            in_ring: 0,
            far: BTreeMap::new(),
        }
    }
}

impl<V: Clone> Clone for IdWindow<V> {
    fn clone(&self) -> Self {
        IdWindow {
            base: self.base,
            ring: self.ring.clone(),
            in_ring: self.in_ring,
            far: self.far.clone(),
        }
    }

    // Keeps the destination's ring allocation.
    fn clone_from(&mut self, src: &Self) {
        self.base = src.base;
        self.ring.clone_from(&src.ring);
        self.in_ring = src.in_ring;
        self.far.clone_from(&src.far);
    }
}

impl<V: fmt::Debug> fmt::Debug for IdWindow<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> IdWindow<V> {
    /// An empty window.
    pub fn new() -> Self {
        IdWindow::default()
    }

    /// Values held.
    pub fn len(&self) -> usize {
        self.in_ring + self.far.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots allocated: the ring's capacity plus the overflow's entries.
    pub fn allocated(&self) -> usize {
        self.ring.capacity() + self.far.len()
    }

    /// `id`'s ring position, if the ring covers it.
    fn pos(&self, id: u64) -> Option<usize> {
        let i = id.checked_sub(self.base)?;
        (i < self.ring.len() as u64).then_some(i as usize)
    }

    /// The value under `id`.
    pub fn get(&self, id: TxnId) -> Option<&V> {
        let id = id.0;
        match self.pos(id) {
            Some(i) => self.ring.get(i)?.as_ref(),
            None if self.far.is_empty() => None,
            None => self.far.get(&id),
        }
    }

    /// The value under `id`, mutably.
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut V> {
        let id = id.0;
        match self.pos(id) {
            Some(i) => self.ring.get_mut(i)?.as_mut(),
            None if self.far.is_empty() => None,
            None => self.far.get_mut(&id),
        }
    }

    /// True if a value is held under `id`.
    pub fn contains(&self, id: TxnId) -> bool {
        self.get(id).is_some()
    }

    /// Holds `value` under `id`, returning what it replaces.
    pub fn insert(&mut self, id: TxnId, value: V) -> Option<V> {
        let id = id.0;
        if self.pos(id).is_none() && !self.cover(id) {
            return self.far.insert(id, value);
        }
        let slot = self.pos(id).and_then(|i| self.ring.get_mut(i))?;
        let old = slot.replace(value);
        self.in_ring += usize::from(old.is_none());
        old
    }

    /// The value under `id`, holding `make()` there first if there is none.
    #[expect(
        clippy::expect_used,
        reason = "invariant: a value was just held under this id"
    )]
    pub fn get_or_insert_with(&mut self, id: TxnId, make: impl FnOnce() -> V) -> &mut V {
        if !self.contains(id) {
            self.insert(id, make());
        }
        self.get_mut(id)
            .expect("invariant: a value was just held under this id")
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: TxnId) -> Option<V> {
        let id = id.0;
        let Some(i) = self.pos(id) else {
            return self.far.remove(&id);
        };
        let old = self.ring.get_mut(i)?.take()?;
        self.in_ring -= 1;
        self.trim();
        Some(old)
    }

    /// Removes every value held under an id below `id`.
    pub fn remove_below(&mut self, id: TxnId) {
        let cut = id.0.saturating_sub(self.base).min(self.ring.len() as u64) as usize;
        self.in_ring -= self.ring.drain(..cut).filter(Option::is_some).count();
        self.base += cut as u64;
        self.trim();
        self.far = self.far.split_off(&id.0);
    }

    /// Widens the ring to cover `id` if that allocates no more than the
    /// window allows (see the module docs), moving the overflow's values the
    /// widened ring now covers into it. False leaves the ring as it was.
    fn cover(&mut self, id: u64) -> bool {
        if id == u64::MAX {
            return false; // the ring's end, `base + len`, must stay a u64
        }
        if self.in_ring == 0 {
            self.ring.clear();
            self.base = id;
        }
        let end = self.base + self.ring.len() as u64;
        let (lo, hi) = (self.base.min(id), end.max(id.saturating_add(1)));
        let span = hi - lo;
        if span > DENSE_SPAN.max(SPARSITY * (self.in_ring as u64 + 1)) {
            return false;
        }
        if self.ring.is_empty() {
            self.ring.push_back(None);
        } else if id < self.base {
            for _ in id..self.base {
                self.ring.push_front(None);
            }
        } else {
            self.ring.resize_with(span as usize, || None);
        }
        self.base = lo;
        if !self.far.is_empty() {
            let moved: Vec<u64> = self.far.range(lo..hi).map(|(&k, _)| k).collect();
            for k in moved {
                let value = self.far.remove(&k);
                if let Some(slot) = self.pos(k).and_then(|i| self.ring.get_mut(i)) {
                    *slot = value;
                    self.in_ring += 1;
                }
            }
        }
        true
    }

    /// Trims the ring to its lowest and highest held ids, and gives back
    /// memory once the ring holds more than four slots per covered id (and
    /// a page's worth). What it keeps is twice the span plus that page: a
    /// span that swings between a handful of ids and a few dozen — the
    /// scheduler's books when read-only transactions, which never reach
    /// it, take every other id — then swings inside the ring instead of
    /// shrinking it on the way down and regrowing it on the way up.
    fn trim(&mut self) {
        while self.ring.front().is_some_and(Option::is_none) {
            self.ring.pop_front();
            self.base += 1;
        }
        while self.ring.back().is_some_and(Option::is_none) {
            self.ring.pop_back();
        }
        let len = self.ring.len();
        if self.ring.capacity() > 4 * len + SLACK {
            self.ring.shrink_to(2 * len + SLACK);
        }
    }

    /// The ids the ring covers.
    fn ids(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.ring.len() as u64
    }

    /// The ring's values, ascending, with their ids.
    fn ring_iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.ids()
            .zip(&self.ring)
            .filter_map(|(id, v)| Some((id, v.as_ref()?)))
    }

    /// Every value with its id, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, &V)> {
        let far = self.far.iter().map(|(&id, v)| (id, v));
        merge(self.ring_iter(), far).map(|(id, v)| (TxnId(id), v))
    }

    /// Every value with its id, mutably, in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (TxnId, &mut V)> {
        let ring = self
            .ids()
            .zip(self.ring.iter_mut())
            .filter_map(|(id, v)| Some((id, v.as_mut()?)));
        let far = self.far.iter_mut().map(|(&id, v)| (id, v));
        merge(ring, far).map(|(id, v)| (TxnId(id), v))
    }

    /// Every id, ascending.
    pub fn keys(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Every value, in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Every value, mutably, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Every value with its id, by value, in ascending id order.
    pub fn into_entries(self) -> impl Iterator<Item = (TxnId, V)> {
        let ring = self
            .ids()
            .zip(self.ring)
            .filter_map(|(id, v)| Some((id, v?)));
        merge(ring, self.far.into_iter()).map(|(id, v)| (TxnId(id), v))
    }
}

/// Two id-ascending walks as one; the ids never collide.
fn merge<T>(
    a: impl Iterator<Item = (u64, T)>,
    b: impl Iterator<Item = (u64, T)>,
) -> impl Iterator<Item = (u64, T)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.0 < x.0 => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_live_in_the_ring_and_walk_ascending() {
        let mut w: IdWindow<u64> = IdWindow::new();
        for id in [5, 3, 4, 9, 7] {
            assert_eq!(w.insert(TxnId(id), id * 10), None);
        }
        assert_eq!(w.insert(TxnId(4), 41), Some(40));
        assert_eq!(w.len(), 5);
        assert!(w.far.is_empty());
        let walked: Vec<_> = w.iter().map(|(id, &v)| (id.0, v)).collect();
        assert_eq!(walked, [(3, 30), (4, 41), (5, 50), (7, 70), (9, 90)]);
        assert_eq!(w.remove(TxnId(3)), Some(30));
        assert_eq!(w.remove(TxnId(9)), Some(90));
        assert_eq!((w.base, w.ring.len()), (4, 4), "trimmed to 4..=7");
        assert_eq!(w.remove(TxnId(6)), None);
        assert_eq!(w.get(TxnId(5)), Some(&50));
    }

    #[test]
    fn remove_below_drops_the_ring_prefix_and_the_far_ids_under_the_cut() {
        let mut w: IdWindow<u64> = IdWindow::new();
        for id in [3, 4, 6, 9, 1 << 40] {
            w.insert(TxnId(id), id);
        }
        w.remove_below(TxnId(5));
        assert_eq!(w.keys().map(|id| id.0).collect::<Vec<_>>(), [6, 9, 1 << 40]);
        assert_eq!((w.base, w.ring.len(), w.in_ring), (6, 4, 2));
        w.remove_below(TxnId(2));
        assert_eq!(w.len(), 3, "a cut below the ring removes nothing");
        w.remove_below(TxnId(1 << 41));
        assert!(w.is_empty() && w.ring.is_empty());
        w.insert(TxnId(100), 1);
        assert_eq!((w.base, w.get(TxnId(100))), (100, Some(&1)), "an emptied ring rebases");
    }

    #[test]
    fn a_far_id_allocates_no_gap_and_moves_in_once_covered() {
        let mut w: IdWindow<u32> = IdWindow::new();
        w.insert(TxnId(1), 1);
        w.insert(TxnId(1 << 40), 2);
        w.insert(TxnId(u64::MAX), 3);
        assert!(
            w.allocated() < 64,
            "{} slots for three values",
            w.allocated()
        );
        let ids: Vec<u64> = w.keys().map(|id| id.0).collect();
        assert_eq!(ids, [1, 1 << 40, u64::MAX]);
        // Ids filling in towards the far one pull it into the ring.
        let mut w: IdWindow<u32> = IdWindow::new();
        w.insert(TxnId(1), 1);
        w.insert(TxnId(5000), 2);
        assert_eq!(w.far.len(), 1);
        for id in (2..=5100).step_by(4) {
            w.insert(TxnId(id), 0);
        }
        assert!(w.far.is_empty(), "the ring grew over id 5000");
        assert_eq!(w.get(TxnId(5000)), Some(&2));
        assert!(w.into_entries().any(|e| e == (TxnId(5000), 2)));
    }
}
