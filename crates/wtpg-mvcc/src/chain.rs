//! Version chains and the commutative write-effect algebra.
//!
//! A data node keeps one [`VersionChain`] per partition it homes: an ordered
//! map from *seal sequence number* to the [`SealedWrite`] applied under that
//! number. Seal sequences are assigned by the control node the moment it
//! orders a write step (`Access`), so they are a per-partition total order
//! that both ends agree on even when the fault layer delays, duplicates, or
//! reorders deliveries — the node never numbers writes itself, it files them
//! under the sequence the order carries.
//!
//! The chain stores *effects*, not values. A write step's effect on a
//! partition is fully determined by its unit count (see
//! [`apply_write_effect`]), and effects commute, so the state any snapshot
//! observed can be reconstructed from the current cells by subtracting the
//! effects that are not part of the snapshot, in any order. Effects are also
//! linear: a snapshot read's checksum takes one scan and no copy of a cell
//! ([`VersionChain::snapshot_checksum`], whose oracle is `snapshot_cells`).
//!
//! Garbage collection is a floor: once the control node's watermark says no
//! active or future snapshot can exclude a sealed write (it is committed and
//! every active reader's horizon is above it), its entry is dead weight and
//! [`VersionChain::prune_below`] drops it.

use std::collections::BTreeMap;

use wtpg_core::txn::TxnId;

/// Adds the total effect of a write step of `units` milli-object cells to a
/// partition's cell slice.
///
/// Mirrors `NodeStore::chunk_into_cells` in write mode for a whole step:
/// steps start at logical offset zero and cycle, so the chunked application
/// (each chunk offset picking up where the last ended) sums to `units / rows`
/// added to every cell plus one to the first `units % rows` cells. The
/// decomposition is what makes effects commutative — and therefore what
/// makes snapshot reconstruction order-free.
pub fn apply_write_effect(cells: &mut [u64], units: u64) {
    let rows = (cells.len() as u64).max(1);
    let full = units / rows;
    let part = (units % rows) as usize;
    if full > 0 {
        for cell in cells.iter_mut() {
            *cell = cell.wrapping_add(full);
        }
    }
    for cell in cells.get_mut(..part).unwrap_or(&mut []) {
        *cell = cell.wrapping_add(1);
    }
}

/// Subtracts the total effect of a write step of `units` cells — the exact
/// inverse of [`apply_write_effect`] (wrapping arithmetic, so the pair is an
/// inverse even across overflow).
pub fn unapply_write_effect(cells: &mut [u64], units: u64) {
    let rows = (cells.len() as u64).max(1);
    let full = units / rows;
    let part = (units % rows) as usize;
    if full > 0 {
        for cell in cells.iter_mut() {
            *cell = cell.wrapping_sub(full);
        }
    }
    for cell in cells.get_mut(..part).unwrap_or(&mut []) {
        *cell = cell.wrapping_sub(1);
    }
}

/// The checksum a read step of `units` cells computes over a partition's
/// cells, matching `NodeStore::chunk_into_cells` in read mode for one whole
/// step (logical offset zero). The snapshot certifier folds it over
/// reference cells; the data node's snapshot reads fold it in closed form
/// ([`VersionChain::snapshot_checksum`]), so both sides compute one function.
pub fn read_checksum(cells: &[u64], units: u64) -> u64 {
    let rows = (cells.len() as u64).max(1);
    let full = units / rows;
    let part = (units % rows) as usize;
    let mut checksum = 0u64;
    if full > 0 {
        let whole: u64 = cells.iter().fold(0u64, |s, &c| s.wrapping_add(c));
        checksum = whole.wrapping_mul(full);
    }
    for &cell in cells.get(..part).unwrap_or(&[]) {
        checksum = checksum.wrapping_add(cell);
    }
    checksum.rotate_left((units % 63) as u32 + 1)
}

/// One version-chain entry: the write step applied under a seal sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SealedWrite {
    /// The writing transaction.
    pub txn: TxnId,
    /// Milli-object cells the step touched (its full declared-actual cost).
    pub units: u64,
}

/// One partition's version chain: applied writes keyed by seal sequence.
#[derive(Clone, Debug, Default)]
pub struct VersionChain {
    /// Applied writes by seal sequence. Entries below `floor` are pruned.
    entries: BTreeMap<u64, SealedWrite>,
    /// GC floor: every sequence below this has been pruned (monotonic).
    floor: u64,
    /// Entries ever recorded (telemetry).
    appended: u64,
    /// Entries ever pruned (telemetry).
    pruned: u64,
    /// Largest live entry count ever held (telemetry).
    live_peak: u64,
}

impl VersionChain {
    /// An empty chain with GC floor zero.
    pub fn new() -> VersionChain {
        VersionChain::default()
    }

    /// Records that the write `txn` of `units` cells was applied under seal
    /// sequence `seq`. Returns `false` (and records nothing) if `seq` is
    /// already present or below the GC floor — both are redeliveries of an
    /// order the node already applied, which the caller's apply-marks should
    /// have filtered before reaching the store.
    pub fn record(&mut self, seq: u64, txn: TxnId, units: u64) -> bool {
        if seq < self.floor || self.entries.contains_key(&seq) {
            return false;
        }
        self.entries.insert(seq, SealedWrite { txn, units });
        self.appended += 1;
        self.live_peak = self.live_peak.max(self.entries.len() as u64);
        true
    }

    /// Reconstructs the cells a snapshot with the given `horizon` and
    /// exclusion set observed: clones `current` and subtracts every write
    /// sealed after the snapshot was taken (at or above the horizon) or
    /// sealed but uncommitted when it was (the present exclusions).
    /// The oracle that [`VersionChain::snapshot_checksum`] is checked against.
    pub fn snapshot_cells(&self, current: &[u64], horizon: u64, exclude: &[u64]) -> Vec<u64> {
        let mut cells = current.to_vec();
        for u in self.unapplied(horizon, exclude) {
            unapply_write_effect(&mut cells, u);
        }
        cells
    }

    /// `read_checksum(&self.snapshot_cells(cells, horizon, exclude), units)`
    /// without the copy. Effects are linear, so un-applying a write of `u`
    /// units lowers the sum over all cells by exactly `u`, and the sum over
    /// the first `part = units % rows` cells by `(u / rows) · part +
    /// min(u % rows, part)`: one scan of the live cells plus O(effects) arithmetic.
    pub fn snapshot_checksum(
        &self,
        cells: &[u64],
        horizon: u64,
        exclude: &[u64],
        units: u64,
    ) -> u64 {
        if cells.is_empty() {
            return read_checksum(cells, units); // No cells for effects to touch.
        }
        let rows = cells.len() as u64;
        let (full, part) = (units / rows, units % rows);
        let (mut whole_drop, mut head_drop) = (0u64, 0u64);
        for u in self.unapplied(horizon, exclude) {
            whole_drop = whole_drop.wrapping_add(u);
            // Its share of the prefix: at most `u`, so it cannot overflow.
            head_drop = head_drop.wrapping_add(u / rows * part + (u % rows).min(part));
        }
        let sum = |slice: &[u64]| slice.iter().fold(0u64, |s, &c| s.wrapping_add(c));
        let (head_cells, tail) = cells.split_at(part as usize);
        let head = sum(head_cells);
        let mut checksum = head.wrapping_sub(head_drop);
        if full > 0 {
            let whole = head.wrapping_add(sum(tail)).wrapping_sub(whole_drop);
            checksum = checksum.wrapping_add(whole.wrapping_mul(full));
        }
        checksum.rotate_left((units % 63) as u32 + 1)
    }

    /// Unit counts of the applied writes a snapshot at `(horizon, exclude)`
    /// did not see: entries sealed at or above the horizon, then present
    /// excluded sequences below it (an absent one was not applied yet, and
    /// skipping it lands on the same state).
    fn unapplied<'a>(&'a self, horizon: u64, exclude: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        let later = self.entries.range(horizon..).map(|(_, e)| e.units);
        let dirty = exclude.iter().filter(move |&&seq| seq < horizon);
        later.chain(dirty.filter_map(|seq| Some(self.entries.get(seq)?.units)))
    }

    /// Prunes every entry with sequence below `floor` and returns how many
    /// were dropped. The floor is monotonic: a stale (smaller) floor from a
    /// redelivered message is a no-op.
    pub fn prune_below(&mut self, floor: u64) -> u64 {
        if floor <= self.floor {
            return 0;
        }
        let keep = self.entries.split_off(&floor);
        let dropped = self.entries.len() as u64;
        self.entries = keep;
        self.floor = floor;
        self.pruned += dropped;
        dropped
    }

    /// Live (unpruned) entries.
    pub fn live(&self) -> usize {
        self.entries.len()
    }

    /// The current GC floor.
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// Lifetime telemetry: `(appended, pruned, live_peak)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.appended, self.pruned, self.live_peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wtpg_core::txn::AccessMode;
    use wtpg_rt::store::{chunks, NodeStore};

    /// The effect algebra must reproduce the store kernel's chunked writes:
    /// a step of `units` applied chunk-by-chunk (offsets picking up where
    /// the previous chunk ended) equals one `apply_write_effect` call.
    #[test]
    fn write_effect_matches_chunked_kernel_application() {
        for (rows, units, chunk) in [(7usize, 23u64, 5u64), (100, 100, 1), (3, 1000, 17), (1, 5, 2)]
        {
            let mut kernel = vec![0u64; rows];
            for (_, offset, n) in chunks(units, chunk) {
                NodeStore::chunk_into_cells(&mut kernel, AccessMode::Write, offset, n);
            }
            let mut effect = vec![0u64; rows];
            apply_write_effect(&mut effect, units);
            assert_eq!(kernel, effect, "rows={rows} units={units} chunk={chunk}");
            unapply_write_effect(&mut effect, units);
            assert_eq!(effect, vec![0u64; rows], "inverse returns to zero");
        }
    }

    /// `read_checksum` must equal the kernel's read of one whole step at
    /// offset zero, over arbitrary cell contents.
    #[test]
    fn read_checksum_matches_kernel_read() {
        let cells: Vec<u64> = (0..37).map(|i| i * i + 1).collect();
        for units in [0u64, 1, 36, 37, 38, 500] {
            let mut copy = cells.clone();
            let kernel = NodeStore::chunk_into_cells(&mut copy, AccessMode::Read, 0, units);
            assert_eq!(copy, cells, "reads change nothing");
            assert_eq!(read_checksum(&cells, units), kernel, "units={units}");
        }
    }

    /// Effects commute: applying in any order and unapplying any subset
    /// reaches the state of applying only the complement.
    #[test]
    fn effects_commute_and_cancel() {
        let steps = [13u64, 200, 7, 99];
        let mut forward = vec![0u64; 11];
        for &u in &steps {
            apply_write_effect(&mut forward, u);
        }
        let mut reversed = vec![0u64; 11];
        for &u in steps.iter().rev() {
            apply_write_effect(&mut reversed, u);
        }
        assert_eq!(forward, reversed);
        // Remove steps 0 and 2 == apply only steps 1 and 3.
        unapply_write_effect(&mut forward, steps[0]);
        unapply_write_effect(&mut forward, steps[2]);
        let mut complement = vec![0u64; 11];
        apply_write_effect(&mut complement, steps[1]);
        apply_write_effect(&mut complement, steps[3]);
        assert_eq!(forward, complement);
    }

    #[test]
    fn snapshot_cells_excludes_uncommitted_and_post_horizon_writes() {
        let mut chain = VersionChain::new();
        let rows = 10usize;
        let mut current = vec![0u64; rows];
        // Seal order: seq 0 (committed), 1 (uncommitted), 2 (past horizon).
        for (seq, units) in [(0u64, 25u64), (1, 13), (2, 40)] {
            assert!(chain.record(seq, TxnId(seq + 1), units));
            apply_write_effect(&mut current, units);
        }
        // Snapshot taken after seq 0..=1 sealed (horizon 2), with seq 1
        // uncommitted: it observes exactly seq 0.
        let snap = chain.snapshot_cells(&current, 2, &[1]);
        let mut expected = vec![0u64; rows];
        apply_write_effect(&mut expected, 25);
        assert_eq!(snap, expected);
        // Excluded-but-absent sequences are skipped (not yet applied).
        let snap = chain.snapshot_cells(&current, 2, &[1, 7]);
        assert_eq!(snap, expected);
        // Empty exclusion at full horizon: the current state.
        assert_eq!(chain.snapshot_cells(&current, 3, &[]), current);
    }

    /// A cell value or a write's unit count: small, or near `u64::MAX` so
    /// that sums and un-applied effects wrap.
    fn wrapping_or_small() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..1000, (u64::MAX - 1000)..=u64::MAX]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The closed form is the oracle's checksum: over 0- and 1-cell
        /// slices, writes that are present, missing or pruned, horizons
        /// below, inside and past the chain, exclusion lists naming absent
        /// sequences or ones at or above the horizon, and units that are 0,
        /// below, equal to or a multiple of the row count (or wrap).
        #[test]
        fn snapshot_checksum_is_the_checksum_of_the_snapshot_cells(
            current in prop::collection::vec(wrapping_or_small(), 0..=9usize),
            writes in prop::collection::vec((prop::bool::ANY, wrapping_or_small()), 0..12usize),
            (horizon, prune) in (0u64..14, 0u64..8),
            exclude in prop::collection::vec(0u64..14, 0..6usize),
            (rounds, rest, wide) in (0u64..4, 0u64..9, prop::bool::ANY),
        ) {
            let mut chain = VersionChain::new();
            for (seq, &(present, units)) in writes.iter().enumerate() {
                if present {
                    chain.record(seq as u64, TxnId(seq as u64 + 1), units);
                }
            }
            chain.prune_below(prune);
            let rows = current.len().max(1) as u64;
            let units = rounds * rows + rest % rows;
            let units = if wide { u64::MAX - units } else { units };
            let oracle = read_checksum(&chain.snapshot_cells(&current, horizon, &exclude), units);
            prop_assert_eq!(
                chain.snapshot_checksum(&current, horizon, &exclude, units),
                oracle,
                "rows={} units={} horizon={} exclude={:?}", current.len(), units, horizon, exclude
            );
        }
    }

    #[test]
    fn record_rejects_duplicates_and_pruned_sequences() {
        let mut chain = VersionChain::new();
        assert!(chain.record(0, TxnId(1), 5));
        assert!(!chain.record(0, TxnId(1), 5), "duplicate seal seq");
        assert!(chain.record(1, TxnId(2), 6));
        assert_eq!(chain.prune_below(1), 1);
        assert_eq!(chain.prune_below(1), 0, "floor is monotonic");
        assert!(!chain.record(0, TxnId(1), 5), "below the floor");
        assert_eq!(chain.live(), 1);
        assert_eq!(chain.floor(), 1);
        assert_eq!(chain.totals(), (2, 1, 2));
    }
}
