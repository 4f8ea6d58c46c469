//! In-memory partition stores — the data nodes' storage.
//!
//! One store per data node, shared-nothing style: partition `p` lives on
//! node `p mod NumNodes` (paper §4.1, Figure 5) and nodes share no state.
//! [`NodeStore`] is a plain value with `&mut self` operations and no
//! locking, so `wtpg-net`'s data-node actors *own* one outright (true
//! shared-nothing: the partition is reachable only through the actor's
//! mailbox).
//!
//! A partition holds one `u64` cell per milli-object of its catalog size; a
//! bulk step touches exactly `costof(s)` milli-object cells (cycling over
//! the partition when the cost exceeds its size):
//!
//! * a **read** step folds the touched cells into a checksum (the scan is
//!   real work the optimiser cannot discard);
//! * a **write** step increments every touched cell, which gives a run its
//!   conservation invariant — when every admitted transaction commits, the
//!   sum over all cells of all nodes must equal the total declared write
//!   units of the workload ([`NodeStore::cell_sum`]).
//!
//! Steps are applied in *chunks* (one object at a time by default), each
//! followed by a progress report, exactly like the paper's per-object
//! weight-adjustment messages.

use wtpg_core::error::CoreError;
use wtpg_core::partition::{Catalog, PartitionId};
use wtpg_core::txn::AccessMode;

/// The one chunk rule: a bulk step of `units` milli-objects applied
/// `chunk_units` at a time (clamped ≥ 1) is the chunks `(index, offset, len)`
/// this yields, in order — every chunk full-sized except a short last one,
/// none for an empty step. The data node's reply path, log replay's tests
/// and anything else that must agree on where chunk `k` starts walk this.
pub fn chunks(units: u64, chunk_units: u64) -> impl Iterator<Item = (u64, u64, u64)> {
    let size = chunk_units.max(1);
    (0..units.div_ceil(size)).map(move |i| (i, i * size, size.min(units - i * size)))
}

/// One data node's storage: the cells of every partition homed on it.
///
/// A plain value — no interior locking — owned exclusively by whoever
/// applies bulk steps to it (an actor's private state).
pub struct NodeStore {
    /// Cells of each partition homed on this node: partition `p` at index
    /// `p / num_nodes` (the modulo rule homes `node`, `node + num_nodes`, …
    /// here).
    partitions: Vec<Vec<u64>>,
    /// Total milli-object cells updated on this node (diagnostics).
    write_units: u64,
    /// Which node of the catalog this store is (placement checking).
    node: u32,
    /// Nodes in the catalog the store was built from (placement checking).
    num_nodes: u32,
}

impl NodeStore {
    /// Builds the zeroed store for node `node` of `catalog`: every partition
    /// the paper's modulo rule homes there, one cell per milli-object.
    pub fn for_node(catalog: &Catalog, node: u32) -> NodeStore {
        let partitions = catalog
            .partitions()
            .filter(|&p| catalog.node_of(p) == node)
            .map(|p| vec![0u64; catalog.size(p).units().max(1) as usize])
            .collect();
        NodeStore {
            partitions,
            write_units: 0,
            node,
            num_nodes: catalog.num_nodes(),
        }
    }

    /// The cells of partition `p`, if it is homed on this node.
    fn homed(&mut self, p: u32) -> Option<&mut Vec<u64>> {
        if p % self.num_nodes != self.node {
            return None;
        }
        self.partitions.get_mut((p / self.num_nodes) as usize)
    }

    /// Applies one chunk of a bulk step: touches `units` milli-object cells
    /// of `p` starting at logical offset `start_unit` (cycling past the end)
    /// and returns a checksum folding every touched cell's post-chunk value,
    /// counted once per touch. Write chunks increment each touched cell by
    /// one.
    ///
    /// The cyclic touch pattern decomposes into `units / rows` full passes
    /// over the partition plus one partial pass of `units % rows` cells from
    /// `start_unit`, so writes are two range increments and the checksum is
    /// an order-free (associative) fold — the scan over the touched cells is
    /// still real per-cell work, but it vectorises instead of serialising on
    /// a rotate-per-unit dependency chain.
    ///
    /// # Errors
    /// [`CoreError::UnknownPartition`] if `p` is not homed on this node.
    pub fn apply_chunk(
        &mut self,
        p: PartitionId,
        mode: AccessMode,
        start_unit: u64,
        units: u64,
    ) -> Result<u64, CoreError> {
        let cells = self.homed(p.0).ok_or(CoreError::UnknownPartition(p))?;
        let checksum = NodeStore::chunk_into_cells(cells, mode, start_unit, units);
        if mode == AccessMode::Write {
            self.write_units += units;
        }
        Ok(checksum)
    }

    /// The current cells of partition `p`, or `None` if `p` is not homed on
    /// this node. Snapshot reads reconstruct past states from these cells
    /// plus the node's version chain (`wtpg-mvcc`).
    pub fn cells(&self, p: PartitionId) -> Option<&[u64]> {
        if p.0 % self.num_nodes != self.node {
            return None;
        }
        self.partitions
            .get((p.0 / self.num_nodes) as usize)
            .map(Vec::as_slice)
    }

    /// The cyclic-touch kernel of [`Self::apply_chunk`], operating on a bare
    /// cell slice: touches `units` cells starting at logical offset
    /// `start_unit` (cycling past the end) and returns the chunk checksum.
    /// Write chunks increment each touched cell by one. Exposed so log
    /// replay (`wtpg-dur`) can rebuild per-partition cell vectors on worker
    /// threads without constructing a store per worker; the caller is
    /// responsible for the write-unit tally and placement checks that
    /// [`Self::apply_chunk`] layers on top.
    ///
    /// A chunk no longer than its partition — the partial pass alone — is
    /// one pass over the touched cells, a write incrementing and folding
    /// each cell as it goes.
    pub fn chunk_into_cells(
        cells: &mut [u64],
        mode: AccessMode,
        start_unit: u64,
        units: u64,
    ) -> u64 {
        let rows = (cells.len() as u64).max(1);
        let start = (start_unit % rows) as usize;
        let full = units / rows;
        let part = (units % rows) as usize;
        // The partial pass covers [start, start + part) cyclically: a head
        // slice up to the end of the partition and a wrapped tail from 0.
        let head_end = (start + part).min(cells.len());
        let wrapped = start + part - head_end;
        let fold = |range: &[u64]| range.iter().fold(0u64, |s, &c| s.wrapping_add(c));
        let mut checksum = 0u64;
        if full == 0 {
            let (tail, head) = cells.split_at_mut(start.min(cells.len()));
            let head = head.get_mut(..head_end - start).unwrap_or(&mut []);
            let tail = tail.get_mut(..wrapped).unwrap_or(&mut []);
            for range in [head, tail] {
                checksum = checksum.wrapping_add(match mode {
                    AccessMode::Write => bump_and_fold(range),
                    AccessMode::Read => fold(range),
                });
            }
        } else {
            // Every cell is touched `full` times: the whole-partition fold
            // sees the partial pass's increments too.
            if mode == AccessMode::Write {
                for cell in cells.iter_mut() {
                    *cell = cell.wrapping_add(full);
                }
                for cell in cells.get_mut(start..head_end).unwrap_or(&mut []) {
                    *cell = cell.wrapping_add(1);
                }
                for cell in cells.get_mut(..wrapped).unwrap_or(&mut []) {
                    *cell = cell.wrapping_add(1);
                }
            }
            checksum = fold(cells).wrapping_mul(full);
            checksum = checksum.wrapping_add(fold(cells.get(start..head_end).unwrap_or(&[])));
            checksum = checksum.wrapping_add(fold(cells.get(..wrapped).unwrap_or(&[])));
        }
        checksum.rotate_left((units % 63) as u32 + 1)
    }

    /// Clones the cells of every partition homed here, keyed by partition
    /// id — the snapshot half of the durability hooks (checkpoint writing
    /// and replay verification read store state through this).
    pub fn snapshot_parts(&self) -> Vec<(u32, Vec<u64>)> {
        (self.node..)
            .step_by(self.num_nodes as usize)
            .zip(&self.partitions)
            .map(|(p, cells)| (p, cells.clone()))
            .collect()
    }

    /// Rebuilds a store for node `node` of `catalog` from recovered
    /// partition cells — the restore half of the durability hooks. Every
    /// partition the catalog homes on `node` must appear exactly once in
    /// `parts` with its catalog cell count; `write_units` is the recovered
    /// write-unit tally.
    ///
    /// # Errors
    /// [`CoreError::UnknownPartition`] if `parts` names a partition not
    /// homed on `node`; [`CoreError::Invariant`] if a homed partition is
    /// missing, duplicated, or sized differently from the catalog.
    pub fn from_parts(
        catalog: &Catalog,
        node: u32,
        parts: Vec<(u32, Vec<u64>)>,
        write_units: u64,
    ) -> Result<NodeStore, CoreError> {
        let mut store = NodeStore::for_node(catalog, node);
        let expected = store.partitions.len();
        let mut seen = std::collections::BTreeSet::new();
        for (p, cells) in parts {
            if !seen.insert(p) {
                return Err(CoreError::Invariant(
                    "recovered parts name the same partition twice",
                ));
            }
            let slot = store
                .homed(p)
                .ok_or(CoreError::UnknownPartition(PartitionId(p)))?;
            if slot.len() != cells.len() {
                return Err(CoreError::Invariant(
                    "recovered partition cell count differs from the catalog",
                ));
            }
            *slot = cells;
        }
        if seen.len() != expected {
            return Err(CoreError::Invariant(
                "recovered parts do not cover every partition homed on the node",
            ));
        }
        store.write_units = write_units;
        Ok(store)
    }

    /// Sum of every cell on this node.
    pub fn cell_sum(&self) -> u64 {
        self.partitions.iter().flatten().sum()
    }

    /// Milli-object cells updated on this node, as tallied at write time.
    pub fn write_units(&self) -> u64 {
        self.write_units
    }

    /// The node id this store was built for.
    pub fn node(&self) -> u32 {
        self.node
    }
}

/// Increments every cell by one and folds the incremented values: the write
/// kernel's partial pass, in one pass.
fn bump_and_fold(cells: &mut [u64]) -> u64 {
    cells.iter_mut().fold(0u64, |s, c| {
        *c = c.wrapping_add(1);
        s.wrapping_add(*c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel as it was written first — increment every touched cell,
    /// then fold the touched cells in a second pass — kept as the one-pass
    /// kernel's oracle.
    fn chunk_into_cells_two_pass(
        cells: &mut [u64],
        mode: AccessMode,
        start_unit: u64,
        units: u64,
    ) -> u64 {
        let rows = (cells.len() as u64).max(1);
        let start = (start_unit % rows) as usize;
        let full = units / rows;
        let part = (units % rows) as usize;
        let head_end = (start + part).min(cells.len());
        let wrapped = start + part - head_end;
        if mode == AccessMode::Write {
            if full > 0 {
                for cell in cells.iter_mut() {
                    *cell = cell.wrapping_add(full);
                }
            }
            for cell in cells.get_mut(start..head_end).unwrap_or(&mut []) {
                *cell = cell.wrapping_add(1);
            }
            for cell in cells.get_mut(..wrapped).unwrap_or(&mut []) {
                *cell = cell.wrapping_add(1);
            }
        }
        let mut checksum = 0u64;
        if full > 0 {
            let whole: u64 = cells.iter().fold(0u64, |s, &c| s.wrapping_add(c));
            checksum = whole.wrapping_mul(full);
        }
        for &cell in cells.get(start..head_end).unwrap_or(&[]) {
            checksum = checksum.wrapping_add(cell);
        }
        for &cell in cells.get(..wrapped).unwrap_or(&[]) {
            checksum = checksum.wrapping_add(cell);
        }
        checksum.rotate_left((units % 63) as u32 + 1)
    }

    proptest! {
        /// The one-pass kernel leaves the same cells and returns the same
        /// checksum as the two-pass oracle — WAL replay runs it too, so a
        /// checksum that drifted would fail recovery — on cells already
        /// written unevenly, for chunks inside, across and beyond the
        /// partition.
        #[test]
        fn the_one_pass_kernel_matches_the_two_pass_oracle(
            rows in 1usize..70,
            start in 0u64..200,
            units in 0u64..300,
            write in 0u8..2,
            seed in 0u64..1000,
        ) {
            let mode = if write == 1 { AccessMode::Write } else { AccessMode::Read };
            let mut fast: Vec<u64> = (0..rows as u64).map(|i| (i * 7 + seed) % 13).collect();
            let mut slow = fast.clone();
            let a = NodeStore::chunk_into_cells(&mut fast, mode, start, units);
            let b = chunk_into_cells_two_pass(&mut slow, mode, start, units);
            prop_assert_eq!(a, b);
            prop_assert_eq!(fast, slow);
        }
    }

    fn store() -> NodeStore {
        // 4 partitions of 2 objects (2000 cells), all on one node.
        NodeStore::for_node(&Catalog::uniform(4, 2, 1), 0)
    }

    #[test]
    fn chunks_tile_a_step_exactly() {
        let tiled: Vec<_> = chunks(2500, 1000).collect();
        assert_eq!(tiled, vec![(0, 0, 1000), (1, 1000, 1000), (2, 2000, 500)]);
        assert_eq!(chunks(0, 1000).count(), 0, "an empty step has no chunks");
        assert_eq!(chunks(2, 0).collect::<Vec<_>>(), vec![(0, 0, 1), (1, 1, 1)], "size clamps to 1");
    }

    #[test]
    fn writes_are_visible_and_tallied() {
        let mut s = store();
        s.apply_chunk(PartitionId(1), AccessMode::Write, 0, 1500).unwrap();
        assert_eq!(s.write_units(), 1500);
        assert_eq!(s.cell_sum(), 1500);
        // Cycling: 1000 more units wrap past the 2000-cell end.
        s.apply_chunk(PartitionId(1), AccessMode::Write, 1500, 1000).unwrap();
        assert_eq!(s.cell_sum(), 2500);
    }

    #[test]
    fn reads_change_nothing() {
        let mut s = store();
        s.apply_chunk(PartitionId(0), AccessMode::Write, 0, 10).unwrap();
        let before = s.cell_sum();
        let c1 = s.apply_chunk(PartitionId(0), AccessMode::Read, 0, 10).unwrap();
        assert_eq!(s.cell_sum(), before);
        assert_eq!(s.write_units(), 10);
        assert_ne!(c1, 0, "scan saw the written cells");
    }

    #[test]
    fn unknown_partition_is_an_error() {
        let mut s = store();
        let err = s
            .apply_chunk(PartitionId(9), AccessMode::Read, 0, 1)
            .unwrap_err();
        assert_eq!(err, CoreError::UnknownPartition(PartitionId(9)));
    }

    #[test]
    fn node_store_rejects_foreign_partitions() {
        let catalog = Catalog::uniform(4, 2, 2);
        let mut n0 = NodeStore::for_node(&catalog, 0);
        assert_eq!(n0.node(), 0);
        // Partitions 0 and 2 are homed on node 0; 1 and 3 are not.
        n0.apply_chunk(PartitionId(0), AccessMode::Write, 0, 5).unwrap();
        n0.apply_chunk(PartitionId(2), AccessMode::Write, 0, 5).unwrap();
        assert_eq!(
            n0.apply_chunk(PartitionId(1), AccessMode::Write, 0, 5),
            Err(CoreError::UnknownPartition(PartitionId(1))),
            "node 0 must refuse node 1's partition"
        );
        assert_eq!(n0.write_units(), 10);
        assert_eq!(n0.cell_sum(), 10);
    }

    #[test]
    fn snapshot_and_restore_round_trip_the_store() {
        let catalog = Catalog::uniform(4, 2, 2);
        let mut n0 = NodeStore::for_node(&catalog, 0);
        n0.apply_chunk(PartitionId(0), AccessMode::Write, 3, 1500).unwrap();
        n0.apply_chunk(PartitionId(2), AccessMode::Write, 7, 42).unwrap();
        let parts = n0.snapshot_parts();
        let restored = NodeStore::from_parts(&catalog, 0, parts.clone(), n0.write_units()).unwrap();
        assert_eq!(restored.snapshot_parts(), parts);
        assert_eq!(restored.cell_sum(), n0.cell_sum());
        assert_eq!(restored.write_units(), n0.write_units());
        // Restore validation: foreign partition, missing partition, size drift.
        assert!(NodeStore::from_parts(&catalog, 1, parts.clone(), 0).is_err());
        assert!(NodeStore::from_parts(&catalog, 0, parts[..1].to_vec(), 0).is_err());
        let mut short = parts.clone();
        short[0].1.pop();
        assert!(NodeStore::from_parts(&catalog, 0, short, 0).is_err());
        let mut dup = parts.clone();
        dup.push(parts[0].clone());
        assert!(NodeStore::from_parts(&catalog, 0, dup, 0).is_err());
    }

    #[test]
    fn chunk_kernel_matches_apply_chunk() {
        let catalog = Catalog::uniform(2, 2, 1);
        let mut store = NodeStore::for_node(&catalog, 0);
        let mut cells = vec![0u64; 2000];
        for (i, &(start, units)) in [(0u64, 1500u64), (1500, 1000), (2500, 7)].iter().enumerate() {
            let a = store.apply_chunk(PartitionId(0), AccessMode::Write, start, units).unwrap();
            let b = NodeStore::chunk_into_cells(&mut cells, AccessMode::Write, start, units);
            assert_eq!(a, b, "chunk {i} checksum");
        }
        assert_eq!(store.snapshot_parts()[0].1, cells);
    }
}
