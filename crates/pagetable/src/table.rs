//! Radix page tables materialized in simulated physical memory.

use crate::frame::FrameAllocator;
use mask_common::addr::{levels_for_page_size, LineAddr, Ppn, Vpn, BITS_PER_LEVEL};
use mask_common::config::AllocPolicy;
use mask_common::ids::Asid;
use mask_common::req::WalkLevel;

/// Entries per page-table node (512 for 9 radix bits).
const NODE_ENTRIES: usize = 1 << BITS_PER_LEVEL;
/// Bytes per page-table entry.
const PTE_BYTES: u64 = 8;

/// 64-slot words in a node's presence map.
const NODE_WORDS: usize = NODE_ENTRIES / 64;

/// One node of the radix tree, holding only its present slots: GPGPU
/// applications touch a handful of base pages per 2 MB region (Mosaic's
/// observation), so a dense 512-slot array is 4 KB of host memory for some
/// tens of bytes of payload. Its depth fixes what the slots are — at the
/// deepest level translations, anywhere else children.
#[derive(Clone, Debug)]
struct Node {
    /// 4 KB frame number holding this node in physical memory.
    frame: u64,
    /// Bit `i % 64` of word `i / 64` set iff slot `i` is present.
    present: [u64; NODE_WORDS],
    /// Present slots in the words before each word, so that a slot's rank
    /// is one add and one population count whatever the node holds.
    before: [u16; NODE_WORDS],
    slots: Slots,
}

/// The present slots of a node, packed in slot order.
#[derive(Clone, Debug)]
enum Slots {
    /// Child node indices (into `PageTable::nodes`).
    Interior(Vec<u32>),
    /// Leaf translations.
    Leaf(Vec<u64>),
}

/// What an absent slot reads as, here and in the snapshot encoding.
const NO_CHILD: u32 = u32::MAX;
const NO_LEAF: u64 = u64::MAX;

impl Node {
    /// An empty node read at `level` of a `levels`-deep walk.
    fn new(frame: u64, level: u8, levels: u8) -> Self {
        Node {
            frame,
            present: [0; NODE_WORDS],
            before: [0; NODE_WORDS],
            slots: if level == levels {
                Slots::Leaf(Vec::new())
            } else {
                Slots::Interior(Vec::new())
            },
        }
    }

    /// Whether slot `idx` is present, and its rank among the present
    /// slots: where it is in the packed array, or where it would go.
    fn locate(&self, idx: usize) -> (bool, usize) {
        let (word, bit) = (idx / 64, idx % 64);
        let map = self.present[word];
        let below = (map & ((1 << bit) - 1)).count_ones() as usize;
        (map >> bit & 1 != 0, usize::from(self.before[word]) + below)
    }

    /// Marks the absent slot `idx` present and returns its rank.
    fn claim(&mut self, idx: usize) -> usize {
        let (present, rank) = self.locate(idx);
        debug_assert!(!present, "slot {idx} claimed twice");
        self.present[idx / 64] |= 1 << (idx % 64);
        for before in &mut self.before[idx / 64 + 1..] {
            *before += 1;
        }
        rank
    }

    /// The child behind slot `idx`; `NO_CHILD` for an empty slot and for
    /// every slot of a leaf node.
    fn child(&self, idx: usize) -> u32 {
        match (&self.slots, self.locate(idx)) {
            (Slots::Interior(children), (true, rank)) => children[rank],
            _ => NO_CHILD,
        }
    }

    /// The translation in slot `idx`; `NO_LEAF` for an unmapped slot and
    /// for every slot of an interior node.
    fn leaf_at(&self, idx: usize) -> u64 {
        match (&self.slots, self.locate(idx)) {
            (Slots::Leaf(leaves), (true, rank)) => leaves[rank],
            _ => NO_LEAF,
        }
    }

    /// Puts `child` behind the empty slot `idx` of an interior node.
    fn set_child(&mut self, idx: usize, child: u32) {
        let rank = self.claim(idx);
        let Slots::Interior(children) = &mut self.slots else {
            unreachable!("a node above the deepest level is interior");
        };
        children.insert(rank, child);
    }

    /// Puts the translation `leaf` in the unmapped slot `idx` of a leaf node.
    fn set_leaf(&mut self, idx: usize, leaf: u64) {
        let rank = self.claim(idx);
        let Slots::Leaf(leaves) = &mut self.slots else {
            unreachable!("a node at the deepest level is a leaf");
        };
        leaves.insert(rank, leaf);
    }
}

/// The page table of a single address space.
///
/// Walk depth is determined by the data-page size: 4 levels for 4 KB pages,
/// 3 for 2 MB pages (§7.3 large-page study).
#[derive(Clone, Debug)]
pub struct PageTable {
    asid: Asid,
    page_size_log2: u32,
    levels: u8,
    nodes: Vec<Node>,
    /// Number of mapped leaf pages.
    mapped: usize,
}

impl PageTable {
    /// Creates an empty page table for `asid`, allocating its root node.
    pub fn new(asid: Asid, alloc: &mut FrameAllocator) -> Self {
        let page_size_log2 = alloc.page_size_log2();
        let levels = levels_for_page_size(page_size_log2);
        let root = Node::new(alloc.alloc_node(), 1, levels);
        PageTable {
            asid,
            page_size_log2,
            levels,
            nodes: vec![root],
            mapped: 0,
        }
    }

    /// The owning address space.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Number of radix levels a full walk traverses.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Functionally translates `vpn`, without modelling any latency.
    ///
    /// Walks the radix tree directly: three or four dependent node reads,
    /// which beats a search-tree side index once a workload has mapped
    /// hundreds of thousands of pages (this runs on every issued memory
    /// instruction).
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        let mut node = 0usize;
        for level in 1..self.levels {
            let idx = vpn.level_index(level, self.page_size_log2) as usize;
            let child = self.nodes[node].child(idx);
            if child == NO_CHILD {
                return None;
            }
            node = child as usize;
        }
        let leaf_idx = vpn.level_index(self.levels, self.page_size_log2) as usize;
        let leaf = self.nodes[node].leaf_at(leaf_idx);
        (leaf != NO_LEAF).then_some(Ppn(leaf))
    }

    /// Maps `vpn`, allocating intermediate nodes and a data frame on first
    /// touch; returns the (possibly pre-existing) translation and whether
    /// this call mapped it.
    ///
    /// The paper's experiments run with pre-faulted memory ("Address
    /// translation inevitably introduces page faults. ... We leave this as
    /// future work", §5.5), so mapping never fails and is not timed.
    pub fn ensure_mapped(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> (Ppn, bool) {
        let mut node = 0usize;
        for level in 1..self.levels {
            let idx = vpn.level_index(level, self.page_size_log2) as usize;
            let child = self.nodes[node].child(idx);
            node = if child == NO_CHILD {
                let frame = alloc.alloc_node();
                let new_idx = self.nodes.len() as u32;
                self.nodes.push(Node::new(frame, level + 1, self.levels));
                self.nodes[node].set_child(idx, new_idx);
                new_idx as usize
            } else {
                child as usize
            };
        }
        let leaf_idx = vpn.level_index(self.levels, self.page_size_log2) as usize;
        let leaf = self.nodes[node].leaf_at(leaf_idx);
        if leaf != NO_LEAF {
            return (Ppn(leaf), false);
        }
        let ppn = alloc.alloc_data(self.asid);
        self.nodes[node].set_leaf(leaf_idx, ppn.0);
        self.mapped += 1;
        (ppn, true)
    }

    /// The physical line a walk of `vpn` touches at `level`.
    ///
    /// Level 1 reads the root node; level `k` reads the node reached after
    /// `k - 1` radix steps. The returned address is the PTE slot's line, so
    /// nearby VPNs share lines at shallow levels (16 PTEs per 128 B line).
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not mapped (callers must `ensure_mapped` first) or
    /// if `level` exceeds the walk depth.
    pub fn walk_line(&self, vpn: Vpn, level: WalkLevel) -> LineAddr {
        assert!(level.raw() <= self.levels, "level beyond walk depth");
        let mut node = 0usize;
        for l in 1..level.raw() {
            let idx = vpn.level_index(l, self.page_size_log2) as usize;
            let child = self.nodes[node].child(idx);
            assert!(child != NO_CHILD, "walk_line on unmapped vpn {vpn:?}");
            node = child as usize;
        }
        self.pte_line(node as u32, vpn, level)
    }

    /// The line of `vpn`'s PTE slot in `node`, the node its walk reads at
    /// `level`.
    fn pte_line(&self, node: u32, vpn: Vpn, level: WalkLevel) -> LineAddr {
        let idx = vpn.level_index(level.raw(), self.page_size_log2);
        let byte = (self.nodes[node as usize].frame << 12) + idx * PTE_BYTES;
        mask_common::addr::PhysAddr::new(byte).line()
    }

    /// The node a walk of `vpn` reads at `level` (the root is node 0), or
    /// `None` if the tree does not reach that deep for `vpn`.
    pub fn walk_node(&self, vpn: Vpn, level: WalkLevel) -> Option<u32> {
        if level.raw() > self.levels {
            return None;
        }
        let mut node = 0u32;
        for l in 1..level.raw() {
            node = self.child(node, vpn, l)?;
        }
        Some(node)
    }

    fn child(&self, node: u32, vpn: Vpn, level: u8) -> Option<u32> {
        let idx = vpn.level_index(level, self.page_size_log2) as usize;
        let child = self.nodes.get(node as usize)?.child(idx);
        (child != NO_CHILD).then_some(child)
    }

    /// One radix hop of a walk of `vpn`: from `node`, read at the level
    /// above `next`, to the node read at `next` and the PTE line touched
    /// there — the line [`PageTable::walk_line`] reaches from the root.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is not mapped, or if `next` is the root level or
    /// exceeds the walk depth.
    pub fn walk_hop(&self, node: u32, vpn: Vpn, next: WalkLevel) -> (u32, LineAddr) {
        assert!(
            (2..=self.levels).contains(&next.raw()),
            "hop to a level outside the walk"
        );
        let child = self
            .child(node, vpn, next.raw() - 1)
            .expect("walk_hop on an unmapped vpn, or from a node the walk never reached");
        (child, self.pte_line(child, vpn, next))
    }
}

/// All address spaces' page tables plus the shared frame allocator.
#[derive(Clone, Debug)]
pub struct PageTables {
    alloc: FrameAllocator,
    tables: Vec<PageTable>,
}

impl PageTables {
    /// Creates tables for `n_asids` address spaces with the given page size
    /// and a [`AllocPolicy::Linear`] frame allocator.
    pub fn new(n_asids: usize, page_size_log2: u32) -> Self {
        PageTables::with_alloc(n_asids, page_size_log2, AllocPolicy::Linear)
    }

    /// Like [`PageTables::new`] with an explicit frame-allocation policy:
    /// [`AllocPolicy::ColorAware`] stripes each address space's data frames
    /// over `n_asids` page colors (see [`FrameAllocator::with_colors`]).
    pub fn with_alloc(n_asids: usize, page_size_log2: u32, policy: AllocPolicy) -> Self {
        let mut alloc = match policy {
            AllocPolicy::Linear => FrameAllocator::new(page_size_log2),
            AllocPolicy::ColorAware => {
                FrameAllocator::with_colors(page_size_log2, n_asids.max(1) as u64)
            }
        };
        let tables = (0..n_asids)
            .map(|i| PageTable::new(Asid::new(i as u16), &mut alloc))
            .collect();
        PageTables { alloc, tables }
    }

    /// The table for `asid`.
    ///
    /// # Panics
    ///
    /// Panics if `asid` was not created at construction time.
    pub fn table(&self, asid: Asid) -> &PageTable {
        &self.tables[asid.index()]
    }

    /// Number of address spaces.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no address spaces exist.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Maps `vpn` in `asid` on demand and returns its translation.
    pub fn ensure_mapped(&mut self, asid: Asid, vpn: Vpn) -> Ppn {
        self.ensure_mapped_report(asid, vpn).0
    }

    /// Like [`PageTables::ensure_mapped`], additionally reporting whether
    /// the page was newly mapped (a demand-paging fault).
    pub fn ensure_mapped_report(&mut self, asid: Asid, vpn: Vpn) -> (Ppn, bool) {
        self.tables[asid.index()].ensure_mapped(vpn, &mut self.alloc)
    }

    /// Functional translation (no latency modelling).
    pub fn translate(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        self.tables[asid.index()].translate(vpn)
    }

    /// The physical line touched at `level` of a walk of `(asid, vpn)`.
    pub fn walk_line(&self, asid: Asid, vpn: Vpn, level: WalkLevel) -> LineAddr {
        self.tables[asid.index()].walk_line(vpn, level)
    }

    /// The node a walk of `(asid, vpn)` reads at `level`; see
    /// [`PageTable::walk_node`].
    pub fn walk_node(&self, asid: Asid, vpn: Vpn, level: WalkLevel) -> Option<u32> {
        self.tables.get(asid.index())?.walk_node(vpn, level)
    }

    /// One radix hop of a walk of `(asid, vpn)`; see [`PageTable::walk_hop`].
    pub fn walk_hop(&self, asid: Asid, node: u32, vpn: Vpn, next: WalkLevel) -> (u32, LineAddr) {
        self.tables[asid.index()].walk_hop(node, vpn, next)
    }

    /// Walk depth (same for all address spaces).
    pub fn levels(&self) -> u8 {
        self.tables.first().map_or(4, PageTable::levels)
    }
}

impl mask_common::snapshot::Snapshot for PageTable {
    /// Serializes the radix nodes densely — frame, 512 children, 512 leaves,
    /// an absent slot and the array a node does not hold written as
    /// `NO_CHILD` / `NO_LEAF` — plus the mapped-page count; the ASID, page
    /// size, and level count are fixed at construction. The encoding is the
    /// one nodes with two 512-slot arrays had: what a snapshot holds is not
    /// this type's to change.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.seq(self.nodes.len());
        for node in &self.nodes {
            w.u64(node.frame);
            match &node.slots {
                Slots::Interior(children) => {
                    spread(&node.present, children, NO_CHILD, |c| w.u32(c));
                    (0..NODE_ENTRIES).for_each(|_| w.u64(NO_LEAF));
                }
                Slots::Leaf(leaves) => {
                    (0..NODE_ENTRIES).for_each(|_| w.u32(NO_CHILD));
                    spread(&node.present, leaves, NO_LEAF, |l| w.u64(l));
                }
            }
        }
        w.usize(self.mapped);
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        use mask_common::snapshot::SnapshotError::Malformed;
        let n = r.seq()?;
        if n == 0 {
            return Err(Malformed("page table without a root node"));
        }
        // A node's level — what its slots are — is its parent's plus one,
        // and a child always follows its parent in `nodes`, so every level
        // is known by the time its node is read. 0 = no parent seen yet.
        let mut level_of = vec![0u8; n];
        level_of[0] = 1;
        self.nodes.clear();
        for i in 0..n {
            let frame = r.u64()?;
            let level = level_of[i];
            if level == 0 {
                return Err(Malformed("page-table node without a parent"));
            }
            let mut node = Node::new(frame, level, self.levels);
            let is_leaf = matches!(node.slots, Slots::Leaf(_));
            // Slots arrive in index order, so each lands at the end of the
            // packed array.
            for idx in 0..NODE_ENTRIES {
                let child = r.u32()?;
                if child == NO_CHILD {
                    continue;
                }
                if is_leaf {
                    return Err(Malformed("leaf page-table node with a child"));
                }
                match level_of.get_mut(child as usize) {
                    Some(seen) if child as usize > i && *seen == 0 => *seen = level + 1,
                    _ => return Err(Malformed("page-table child out of order")),
                }
                node.set_child(idx, child);
            }
            for idx in 0..NODE_ENTRIES {
                let leaf = r.u64()?;
                if leaf == NO_LEAF {
                    continue;
                }
                if !is_leaf {
                    return Err(Malformed("interior page-table node with a translation"));
                }
                node.set_leaf(idx, leaf);
            }
            self.nodes.push(node);
        }
        self.mapped = r.usize()?;
        Ok(())
    }
}

/// Feeds `put` all 512 slots of a node in index order: the next of `packed`
/// for a slot `present` marks, `absent` for the others.
fn spread<T: Copy>(present: &[u64; NODE_WORDS], packed: &[T], absent: T, mut put: impl FnMut(T)) {
    let mut rank = 0;
    for &map in present {
        for bit in 0..64 {
            if map >> bit & 1 == 0 {
                put(absent);
            } else {
                put(packed[rank]);
                rank += 1;
            }
        }
    }
}

impl mask_common::snapshot::Snapshot for PageTables {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("pagetables");
        self.alloc.snapshot(w);
        w.seq(self.tables.len());
        for t in &self.tables {
            t.snapshot(w);
        }
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        r.section("pagetables")?;
        self.alloc.restore(r)?;
        r.seq_exact(self.tables.len())?;
        for t in &mut self.tables {
            t.restore(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::addr::{PAGE_SIZE_2M_LOG2, PAGE_SIZE_4K_LOG2};
    use std::collections::BTreeSet;

    fn tables() -> PageTables {
        PageTables::new(2, PAGE_SIZE_4K_LOG2)
    }

    #[test]
    fn map_then_translate_roundtrip() {
        let mut pts = tables();
        let vpn = Vpn(0x12345);
        let ppn = pts.ensure_mapped(Asid::new(0), vpn);
        assert_eq!(pts.translate(Asid::new(0), vpn), Some(ppn));
        // Mapping again returns the same frame.
        assert_eq!(pts.ensure_mapped(Asid::new(0), vpn), ppn);
    }

    #[test]
    fn unmapped_translates_to_none() {
        let pts = tables();
        assert_eq!(pts.translate(Asid::new(0), Vpn(0x1)), None);
    }

    #[test]
    fn asids_are_isolated() {
        let mut pts = tables();
        let vpn = Vpn(0x777);
        let p0 = pts.ensure_mapped(Asid::new(0), vpn);
        let p1 = pts.ensure_mapped(Asid::new(1), vpn);
        assert_ne!(
            p0, p1,
            "same VPN in different address spaces gets different frames"
        );
        assert_eq!(pts.translate(Asid::new(0), vpn), Some(p0));
        assert_eq!(pts.translate(Asid::new(1), vpn), Some(p1));
    }

    #[test]
    fn root_level_lines_are_shared_leaf_lines_are_not() {
        let mut pts = tables();
        let asid = Asid::new(0);
        // Map pages spread over a large footprint: distinct leaf nodes,
        // common root.
        let vpns: Vec<Vpn> = (0..256u64).map(|i| Vpn(i * 513)).collect();
        for &v in &vpns {
            pts.ensure_mapped(asid, v);
        }
        let root_lines: BTreeSet<_> = vpns
            .iter()
            .map(|&v| pts.walk_line(asid, v, WalkLevel::new(1)))
            .collect();
        let leaf_lines: BTreeSet<_> = vpns
            .iter()
            .map(|&v| pts.walk_line(asid, v, WalkLevel::new(4)))
            .collect();
        assert!(
            root_lines.len() <= 2,
            "root walk lines should be heavily shared"
        );
        assert!(
            leaf_lines.len() > vpns.len() / 2,
            "leaf walk lines should be mostly distinct"
        );
    }

    #[test]
    fn sequential_pages_share_leaf_pte_lines() {
        // 16 PTEs fit in one 128 B line, so 16 consecutive VPNs share the
        // leaf line — the spatial locality that makes page-walk caches work.
        let mut pts = tables();
        let asid = Asid::new(0);
        for i in 0..16u64 {
            pts.ensure_mapped(asid, Vpn(i));
        }
        let lines: BTreeSet<_> = (0..16u64)
            .map(|i| pts.walk_line(asid, Vpn(i), WalkLevel::new(4)))
            .collect();
        assert_eq!(lines.len(), 1);
    }

    #[test]
    fn large_pages_walk_three_levels() {
        let mut pts = PageTables::new(1, PAGE_SIZE_2M_LOG2);
        assert_eq!(pts.levels(), 3);
        let vpn = Vpn(0xabc);
        pts.ensure_mapped(Asid::new(0), vpn);
        // Level 3 is the leaf; level 4 must panic.
        let _ = pts.walk_line(Asid::new(0), vpn, WalkLevel::new(3));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pts.walk_line(Asid::new(0), vpn, WalkLevel::new(4))
        }));
        assert!(res.is_err());
    }

    #[test]
    fn hops_reach_the_lines_a_walk_from_the_root_does() {
        for page_size_log2 in [PAGE_SIZE_4K_LOG2, PAGE_SIZE_2M_LOG2] {
            let mut pts = PageTables::new(2, page_size_log2);
            for i in 0..300u64 {
                let (asid, vpn) = (Asid::new((i % 2) as u16), Vpn(i * 0x1_0101 + (i << 30)));
                pts.ensure_mapped(asid, vpn);
                let mut node = 0;
                let mut level = WalkLevel::ROOT;
                assert_eq!(pts.walk_node(asid, vpn, level), Some(0));
                while let Some(next) = level.next(pts.levels()) {
                    let (child, line) = pts.walk_hop(asid, node, vpn, next);
                    assert_eq!(line, pts.walk_line(asid, vpn, next));
                    assert_eq!(pts.walk_node(asid, vpn, next), Some(child));
                    (node, level) = (child, next);
                }
                assert_eq!(level.raw(), pts.levels());
            }
            // Below an unmapped subtree, and past the leaf, there is no node.
            assert_eq!(
                pts.walk_node(Asid::new(0), Vpn(0x7fff_ffff), WalkLevel::new(3)),
                None
            );
            if pts.levels() == 3 {
                assert_eq!(pts.walk_node(Asid::new(0), Vpn(0), WalkLevel::new(4)), None);
            }
        }
    }

    /// A node as (frame, occupied child slots, occupied leaf slots).
    type RawNode = (u64, Vec<(usize, u32)>, Vec<(usize, u64)>);

    /// The node encoding the codec has always had: frame, 512 children,
    /// 512 leaves, whichever of the two the node really holds.
    fn dense(nodes: &[RawNode], mapped: usize) -> Vec<u8> {
        use mask_common::snapshot::{PrefixKey, SnapshotWriter};
        let mut w = SnapshotWriter::new();
        w.seq(nodes.len());
        for (frame, children, leaves) in nodes {
            w.u64(*frame);
            for idx in 0..NODE_ENTRIES {
                let child = children.iter().find(|(i, _)| *i == idx);
                w.u32(child.map_or(NO_CHILD, |&(_, c)| c));
            }
            for idx in 0..NODE_ENTRIES {
                let leaf = leaves.iter().find(|(i, _)| *i == idx);
                w.u64(leaf.map_or(NO_LEAF, |&(_, l)| l));
            }
        }
        w.usize(mapped);
        w.seal(PrefixKey(0))
    }

    fn restore_table(
        page_size_log2: u32,
        bytes: &[u8],
    ) -> Result<PageTable, mask_common::snapshot::SnapshotError> {
        use mask_common::snapshot::{Snapshot, SnapshotReader};
        let mut alloc = FrameAllocator::new(page_size_log2);
        let mut table = PageTable::new(Asid::new(0), &mut alloc);
        let (mut r, _) = SnapshotReader::open(bytes)?;
        table.restore(&mut r)?;
        r.finish()?;
        Ok(table)
    }

    #[test]
    fn slots_pack_in_index_order_whatever_order_they_arrive_in() {
        // Every word of the presence map, both of its ends, out of order.
        let arrivals = [300usize, 0, 511, 64, 63, 1, 448, 447, 128, 255, 256, 65];
        let mut leaf = Node::new(7, 4, 4);
        let mut interior = Node::new(8, 1, 4);
        for (n, &idx) in arrivals.iter().enumerate() {
            assert_eq!(
                (leaf.leaf_at(idx), interior.child(idx)),
                (NO_LEAF, NO_CHILD)
            );
            leaf.set_leaf(idx, idx as u64 * 10);
            interior.set_child(idx, idx as u32 + 1);
            let Slots::Leaf(leaves) = &leaf.slots else {
                panic!("a node at the deepest level is a leaf");
            };
            assert_eq!(leaves.len(), n + 1, "one packed slot per present slot");
            assert!(leaves.is_sorted(), "packed in slot order: {leaves:?}");
        }
        for idx in 0..NODE_ENTRIES {
            let present = arrivals.contains(&idx);
            assert_eq!(leaf.locate(idx).0, present);
            assert_eq!(
                leaf.leaf_at(idx),
                if present { idx as u64 * 10 } else { NO_LEAF }
            );
            assert_eq!(
                interior.child(idx),
                if present { idx as u32 + 1 } else { NO_CHILD }
            );
            // A node answers only for what its level holds.
            assert_eq!(
                (leaf.child(idx), interior.leaf_at(idx)),
                (NO_CHILD, NO_LEAF)
            );
            let before = arrivals.iter().filter(|&&a| a < idx).count();
            assert_eq!(leaf.locate(idx).1, before, "rank of slot {idx}");
        }
    }

    #[test]
    fn a_node_holds_its_present_slots_and_the_encoding_stays_dense() {
        use mask_common::snapshot::{PrefixKey, Snapshot, SnapshotWriter};
        for page_size_log2 in [PAGE_SIZE_4K_LOG2, PAGE_SIZE_2M_LOG2] {
            let mut alloc = FrameAllocator::new(page_size_log2);
            let mut table = PageTable::new(Asid::new(0), &mut alloc);
            let vpns: Vec<Vpn> = (0..40u64).map(|i| Vpn(i * 0x4_0201 + (i << 27))).collect();
            let ppns: Vec<Ppn> = vpns
                .iter()
                .map(|&v| table.ensure_mapped(v, &mut alloc).0)
                .collect();
            let levels = usize::from(table.levels());
            assert!(table.nodes.len() > levels, "several subtrees");
            assert!(matches!(table.nodes[0].slots, Slots::Interior(_)));
            let n_leaf_nodes = table
                .nodes
                .iter()
                .filter(|n| matches!(n.slots, Slots::Leaf(_)))
                .count();
            assert!(n_leaf_nodes > 1 && n_leaf_nodes < table.nodes.len());
            // Host memory follows what is mapped: one packed slot per child
            // and per page, 512 per node only in the encoding.
            let packed: usize = table
                .nodes
                .iter()
                .map(|n| match &n.slots {
                    Slots::Interior(children) => children.len(),
                    Slots::Leaf(leaves) => leaves.len(),
                })
                .sum();
            assert_eq!(packed, table.nodes.len() - 1 + vpns.len());

            let mut w = SnapshotWriter::new();
            table.snapshot(&mut w);
            let bytes = w.seal(PrefixKey(0));
            // Both arrays of every node are in the payload, absent or not.
            let per_node = 8 + NODE_ENTRIES * 4 + NODE_ENTRIES * 8;
            assert_eq!(bytes.len(), 32 + 8 + table.nodes.len() * per_node + 8);

            let back = restore_table(page_size_log2, &bytes).expect("own encoding restores");
            for (&v, &p) in vpns.iter().zip(&ppns) {
                assert_eq!(back.translate(v), Some(p));
                assert_eq!(
                    back.walk_line(v, WalkLevel::new(table.levels())),
                    table.walk_line(v, WalkLevel::new(table.levels()))
                );
            }
            let mut w = SnapshotWriter::new();
            back.snapshot(&mut w);
            assert!(
                w.seal(PrefixKey(0)) == bytes,
                "re-encoding is byte-identical"
            );
        }
    }

    #[test]
    fn restore_rejects_nodes_that_are_both_or_out_of_order() {
        use mask_common::snapshot::SnapshotError::Malformed;
        // A well-formed three-level chain (2 MB pages): root -> 1 -> 2 (leaf).
        let chain = |leaf_children: Vec<(usize, u32)>, mid_leaves: Vec<(usize, u64)>| {
            dense(
                &[
                    (10, vec![(0, 1)], vec![]),
                    (11, vec![(5, 2)], mid_leaves),
                    (12, leaf_children, vec![(7, 99)]),
                ],
                1,
            )
        };
        let good = restore_table(PAGE_SIZE_2M_LOG2, &chain(vec![], vec![])).expect("well formed");
        assert_eq!(good.translate(Vpn((5 << 9) | 7)), Some(Ppn(99)));
        for (bytes, why) in [
            (
                chain(vec![(3, 1)], vec![]),
                "leaf page-table node with a child",
            ),
            (
                chain(vec![], vec![(3, 42)]),
                "interior page-table node with a translation",
            ),
            (
                dense(&[(10, vec![(0, 0)], vec![])], 0),
                "page-table child out of order",
            ),
            (
                dense(
                    &[(10, vec![(0, 1), (1, 1)], vec![]), (11, vec![], vec![])],
                    0,
                ),
                "page-table child out of order",
            ),
            (
                dense(&[(10, vec![(0, 7)], vec![])], 0),
                "page-table child out of order",
            ),
            (
                dense(&[(10, vec![], vec![]), (11, vec![], vec![])], 0),
                "page-table node without a parent",
            ),
        ] {
            match restore_table(PAGE_SIZE_2M_LOG2, &bytes) {
                Err(Malformed(got)) => assert_eq!(got, why),
                other => panic!("expected Malformed({why:?}), got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    #[should_panic(expected = "walk_line on unmapped vpn")]
    fn walk_line_requires_mapping() {
        let pts = tables();
        let _ = pts.walk_line(Asid::new(0), Vpn(0x55), WalkLevel::new(4));
    }

    #[test]
    fn color_aware_tables_stripe_data_frames() {
        let mut pts = PageTables::with_alloc(2, PAGE_SIZE_4K_LOG2, AllocPolicy::ColorAware);
        for i in 0..64u64 {
            assert_eq!(pts.ensure_mapped(Asid::new(0), Vpn(i)).0 % 2, 0);
            assert_eq!(pts.ensure_mapped(Asid::new(1), Vpn(i)).0 % 2, 1);
        }
    }

    #[test]
    fn distinct_mappings_get_distinct_frames() {
        let mut pts = tables();
        let asid = Asid::new(0);
        let mut frames = BTreeSet::new();
        for i in 0..2000u64 {
            assert!(frames.insert(pts.ensure_mapped(asid, Vpn(i * 7))));
        }
    }
}
