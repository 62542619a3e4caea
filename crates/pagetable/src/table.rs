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

/// One interior node of the radix tree.
#[derive(Clone, Debug)]
struct Node {
    /// 4 KB frame number holding this node in physical memory.
    frame: u64,
    /// Child node indices (into `PageTable::nodes`) for interior levels.
    children: Box<[u32; NODE_ENTRIES]>,
    /// Leaf translations (valid only at the deepest level).
    leaves: Box<[u64; NODE_ENTRIES]>,
}

const NO_CHILD: u32 = u32::MAX;
const NO_LEAF: u64 = u64::MAX;

impl Node {
    fn new(frame: u64) -> Self {
        Node {
            frame,
            children: Box::new([NO_CHILD; NODE_ENTRIES]),
            leaves: Box::new([NO_LEAF; NODE_ENTRIES]),
        }
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
        let root = Node::new(alloc.alloc_node());
        PageTable {
            asid,
            page_size_log2,
            levels: levels_for_page_size(page_size_log2),
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
    /// Walks the radix tree directly: three or four dependent array loads,
    /// which beats a search-tree side index once a workload has mapped
    /// hundreds of thousands of pages (this runs on every issued memory
    /// instruction and every completed walk).
    pub fn translate(&self, vpn: Vpn) -> Option<Ppn> {
        let mut node = 0usize;
        for level in 1..self.levels {
            let idx = vpn.level_index(level, self.page_size_log2) as usize;
            let child = self.nodes[node].children[idx];
            if child == NO_CHILD {
                return None;
            }
            node = child as usize;
        }
        let leaf_idx = vpn.level_index(self.levels, self.page_size_log2) as usize;
        let leaf = self.nodes[node].leaves[leaf_idx];
        (leaf != NO_LEAF).then_some(Ppn(leaf))
    }

    /// Maps `vpn`, allocating intermediate nodes and a data frame on first
    /// touch; returns the (possibly pre-existing) translation.
    ///
    /// The paper's experiments run with pre-faulted memory ("Address
    /// translation inevitably introduces page faults. ... We leave this as
    /// future work", §5.5), so mapping never fails and is not timed.
    pub fn ensure_mapped(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> Ppn {
        let mut node = 0usize;
        for level in 1..self.levels {
            let idx = vpn.level_index(level, self.page_size_log2) as usize;
            let child = self.nodes[node].children[idx];
            node = if child == NO_CHILD {
                let frame = alloc.alloc_node();
                let new_idx = self.nodes.len() as u32;
                self.nodes.push(Node::new(frame));
                self.nodes[node].children[idx] = new_idx;
                new_idx as usize
            } else {
                child as usize
            };
        }
        let leaf_idx = vpn.level_index(self.levels, self.page_size_log2) as usize;
        let leaf = self.nodes[node].leaves[leaf_idx];
        if leaf != NO_LEAF {
            return Ppn(leaf);
        }
        let ppn = alloc.alloc_data(self.asid);
        self.nodes[node].leaves[leaf_idx] = ppn.0;
        self.mapped += 1;
        ppn
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
            let child = self.nodes[node].children[idx];
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
        let child = self.nodes.get(node as usize)?.children[idx];
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
        let idx = asid.index();
        self.tables[idx].ensure_mapped(vpn, &mut self.alloc)
    }

    /// Like [`PageTables::ensure_mapped`], additionally reporting whether
    /// the page was newly mapped (a demand-paging fault).
    pub fn ensure_mapped_report(&mut self, asid: Asid, vpn: Vpn) -> (Ppn, bool) {
        if let Some(ppn) = self.translate(asid, vpn) {
            return (ppn, false);
        }
        (self.ensure_mapped(asid, vpn), true)
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
    /// Serializes the radix nodes densely (frame, children, leaves) plus the
    /// mapped-page count; the ASID, page size, and level count are fixed at
    /// construction.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.seq(self.nodes.len());
        for node in &self.nodes {
            w.u64(node.frame);
            for &c in node.children.iter() {
                w.u32(c);
            }
            for &l in node.leaves.iter() {
                w.u64(l);
            }
        }
        w.usize(self.mapped);
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        let n = r.seq()?;
        if n == 0 {
            return Err(mask_common::snapshot::SnapshotError::Malformed(
                "page table without a root node",
            ));
        }
        self.nodes.clear();
        for _ in 0..n {
            let frame = r.u64()?;
            let mut node = Node::new(frame);
            for c in node.children.iter_mut() {
                *c = r.u32()?;
            }
            for l in node.leaves.iter_mut() {
                *l = r.u64()?;
            }
            self.nodes.push(node);
        }
        self.mapped = r.usize()?;
        Ok(())
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
    use std::collections::HashSet;

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
        let root_lines: HashSet<_> = vpns
            .iter()
            .map(|&v| pts.walk_line(asid, v, WalkLevel::new(1)))
            .collect();
        let leaf_lines: HashSet<_> = vpns
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
        let lines: HashSet<_> = (0..16u64)
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
        let mut frames = HashSet::new();
        for i in 0..2000u64 {
            assert!(frames.insert(pts.ensure_mapped(asid, Vpn(i * 7))));
        }
    }
}
