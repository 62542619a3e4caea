//! Property tests for page tables and the walker.

use mask_common::addr::{Vpn, PAGE_SIZE_4K_LOG2};
use mask_common::ids::Asid;
use mask_common::req::WalkLevel;
use mask_pagetable::{PageTables, PageWalker, WalkOutcome};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    /// Mapping is stable and injective: same VPN -> same PPN; distinct
    /// (asid, vpn) -> distinct frames.
    #[test]
    fn mapping_stable_and_injective(vpns in proptest::collection::vec((0u64..1u64<<30, 0u16..3), 1..200)) {
        let mut pts = PageTables::new(3, PAGE_SIZE_4K_LOG2);
        let mut seen: BTreeMap<(u16, u64), u64> = BTreeMap::new();
        let mut frames: BTreeSet<u64> = BTreeSet::new();
        for &(v, a) in &vpns {
            let ppn = pts.ensure_mapped(Asid::new(a), Vpn(v));
            match seen.get(&(a, v)) {
                Some(&prev) => prop_assert_eq!(prev, ppn.0, "mapping changed"),
                None => {
                    prop_assert!(frames.insert(ppn.0), "frame reused across pages");
                    seen.insert((a, v), ppn.0);
                }
            }
            prop_assert_eq!(pts.translate(Asid::new(a), Vpn(v)), Some(ppn));
        }
    }

    /// Walk lines agree with the radix structure: VPNs sharing all indices
    /// above a level share that level's node line region.
    #[test]
    fn walk_lines_shared_at_root(vpns in proptest::collection::hash_set(0u64..1u64<<27, 2..50)) {
        let mut pts = PageTables::new(1, PAGE_SIZE_4K_LOG2);
        for &v in &vpns {
            pts.ensure_mapped(Asid::new(0), Vpn(v));
        }
        // All small VPNs share the root node (level-1 top indices equal),
        // so root lines fall within one 4 KB node (32 lines).
        let roots: BTreeSet<u64> =
            vpns.iter().map(|&v| pts.walk_line(Asid::new(0), Vpn(v), WalkLevel::ROOT).0).collect();
        prop_assert!(roots.len() <= 32, "root lines exceed one node");
    }

    /// The walker resolves every enqueued request to the functional
    /// translation, regardless of completion interleaving.
    #[test]
    fn walker_matches_functional_translation(
        vpns in proptest::collection::vec(0u64..1u64<<20, 1..40),
        lifo: bool,
    ) {
        let mut pts = PageTables::new(1, PAGE_SIZE_4K_LOG2);
        let mut walker = PageWalker::new(8, 1);
        for (i, &v) in vpns.iter().enumerate() {
            walker.enqueue(Asid::new(0), Vpn(v), i as u64);
        }
        let mut pending = Vec::new();
        let mut resolved = 0usize;
        for now in 0..100_000u64 {
            pending.extend(walker.activate(&mut pts));
            if pending.is_empty() {
                if walker.total_walks() == 0 {
                    break;
                }
                continue;
            }
            let access = if lifo { pending.pop().expect("non-empty") } else { pending.remove(0) };
            match walker.access_complete(access.walk, &pts, now) {
                WalkOutcome::Next(n) => pending.push(n),
                WalkOutcome::Done { asid, vpn, ppn, .. } => {
                    prop_assert_eq!(pts.translate(asid, vpn), Some(ppn));
                    resolved += 1;
                }
            }
        }
        prop_assert_eq!(resolved, vpns.len(), "walks lost");
    }
}

// Differential test against the node this table replaced: 512 child slots
// and 512 leaf slots per node, absent ones holding a sentinel, indexed
// directly. Node numbering, frame allocation order and the snapshot
// encoding are all behaviour, so the packed nodes must match it answer for
// answer and byte for byte.
mod dense {
    use mask_common::addr::{levels_for_page_size, LineAddr, PhysAddr, Ppn, Vpn};
    use mask_common::ids::Asid;
    use mask_common::snapshot::{PrefixKey, SnapshotWriter};
    use mask_pagetable::FrameAllocator;

    const NO_CHILD: u32 = u32::MAX;
    const NO_LEAF: u64 = u64::MAX;

    pub(crate) struct Node {
        pub(crate) frame: u64,
        pub(crate) children: [u32; 512],
        pub(crate) leaves: [u64; 512],
    }

    impl Node {
        pub(crate) fn empty(frame: u64) -> Self {
            Node {
                frame,
                children: [NO_CHILD; 512],
                leaves: [NO_LEAF; 512],
            }
        }
    }

    pub(crate) struct Table {
        asid: Asid,
        page_size_log2: u32,
        pub(crate) levels: u8,
        pub(crate) nodes: Vec<Node>,
        pub(crate) mapped: usize,
    }

    impl Table {
        pub(crate) fn new(asid: Asid, alloc: &mut FrameAllocator) -> Self {
            let page_size_log2 = alloc.page_size_log2();
            Table {
                asid,
                page_size_log2,
                levels: levels_for_page_size(page_size_log2),
                nodes: vec![Node::empty(alloc.alloc_node())],
                mapped: 0,
            }
        }

        fn index(&self, vpn: Vpn, level: u8) -> usize {
            vpn.level_index(level, self.page_size_log2) as usize
        }

        pub(crate) fn ensure_mapped(
            &mut self,
            vpn: Vpn,
            alloc: &mut FrameAllocator,
        ) -> (Ppn, bool) {
            let mut node = 0;
            for level in 1..self.levels {
                let idx = self.index(vpn, level);
                if self.nodes[node].children[idx] == NO_CHILD {
                    self.nodes[node].children[idx] = self.nodes.len() as u32;
                    self.nodes.push(Node::empty(alloc.alloc_node()));
                }
                node = self.nodes[node].children[idx] as usize;
            }
            let idx = self.index(vpn, self.levels);
            let mapped = self.nodes[node].leaves[idx] == NO_LEAF;
            if mapped {
                self.nodes[node].leaves[idx] = alloc.alloc_data(self.asid).0;
                self.mapped += 1;
            }
            (Ppn(self.nodes[node].leaves[idx]), mapped)
        }

        /// The node a walk of `vpn` reads at `level`, if the tree has it.
        pub(crate) fn walk_node(&self, vpn: Vpn, level: u8) -> Option<u32> {
            (1..level).try_fold(0u32, |node, l| {
                let child = self.nodes[node as usize].children[self.index(vpn, l)];
                (child != NO_CHILD).then_some(child)
            })
        }

        pub(crate) fn translate(&self, vpn: Vpn) -> Option<Ppn> {
            let node = self.walk_node(vpn, self.levels)?;
            let leaf = self.nodes[node as usize].leaves[self.index(vpn, self.levels)];
            (leaf != NO_LEAF).then_some(Ppn(leaf))
        }

        /// The PTE line a walk of `vpn` touches in `node`, read at `level`.
        pub(crate) fn pte_line(&self, node: u32, vpn: Vpn, level: u8) -> LineAddr {
            let byte = (self.nodes[node as usize].frame << 12) + self.index(vpn, level) as u64 * 8;
            PhysAddr::new(byte).line()
        }
    }

    /// The encoding of `nodes`, well formed or not.
    pub(crate) fn encode(nodes: &[Node], mapped: usize) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.seq(nodes.len());
        for node in nodes {
            w.u64(node.frame);
            node.children.iter().for_each(|&c| w.u32(c));
            node.leaves.iter().for_each(|&l| w.u64(l));
        }
        w.usize(mapped);
        w.seal(PrefixKey(0))
    }
}

use mask_common::addr::PAGE_SIZE_2M_LOG2;
use mask_common::snapshot::{PrefixKey, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use mask_pagetable::{FrameAllocator, PageTable};

fn encode(table: &PageTable) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    table.snapshot(&mut w);
    w.seal(PrefixKey(0))
}

fn restore(page_size_log2: u32, bytes: &[u8]) -> Result<PageTable, SnapshotError> {
    let mut table = PageTable::new(Asid::new(1), &mut FrameAllocator::new(page_size_log2));
    let (mut r, _) = SnapshotReader::open(bytes)?;
    table.restore(&mut r)?;
    r.finish()?;
    Ok(table)
}

/// A stream of pages to map: scattered ones, which open new subtrees and
/// leave most leaves with a handful of slots, and runs of neighbours,
/// which fill them.
fn vpn_stream() -> impl Strategy<Value = Vec<Vpn>> {
    // A few values per upper index keep the tree (and its 6 KB-a-node
    // encoding, taken after every page) small; the leaf index is free.
    let page = |x: u64| {
        Vpn(((x & 1) << 27) | (((x >> 1) % 3) << 18) | (((x >> 3) % 4) << 9) | ((x >> 5) % 512))
    };
    let pages = prop_oneof![
        any::<u64>().prop_map(move |x| vec![page(x)]),
        any::<u64>().prop_map(move |x| vec![page(x)]),
        (any::<u64>(), 2u64..48)
            .prop_map(move |(x, n)| (0..n).map(|i| Vpn(page(x).0 + i)).collect()),
    ];
    proptest::collection::vec(pages, 1..24).prop_map(|runs| runs.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same frames, the same translations, the same walk lines and hops
    /// and a byte-identical snapshot after every page mapped, for both page
    /// sizes and both frame-allocation policies; then a round trip through
    /// `restore`.
    #[test]
    fn packed_nodes_equal_the_dense_nodes_they_replaced(
        vpns in vpn_stream(),
        large_pages: bool,
        colored: bool,
    ) {
        let page_size_log2 = if large_pages { PAGE_SIZE_2M_LOG2 } else { PAGE_SIZE_4K_LOG2 };
        let allocator = || if colored {
            FrameAllocator::with_colors(page_size_log2, 2)
        } else {
            FrameAllocator::new(page_size_log2)
        };
        let (mut alloc, mut model_alloc) = (allocator(), allocator());
        let mut table = PageTable::new(Asid::new(1), &mut alloc);
        let mut model = dense::Table::new(Asid::new(1), &mut model_alloc);
        prop_assert_eq!(table.levels(), model.levels);
        for &vpn in &vpns {
            // A neighbour that may share every node with `vpn` and not be mapped.
            for probe in [vpn, Vpn(vpn.0 ^ 1)] {
                prop_assert_eq!(table.translate(probe), model.translate(probe));
            }
            prop_assert_eq!(table.ensure_mapped(vpn, &mut alloc), model.ensure_mapped(vpn, &mut model_alloc));
            prop_assert_eq!(table.translate(vpn), model.translate(vpn));
            let mut node = 0;
            for level in 1..=model.levels {
                let want = model.walk_node(vpn, level).expect("just mapped");
                prop_assert_eq!(table.walk_node(vpn, WalkLevel::new(level)), Some(want));
                let line = model.pte_line(want, vpn, level);
                prop_assert_eq!(table.walk_line(vpn, WalkLevel::new(level)), line);
                if level > 1 {
                    prop_assert_eq!(table.walk_hop(node, vpn, WalkLevel::new(level)), (want, line));
                }
                node = want;
            }
            prop_assert!(encode(&table) == dense::encode(&model.nodes, model.mapped), "after {vpn:?}");
        }
        let back = restore(page_size_log2, &encode(&table)).expect("own encoding restores");
        prop_assert!(encode(&back) == encode(&table), "re-encoding is byte-identical");
        for &vpn in &vpns {
            for probe in [vpn, Vpn(vpn.0 ^ 1)] {
                prop_assert_eq!(back.translate(probe), model.translate(probe));
            }
            let leaf = WalkLevel::new(model.levels);
            prop_assert_eq!(back.walk_line(vpn, leaf), table.walk_line(vpn, leaf));
        }
    }
}

/// The rejections `restore` has always made, on encodings only the dense
/// writer above can produce.
#[test]
fn restore_still_rejects_what_no_table_encodes() {
    use dense::Node;
    let node = |frame: u64, children: &[(usize, u32)], leaves: &[(usize, u64)]| {
        let mut node = Node::empty(frame);
        children.iter().for_each(|&(i, c)| node.children[i] = c);
        leaves.iter().for_each(|&(i, l)| node.leaves[i] = l);
        node
    };
    // Three levels (2 MB pages): root -> 1 -> 2 (leaf).
    let chain = |leaf_children: &[(usize, u32)], mid_leaves: &[(usize, u64)]| {
        let nodes = [
            node(10, &[(0, 1)], &[]),
            node(11, &[(5, 2)], mid_leaves),
            node(12, leaf_children, &[(7, 99)]),
        ];
        dense::encode(&nodes, 1)
    };
    let good = restore(PAGE_SIZE_2M_LOG2, &chain(&[], &[])).expect("well formed");
    assert_eq!(
        good.translate(Vpn((5 << 9) | 7)),
        Some(mask_common::addr::Ppn(99))
    );
    for (bytes, why) in [
        (dense::encode(&[], 0), "page table without a root node"),
        (chain(&[(3, 1)], &[]), "leaf page-table node with a child"),
        (
            chain(&[], &[(3, 42)]),
            "interior page-table node with a translation",
        ),
        (
            dense::encode(&[node(10, &[(0, 0)], &[])], 0),
            "page-table child out of order",
        ),
        (
            dense::encode(&[node(10, &[(0, 1), (1, 1)], &[]), node(11, &[], &[])], 0),
            "page-table child out of order",
        ),
        (
            dense::encode(&[node(10, &[], &[]), node(11, &[], &[])], 0),
            "page-table node without a parent",
        ),
    ] {
        match restore(PAGE_SIZE_2M_LOG2, &bytes) {
            Err(SnapshotError::Malformed(got)) => assert_eq!(got, why),
            other => panic!("expected Malformed({why:?}), got {:?}", other.map(|_| ())),
        }
    }
}
