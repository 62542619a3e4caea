//! Physical frame allocation for data pages and page-table nodes.
//!
//! The simulator never stores page *contents* — only addresses matter — but
//! the *placement* of physical frames determines DRAM row/bank/channel
//! behaviour, so the allocator is deliberate about layout:
//!
//! * **Data frames** are allocated per address space from disjoint regions,
//!   mostly contiguously (matching a first-touch allocator on a fresh GPU),
//!   so that streaming applications see high row-buffer locality — the
//!   property FR-FCFS exploits and that Fig. 9 shows starves translation
//!   requests.
//! * **Page-table node frames** come from a separate region and are strided
//!   across channels, giving translation requests the low row locality the
//!   paper observes ("address translation requests have low row buffer
//!   locality", §5.4 footnote 7).

use mask_common::addr::Ppn;
use mask_common::ids::Asid;

/// Size of the per-ASID data region in frames (supports up to 16 GB worth
/// of 4 KB pages per address space, far beyond any workload here).
const DATA_REGION_FRAMES: u64 = 1 << 22;
/// Frame number where page-table-node frames begin (above all data regions
/// for up to 64 address spaces).
const NODE_REGION_BASE: u64 = DATA_REGION_FRAMES * 64;

/// Allocates physical frames for data pages and page-table nodes.
///
/// Frames are identified by [`Ppn`]s relative to the configured page size;
/// page-table nodes are always 4 KB regardless of the data page size, so
/// node allocation tracks raw byte addresses internally.
#[derive(Debug)]
pub struct FrameAllocator {
    page_size_log2: u32,
    /// Next free data frame per ASID (index = ASID).
    data_next: Vec<u64>,
    /// Next free page-table-node index (nodes are 4 KB each).
    node_next: u64,
    /// Page-coloring stripe count (≤ 1 = plain contiguous allocation).
    /// With `n` colors, ASID `a`'s data frames all satisfy
    /// `frame % n == a % n`, so an application's color rides in the low
    /// frame bits that feed cache-set and DRAM-bank indexing.
    n_colors: u64,
}

impl FrameAllocator {
    /// Creates an allocator for the given data-page size.
    pub fn new(page_size_log2: u32) -> Self {
        FrameAllocator {
            page_size_log2,
            data_next: Vec::new(),
            node_next: 0,
            n_colors: 1,
        }
    }

    /// Creates a color-aware allocator striping data frames over
    /// `n_colors` page colors (the FGPU-style `Partitioned` design;
    /// `n_colors <= 1` degenerates to [`FrameAllocator::new`]).
    pub fn with_colors(page_size_log2: u32, n_colors: u64) -> Self {
        FrameAllocator {
            n_colors: n_colors.max(1),
            ..FrameAllocator::new(page_size_log2)
        }
    }

    /// The data-page size this allocator serves.
    pub fn page_size_log2(&self) -> u32 {
        self.page_size_log2
    }

    /// Allocates the next data frame for `asid`.
    ///
    /// Frames for one address space are contiguous within its region with a
    /// light per-allocation scramble of the low bits every few frames, which
    /// keeps row locality high without making every app's stream perfectly
    /// sequential.
    pub fn alloc_data(&mut self, asid: Asid) -> Ppn {
        let idx = asid.index();
        if self.data_next.len() <= idx {
            self.data_next.resize(idx + 1, 0);
        }
        let n = self.data_next[idx];
        assert!(
            n < DATA_REGION_FRAMES / self.n_colors,
            "data region exhausted for {asid:?}"
        );
        self.data_next[idx] = n + 1;
        // Region base in *4 KB-equivalent* frames, converted to this page size.
        let region_base_bytes = (idx as u64 * DATA_REGION_FRAMES) << 12;
        let base = region_base_bytes >> self.page_size_log2;
        if self.n_colors <= 1 {
            return Ppn(base + n);
        }
        // Color-aware striping: every frame of this ASID carries its color
        // in the low bits (`frame % n_colors == color`), still walking the
        // region front to back so contiguity within a color is preserved.
        let color = idx as u64 % self.n_colors;
        let align = (color + self.n_colors - base % self.n_colors) % self.n_colors;
        Ppn(base + align + n * self.n_colors)
    }

    /// Allocates a 4 KB page-table node, returning its base *byte* address
    /// shifted to a 4 KB frame number.
    ///
    /// Consecutive nodes are strided by a large odd step so that node lines
    /// scatter across DRAM channels, banks and rows.
    pub fn alloc_node(&mut self) -> u64 {
        let n = self.node_next;
        self.node_next += 1;
        // Golden-ratio stride within a 2^22-frame node region: visits every
        // frame exactly once (stride is odd => coprime with the power of 2).
        const NODE_REGION_FRAMES: u64 = 1 << 22;
        const STRIDE: u64 = (2654435761 % NODE_REGION_FRAMES) | 1;
        assert!(n < NODE_REGION_FRAMES, "page-table node region exhausted");
        NODE_REGION_BASE + (n.wrapping_mul(STRIDE) % NODE_REGION_FRAMES)
    }
}

impl mask_common::snapshot::Snapshot for FrameAllocator {
    /// Serializes the allocation cursors (`data_next` grows on demand, so
    /// its length is state too); page size and color count are
    /// config-derived.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.seq(self.data_next.len());
        for &n in &self.data_next {
            w.u64(n);
        }
        w.u64(self.node_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn data_frames_are_unique_within_and_across_asids() {
        let mut a = FrameAllocator::new(12);
        let mut seen = BTreeSet::new();
        for asid in 0..4u16 {
            for _ in 0..1000 {
                let ppn = a.alloc_data(Asid::new(asid));
                assert!(seen.insert(ppn), "duplicate frame {ppn:?}");
            }
        }
    }

    #[test]
    fn data_frames_are_mostly_contiguous() {
        let mut a = FrameAllocator::new(12);
        let f0 = a.alloc_data(Asid::new(0));
        let f1 = a.alloc_data(Asid::new(0));
        assert_eq!(f1.0, f0.0 + 1);
    }

    #[test]
    fn node_frames_unique_and_above_data_regions() {
        let mut a = FrameAllocator::new(12);
        let mut seen = BTreeSet::new();
        for _ in 0..10_000 {
            let f = a.alloc_node();
            assert!(f >= NODE_REGION_BASE);
            assert!(seen.insert(f), "duplicate node frame {f}");
        }
    }

    #[test]
    fn node_frames_scatter() {
        let mut a = FrameAllocator::new(12);
        let f0 = a.alloc_node();
        let f1 = a.alloc_node();
        assert!(
            f0.abs_diff(f1) > 1,
            "consecutive nodes should not be adjacent"
        );
    }

    #[test]
    fn colored_frames_carry_the_asid_color() {
        let mut a = FrameAllocator::with_colors(12, 3);
        for asid in 0..3u16 {
            for _ in 0..100 {
                let ppn = a.alloc_data(Asid::new(asid));
                assert_eq!(ppn.0 % 3, u64::from(asid) % 3, "frame {ppn:?}");
            }
        }
    }

    #[test]
    fn colored_frames_are_unique_and_stride_by_color_count() {
        let mut a = FrameAllocator::with_colors(12, 4);
        let mut seen = BTreeSet::new();
        for asid in 0..4u16 {
            let f0 = a.alloc_data(Asid::new(asid));
            let f1 = a.alloc_data(Asid::new(asid));
            assert_eq!(f1.0, f0.0 + 4, "stripe stride is the color count");
            assert!(seen.insert(f0) && seen.insert(f1));
        }
    }

    #[test]
    fn one_color_degenerates_to_linear() {
        let mut lin = FrameAllocator::new(12);
        let mut col = FrameAllocator::with_colors(12, 1);
        for asid in 0..2u16 {
            for _ in 0..50 {
                assert_eq!(
                    lin.alloc_data(Asid::new(asid)),
                    col.alloc_data(Asid::new(asid))
                );
            }
        }
    }

    #[test]
    fn large_page_frames_scale() {
        let mut a = FrameAllocator::new(21);
        let f0 = a.alloc_data(Asid::new(1));
        let f1 = a.alloc_data(Asid::new(1));
        assert_eq!(f1.0, f0.0 + 1);
        // 2 MB frames: byte addresses differ by 2 MB.
        let page = mask_common::addr::VirtAddr::new(0);
        assert_eq!(
            f1.translate(page, 21).raw() - f0.translate(page, 21).raw(),
            1 << 21
        );
    }
}
