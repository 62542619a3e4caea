//! Per-warp stateful trace generation.
//!
//! Each warp owns a [`WarpTrace`]; calling [`WarpTrace::next_op_into`] yields the
//! warp's next instruction group: some compute cycles followed by one
//! memory instruction that touches a small set of line-aligned virtual
//! addresses. Generation is deterministic in `(seed, app, core, warp)`.

use crate::profile::{AppProfile, Pattern};
use mask_common::addr::{VirtAddr, LINE_SIZE, LINE_SIZE_LOG2};
use mask_common::rng::Pcg32;

/// Base virtual address of every application's data region.
const DATA_BASE: u64 = 0x10_0000_0000;

/// A deterministic per-warp trace generator.
#[derive(Debug)]
pub struct WarpTrace {
    profile: AppProfile,
    rng: Pcg32,
    page_size_log2: u32,
    /// `lines_per_page - 1`: lines per page is a power of two by
    /// construction, so a line index is reduced with a mask, not a divide.
    line_mask: u64,
    /// Index of the warp's page-sharing group: the global warp index over
    /// the pattern's `group` (1 for patterns without a stream).
    group_id: u64,
    /// Lines a memory instruction touches in each page it visits.
    lines_per_visit: u64,
    /// Stream state: current step index and remaining burst count.
    step: u64,
    burst_left: u64,
    /// Recently touched (page, line) pairs (for line-level locality).
    recent: [(u64, u64); 8],
    recent_len: usize,
    recent_next: usize,
}

impl WarpTrace {
    /// Creates the generator for one warp.
    ///
    /// `core` and `warp` are the warp's coordinates *within its
    /// application* (the trace does not depend on where the scheduler
    /// physically places the app's cores).
    pub fn new(profile: AppProfile, seed: u64, core: u64, warp: u64, page_size_log2: u32) -> Self {
        let global_warp = core * 4096 + warp;
        // Stream id mixes the app name so co-scheduled identical apps
        // still produce distinct streams per address space.
        let name_hash = profile
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)));
        // Every quotient of profile constants an op needs is taken here,
        // once, so generating an op never divides.
        let (group, pages_per_instr) = match profile.pattern {
            Pattern::Stream { group, .. } | Pattern::TiledHot { group, .. } => (group, 1),
            Pattern::Random {
                pages_per_instr, ..
            } => (1, pages_per_instr),
            Pattern::HotCold { .. } => (1, 1),
        };
        let lines_per_visit = (profile.lines_per_instr / pages_per_instr.max(1)).max(1);
        WarpTrace {
            profile,
            rng: Pcg32::new(seed ^ name_hash, global_warp + 1),
            page_size_log2,
            line_mask: (1 << (page_size_log2 - LINE_SIZE_LOG2)) - 1,
            group_id: global_warp / u64::from(group.max(1)),
            lines_per_visit: u64::from(lines_per_visit),
            step: 0,
            burst_left: 0,
            recent: [(0, 0); 8],
            recent_len: 0,
            recent_next: 0,
        }
    }

    fn lines_per_page(&self) -> u64 {
        self.line_mask + 1
    }

    /// Virtual address of `line_idx` (wrapped into the page) within `page`.
    fn line_va(&self, page: u64, line_idx: u64) -> VirtAddr {
        VirtAddr::new(
            DATA_BASE + (page << self.page_size_log2) + (line_idx & self.line_mask) * LINE_SIZE,
        )
    }

    /// Advances the stream component and returns the current page index
    /// relative to the stream region.
    ///
    /// Steps advance with a stride larger than the 16-pages-per-PTE-line
    /// factor so consecutive pages of one warp group do *not* share leaf
    /// PTE lines — across 30 cores and thousands of interleaved warps, a
    /// GPU's global page access order is scattered even when each thread
    /// is sequential (this is what drives the paper's 1.0% leaf-level
    /// cache hit rate, §4.3).
    fn stream_page(&mut self, pages: u64, burst: u64) -> u64 {
        if self.burst_left == 0 {
            self.step += 1;
            self.burst_left = burst.max(1);
        }
        self.burst_left -= 1;
        let pages = pages.max(1);
        let at = self
            .group_id
            .wrapping_mul(2654435761)
            .wrapping_add(self.step.wrapping_mul(257));
        if pages.is_power_of_two() {
            at & (pages - 1)
        } else {
            at % pages
        }
    }

    /// Remembers a touched (page, line) pair for future locality hits.
    fn remember(&mut self, page: u64, line: u64) {
        self.recent[self.recent_next] = (page, line);
        self.recent_next = (self.recent_next + 1) % self.recent.len();
        self.recent_len = (self.recent_len + 1).min(self.recent.len());
    }

    /// With probability `line_locality`, returns a recently-touched
    /// (page, line) pair — re-touching the same *address*, which is what
    /// produces data-cache hits.
    fn recall(&mut self) -> Option<(u64, u64)> {
        if self.recent_len > 0 && self.rng.chance(self.profile.line_locality) {
            let i = self.rng.below(self.recent_len as u64) as usize;
            Some(self.recent[i])
        } else {
            None
        }
    }

    /// Generates the warp's next instruction group, writing the memory
    /// instruction's line addresses into `lines` (cleared first) and
    /// returning the compute-instruction count. Lets the core reuse one
    /// buffer per warp instead of allocating per instruction.
    pub fn next_op_into(&mut self, lines: &mut Vec<VirtAddr>) -> u32 {
        lines.clear();
        let p = self.profile;
        // Near-deterministic compute bursts (±1 jitter): warps of one group
        // advance in loose lockstep, so a TLB miss catches several warps on
        // the same page inside the walk window — the paper's Fig. 4/Fig. 6
        // behaviour ("address translations fetched in response to a TLB
        // miss are needed by more than one warp").
        let compute = p.compute_per_mem + self.rng.below(3) as u32;
        match p.pattern {
            Pattern::Stream { pages, burst, .. } => {
                if let Some((page, line)) = self.recall() {
                    // Re-touch recent addresses (stencil-style reuse).
                    for i in 0..u64::from(p.lines_per_instr) {
                        lines.push(self.line_va(page, line + i));
                    }
                } else {
                    let page = self.stream_page(pages, burst);
                    // Consecutive lines within the page, advancing with the
                    // burst position so the burst covers the page.
                    let start = (burst.max(1) - 1 - self.burst_left) * u64::from(p.lines_per_instr);
                    for i in 0..u64::from(p.lines_per_instr) {
                        lines.push(self.line_va(page, start + i));
                    }
                    self.remember(page, start);
                }
            }
            Pattern::Random {
                pages,
                pages_per_instr,
            } => {
                for _ in 0..pages_per_instr.max(1) {
                    let (page, base_line) = match self.recall() {
                        Some(pl) => pl,
                        None => {
                            let page = self.rng.below(pages.max(1));
                            let line = self.rng.below(self.lines_per_page());
                            self.remember(page, line);
                            (page, line)
                        }
                    };
                    for i in 0..self.lines_per_visit {
                        lines.push(self.line_va(page, base_line + i));
                    }
                }
            }
            Pattern::HotCold { hot, p_hot, cold } => {
                let (page, base_line) = match self.recall() {
                    Some(pl) => pl,
                    None => {
                        let page = if self.rng.chance(p_hot) {
                            self.rng.below(hot.max(1))
                        } else {
                            hot + self.rng.below(cold.max(1))
                        };
                        let line = self.rng.below(self.lines_per_page());
                        self.remember(page, line);
                        (page, line)
                    }
                };
                for i in 0..u64::from(p.lines_per_instr) {
                    lines.push(self.line_va(page, base_line + i));
                }
            }
            Pattern::TiledHot {
                hot,
                p_hot,
                stream_pages,
                burst,
                ..
            } => {
                if let Some((page, line)) = self.recall() {
                    for i in 0..u64::from(p.lines_per_instr) {
                        lines.push(self.line_va(page, line + i));
                    }
                } else if self.rng.chance(p_hot) {
                    let page = self.rng.below(hot.max(1));
                    let line = self.rng.below(self.lines_per_page());
                    self.remember(page, line);
                    for i in 0..u64::from(p.lines_per_instr) {
                        lines.push(self.line_va(page, line + i));
                    }
                } else {
                    let page = hot + self.stream_page(stream_pages, burst);
                    let start = self.rng.below(self.lines_per_page());
                    for i in 0..u64::from(p.lines_per_instr) {
                        lines.push(self.line_va(page, start + i));
                    }
                    self.remember(page, start);
                }
            }
        }
        lines.dedup();
        compute
    }
}

impl mask_common::snapshot::Snapshot for WarpTrace {
    /// Serializes the RNG stream plus the stream/locality state; the
    /// profile, page size, and warp coordinates are fixed at construction.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        self.rng.snapshot(w);
        w.u64(self.step);
        w.u64(self.burst_left);
        for &(page, line) in &self.recent {
            w.u64(page);
            w.u64(line);
        }
        w.usize(self.recent_len);
        w.usize(self.recent_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::addr::PAGE_SIZE_4K_LOG2;
    use std::collections::BTreeSet;

    /// The warp's next instruction group through the core's drain: its
    /// compute count and the lines its memory instruction touches.
    fn next_op(t: &mut WarpTrace) -> (u32, Vec<VirtAddr>) {
        let mut lines = Vec::new();
        let compute = t.next_op_into(&mut lines);
        (compute, lines)
    }

    fn stream_profile() -> AppProfile {
        AppProfile {
            name: "T",
            pattern: Pattern::Stream {
                pages: 100,
                burst: 8,
                group: 4,
            },
            lines_per_instr: 4,
            compute_per_mem: 3,
            line_locality: 0.0,
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = WarpTrace::new(stream_profile(), 7, 0, 3, PAGE_SIZE_4K_LOG2);
        let mut b = WarpTrace::new(stream_profile(), 7, 0, 3, PAGE_SIZE_4K_LOG2);
        for _ in 0..50 {
            assert_eq!(next_op(&mut a), next_op(&mut b));
        }
    }

    #[test]
    fn different_warps_see_different_streams() {
        let mut a = WarpTrace::new(stream_profile(), 7, 0, 0, PAGE_SIZE_4K_LOG2);
        let mut b = WarpTrace::new(stream_profile(), 7, 0, 40, PAGE_SIZE_4K_LOG2);
        let same = (0..30)
            .filter(|_| next_op(&mut a) == next_op(&mut b))
            .count();
        assert!(same < 30, "warps in different groups should diverge");
    }

    #[test]
    fn warps_in_one_group_share_pages() {
        // Warps 0..3 are one group of 4: their page sequences coincide.
        let mut a = WarpTrace::new(stream_profile(), 7, 0, 0, PAGE_SIZE_4K_LOG2);
        let mut b = WarpTrace::new(stream_profile(), 7, 0, 1, PAGE_SIZE_4K_LOG2);
        let pages = |t: &mut WarpTrace| -> BTreeSet<u64> {
            (0..100)
                .flat_map(|_| next_op(t).1)
                .map(|va| va.vpn(PAGE_SIZE_4K_LOG2).0)
                .collect()
        };
        let pa = pages(&mut a);
        let pb = pages(&mut b);
        let shared = pa.intersection(&pb).count();
        assert!(
            shared * 2 >= pa.len(),
            "same-group warps mostly share pages"
        );
    }

    #[test]
    fn stream_burst_amortizes_page_changes() {
        let mut t = WarpTrace::new(stream_profile(), 7, 0, 0, PAGE_SIZE_4K_LOG2);
        let mut changes = 0;
        let mut last = u64::MAX;
        for _ in 0..80 {
            let (_, lines) = next_op(&mut t);
            let page = lines[0].vpn(PAGE_SIZE_4K_LOG2).0;
            if page != last {
                changes += 1;
                last = page;
            }
        }
        // 80 ops at burst 8 -> ~10 page changes.
        assert!((8..=14).contains(&changes), "got {changes} page changes");
    }

    #[test]
    fn random_pattern_stays_in_footprint() {
        let p = AppProfile {
            name: "R",
            pattern: Pattern::Random {
                pages: 32,
                pages_per_instr: 2,
            },
            lines_per_instr: 4,
            compute_per_mem: 2,
            line_locality: 0.5,
        };
        let mut t = WarpTrace::new(p, 1, 2, 3, PAGE_SIZE_4K_LOG2);
        for _ in 0..200 {
            for va in next_op(&mut t).1 {
                let page = (va.raw() - 0x10_0000_0000) >> PAGE_SIZE_4K_LOG2;
                assert!(page < 32);
            }
        }
    }

    #[test]
    fn tiled_hot_mostly_hits_hot_set() {
        let p = AppProfile {
            name: "H",
            pattern: Pattern::TiledHot {
                hot: 16,
                p_hot: 0.9,
                stream_pages: 1000,
                burst: 4,
                group: 8,
            },
            lines_per_instr: 2,
            compute_per_mem: 2,
            line_locality: 0.0,
        };
        let mut t = WarpTrace::new(p, 1, 0, 0, PAGE_SIZE_4K_LOG2);
        let mut hot_hits = 0;
        let mut total = 0;
        for _ in 0..500 {
            for va in next_op(&mut t).1 {
                let page = (va.raw() - 0x10_0000_0000) >> PAGE_SIZE_4K_LOG2;
                hot_hits += u64::from(page < 16);
                total += 1;
            }
        }
        let frac = hot_hits as f64 / f64::from(total);
        assert!(frac > 0.8, "hot fraction {frac}");
    }

    #[test]
    fn masks_and_hoisted_quotients_equal_the_division_formulas() {
        use mask_common::addr::PAGE_SIZE_2M_LOG2;
        for profile in crate::apps::all_apps() {
            for page_size_log2 in [PAGE_SIZE_4K_LOG2, PAGE_SIZE_2M_LOG2] {
                let (core, warp) = (3, 37);
                let mut t = WarpTrace::new(*profile, 5, core, warp, page_size_log2);
                let lines_per_page = 1u64 << (page_size_log2 - LINE_SIZE_LOG2);
                let (pages, burst, group, pages_per_instr) = match profile.pattern {
                    Pattern::Stream {
                        pages,
                        burst,
                        group,
                    } => (pages, burst, group, 1),
                    Pattern::TiledHot {
                        stream_pages,
                        burst,
                        group,
                        ..
                    } => (stream_pages, burst, group, 1),
                    Pattern::Random {
                        pages,
                        pages_per_instr,
                    } => (pages, 1, 1, pages_per_instr),
                    Pattern::HotCold { cold, .. } => (cold, 1, 1, 1),
                };
                assert_eq!(t.lines_per_page(), lines_per_page);
                assert_eq!(
                    t.lines_per_visit,
                    u64::from((profile.lines_per_instr / pages_per_instr.max(1)).max(1)),
                    "{}",
                    profile.name
                );
                let group_id = (core * 4096 + warp) / u64::from(group.max(1));
                let (mut step, mut burst_left) = (0u64, 0u64);
                for op in 0..10_000u64 {
                    // `stream_page` as written with `/` and `%`.
                    if burst_left == 0 {
                        step += 1;
                        burst_left = burst.max(1);
                    }
                    burst_left -= 1;
                    let want = group_id
                        .wrapping_mul(2654435761)
                        .wrapping_add(step.wrapping_mul(257))
                        % pages.max(1);
                    let page = t.stream_page(pages, burst);
                    assert_eq!(page, want, "{} op {op}", profile.name);
                    // Line indices run past the page end and wrap.
                    let line_idx = op.wrapping_mul(0x9E37_79B9) >> 7;
                    assert_eq!(
                        t.line_va(page, line_idx).raw(),
                        DATA_BASE
                            + (page << page_size_log2)
                            + (line_idx % lines_per_page) * LINE_SIZE,
                        "{} op {op}",
                        profile.name
                    );
                }
            }
        }
    }

    #[test]
    fn lines_are_line_aligned_and_compute_bounded() {
        let profile = stream_profile();
        let mut t = WarpTrace::new(profile, 7, 1, 1, PAGE_SIZE_4K_LOG2);
        for _ in 0..100 {
            let (compute, lines) = next_op(&mut t);
            assert!(!lines.is_empty());
            assert!(
                compute <= profile.compute_per_mem + 2,
                "compute_per_mem plus at most 2 of jitter"
            );
            for va in &lines {
                assert_eq!(va.raw() % LINE_SIZE, 0);
            }
        }
    }
}
