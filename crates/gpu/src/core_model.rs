//! The shader-core (SM) model: warp contexts, GTO issue, L1 TLB, L1 data
//! cache.
//!
//! Each core issues at most one instruction per cycle from one warp,
//! selected greedy-then-oldest (GTO \[112\], Table 1): keep issuing from the
//! last warp until it stalls, then switch to the lowest-numbered ready
//! warp. Warps alternate synthetic compute bursts with memory instructions;
//! a memory instruction translates its pages through the L1 TLB (1 cycle)
//! and, on a miss, parks the warp in the shared translation unit — the
//! stall behaviour at the heart of the paper's §4.1 analysis.

use crate::translation::TranslationUnit;
use mask_cache::{DataCache, MshrAlloc, MshrTable};
use mask_common::addr::{LineAddr, Ppn, VirtAddr, Vpn};
use mask_common::config::GpuConfig;
use mask_common::ids::{Asid, CoreId, GlobalWarpId, WarpId};
use mask_common::req::{MemRequest, ReqId, RequestClass};
use mask_common::stats::AppStats;
use mask_common::Cycle;
use mask_tlb::L1Tlb;
use mask_workloads::{AppProfile, WarpTrace};
use std::collections::VecDeque;

/// Where a core's issue stage sends its side effects: translation
/// requests park in the shared translation unit and primary data misses
/// become L2-bound requests, both applied on the spot.
#[derive(Debug)]
pub struct DirectIssue<'a> {
    /// The shared translation unit L1 TLB misses park in.
    pub xlat: &'a mut TranslationUnit,
    /// L2-bound data requests produced this cycle.
    pub out_l2: &'a mut Vec<MemRequest>,
    /// The simulation-global request-id counter.
    pub next_req_id: &'a mut u64,
}

impl DirectIssue<'_> {
    /// A primary L1 data miss: emit one L2-bound request for `line`.
    #[inline]
    fn data_miss(&mut self, core: CoreId, asid: Asid, line: LineAddr, now: Cycle) {
        let id = ReqId(*self.next_req_id);
        *self.next_req_id += 1;
        // Conservation: one primary data miss = one L2 request = one
        // response consumed by the simulator's response stage.
        mask_obs::hooks::issue(mask_obs::Domain::CoreData, id.0);
        self.out_l2.push(MemRequest::new(
            id,
            line,
            asid,
            core,
            RequestClass::Data,
            now,
        ));
    }
}

/// Execution state of one warp context.
#[derive(Clone, Debug, PartialEq, Eq)]
enum WarpState {
    /// Needs a fresh instruction group from its trace.
    NeedOp,
    /// Issuing compute instructions (`left` remain before the memory op).
    Compute { left: u32 },
    /// Compute finished; the memory instruction issues next.
    MemReady,
    /// Stalled on `pending` outstanding page translations.
    XlatWait { pending: u32 },
    /// Stalled on `outstanding` data line fetches.
    DataWait { outstanding: u32 },
}

#[derive(Clone, Debug)]
struct WarpCtx {
    trace: WarpTrace,
    state: WarpState,
    /// Lines of the current memory instruction.
    lines: Vec<VirtAddr>,
    /// Resolved translations for the current instruction.
    xlat: Vec<(Vpn, Ppn)>,
}

/// [`GpuCore::burst_end`] when no compute burst is sleeping.
const NO_BURST: Cycle = Cycle::MAX;

/// One GPU shader core.
#[derive(Clone, Debug)]
pub struct GpuCore {
    /// Physical core id (index into the simulator's core array).
    pub id: CoreId,
    /// Address space this core is assigned to (§5.1 page-table root).
    pub asid: Asid,
    /// Rank of this core within its application's core set.
    pub core_rank: usize,
    warps: Vec<WarpCtx>,
    /// Bitmask of issuable warps.
    ready: u128,
    last: usize,
    /// While a compute burst sleeps, the cycle at which warp `last` issues
    /// its memory instruction; [`NO_BURST`] otherwise. During the sleep
    /// `warps[last].state` is stale: the state a core stepped every cycle
    /// would hold at cycle `c` is `Compute { left: burst_end - c }`
    /// (`MemReady` at `burst_end`), which is what [`GpuCore::issue`]
    /// materialises on entry and [`GpuCore::snapshot_at`] writes.
    burst_end: Cycle,
    l1tlb: L1Tlb,
    l1cache: DataCache,
    l1mshr: MshrTable<usize>,
    /// (warp, line) allocations deferred by a full MSHR table.
    retry: VecDeque<(usize, LineAddr)>,
    page_size_log2: u32,
    ideal_tlb: bool,
    /// Scratch buffers reused across cycles so the issue/dispatch/complete
    /// path performs no steady-state heap allocation.
    scratch_vpns: Vec<Vpn>,
    scratch_lines: Vec<LineAddr>,
    scratch_waiters: Vec<usize>,
}

impl GpuCore {
    /// Builds a core running `profile` for the application in `asid`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: &GpuConfig,
        id: CoreId,
        asid: Asid,
        core_rank: usize,
        profile: &AppProfile,
        seed: u64,
        ideal_tlb: bool,
    ) -> Self {
        assert!(
            cfg.warps_per_core <= 128,
            "ready mask holds at most 128 warps"
        );
        let warps = (0..cfg.warps_per_core)
            .map(|w| WarpCtx {
                trace: WarpTrace::new(
                    profile,
                    seed,
                    core_rank as u64,
                    w as u64,
                    cfg.page_size_log2,
                ),
                state: WarpState::NeedOp,
                lines: Vec::new(),
                xlat: Vec::new(),
            })
            .collect::<Vec<_>>();
        let ready = if cfg.warps_per_core == 128 {
            u128::MAX
        } else {
            (1u128 << cfg.warps_per_core) - 1
        };
        GpuCore {
            id,
            asid,
            core_rank,
            warps,
            ready,
            last: 0,
            burst_end: NO_BURST,
            l1tlb: L1Tlb::new(cfg.tlb.l1_entries),
            l1cache: DataCache::new(cfg.l1_cache.bytes, cfg.l1_cache.assoc),
            l1mshr: MshrTable::new(cfg.l1_cache.mshrs),
            retry: VecDeque::new(),
            page_size_log2: cfg.page_size_log2,
            ideal_tlb,
            scratch_vpns: Vec::new(),
            scratch_lines: Vec::new(),
            scratch_waiters: Vec::new(),
        }
    }

    /// Whether an `issue` call this cycle would do nothing but count a
    /// stall: no warp can issue and no deferred MSHR retry is queued.
    /// External events (translation/data completions) are what wake an
    /// idle core, so idleness persists until one arrives.
    pub fn is_idle(&self) -> bool {
        self.ready == 0 && self.retry.is_empty()
    }

    fn set_ready(&mut self, w: usize, ready: bool) {
        if ready {
            self.ready |= 1 << w;
        } else {
            self.ready &= !(1 << w);
        }
    }

    /// GTO selection: greedy on the last warp, else oldest (lowest id).
    fn select_warp(&self) -> Option<usize> {
        if self.ready == 0 {
            return None;
        }
        if self.ready & (1 << self.last) != 0 {
            return Some(self.last);
        }
        Some(self.ready.trailing_zeros() as usize)
    }

    /// The state warp `last` would hold at cycle `now` had the sleeping
    /// burst been stepped every cycle.
    fn burst_state(&self, now: Cycle) -> WarpState {
        let left = self
            .burst_end
            .checked_sub(now)
            .expect("a sleeping burst is visited no later than its end");
        if left == 0 {
            WarpState::MemReady
        } else {
            WarpState::Compute { left: left as u32 }
        }
    }

    /// Whether a compute burst sleeps through cycle `now`: the greedy warp
    /// is still ready, nothing waits for an MSHR, and the burst ends later.
    /// The premise under which a caller may skip [`GpuCore::issue`] at
    /// `now` and credit one instruction instead.
    pub fn burst_sleeps(&self, now: Cycle) -> bool {
        self.burst_end != NO_BURST
            && now < self.burst_end
            && self.retry.is_empty()
            && self.ready & (1 << self.last) != 0
    }

    /// Whether a deferred MSHR allocation is queued: `drain_retries` must
    /// then run at the top of the next cycle, sleeping burst or not.
    pub fn has_retries(&self) -> bool {
        !self.retry.is_empty()
    }

    /// Issue stage: at most one instruction this cycle. Returns the next
    /// cycle at which this stage has anything to decide:
    ///
    /// * `now + left` after issuing from the greedy warp in
    ///   `Compute { left }` with no retry queued — the burst *sleeps*. GTO
    ///   keeps selecting that warp while it is ready and wake-ups only set
    ///   other warps' ready bits, so the cycles in between each issue one
    ///   compute instruction (the caller credits them) and the memory
    ///   instruction issues at the returned cycle. Only a
    ///   [`GpuCore::translation_done`] that leaves a retry queued ends the
    ///   sleep early ([`GpuCore::has_retries`]).
    /// * `Cycle::MAX` when no warp is ready and no retry is queued — the
    ///   core is *parked* and counts one stall per cycle (the caller
    ///   credits them) until a completion makes [`GpuCore::is_idle`] false.
    /// * `now + 1` otherwise.
    ///
    /// Calling it earlier than it asked for is always correct: a call that
    /// arrives mid-burst first materialises the warp's state.
    pub fn issue(&mut self, now: Cycle, sink: &mut DirectIssue<'_>, stats: &mut AppStats) -> Cycle {
        if self.burst_end != NO_BURST {
            self.warps[self.last].state = self.burst_state(now);
            self.burst_end = NO_BURST;
        }
        self.drain_retries(sink, now);
        let Some(w) = self.select_warp() else {
            stats.stall_cycles += 1;
            return if self.retry.is_empty() {
                Cycle::MAX
            } else {
                now + 1
            };
        };
        self.last = w;
        // Fetch a fresh op if needed (free, part of this issue slot). The
        // warp's line buffer is reused across instructions.
        if self.warps[w].state == WarpState::NeedOp {
            let warp = &mut self.warps[w];
            let compute = warp.trace.next_op_into(&mut warp.lines);
            warp.xlat.clear();
            warp.state = if compute > 0 {
                WarpState::Compute { left: compute }
            } else {
                WarpState::MemReady
            };
        }
        match self.warps[w].state {
            WarpState::Compute { left } => {
                stats.instructions += 1;
                if left > 1 {
                    self.warps[w].state = WarpState::Compute { left: left - 1 };
                    if self.retry.is_empty() {
                        self.burst_end = now + Cycle::from(left);
                        return self.burst_end;
                    }
                } else {
                    self.warps[w].state = WarpState::MemReady;
                }
            }
            WarpState::MemReady => {
                stats.instructions += 1;
                stats.mem_instructions += 1;
                self.issue_memory(w, now, sink, stats);
            }
            ref other => unreachable!("ready warp in non-issuable state {other:?}"),
        }
        now + 1
    }

    fn issue_memory(
        &mut self,
        w: usize,
        now: Cycle,
        sink: &mut DirectIssue<'_>,
        stats: &mut AppStats,
    ) {
        let mut vpns = std::mem::take(&mut self.scratch_vpns);
        vpns.clear();
        vpns.extend(
            self.warps[w]
                .lines
                .iter()
                .map(|va| va.vpn(self.page_size_log2)),
        );
        // Lines of one page, or pages in ascending order, are the common
        // case: `dedup` alone then gives what sort + `dedup` gives.
        if !vpns.is_sorted_by_key(|v| v.0) {
            vpns.sort_unstable_by_key(|v| v.0);
        }
        vpns.dedup();
        let mut pending = 0u32;
        for &vpn in &vpns {
            if self.ideal_tlb {
                // Ideal design: "every single TLB access is a TLB hit" (§7).
                let ppn = sink.xlat.functional_translate(self.asid, vpn);
                stats.l1_tlb.record(true);
                self.warps[w].xlat.push((vpn, ppn));
                continue;
            }
            match self.l1tlb.probe(self.asid, vpn) {
                Some(ppn) => {
                    stats.l1_tlb.record(true);
                    mask_obs::hooks::tlb_probe(mask_obs::TlbLevel::L1, self.asid.raw(), true);
                    self.warps[w].xlat.push((vpn, ppn));
                }
                None => {
                    stats.l1_tlb.record(false);
                    mask_obs::hooks::tlb_probe(mask_obs::TlbLevel::L1, self.asid.raw(), false);
                    let gw = GlobalWarpId::new(self.id, WarpId::new(w as u16));
                    sink.xlat.request(self.asid, vpn, gw, self.core_rank, now);
                    pending += 1;
                }
            }
        }
        self.scratch_vpns = vpns;
        if pending > 0 {
            self.warps[w].state = WarpState::XlatWait { pending };
            self.set_ready(w, false);
            mask_obs::hooks::warp_stall(
                u32::from(self.id.raw()),
                w as u32,
                mask_obs::StallKind::Translation,
            );
        } else {
            self.dispatch_data(w, now, sink, stats);
        }
    }

    /// Issues the warp's data accesses once all translations are known.
    fn dispatch_data(
        &mut self,
        w: usize,
        now: Cycle,
        sink: &mut DirectIssue<'_>,
        stats: &mut AppStats,
    ) {
        let mut outstanding = 0u32;
        let mut phys = std::mem::take(&mut self.scratch_lines);
        phys.clear();
        {
            let warp = &self.warps[w];
            // Consecutive lines are nearly always of one page: look the
            // translation up once per run of equal pages, not per line.
            let mut page = None;
            for va in &warp.lines {
                let vpn = va.vpn(self.page_size_log2);
                let ppn = match page {
                    Some((v, ppn)) if v == vpn => ppn,
                    _ => warp
                        .xlat
                        .iter()
                        .find(|(v, _)| *v == vpn)
                        .map(|(_, p)| *p)
                        .expect("translation resolved before dispatch"),
                };
                page = Some((vpn, ppn));
                phys.push(ppn.translate(*va, self.page_size_log2).line());
            }
        }
        if !phys.is_sorted_by_key(|l| l.0) {
            phys.sort_unstable_by_key(|l| l.0);
        }
        phys.dedup();
        for &line in &phys {
            let hit = self.l1cache.probe(line, self.asid);
            stats.l1_data.record(hit);
            if hit {
                continue;
            }
            outstanding += 1;
            self.allocate_miss(w, line, sink, now);
        }
        self.scratch_lines = phys;
        if outstanding > 0 {
            self.warps[w].state = WarpState::DataWait { outstanding };
            self.set_ready(w, false);
            mask_obs::hooks::warp_stall(
                u32::from(self.id.raw()),
                w as u32,
                mask_obs::StallKind::Data,
            );
        } else {
            self.warps[w].state = WarpState::NeedOp;
            self.set_ready(w, true);
        }
    }

    fn allocate_miss(&mut self, w: usize, line: LineAddr, sink: &mut DirectIssue<'_>, now: Cycle) {
        match self.l1mshr.allocate(line, w) {
            MshrAlloc::Primary => sink.data_miss(self.id, self.asid, line, now),
            MshrAlloc::Secondary => {}
            MshrAlloc::Full => self.retry.push_back((w, line)),
        }
    }

    fn drain_retries(&mut self, sink: &mut DirectIssue<'_>, now: Cycle) {
        while let Some(&(w, line)) = self.retry.front() {
            if self.l1mshr.is_full() && !self.l1mshr.contains(line) {
                break;
            }
            self.retry.pop_front();
            self.allocate_miss(w, line, sink, now);
        }
    }

    /// Delivers a resolved translation to this core's waiting warps.
    pub fn translation_done(
        &mut self,
        vpn: Vpn,
        ppn: Ppn,
        warps: &[WarpId],
        now: Cycle,
        sink: &mut DirectIssue<'_>,
        stats: &mut AppStats,
    ) {
        self.l1tlb.fill(self.asid, vpn, ppn);
        for &wid in warps {
            let w = wid.index();
            self.warps[w].xlat.push((vpn, ppn));
            let WarpState::XlatWait { pending } = self.warps[w].state else {
                debug_assert!(false, "translation for a warp not in XlatWait");
                continue;
            };
            if pending > 1 {
                self.warps[w].state = WarpState::XlatWait {
                    pending: pending - 1,
                };
            } else {
                mask_obs::hooks::warp_wake(u32::from(self.id.raw()), w as u32);
                self.dispatch_data(w, now, sink, stats);
            }
        }
    }

    /// Delivers a completed data line from the L2/DRAM.
    pub fn line_done(&mut self, line: LineAddr) {
        self.l1cache.fill(line, self.asid);
        let mut waiters = std::mem::take(&mut self.scratch_waiters);
        waiters.clear();
        self.l1mshr.complete_into(line, &mut waiters);
        for &w in &waiters {
            let WarpState::DataWait { outstanding } = self.warps[w].state else {
                debug_assert!(false, "line completion for a warp not in DataWait");
                continue;
            };
            if outstanding > 1 {
                self.warps[w].state = WarpState::DataWait {
                    outstanding: outstanding - 1,
                };
            } else {
                self.warps[w].state = WarpState::NeedOp;
                self.set_ready(w, true);
                mask_obs::hooks::warp_wake(u32::from(self.id.raw()), w as u32);
            }
        }
        self.scratch_waiters = waiters;
    }

    /// Flushes per-core volatile state (context-switch experiments, §2.1).
    pub fn flush_volatile(&mut self) {
        self.l1tlb.flush();
        self.l1cache.flush();
    }

    /// TLB shootdown targeting one address space (§5.1: "TLB flush
    /// operations target a single GPU core, flushing the core's L1 TLB,
    /// and all entries in the L2 TLB that contain the matching address
    /// space identifier").
    pub fn flush_tlb_asid(&mut self, asid: Asid) {
        self.l1tlb.flush_asid(asid);
    }

    /// Number of warps currently stalled (not issuable).
    pub fn stalled_warps(&self) -> u32 {
        self.warps.len() as u32 - self.ready.count_ones()
    }
}

impl WarpState {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        match *self {
            WarpState::NeedOp => w.u8(0),
            WarpState::Compute { left } => {
                w.u8(1);
                w.u32(left);
            }
            WarpState::MemReady => w.u8(2),
            WarpState::XlatWait { pending } => {
                w.u8(3);
                w.u32(pending);
            }
            WarpState::DataWait { outstanding } => {
                w.u8(4);
                w.u32(outstanding);
            }
        }
    }
}

impl GpuCore {
    /// Encodes the core as it stands at the start of cycle `now`. A warp
    /// whose compute burst sleeps is written in the state a core stepped
    /// every cycle would hold, so the bytes do not depend on who skipped
    /// what; the burst marker itself is derived state and is not encoded.
    pub fn snapshot_at(&self, now: Cycle, w: &mut mask_common::snapshot::SnapshotWriter) {
        use mask_common::snapshot::Snapshot as _;
        w.seq(self.warps.len());
        for (i, warp) in self.warps.iter().enumerate() {
            warp.trace.snapshot(w);
            if self.burst_end != NO_BURST && i == self.last {
                self.burst_state(now).snapshot(w);
            } else {
                warp.state.snapshot(w);
            }
            w.seq(warp.lines.len());
            for va in &warp.lines {
                va.snapshot(w);
            }
            w.seq(warp.xlat.len());
            for (vpn, ppn) in &warp.xlat {
                vpn.snapshot(w);
                ppn.snapshot(w);
            }
        }
        w.u128(self.ready);
        w.usize(self.last);
        self.l1tlb.snapshot(w);
        self.l1cache.snapshot(w);
        self.l1mshr.snapshot(w);
        w.seq(self.retry.len());
        for &(warp, line) in &self.retry {
            w.usize(warp);
            line.snapshot(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::config::{DesignKind, GpuConfig};
    use mask_workloads::app_by_name;

    fn small_cfg() -> GpuConfig {
        let mut cfg = GpuConfig::maxwell();
        cfg.warps_per_core = 8;
        cfg
    }

    fn setup(design: DesignKind) -> (GpuCore, TranslationUnit, GpuConfig) {
        let cfg = small_cfg();
        let spec = design.spec();
        let xlat = TranslationUnit::new(&cfg, spec, &[1]);
        let core = GpuCore::new(
            &cfg,
            CoreId::new(0),
            Asid::new(0),
            0,
            app_by_name("GUP").expect("exists"),
            42,
            spec.translation == mask_common::config::TranslationPath::Ideal,
        );
        (core, xlat, cfg)
    }

    #[test]
    fn ideal_core_issues_until_all_warps_stall_on_data() {
        let (mut core, mut xlat, _) = setup(DesignKind::Ideal);
        let mut stats = AppStats::default();
        let mut out = Vec::new();
        let mut id = 0u64;
        // No memory completions are fed back: every warp eventually parks
        // in DataWait, but never on translation (ideal TLB).
        for now in 0..200 {
            let mut sink = DirectIssue {
                xlat: &mut xlat,
                out_l2: &mut out,
                next_req_id: &mut id,
            };
            core.issue(now, &mut sink, &mut stats);
        }
        assert_eq!(core.stalled_warps(), 8, "all warps stall on data only");
        assert_eq!(stats.l1_tlb.misses(), 0, "ideal TLB never misses");
        assert!(stats.mem_instructions >= 8);
        assert!(
            stats.stall_cycles > 0,
            "issue stage idles once all warps stall"
        );

        // Feeding completions back sustains issue throughput.
        let (mut core2, mut xlat2, _) = setup(DesignKind::Ideal);
        let mut stats2 = AppStats::default();
        for now in 0..200 {
            let mut sink = DirectIssue {
                xlat: &mut xlat2,
                out_l2: &mut out,
                next_req_id: &mut id,
            };
            core2.issue(now, &mut sink, &mut stats2);
            for r in out.drain(..) {
                core2.line_done(r.line);
            }
        }
        assert!(
            stats2.instructions > 150,
            "zero-latency memory sustains ~1 IPC, got {}",
            stats2.instructions
        );
    }

    #[test]
    fn tlb_misses_park_warps_in_translation_unit() {
        let (mut core, mut xlat, _) = setup(DesignKind::SharedTlb);
        let mut stats = AppStats::default();
        let mut out = Vec::new();
        let mut id = 0u64;
        for now in 0..50 {
            let mut sink = DirectIssue {
                xlat: &mut xlat,
                out_l2: &mut out,
                next_req_id: &mut id,
            };
            core.issue(now, &mut sink, &mut stats);
        }
        assert!(stats.l1_tlb.misses() > 0);
        assert!(
            xlat.outstanding() > 0,
            "warps must be waiting on translations"
        );
        assert!(core.stalled_warps() > 0);
    }

    #[test]
    fn translation_completion_dispatches_data() {
        let (mut core, mut xlat, _) = setup(DesignKind::SharedTlb);
        let mut stats = AppStats::default();
        let mut out = Vec::new();
        let mut id = 0u64;
        // Run until at least one warp stalls on translation.
        for now in 0..20 {
            let mut sink = DirectIssue {
                xlat: &mut xlat,
                out_l2: &mut out,
                next_req_id: &mut id,
            };
            core.issue(now, &mut sink, &mut stats);
        }
        let before = out.len();
        // Drive the translation unit with an instant memory system.
        let mut pwc_hits = Vec::new();
        let mut resolved = Vec::new();
        for now in 20..100 {
            let mut xl_out = Vec::new();
            xlat.tick(now, &mut id, &mut xl_out, &mut pwc_hits, &mut resolved);
            let mut queue: Vec<_> = xl_out;
            while let Some(r) = queue.pop() {
                let mut more = Vec::new();
                if let Some(done) = xlat.memory_response(&r, now, &mut id, &mut more, &mut pwc_hits)
                {
                    resolved.push(done);
                }
                queue.extend(more);
            }
            if !resolved.is_empty() {
                break;
            }
        }
        assert!(!resolved.is_empty(), "a walk must complete");
        for r in resolved {
            let warps: Vec<WarpId> = r.waiters.iter().map(|gw| gw.warp).collect();
            let mut sink = DirectIssue {
                xlat: &mut xlat,
                out_l2: &mut out,
                next_req_id: &mut id,
            };
            core.translation_done(r.vpn, r.ppn, &warps, 100, &mut sink, &mut stats);
        }
        assert!(out.len() > before, "data requests must follow translation");
        assert!(out
            .iter()
            .skip(before)
            .all(|r| r.class == RequestClass::Data));
    }

    #[test]
    fn data_completion_reawakens_warp() {
        let (mut core, mut xlat, _) = setup(DesignKind::Ideal);
        let mut stats = AppStats::default();
        let mut out = Vec::new();
        let mut id = 0u64;
        // Issue until some warp stalls on data.
        for now in 0..200 {
            let mut sink = DirectIssue {
                xlat: &mut xlat,
                out_l2: &mut out,
                next_req_id: &mut id,
            };
            core.issue(now, &mut sink, &mut stats);
            if core.stalled_warps() > 0 {
                break;
            }
        }
        assert!(core.stalled_warps() > 0);
        let stalled_before = core.stalled_warps();
        for r in out.clone() {
            core.line_done(r.line);
        }
        assert!(core.stalled_warps() < stalled_before);
    }

    #[test]
    fn gto_prefers_last_issued_warp() {
        let (core, ..) = setup(DesignKind::Ideal);
        // All warps ready, last = 0 -> warp 0 selected.
        assert_eq!(core.select_warp(), Some(0));
        let mut c2 = core.clone();
        c2.last = 5;
        assert_eq!(c2.select_warp(), Some(5), "greedy on last warp");
        c2.set_ready(5, false);
        assert_eq!(c2.select_warp(), Some(0), "oldest ready otherwise");
    }

    #[test]
    fn l1_data_cache_filters_repeat_lines() {
        let (mut core, mut xlat, _) = setup(DesignKind::Ideal);
        let mut stats = AppStats::default();
        let mut out = Vec::new();
        let mut id = 0u64;
        for now in 0..2000 {
            let mut sink = DirectIssue {
                xlat: &mut xlat,
                out_l2: &mut out,
                next_req_id: &mut id,
            };
            core.issue(now, &mut sink, &mut stats);
            for r in out.drain(..) {
                core.line_done(r.line); // zero-latency memory
            }
        }
        assert!(
            stats.l1_data.hits > 0,
            "GUP's line locality of 0 still re-touches lines across warps"
        );
    }
}
