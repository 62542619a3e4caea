//! The shared address-translation subsystem.
//!
//! Models the post-L1-TLB translation path of both baseline variants
//! (Fig. 2) and MASK (Fig. 10):
//!
//! * `SharedTlb`-family designs: L1 miss → shared L2 TLB (2 ports, 10-cycle
//!   latency) → page-table walker;
//! * `PwCache` design: L1 miss → walker, whose per-level accesses probe the
//!   shared page-walk cache before the L2 cache;
//! * MASK designs: L2 TLB fills gated by TLB-Fill Tokens, with the bypass
//!   cache probed in parallel.
//!
//! Duplicate in-flight translations of the same `(ASID, VPN)` merge in the
//! translation MSHRs; each entry counts its stalled warps — the Fig. 6
//! metric and the `WarpsStalled` input of Eq. 1.
//!
//! The unit keeps no statistics of its own: each shared-L2-TLB and
//! bypass-cache probe, page-walk-cache probe, demand-paging fault and
//! diverted fill is counted, as it happens, in the `AppStats` of the
//! application it belongs to.

use mask_common::addr::{Ppn, Vpn};
use mask_common::config::{DesignSpec, GpuConfig, TokenPolicy, TranslationPath};
use mask_common::ids::{Asid, GlobalWarpId};
use mask_common::req::{MemRequest, ReqId, RequestClass};
use mask_common::snapshot::Fnv1a;
use mask_common::stats::AppStats;
use mask_common::Cycle;
use mask_pagetable::{PageTables, PageWalker, WalkAccess, WalkId, WalkOutcome};
use mask_tlb::{L2TlbProbe, PageWalkCache, SharedL2Tlb, TokenAllocator};
// FastMap below is keyed-access only (never iterated) with a fixed-seed
// hasher, so iteration-order nondeterminism cannot reach simulation results.
#[expect(clippy::disallowed_types, reason = "fixed hasher, never iterated")]
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// The translation MSHR's map. FNV-1a skips `SipHash`'s per-lookup setup
/// cost on a path hit by every L1 TLB miss.
#[expect(
    clippy::disallowed_types,
    reason = "fixed hasher, never iterated; see above"
)]
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// A translation that just resolved; the simulator wakes all waiters.
#[derive(Debug)]
pub struct ResolvedTranslation {
    /// Address space translated.
    pub asid: Asid,
    /// Virtual page translated.
    pub vpn: Vpn,
    /// Resulting frame.
    pub ppn: Ppn,
    /// All warps stalled on this translation.
    pub waiters: Vec<GlobalWarpId>,
    /// Whether a full page walk was required (false = shared L2 TLB hit).
    pub walked: bool,
    /// Walk latency in cycles (0 for L2 TLB hits).
    pub walk_latency: Cycle,
}

#[derive(Debug)]
struct TransEntry {
    waiters: Vec<GlobalWarpId>,
    /// Warp that initiated the request (holds or lacks the fill token).
    initiator_core_rank: usize,
    initiator_warp: usize,
}

#[derive(Clone, Copy, Debug)]
struct L2TlbReq {
    asid: Asid,
    vpn: Vpn,
    ready_at: Cycle,
}

/// Per-app epoch accumulators for Eq. 1 pressure products.
#[derive(Clone, Debug, Default)]
struct EpochAcc {
    /// Integral of concurrent walks over the epoch.
    walk_integral: u64,
    /// Resolved translations (L2-TLB hits and walks alike) and their total
    /// stalled-warp count.
    stalled_sum: u64,
    events: u64,
}

/// The translation subsystem shared by all cores.
#[derive(Debug)]
pub struct TranslationUnit {
    l2tlb: Option<SharedL2Tlb>,
    pwc: Option<PageWalkCache>,
    walker: PageWalker,
    tables: PageTables,
    tokens: Option<TokenAllocator>,
    mshr: FastMap<(Asid, Vpn), TransEntry>,
    l2tlb_pipe: VecDeque<L2TlbReq>,
    /// Walks blocked on a demand-paging fault (first touch).
    fault_pipe: Vec<(Cycle, Asid, Vpn)>,
    fault_latency: u64,
    /// Page-walk-cache hits completing after the PWC latency.
    pwc_pipe: Vec<(Cycle, WalkAccess)>,
    /// Outstanding walker accesses in the L2/DRAM, by request id. At most
    /// one per walker slot, so a linear scan beats any tree or hash map.
    walk_of_req: Vec<(ReqId, WalkId)>,
    l2_ports: usize,
    l2_latency: u64,
    pwc_latency: u64,
    epoch: Vec<EpochAcc>,
    n_apps: usize,
    /// Recycled waiter vectors: MSHR entries pop from here and resolved
    /// translations hand their vectors back via `recycle_waiters`, keeping
    /// the request/resolve cycle allocation-free in steady state.
    waiter_pool: Vec<Vec<GlobalWarpId>>,
    /// Scratch for newly activated walk accesses, reused every cycle.
    scratch_walks: Vec<WalkAccess>,
}

impl TranslationUnit {
    /// Builds the translation path for `design` with `cores_per_app[i]`
    /// cores assigned to application `i`. This layer consumes the
    /// `translation`, `tokens`, and `alloc` axes of the spec: the
    /// translation path picks the shared structures, fill tokens gate L2
    /// TLB fills, and the allocation policy shapes physical frame
    /// placement.
    pub fn new(cfg: &GpuConfig, design: DesignSpec, cores_per_app: &[usize]) -> Self {
        let n_apps = cores_per_app.len();
        let tokens_on = design.tokens == TokenPolicy::FillTokens;
        let l2tlb = (design.translation == TranslationPath::SharedL2Tlb).then(|| {
            let bypass = if tokens_on {
                cfg.tlb.bypass_cache_entries
            } else {
                0
            };
            SharedL2Tlb::new(cfg.tlb.l2_entries, cfg.tlb.l2_assoc, n_apps, bypass)
        });
        let pwc = (design.translation == TranslationPath::PageWalkCache)
            .then(|| PageWalkCache::new(cfg.pwc.bytes, cfg.pwc.assoc));
        let tokens =
            tokens_on.then(|| TokenAllocator::new(&cfg.mask, cores_per_app, cfg.warps_per_core));
        TranslationUnit {
            l2tlb,
            pwc,
            walker: PageWalker::new(cfg.walker_slots, n_apps),
            tables: PageTables::with_alloc(n_apps, cfg.page_size_log2, design.alloc),
            tokens,
            mshr: FastMap::default(),
            l2tlb_pipe: VecDeque::new(),
            fault_pipe: Vec::new(),
            fault_latency: cfg.page_fault_latency,
            pwc_pipe: Vec::new(),
            walk_of_req: Vec::new(),
            l2_ports: cfg.tlb.l2_ports,
            l2_latency: cfg.tlb.l2_latency,
            pwc_latency: cfg.pwc.latency,
            epoch: vec![EpochAcc::default(); n_apps],
            n_apps,
            waiter_pool: Vec::new(),
            scratch_walks: Vec::new(),
        }
    }

    /// Functional translation for the `Ideal` design (and L1 refill paths):
    /// maps the page on demand, no latency.
    pub fn functional_translate(&mut self, asid: Asid, vpn: Vpn) -> Ppn {
        self.tables.ensure_mapped(asid, vpn)
    }

    /// Registers a warp's translation request after an L1 TLB miss.
    ///
    /// Duplicate requests merge; the merged warp count feeds the Fig. 6
    /// statistic. A demand-paging fault is counted in `stats`, the
    /// requesting application's. Returns `true` if this was a new (primary)
    /// request.
    pub fn request(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        requester: GlobalWarpId,
        core_rank: usize,
        now: Cycle,
        stats: &mut AppStats,
    ) -> bool {
        if let Some(entry) = self.mshr.get_mut(&(asid, vpn)) {
            entry.waiters.push(requester);
            mask_obs::hooks::tlb_mshr_merge(asid.raw());
            return false;
        }
        let mut waiters = self.waiter_pool.pop().unwrap_or_default();
        waiters.push(requester);
        self.mshr.insert(
            (asid, vpn),
            TransEntry {
                waiters,
                initiator_core_rank: core_rank,
                initiator_warp: requester.warp.index(),
            },
        );
        // Demand paging: a first touch pays the fault service time before
        // the walk can proceed.
        if self.fault_latency > 0 {
            let (_, faulted) = self.tables.ensure_mapped_report(asid, vpn);
            if faulted {
                stats.page_faults += 1;
                self.fault_pipe.push((now + self.fault_latency, asid, vpn));
                return true;
            }
        }
        self.route_to_walk_path(asid, vpn, now);
        true
    }

    fn route_to_walk_path(&mut self, asid: Asid, vpn: Vpn, now: Cycle) {
        if self.l2tlb.is_some() {
            self.l2tlb_pipe.push_back(L2TlbReq {
                asid,
                vpn,
                ready_at: now + self.l2_latency,
            });
        } else {
            // PWCache design: straight to the walker.
            self.walker.enqueue(asid, vpn, now);
        }
    }

    fn route_walk_access(
        &mut self,
        access: WalkAccess,
        now: Cycle,
        next_req_id: &mut u64,
        out_l2: &mut Vec<MemRequest>,
        stats: &mut [AppStats],
    ) {
        if let Some(pwc) = &mut self.pwc {
            let hit = pwc.access(access.line);
            stats[access.asid.index()].pwc.record(hit);
            if hit {
                self.pwc_pipe.push((now + self.pwc_latency, access));
                return;
            }
        }
        let id = ReqId(*next_req_id);
        *next_req_id += 1;
        self.walk_of_req.push((id, access.walk));
        // Conservation: every walker access sent to memory must come back
        // through `memory_response` exactly once.
        mask_obs::hooks::issue(mask_obs::Domain::XlatMem, id.0);
        out_l2.push(MemRequest::new(
            id,
            access.line,
            access.asid,
            mask_common::ids::CoreId::new(0), // walker is a shared agent
            RequestClass::Translation(access.level),
            now,
        ));
    }

    /// Wakes the translation's waiters; a walked one fills the shared L2
    /// TLB, and a fill diverted to the bypass cache is counted in the
    /// application's `stats`.
    fn resolve(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        ppn: Ppn,
        walked: bool,
        walk_latency: Cycle,
        stats: &mut [AppStats],
    ) -> Option<ResolvedTranslation> {
        let entry = self.mshr.remove(&(asid, vpn))?;
        if walked {
            if let Some(l2) = &mut self.l2tlb {
                let has_token = match &self.tokens {
                    Some(t) => {
                        t.warp_has_token(asid, entry.initiator_core_rank, entry.initiator_warp)
                    }
                    None => true,
                };
                if l2.fill(asid, vpn, ppn, has_token) {
                    stats[asid.index()].fills_diverted += 1;
                }
            }
        }
        let acc = &mut self.epoch[asid.index().min(self.n_apps - 1)];
        acc.stalled_sum += entry.waiters.len() as u64;
        acc.events += 1;
        Some(ResolvedTranslation {
            asid,
            vpn,
            ppn,
            waiters: entry.waiters,
            walked,
            walk_latency,
        })
    }

    /// Advances one cycle.
    ///
    /// Emits walker memory requests into `out_l2`, records each
    /// shared-L2-TLB, bypass-cache and page-walk-cache probe and each
    /// diverted fill in its application's `stats` (indexed by ASID), and
    /// appends resolved translations (shared-L2-TLB hits and PWC-completed
    /// walks) to `resolved` (not cleared).
    pub fn tick(
        &mut self,
        now: Cycle,
        next_req_id: &mut u64,
        out_l2: &mut Vec<MemRequest>,
        stats: &mut [AppStats],
        resolved: &mut Vec<ResolvedTranslation>,
    ) {
        // 0. Release walks whose demand-paging fault completed.
        let mut i = 0;
        while i < self.fault_pipe.len() {
            if self.fault_pipe[i].0 <= now {
                let (_, asid, vpn) = self.fault_pipe.swap_remove(i);
                self.route_to_walk_path(asid, vpn, now);
            } else {
                i += 1;
            }
        }
        // 1. Shared L2 TLB pipeline: up to `l2_ports` probes per cycle.
        for _ in 0..self.l2_ports {
            let Some(front) = self.l2tlb_pipe.front() else {
                break;
            };
            if front.ready_at > now {
                break;
            }
            let req = self.l2tlb_pipe.pop_front().expect("non-empty");
            let l2 = self.l2tlb.as_mut().expect("pipe implies shared L2 TLB");
            let outcome = l2.probe(req.asid, req.vpn);
            let app = &mut stats[req.asid.index()];
            app.l2_tlb.record(outcome.ppn().is_some());
            // The bypass cache is probed exactly when the main array misses.
            if l2.has_bypass_cache() && !matches!(outcome, L2TlbProbe::HitMain(_)) {
                app.tlb_bypass_cache
                    .record(matches!(outcome, L2TlbProbe::HitBypassCache(_)));
            }
            match outcome {
                L2TlbProbe::Miss => {
                    mask_obs::hooks::tlb_probe(mask_obs::TlbLevel::L2, req.asid.raw(), false);
                    self.walker.enqueue(req.asid, req.vpn, now);
                }
                hit => {
                    let whence = if matches!(hit, L2TlbProbe::HitBypassCache(_)) {
                        mask_obs::TlbLevel::BypassCache
                    } else {
                        mask_obs::TlbLevel::L2
                    };
                    mask_obs::hooks::tlb_probe(whence, req.asid.raw(), true);
                    let ppn = hit.ppn().expect("hit carries translation");
                    if let Some(r) = self.resolve(req.asid, req.vpn, ppn, false, 0, stats) {
                        resolved.push(r);
                    }
                }
            }
        }
        // 2. Activate queued walks and route their first accesses. The
        // scratch is taken out of `self` so the routing loop can borrow
        // `&mut self`, then put back to keep its capacity.
        let mut walks = std::mem::take(&mut self.scratch_walks);
        walks.clear();
        self.walker.activate_into(&mut self.tables, &mut walks);
        for &access in &walks {
            self.route_walk_access(access, now, next_req_id, out_l2, stats);
        }
        self.scratch_walks = walks;
        // 3. Complete PWC-hit walk steps whose latency elapsed.
        let mut i = 0;
        while i < self.pwc_pipe.len() {
            if self.pwc_pipe[i].0 <= now {
                let (_, access) = self.pwc_pipe.swap_remove(i);
                match self.walker.access_complete(access.walk, &self.tables, now) {
                    WalkOutcome::Next(next) => {
                        self.route_walk_access(next, now, next_req_id, out_l2, stats);
                    }
                    WalkOutcome::Done {
                        asid,
                        vpn,
                        ppn,
                        latency,
                    } => {
                        if let Some(r) = self.resolve(asid, vpn, ppn, true, latency, stats) {
                            resolved.push(r);
                        }
                    }
                }
            } else {
                i += 1;
            }
        }
        // 4. Epoch integrals (Fig. 5 / Eq. 1 inputs).
        for app in 0..self.n_apps {
            self.epoch[app].walk_integral +=
                self.walker.total_walks_for(Asid::new(app as u16)) as u64;
        }
    }

    /// Returns a resolved translation's waiter vector to the recycling
    /// pool once the simulator has woken every warp in it.
    pub fn recycle_waiters(&mut self, mut waiters: Vec<GlobalWarpId>) {
        waiters.clear();
        self.waiter_pool.push(waiters);
    }

    /// Delivers an L2/DRAM completion for a walker access.
    ///
    /// Returns a resolved translation if this was the final level, and may
    /// emit the next level's memory request into `out_l2` (recording its
    /// page-walk-cache probe, or the final level's diverted fill, in
    /// `stats`, as [`TranslationUnit::tick`] does).
    pub fn memory_response(
        &mut self,
        req: &MemRequest,
        now: Cycle,
        next_req_id: &mut u64,
        out_l2: &mut Vec<MemRequest>,
        stats: &mut [AppStats],
    ) -> Option<ResolvedTranslation> {
        let pos = self.walk_of_req.iter().position(|&(id, _)| id == req.id)?;
        let (_, walk) = self.walk_of_req.swap_remove(pos);
        mask_obs::hooks::retire(mask_obs::Domain::XlatMem, req.id.0);
        match self.walker.access_complete(walk, &self.tables, now) {
            WalkOutcome::Next(next) => {
                self.route_walk_access(next, now, next_req_id, out_l2, stats);
                None
            }
            WalkOutcome::Done {
                asid,
                vpn,
                ppn,
                latency,
            } => self.resolve(asid, vpn, ppn, true, latency, stats),
        }
    }

    /// Ends a MASK epoch: adapts token counts from per-app L2 TLB miss
    /// rates, resets epoch counters, and returns per-app Eq. 1 pressure
    /// products (`ConPTW_i * WarpsStalled_i`, scaled) for the DRAM
    /// scheduler.
    pub fn end_epoch(&mut self, epoch_cycles: u64) -> Vec<u64> {
        if let (Some(tokens), Some(l2)) = (&mut self.tokens, &self.l2tlb) {
            for app in 0..self.n_apps {
                let asid = Asid::new(app as u16);
                tokens.end_epoch(asid, l2.epoch_miss_rate(asid));
            }
        }
        if let Some(l2) = &mut self.l2tlb {
            l2.reset_epoch();
        }
        let mut pressure = Vec::with_capacity(self.n_apps);
        for acc in &mut self.epoch {
            // ConPTW_i * WarpsStalled_i, fixed-point scaled by 256 to keep
            // small averages from truncating to zero.
            let p = if epoch_cycles == 0 || acc.events == 0 || acc.walk_integral == 0 {
                0
            } else {
                let num = u128::from(acc.walk_integral) * u128::from(acc.stalled_sum) * 256;
                let den = u128::from(epoch_cycles) * u128::from(acc.events);
                num.div_ceil(den) as u64
            };
            pressure.push(p);
            *acc = EpochAcc::default();
        }
        pressure
    }

    /// Concurrent page-walk demand for an app (Fig. 5 sampling).
    pub fn concurrent_walks(&self, asid: Asid) -> usize {
        self.walker.total_walks_for(asid)
    }

    /// Total page-walk demand across all apps: active walks plus walks
    /// queued for a slot (trace queue-depth sampling).
    pub fn walker_demand(&self) -> usize {
        self.walker.total_walks()
    }

    /// Current fill-token count for an app (0 when tokens are disabled).
    pub fn tokens_for(&self, asid: Asid) -> u64 {
        self.tokens.as_ref().map_or(0, |t| t.tokens(asid))
    }

    /// TLB shootdown for one address space (§5.5): drops the ASID's
    /// entries from the shared L2 TLB and the bypass cache. Per-core L1
    /// flushes are handled by the simulator, which knows core ownership.
    pub fn shootdown(&mut self, asid: Asid) {
        if let Some(l2) = &mut self.l2tlb {
            l2.flush_asid(asid);
        }
    }

    /// Flushes all cached translation state (context-switch experiments).
    pub fn flush_volatile(&mut self) {
        if let Some(l2) = &mut self.l2tlb {
            l2.flush();
        }
        if let Some(pwc) = &mut self.pwc {
            pwc.flush();
        }
    }

    /// The page tables (for functional address checks in tests).
    pub fn tables(&self) -> &PageTables {
        &self.tables
    }
}

impl mask_common::snapshot::Snapshot for TranslationUnit {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("xlat");
        if let Some(l2) = &self.l2tlb {
            l2.snapshot(w);
        }
        if let Some(pwc) = &self.pwc {
            pwc.snapshot(w);
        }
        self.walker.snapshot(w);
        self.tables.snapshot(w);
        if let Some(tokens) = &self.tokens {
            tokens.snapshot(w);
        }
        // The MSHR map is keyed-access only (iteration order is
        // unspecified), so entries are serialized in canonical (ASID, VPN)
        // order to keep the encoding a pure function of the state.
        let mut keys: Vec<(Asid, Vpn)> = self.mshr.keys().copied().collect();
        keys.sort_unstable_by_key(|&(asid, vpn)| (asid.raw(), vpn.0));
        w.seq(keys.len());
        for &(asid, vpn) in &keys {
            let entry = &self.mshr[&(asid, vpn)];
            asid.snapshot(w);
            vpn.snapshot(w);
            w.seq(entry.waiters.len());
            for gw in &entry.waiters {
                gw.snapshot(w);
            }
            w.usize(entry.initiator_core_rank);
            w.usize(entry.initiator_warp);
        }
        w.seq(self.l2tlb_pipe.len());
        for req in &self.l2tlb_pipe {
            req.asid.snapshot(w);
            req.vpn.snapshot(w);
            w.u64(req.ready_at);
        }
        w.seq(self.fault_pipe.len());
        for &(ready, asid, vpn) in &self.fault_pipe {
            w.u64(ready);
            asid.snapshot(w);
            vpn.snapshot(w);
        }
        w.seq(self.pwc_pipe.len());
        for &(ready, access) in &self.pwc_pipe {
            w.u64(ready);
            w.u32(access.walk.0);
            access.asid.snapshot(w);
            access.line.snapshot(w);
            w.u8(access.level.raw());
        }
        w.seq(self.walk_of_req.len());
        for &(id, walk) in &self.walk_of_req {
            id.snapshot(w);
            w.u32(walk.0);
        }
        w.seq(self.epoch.len());
        for acc in &self.epoch {
            w.u64(acc.walk_integral);
            w.u64(acc.stalled_sum);
            w.u64(acc.events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::config::{DesignKind, GpuConfig};
    use mask_common::ids::{CoreId, WarpId};

    fn warp(core: u16, warp: u16) -> GlobalWarpId {
        GlobalWarpId::new(CoreId::new(core), WarpId::new(warp))
    }

    /// Runs `unit` for `cycles` cycles, counting into `stats` (one entry
    /// per application).
    fn drive(
        unit: &mut TranslationUnit,
        stats: &mut [AppStats],
        now_start: Cycle,
        cycles: u64,
    ) -> (Vec<ResolvedTranslation>, Vec<MemRequest>) {
        let mut resolved = Vec::new();
        let mut reqs = Vec::new();
        let mut next_id = 0u64;
        for now in now_start..now_start + cycles {
            let mut out = Vec::new();
            unit.tick(now, &mut next_id, &mut out, stats, &mut resolved);
            // Instantly satisfy every memory request (zero-latency L2),
            // including requests generated by responses (worklist loop).
            while let Some(r) = out.pop() {
                reqs.push(r);
                let mut more = Vec::new();
                if let Some(done) = unit.memory_response(&r, now, &mut next_id, &mut more, stats) {
                    resolved.push(done);
                }
                out.extend(more);
            }
        }
        (resolved, reqs)
    }

    #[test]
    fn shared_tlb_miss_walks_four_levels() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::SharedTlb.spec(), &[2]);
        let mut stats = vec![AppStats::default(); 2];
        assert!(unit.request(Asid::new(0), Vpn(42), warp(0, 0), 0, 0, &mut stats[0]));
        let (resolved, reqs) = drive(&mut unit, &mut stats, 0, 40);
        assert_eq!(resolved.len(), 1);
        assert!(resolved[0].walked);
        assert_eq!(reqs.len(), 4, "one memory request per page-table level");
        let levels: Vec<u8> = reqs.iter().map(|r| r.class.depth_tag()).collect();
        assert_eq!(levels, vec![1, 2, 3, 4]);
    }

    #[test]
    fn second_request_hits_shared_l2_tlb() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::SharedTlb.spec(), &[2]);
        let mut stats = vec![AppStats::default(); 2];
        unit.request(Asid::new(0), Vpn(42), warp(0, 0), 0, 0, &mut stats[0]);
        let (r1, _) = drive(&mut unit, &mut stats, 0, 40);
        assert!(r1[0].walked);
        unit.request(Asid::new(0), Vpn(42), warp(0, 1), 0, 100, &mut stats[0]);
        let (r2, reqs2) = drive(&mut unit, &mut stats, 100, 40);
        assert_eq!(r2.len(), 1);
        assert!(!r2[0].walked, "L2 TLB hit, no walk");
        assert!(reqs2.is_empty());
    }

    #[test]
    fn duplicate_requests_merge_and_wake_together() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::SharedTlb.spec(), &[2]);
        let mut stats = vec![AppStats::default(); 2];
        assert!(unit.request(Asid::new(0), Vpn(7), warp(0, 0), 0, 0, &mut stats[0]));
        assert!(!unit.request(Asid::new(0), Vpn(7), warp(0, 1), 0, 1, &mut stats[0]));
        assert!(!unit.request(Asid::new(0), Vpn(7), warp(1, 5), 1, 2, &mut stats[0]));
        let (resolved, reqs) = drive(&mut unit, &mut stats, 0, 40);
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].waiters.len(), 3);
        assert_eq!(reqs.len(), 4, "merged: only one walk");
    }

    #[test]
    fn pwcache_design_skips_l2_tlb_and_uses_pwc() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::PwCache.spec(), &[2]);
        let mut stats = vec![AppStats::default(); 2];
        unit.request(Asid::new(0), Vpn(1), warp(0, 0), 0, 0, &mut stats[0]);
        let (r1, reqs1) = drive(&mut unit, &mut stats, 0, 60);
        assert_eq!(r1.len(), 1);
        assert_eq!(reqs1.len(), 4, "cold walk: all levels miss the PWC");
        // A nearby page shares upper-level PTE lines: the PWC now hits.
        unit.request(Asid::new(0), Vpn(2), warp(0, 1), 0, 100, &mut stats[0]);
        let (r2, reqs2) = drive(&mut unit, &mut stats, 100, 120);
        assert_eq!(r2.len(), 1);
        assert!(
            reqs2.len() < 4,
            "PWC hits cut memory requests, got {}",
            reqs2.len()
        );
        // Every walk level probed the PWC once; each miss went to memory.
        let pwc = stats[0].pwc;
        assert_eq!(pwc.accesses, 8);
        assert_eq!(pwc.misses(), (reqs1.len() + reqs2.len()) as u64);
        assert!(pwc.hits > 0);
        assert_eq!(stats[1].pwc.accesses, 0, "only the walking app counts");
    }

    #[test]
    fn shared_tlb_probes_count_in_the_probing_apps_stats() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::SharedTlb.spec(), &[1, 1]);
        let mut stats = vec![AppStats::default(); 2];
        unit.request(Asid::new(1), Vpn(42), warp(1, 0), 0, 0, &mut stats[1]);
        drive(&mut unit, &mut stats, 0, 40);
        unit.request(Asid::new(1), Vpn(42), warp(1, 1), 0, 100, &mut stats[1]);
        drive(&mut unit, &mut stats, 100, 40);
        assert_eq!((stats[1].l2_tlb.accesses, stats[1].l2_tlb.hits), (2, 1));
        assert_eq!(stats[0].l2_tlb.accesses, 0);
        assert_eq!(stats[1].tlb_bypass_cache.accesses, 0, "no bypass cache");
        assert_eq!(stats[1].fills_diverted, 0);
    }

    #[test]
    fn tokenless_walk_fills_the_bypass_cache_and_counts_its_probes() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::MaskTlb.spec(), &[2]);
        let mut stats = vec![AppStats::default(); 2];
        // After the warm-up epoch each core holds 80 % of its warps'
        // tokens, so the core's last warp has none.
        unit.end_epoch(100_000);
        let last = cfg.warps_per_core as u16 - 1;
        unit.request(Asid::new(0), Vpn(5), warp(0, last), 0, 0, &mut stats[0]);
        let (r1, _) = drive(&mut unit, &mut stats, 0, 40);
        assert!(r1[0].walked);
        assert_eq!(stats[0].fills_diverted, 1);
        unit.request(Asid::new(0), Vpn(5), warp(0, 0), 0, 100, &mut stats[0]);
        let (r2, reqs) = drive(&mut unit, &mut stats, 100, 40);
        assert!(!r2[0].walked && reqs.is_empty(), "bypass-cache hit");
        // Main array: two misses; the bypass cache, probed on each, one
        // miss then one hit, which is also an L2 TLB hit.
        let s = &stats[0];
        assert_eq!((s.l2_tlb.accesses, s.l2_tlb.hits), (2, 1));
        assert_eq!(
            (s.tlb_bypass_cache.accesses, s.tlb_bypass_cache.hits),
            (2, 1)
        );
        assert_eq!(s.fills_diverted, 1, "a hit fills nothing");
    }

    #[test]
    fn different_asids_do_not_share_translations() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::SharedTlb.spec(), &[1, 1]);
        let mut stats = vec![AppStats::default(); 2];
        unit.request(Asid::new(0), Vpn(42), warp(0, 0), 0, 0, &mut stats[0]);
        let (r1, _) = drive(&mut unit, &mut stats, 0, 40);
        unit.request(Asid::new(1), Vpn(42), warp(1, 0), 0, 100, &mut stats[1]);
        let (r2, _) = drive(&mut unit, &mut stats, 100, 40);
        assert!(r2[0].walked, "same VPN in another ASID must walk");
        assert_ne!(r1[0].ppn, r2[0].ppn);
    }

    #[test]
    fn epoch_pressure_reflects_stalled_warps() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::Mask.spec(), &[2]);
        let mut stats = vec![AppStats::default(); 2];
        for w in 0..8 {
            unit.request(Asid::new(0), Vpn(9), warp(0, w), 0, 0, &mut stats[0]);
        }
        let (resolved, _) = drive(&mut unit, &mut stats, 0, 40);
        assert_eq!(resolved[0].waiters.len(), 8);
        let pressure = unit.end_epoch(40);
        assert_eq!(pressure.len(), 1);
        assert!(pressure[0] > 0, "stalled warps must register pressure");
    }

    #[test]
    fn tokens_warmup_then_activate() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::Mask.spec(), &[2]);
        assert_eq!(unit.tokens_for(Asid::new(0)), 2 * cfg.warps_per_core as u64);
        unit.end_epoch(100_000);
        let t = unit.tokens_for(Asid::new(0));
        assert_eq!(t, (2.0 * cfg.warps_per_core as f64 * 0.8).round() as u64);
    }

    #[test]
    fn demand_paging_fault_delays_first_touch_only() {
        let mut cfg = GpuConfig::maxwell();
        cfg.page_fault_latency = 500;
        let mut unit = TranslationUnit::new(&cfg, DesignKind::SharedTlb.spec(), &[1]);
        let mut stats = vec![AppStats::default(); 2];
        unit.request(Asid::new(0), Vpn(1), warp(0, 0), 0, 0, &mut stats[0]);
        // Nothing resolves before the fault service time.
        let (early, _) = drive(&mut unit, &mut stats, 0, 400);
        assert!(early.is_empty(), "walk must wait for the fault");
        assert_eq!(stats[0].page_faults, 1);
        let (late, _) = drive(&mut unit, &mut stats, 400, 400);
        assert_eq!(late.len(), 1, "walk completes after the fault");
        // A second touch of the same page faults no more.
        unit.request(Asid::new(0), Vpn(1), warp(0, 1), 0, 1000, &mut stats[0]);
        assert_eq!(stats[0].page_faults, 1);
    }

    #[test]
    fn ideal_functional_translation_is_stable() {
        let cfg = GpuConfig::maxwell();
        let mut unit = TranslationUnit::new(&cfg, DesignKind::Ideal.spec(), &[1]);
        let p1 = unit.functional_translate(Asid::new(0), Vpn(5));
        let p2 = unit.functional_translate(Asid::new(0), Vpn(5));
        assert_eq!(p1, p2);
    }
}
