//! The top-level cycle loop: cores + translation + shared L2 + DRAM.

use crate::core_model::{DirectIssue, GpuCore};
use crate::translation::{ResolvedTranslation, TranslationUnit};
use mask_cache::l2::{L2Outcome, L2Response};
use mask_cache::SharedL2Cache;
use mask_common::config::{ComputePolicy, SimConfig, TranslationPath};
use mask_common::ids::{Asid, CoreId, WarpId};
use mask_common::req::{MemRequest, RequestClass};
use mask_common::stats::SimStats;
use mask_common::Cycle;
use mask_dram::{Dram, DramCompletion, RowOutcome};
use mask_obs::profile::SimStage;
use mask_obs::QueueKind;
use mask_workloads::AppProfile;

/// One application's placement in a simulation.
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    /// The workload to run.
    pub profile: &'static AppProfile,
    /// Number of GPU cores assigned to it.
    pub n_cores: usize,
}

/// Maps every core index to the application that owns it, honoring the
/// spec's compute-partitioning axis.
///
/// * [`ComputePolicy::SmSets`] gives each application a contiguous block of
///   cores (§7's disjoint SM sets — every baseline and MASK design).
/// * [`ComputePolicy::AllSms`] interleaves applications round-robin across
///   the whole GPU (MPS-style `NoIsolation`), honoring the per-app core
///   counts; with a single application the two layouts coincide.
fn core_layout(policy: ComputePolicy, cores_per_app: &[usize]) -> Vec<usize> {
    let total: usize = cores_per_app.iter().sum();
    let mut layout = Vec::with_capacity(total);
    match policy {
        ComputePolicy::SmSets => {
            for (app, &n) in cores_per_app.iter().enumerate() {
                layout.extend(std::iter::repeat_n(app, n));
            }
        }
        ComputePolicy::AllSms => {
            let mut remaining = cores_per_app.to_vec();
            while layout.len() < total {
                for (app, rem) in remaining.iter_mut().enumerate() {
                    if *rem > 0 {
                        *rem -= 1;
                        layout.push(app);
                    }
                }
            }
        }
    }
    layout
}

/// The first multiple of `epoch` after `now`; `Cycle::MAX` when there are
/// no epochs.
fn epoch_after(now: Cycle, epoch: u64) -> Cycle {
    now.checked_div(epoch)
        .map_or(Cycle::MAX, |done| (done + 1).saturating_mul(epoch))
}

/// How far ahead the wake schedule's wheel reaches. A burst that ends
/// later is visited once mid-burst, which [`GpuCore::issue`] allows.
const WAKE_HORIZON: u64 = 64;

/// The wake schedule: per core, the next cycle at which its issue stage
/// has anything to decide ([`GpuCore::issue`]'s return value). Stage 1 of
/// `step` visits only the cores due this cycle and credits the rest in
/// bulk: one instruction to a core whose compute burst sleeps (due at a
/// later cycle), one stall to a parked core (`Cycle::MAX`). Only
/// [`GpuSim::rouse`] — after a translation or a data line is delivered —
/// makes a core due earlier than it asked.
///
/// Derived state: a snapshot does not encode it, and a restored simulator
/// makes every core due at once (a parked core re-parks on that visit).
#[derive(Debug)]
struct WakeSchedule {
    /// Per core, the cycle it is due; `Cycle::MAX` while parked.
    at: Vec<Cycle>,
    /// 64-core words per mask.
    words: usize,
    /// The cores due at cycle `c`, word `w`:
    /// `wheel[(c % WAKE_HORIZON) * words + w]`. Every finite `at` lies less
    /// than `WAKE_HORIZON` cycles ahead, so a slot holds one cycle's cores.
    wheel: Vec<u64>,
    /// The parked cores, one mask per word.
    parked: Vec<u64>,
}

impl WakeSchedule {
    /// Every core due at cycle 0.
    fn new(n_cores: usize) -> Self {
        let words = n_cores.div_ceil(64);
        let mut wheel = vec![0; WAKE_HORIZON as usize * words];
        for core in 0..n_cores {
            wheel[core / 64] |= 1u64 << (core % 64);
        }
        WakeSchedule {
            at: vec![0; n_cores],
            words,
            wheel,
            parked: vec![0; words],
        }
    }

    fn slot(&self, cycle: Cycle, core: usize) -> usize {
        (cycle % WAKE_HORIZON) as usize * self.words + core / 64
    }

    /// Makes `core` due at cycle `at` (`Cycle::MAX` parks it), seen from
    /// cycle `now`.
    fn set(&mut self, core: usize, at: Cycle, now: Cycle) {
        let (word, bit) = (core / 64, 1u64 << (core % 64));
        match self.at[core] {
            Cycle::MAX => self.parked[word] &= !bit,
            old => {
                let slot = self.slot(old, core);
                self.wheel[slot] &= !bit;
            }
        }
        if at == Cycle::MAX {
            self.parked[word] |= bit;
            self.at[core] = Cycle::MAX;
        } else {
            self.at[core] = at.min(now + WAKE_HORIZON - 1);
            let slot = self.slot(self.at[core], core);
            self.wheel[slot] |= bit;
        }
    }

    /// Makes every core due at cycle `now`.
    fn all_due(&mut self, now: Cycle) {
        for core in 0..self.at.len() {
            self.set(core, now, now);
        }
    }

    /// The cores of `word` due at cycle `now`.
    fn due(&self, now: Cycle, word: usize) -> u64 {
        self.wheel[self.slot(now, word * 64)]
    }
}

/// The assembled GPU simulator.
#[derive(Debug)]
pub struct GpuSim {
    cfg: SimConfig,
    cores: Vec<GpuCore>,
    xlat: TranslationUnit,
    l2: SharedL2Cache,
    dram: Dram,
    stats: SimStats,
    now: Cycle,
    /// The next cycle end-of-epoch work is due: the first multiple of the
    /// epoch length after `now`, `Cycle::MAX` without epochs. Kept so that
    /// no cycle divides to find out. Derived state.
    next_epoch: Cycle,
    next_req_id: u64,
    n_apps: usize,
    /// When each core's issue stage is next visited; see [`WakeSchedule`].
    /// `reset_stats`, `flush_volatile`, `tlb_shootdown` and
    /// `pte_update_flush` change no warp's readiness and no retry queue,
    /// so they do not touch it.
    wake: WakeSchedule,
    /// Which cores each application owns, as bit masks over 64-core words:
    /// word `w` of application `a` is `app_cores[a * wake.words + w]`. The
    /// bulk credit is a population count per application, not an add per
    /// core.
    app_cores: Vec<u64>,
    /// Reusable scratch buffer for L2-bound requests.
    scratch_l2: Vec<MemRequest>,
    scratch_pwc: Vec<(Asid, bool)>,
    /// Scratch for translations resolved by the translation unit's tick.
    scratch_resolved: Vec<ResolvedTranslation>,
    /// Scratch for L2→DRAM request transfer.
    scratch_dram: Vec<MemRequest>,
    /// Scratch for DRAM completions.
    scratch_compl: Vec<DramCompletion>,
    /// Scratch for L2 responses.
    scratch_resp: Vec<L2Response>,
    /// Per-core waiter buckets for `deliver_one` (indexed by core).
    bucket_warps: Vec<Vec<WarpId>>,
    /// Cores touched by the current `deliver_one`, in first-appearance
    /// order (preserves the legacy wake ordering bit-for-bit).
    bucket_touched: Vec<usize>,
    /// Checker accounting session (0 in release builds, where the
    /// checker's branch of every hook folds away).
    san_session: u64,
    /// Checker instance id for cycle-monotonicity tracking.
    san_id: u32,
    /// Per-epoch metrics tracker (inert unless `MASK_TRACE` is live).
    obs: mask_obs::metrics::EpochTracker,
}

// The job engine (`mask-core`'s `engine` module) fans simulations out over
// worker threads, so a `GpuSim` must be fully owned by — and movable to —
// one worker. Compile-time proof that stays red if a non-`Send` field ever
// sneaks in:
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<GpuSim>();
};

impl Drop for GpuSim {
    /// Releases this simulator's sanitizer session: a thread that runs job
    /// after job (a single-job batch runs on the caller's thread) keeps the
    /// accounting of none of the finished ones.
    fn drop(&mut self) {
        mask_obs::hooks::end_session(self.san_session);
    }
}

/// Writes `xlat`'s lifetime TLB/walker/token counters into `stats`.
fn sync_lifetime_counters(xlat: &TranslationUnit, stats: &mut SimStats) {
    for (app, s) in stats.apps.iter_mut().enumerate() {
        let asid = Asid::new(app as u16);
        s.l2_tlb = xlat.l2_tlb_stats(asid);
        s.tokens_final = xlat.tokens_for(asid);
        s.page_faults = xlat.fault_count(asid);
        s.walks_started = s.walks_completed + xlat.concurrent_walks(asid) as u64;
        if let Some(b) = xlat.bypass_cache_stats() {
            s.tlb_bypass_cache = b;
        }
        if let Some(p) = xlat.pwc_stats() {
            s.pwc = p;
        }
    }
}

impl GpuSim {
    /// Builds a simulator placing `apps` on consecutive core ranges.
    ///
    /// # Panics
    ///
    /// Panics if the core counts do not sum to the configured core count,
    /// or if `apps` is empty.
    pub fn new(cfg: &SimConfig, apps: &[AppSpec]) -> Self {
        // Give each simulator its own sanitizer session so that sims built
        // side by side (determinism tests) keep separate accounting.
        let san_session = mask_obs::hooks::new_session();
        mask_obs::hooks::enter_session(san_session);
        assert!(!apps.is_empty(), "at least one application required");
        let total: usize = apps.iter().map(|a| a.n_cores).sum();
        assert_eq!(total, cfg.gpu.n_cores, "core counts must cover the GPU");
        let n_apps = apps.len();
        let cores_per_app: Vec<usize> = apps.iter().map(|a| a.n_cores).collect();
        let design = cfg.design;
        let ideal_xlat = design.translation == TranslationPath::Ideal;
        // Each layer consumes exactly one axis of the spec: the translation
        // unit its translation/token/alloc axes, the L2 its cache policy,
        // the DRAM its scheduling/partitioning policy, and the core layout
        // the compute policy.
        let xlat = TranslationUnit::new(&cfg.gpu, design, &cores_per_app);
        let l2 = SharedL2Cache::with_bypass_margin(
            &cfg.gpu.l2_cache,
            design.l2,
            n_apps,
            cfg.gpu.mask.bypass_margin,
        );
        let dram = Dram::new(&cfg.gpu.dram, n_apps, design.dram);
        let layout = core_layout(design.compute, &cores_per_app);
        let mut cores = Vec::with_capacity(cfg.gpu.n_cores);
        let mut ranks = vec![0usize; n_apps];
        let words = cfg.gpu.n_cores.div_ceil(64);
        let mut app_cores = vec![0u64; n_apps * words];
        for (core_idx, &app_idx) in layout.iter().enumerate() {
            app_cores[app_idx * words + core_idx / 64] |= 1 << (core_idx % 64);
            let rank = ranks[app_idx];
            ranks[app_idx] += 1;
            cores.push(GpuCore::new(
                &cfg.gpu,
                CoreId::new(core_idx as u16),
                Asid::new(app_idx as u16),
                rank,
                apps[app_idx].profile,
                cfg.seed ^ (app_idx as u64) << 32,
                ideal_xlat,
            ));
        }
        GpuSim {
            cfg: cfg.clone(),
            cores,
            xlat,
            l2,
            dram,
            stats: SimStats::new(n_apps, cfg.gpu.dram.channels),
            now: 0,
            next_epoch: epoch_after(0, cfg.gpu.mask.epoch_cycles),
            next_req_id: 0,
            n_apps,
            wake: WakeSchedule::new(cfg.gpu.n_cores),
            app_cores,
            scratch_l2: Vec::new(),
            scratch_pwc: Vec::new(),
            scratch_resolved: Vec::new(),
            scratch_dram: Vec::new(),
            scratch_compl: Vec::new(),
            scratch_resp: Vec::new(),
            bucket_warps: vec![Vec::new(); cfg.gpu.n_cores],
            bucket_touched: Vec::new(),
            san_session,
            san_id: mask_obs::hooks::register_component("gpu"),
            obs: mask_obs::metrics::EpochTracker::new(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Synchronizes lifetime TLB/walker/token counters into the statistics
    /// block. Call after running (and before [`GpuSim::stats`]) so the
    /// snapshot reflects the structures' current state.
    pub fn sync_stats(&mut self) {
        sync_lifetime_counters(&self.xlat, &mut self.stats);
    }

    /// Simulation statistics collected so far. Per-cycle counters are always
    /// current; lifetime TLB/walker/token counters are only as fresh as the
    /// last [`GpuSim::sync_stats`] call. The split lets the job engine (and
    /// any other reader) snapshot results without mutable access.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    fn deliver_one(&mut self, r: ResolvedTranslation) {
        let app = r.asid.index();
        if r.walked {
            self.stats.apps[app].walks_completed += 1;
            self.stats.apps[app].walk_latency_sum += r.walk_latency;
        }
        self.stats.apps[app].stalled_warps_sum += r.waiters.len() as u64;
        self.stats.apps[app].stalled_warps_events += 1;
        self.stats.apps[app].stalled_warps_max = self.stats.apps[app]
            .stalled_warps_max
            .max(r.waiters.len() as u64);
        // Group waiters per core into index buckets. `bucket_touched`
        // records cores in first-appearance order, matching the legacy
        // grouped wake order (and therefore request-id assignment) exactly.
        self.bucket_touched.clear();
        for gw in &r.waiters {
            let c = gw.core.index();
            if self.bucket_warps[c].is_empty() {
                self.bucket_touched.push(c);
            }
            self.bucket_warps[c].push(gw.warp);
        }
        self.xlat.recycle_waiters(r.waiters);
        for i in 0..self.bucket_touched.len() {
            let c = self.bucket_touched[i];
            let app_idx = self.cores[c].asid.index();
            // Split borrows: core, its app stats, the sink's fields, and
            // the buckets are disjoint fields.
            let stats = &mut self.stats.apps[app_idx];
            let mut sink = DirectIssue {
                xlat: &mut self.xlat,
                out_l2: &mut self.scratch_l2,
                next_req_id: &mut self.next_req_id,
            };
            self.cores[c].translation_done(
                r.vpn,
                r.ppn,
                &self.bucket_warps[c],
                self.now,
                &mut sink,
                stats,
            );
            self.rouse(c);
        }
        for i in 0..self.bucket_touched.len() {
            let c = self.bucket_touched[i];
            self.bucket_warps[c].clear();
        }
    }

    /// Makes core `c` due at the next cycle if what was just delivered to
    /// it (after stage 1 of this cycle, which has already been credited)
    /// gave its issue stage something to decide: a queued retry ends even
    /// a sleeping burst, because `drain_retries` must run at the top of
    /// the very next cycle and decides request ids; a ready warp ends a
    /// park. A sleeping burst is otherwise left alone — completions only
    /// set other warps' ready bits and free MSHR entries nobody retries for.
    fn rouse(&mut self, c: usize) {
        let core = &self.cores[c];
        if core.has_retries() || (self.wake.at[c] == Cycle::MAX && !core.is_idle()) {
            self.wake.set(c, self.now + 1, self.now);
        }
    }

    /// Advances the simulation one cycle.
    pub fn step(&mut self) {
        mask_obs::hooks::enter_session(self.san_session);
        let now = self.now;
        mask_obs::hooks::cycle(self.san_id, now);
        // One read of the trace gate guards this cycle's stage clock,
        // queue-depth samples and event flush.
        let traced = mask_obs::tracing_active();
        if traced {
            mask_obs::hooks::set_cycle(now);
            mask_obs::profile::begin_cycle(now);
        }
        let end_stage = |stage| {
            if traced {
                mask_obs::profile::end_stage(stage);
            }
        };
        // 1. Core issue stage.
        let mut sink = DirectIssue {
            xlat: &mut self.xlat,
            out_l2: &mut self.scratch_l2,
            next_req_id: &mut self.next_req_id,
        };
        let words = self.wake.words;
        for word in 0..words {
            let mut due = self.wake.due(now, word);
            let parked = self.wake.parked[word];
            // The cores not visited: one stall for a parked core, one
            // instruction for a core inside a sleeping burst.
            for (app, stats) in self.stats.apps.iter_mut().enumerate() {
                let own = self.app_cores[app * words + word];
                stats.instructions += u64::from((own & !(due | parked)).count_ones());
                stats.stall_cycles += u64::from((own & parked).count_ones());
            }
            if cfg!(debug_assertions) {
                for (bit, core) in self.cores[word * 64..].iter().take(64).enumerate() {
                    if due >> bit & 1 == 0 {
                        mask_obs::hooks::check(
                            if parked >> bit & 1 != 0 {
                                core.is_idle()
                            } else {
                                core.burst_sleeps(now)
                            },
                            "core-wake",
                            "a skipped core must be idle (parked) or inside a compute burst (sleeping)",
                        );
                    }
                }
            }
            // Ascending core order: request ids are allocated in it.
            while due != 0 {
                let i = word * 64 + due.trailing_zeros() as usize;
                due &= due - 1;
                let core = &mut self.cores[i];
                let stats = &mut self.stats.apps[core.asid.index()];
                let next = core.issue(now, &mut sink, stats);
                self.wake.set(i, next, now);
            }
        }
        end_stage(SimStage::Issue);
        // 2. Translation unit: L2 TLB pipeline + walker activation. The
        // resolved scratch is taken out of `self` because `deliver_one`
        // needs `&mut self`; it is put back below with its capacity intact.
        let mut pwc_hits = std::mem::take(&mut self.scratch_pwc);
        let mut resolved = std::mem::take(&mut self.scratch_resolved);
        self.xlat.tick(
            now,
            &mut self.next_req_id,
            &mut self.scratch_l2,
            &mut pwc_hits,
            &mut resolved,
        );
        for r in resolved.drain(..) {
            self.deliver_one(r);
        }
        self.scratch_resolved = resolved;
        end_stage(SimStage::Translation);
        // 3. Push L2-bound requests (disjoint-field borrow: the drain
        // iterator holds `scratch_l2` while `enqueue` borrows `l2`).
        for req in self.scratch_l2.drain(..) {
            self.l2.enqueue(req, now);
        }
        // 4. Shared L2 cache.
        self.l2.tick(now);
        self.l2.drain_dram_requests_into(&mut self.scratch_dram);
        for req in self.scratch_dram.drain(..) {
            self.dram.enqueue(req, now);
        }
        end_stage(SimStage::CacheL2);
        // 5. DRAM.
        self.dram.tick(now);
        self.dram
            .drain_completions_into(now, &mut self.scratch_compl);
        for c in self.scratch_compl.drain(..) {
            let app = c.req.asid.index();
            let class_stats = if c.req.class.is_translation() {
                &mut self.stats.apps[app].dram_translation
            } else {
                &mut self.stats.apps[app].dram_data
            };
            class_stats.requests += 1;
            class_stats.latency_sum += c.finish.saturating_sub(c.arrival);
            class_stats.bus_busy_cycles += c.bus_cycles;
            match c.outcome {
                RowOutcome::Hit => class_stats.row_hits += 1,
                RowOutcome::Miss => class_stats.row_misses += 1,
                RowOutcome::Conflict => class_stats.row_conflicts += 1,
            }
            self.stats.dram_bus_busy += c.bus_cycles;
            self.l2.dram_fill(c.req.line, now);
        }
        end_stage(SimStage::Dram);
        // 6. L2 responses: data to cores, translations to the walker. The
        // response scratch is taken out because the loop body re-enters
        // `&mut self` (`deliver_one`), then put back.
        let mut resps = std::mem::take(&mut self.scratch_resp);
        self.l2.drain_responses_into(&mut resps);
        for resp in resps.drain(..) {
            let app = resp.req.asid.index();
            match resp.req.class {
                RequestClass::Data => {
                    mask_obs::hooks::retire(mask_obs::Domain::CoreData, resp.req.id.0);
                    self.stats.apps[app]
                        .l2_data
                        .record(resp.outcome == L2Outcome::Hit);
                    let c = resp.req.core.index();
                    self.cores[c].line_done(resp.req.line);
                    self.rouse(c);
                }
                RequestClass::Translation(level) => {
                    match resp.outcome {
                        L2Outcome::Bypassed => self.stats.apps[app].l2_translation_bypassed += 1,
                        out => {
                            self.stats.apps[app]
                                .record_l2_translation(level, out == L2Outcome::Hit);
                        }
                    }
                    let done = self.xlat.memory_response(
                        &resp.req,
                        now,
                        &mut self.next_req_id,
                        &mut self.scratch_l2,
                        &mut pwc_hits,
                    );
                    if let Some(r) = done {
                        self.deliver_one(r);
                    }
                }
            }
        }
        self.scratch_resp = resps;
        // Late-generated requests (walk continuations, fresh data after
        // translation wake-ups) enter the L2 this cycle as well.
        for req in self.scratch_l2.drain(..) {
            self.l2.enqueue(req, now);
        }
        end_stage(SimStage::Responses);
        // 7. PWC statistics.
        for (asid, hit) in pwc_hits.drain(..) {
            self.stats.apps[asid.index()].pwc.record(hit);
        }
        self.scratch_pwc = pwc_hits;
        // Queue-depth sampling (deduplicated per thread inside the hook);
        // the depth computations are skipped entirely when tracing is off.
        if traced {
            mask_obs::hooks::queue_depth(QueueKind::L2, self.l2.queued() as u32);
            mask_obs::hooks::queue_depth(QueueKind::Dram, self.dram.queued() as u32);
            mask_obs::hooks::queue_depth(QueueKind::DramInFlight, self.dram.in_flight() as u32);
            mask_obs::hooks::queue_depth(QueueKind::Walker, self.xlat.walker_demand() as u32);
        }
        // 8. Per-cycle sampling.
        for app in 0..self.n_apps {
            let walks = self.xlat.concurrent_walks(Asid::new(app as u16)) as u64;
            self.stats.apps[app].walk_cycles_integral += walks;
            self.stats.apps[app].walk_concurrency_max =
                self.stats.apps[app].walk_concurrency_max.max(walks);
            self.stats.apps[app].cycles += 1;
        }
        self.stats.cycles += 1;
        self.now += 1;
        self.epoch_boundary();
        if traced {
            mask_obs::hooks::flush_events();
        }
    }

    /// Stage 9 of `step`: end-of-epoch work, on the cycle `now` reaches a
    /// multiple of the epoch length.
    fn epoch_boundary(&mut self) {
        if self.now != self.next_epoch {
            return;
        }
        let epoch = self.cfg.gpu.mask.epoch_cycles;
        self.next_epoch += epoch;
        let pressure = self.xlat.end_epoch(epoch);
        self.dram.update_pressure(&pressure);
        self.l2.end_epoch();
        self.emit_epoch_metrics();
    }

    /// Emits the per-epoch metrics frames when tracing is live, from a
    /// copy of the statistics block with the lifetime counters synced. The
    /// live block stays as an untraced run leaves it, so traced machine
    /// state, snapshots included, is bit-identical to untraced.
    fn emit_epoch_metrics(&mut self) {
        let xlat = &self.xlat;
        self.obs.on_epoch(self.now, &self.stats, |stats| {
            sync_lifetime_counters(xlat, stats);
        });
    }

    /// Runs for `cycles` additional cycles.
    pub fn run(&mut self, cycles: u64) {
        let end = self.now + cycles;
        while self.now < end {
            self.step();
        }
    }

    /// Runs to the configured cycle budget.
    pub fn run_to_completion(&mut self) {
        let end = self.cfg.max_cycles;
        if self.now < end {
            self.run(end - self.now);
        }
    }

    /// Does nothing. It switched the whole-GPU idle fast-forward, which is
    /// gone; the name stays only because `benchmark/src/gpu_layer.rs`
    /// still calls it. ROADMAP 8(a) deletes it with that call.
    pub fn set_cycle_skip(&mut self, _enabled: bool) {}

    /// Performs a TLB shootdown for one address space (§5.5): every core
    /// assigned to the address space flushes its L1 TLB, and the shared L2
    /// TLB (plus bypass cache) drops the matching entries. In-flight walks
    /// are unaffected — they re-fill after completion, exactly as hardware
    /// would behave with an invalidate racing a walk.
    pub fn tlb_shootdown(&mut self, asid: Asid) {
        for c in &mut self.cores {
            if c.asid == asid {
                c.flush_tlb_asid(asid);
            }
        }
        self.xlat.shootdown(asid);
    }

    /// Flushes *all* translation structures after a page-table-entry
    /// modification (§5.2).
    pub fn pte_update_flush(&mut self) {
        for c in &mut self.cores {
            c.flush_volatile();
        }
        self.xlat.pte_update_flush();
    }

    /// Zeroes every statistics counter while leaving all architectural and
    /// cached state intact.
    ///
    /// Call after a warm-up period so measurements reflect steady state —
    /// in particular, MASK's epoch-based mechanisms (tokens, bypass
    /// decisions, Silver-queue quotas) only activate after the first
    /// 100K-cycle epoch.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new(self.n_apps, self.cfg.gpu.dram.channels);
        self.xlat.reset_stats();
    }

    /// Flushes all cached state (TLBs, caches) — the cost of a context
    /// switch in the time-multiplexing experiment (Fig. 1).
    pub fn flush_volatile(&mut self) {
        for c in &mut self.cores {
            c.flush_volatile();
        }
        self.xlat.flush_volatile();
        self.l2.flush();
    }

    /// Total instructions issued by one application.
    pub fn instructions(&self, app: usize) -> u64 {
        self.stats.apps[app].instructions
    }

    /// Number of applications.
    pub fn n_apps(&self) -> usize {
        self.n_apps
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Whether the current cycle is a safe snapshot point
    /// ([`MaskParams::is_epoch_safe`](mask_common::config::MaskParams::is_epoch_safe)).
    pub fn at_epoch_safe_point(&self) -> bool {
        self.cfg.gpu.mask.is_epoch_safe(self.now)
    }

    /// Encodes the full dynamic simulator state into a sealed snapshot
    /// carrying `key`.
    ///
    /// # Panics
    ///
    /// Panics when called off an epoch-safe point (see
    /// [`GpuSim::at_epoch_safe_point`]) — snapshots between epoch
    /// boundaries would silently invalidate prefix-key sharing.
    pub fn encode_snapshot(&self, key: mask_common::snapshot::PrefixKey) -> Vec<u8> {
        use mask_common::snapshot::Snapshot as _;
        assert!(
            self.at_epoch_safe_point(),
            "snapshot at cycle {} is not epoch-safe (epoch = {})",
            self.now,
            self.cfg.gpu.mask.epoch_cycles
        );
        let mut w = mask_common::snapshot::SnapshotWriter::new();
        self.snapshot(&mut w);
        w.seal(key)
    }

    /// Restores the dynamic state encoded in `bytes` into this simulator,
    /// which must have been freshly constructed from the same
    /// configuration and applications. Rejects snapshots sealed under a
    /// different [`mask_common::snapshot::PrefixKey`] than `key`.
    ///
    /// # Errors
    ///
    /// Any envelope or payload failure leaves the simulator unusable;
    /// discard it and fall back to simulating from cycle zero.
    pub fn restore_snapshot(
        &mut self,
        bytes: &[u8],
        key: mask_common::snapshot::PrefixKey,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        use mask_common::snapshot::Snapshot as _;
        let mut r = mask_common::snapshot::SnapshotReader::open_keyed(bytes, key)?;
        self.restore(&mut r)?;
        r.finish()
    }
}

impl mask_common::snapshot::Snapshot for GpuSim {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("gpu");
        w.u64(self.now);
        w.u64(self.next_req_id);
        self.stats.snapshot(w);
        w.seq(self.cores.len());
        for core in &self.cores {
            core.snapshot_at(self.now, w);
        }
        self.xlat.snapshot(w);
        self.l2.snapshot(w);
        self.dram.snapshot(w);
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        // Bind the structural replays performed by component restores
        // (MSHR mirrors, walker slots, conservation domains) to this
        // simulator's own sanitizer session.
        mask_obs::hooks::enter_session(self.san_session);
        r.section("gpu")?;
        self.now = r.u64()?;
        self.next_epoch = epoch_after(self.now, self.cfg.gpu.mask.epoch_cycles);
        self.next_req_id = r.u64()?;
        self.stats.restore(r)?;
        r.seq_exact(self.cores.len())?;
        for core in &mut self.cores {
            core.restore(r)?;
        }
        self.wake.all_due(self.now);
        self.xlat.restore(r)?;
        self.l2.restore(r)?;
        self.dram.restore(r)?;
        // Conservation: data-class requests below the cores were `issue`d
        // as "core-data" in the snapshotted session. Every outstanding one
        // is visible in the L2 exactly once (requests forwarded to DRAM
        // are copies whose originals remain as MSHR waiters); translation
        // requests were already re-issued by the translation unit from its
        // own outstanding-walk table.
        if cfg!(debug_assertions) {
            self.l2.for_each_in_flight(|req| {
                if req.class == RequestClass::Data {
                    mask_obs::hooks::issue(mask_obs::Domain::CoreData, req.id.0);
                }
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::config::DesignKind;
    use mask_workloads::app_by_name;

    fn sim(design: DesignKind, apps: &[(&str, usize)], cycles: u64) -> GpuSim {
        let mut cfg = SimConfig::new(design).with_max_cycles(cycles);
        cfg.gpu.n_cores = apps.iter().map(|(_, c)| c).sum();
        cfg.gpu.warps_per_core = 16; // keep unit tests fast
        let specs: Vec<AppSpec> = apps
            .iter()
            .map(|(name, c)| AppSpec {
                profile: app_by_name(name).expect("known app"),
                n_cores: *c,
            })
            .collect();
        GpuSim::new(&cfg, &specs)
    }

    #[test]
    fn single_app_makes_progress() {
        let mut s = sim(DesignKind::SharedTlb, &[("HISTO", 4)], 5_000);
        s.run_to_completion();
        s.sync_stats();
        let stats = s.stats();
        assert!(
            stats.apps[0].instructions > 1_000,
            "got {}",
            stats.apps[0].instructions
        );
        assert!(stats.apps[0].l1_tlb.accesses > 0);
        assert!(
            stats.apps[0].walks_completed > 0,
            "HISTO must trigger walks"
        );
    }

    #[test]
    fn ideal_beats_shared_tlb() {
        let mut ideal = sim(DesignKind::Ideal, &[("CONS", 4)], 10_000);
        let mut base = sim(DesignKind::SharedTlb, &[("CONS", 4)], 10_000);
        ideal.run_to_completion();
        base.run_to_completion();
        ideal.sync_stats();
        base.sync_stats();
        let i = ideal.stats().apps[0].ipc();
        let b = base.stats().apps[0].ipc();
        assert!(
            i > b,
            "ideal TLB ({i:.3} IPC) must outperform SharedTLB ({b:.3} IPC)"
        );
    }

    #[test]
    fn two_apps_share_the_gpu() {
        let mut s = sim(DesignKind::SharedTlb, &[("HISTO", 2), ("GUP", 2)], 8_000);
        s.run_to_completion();
        s.sync_stats();
        let st = s.stats();
        assert!(st.apps[0].instructions > 0);
        assert!(st.apps[1].instructions > 0);
        // Both applications used the DRAM.
        assert!(st.apps[0].dram_data.requests > 0);
        assert!(st.apps[1].dram_data.requests > 0);
    }

    #[test]
    fn translation_requests_traverse_memory_hierarchy() {
        let mut s = sim(DesignKind::SharedTlb, &[("SCAN", 4)], 8_000);
        s.run_to_completion();
        s.sync_stats();
        let st = s.stats();
        let xlat_probes: u64 = (0..4).map(|l| st.apps[0].l2_translation[l].accesses).sum();
        assert!(xlat_probes > 0, "walker requests must reach the L2 cache");
        assert!(st.apps[0].dram_translation.requests > 0, "and DRAM");
    }

    #[test]
    fn upper_walk_levels_hit_more_than_leaves() {
        let mut s = sim(DesignKind::SharedTlb, &[("CONS", 4)], 20_000);
        s.run_to_completion();
        s.sync_stats();
        let st = s.stats();
        let root = st.apps[0].l2_translation[0].hit_rate();
        let leaf = st.apps[0].l2_translation[3].hit_rate();
        assert!(
            root > leaf,
            "root PTE lines are shared (hit {root:.2}); leaf lines are not (hit {leaf:.2})"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = sim(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 3_000);
        let mut b = sim(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 3_000);
        a.run_to_completion();
        b.run_to_completion();
        a.sync_stats();
        b.sync_stats();
        assert_eq!(a.stats(), b.stats(), "simulation must be bit-reproducible");
    }

    #[test]
    fn mask_design_reports_tokens() {
        let mut s = sim(DesignKind::Mask, &[("CONS", 2), ("RED", 2)], 4_000);
        s.run_to_completion();
        s.sync_stats();
        let st = s.stats();
        assert!(st.apps[0].tokens_final > 0);
    }

    #[test]
    fn flush_volatile_preserves_progress() {
        let mut s = sim(DesignKind::SharedTlb, &[("HISTO", 2)], 4_000);
        s.run(2_000);
        let before = s.instructions(0);
        s.flush_volatile();
        s.run(2_000);
        assert!(
            s.instructions(0) > before,
            "execution continues after a flush"
        );
    }

    #[test]
    fn shootdown_degrades_then_recovers() {
        let mut s = sim(DesignKind::SharedTlb, &[("GUP", 2), ("HS", 2)], 30_000);
        s.run(10_000);
        s.sync_stats();
        let miss_before = s.stats().apps[0].l1_tlb.miss_rate();
        // Shoot down app 0's translations; its miss rate must spike while
        // app 1 is unaffected structurally.
        s.tlb_shootdown(Asid::new(0));
        s.reset_stats();
        s.run(2_000);
        s.sync_stats();
        let miss_after = s.stats().apps[0].l1_tlb.miss_rate();
        assert!(
            miss_after > miss_before,
            "shootdown must cause a refill burst ({miss_before:.3} -> {miss_after:.3})"
        );
        // Execution continues and recovers.
        s.run(10_000);
        s.sync_stats();
        assert!(s.stats().apps[0].instructions > 0);
        assert!(s.stats().apps[1].instructions > 0);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        use mask_common::snapshot::PrefixKey;
        let apps: &[(&str, usize)] = &[("HISTO", 2), ("GUP", 2)];
        let mut oracle = sim(DesignKind::Mask, apps, 6_000);
        oracle.run(6_000);
        oracle.sync_stats();

        let mut prefix = sim(DesignKind::Mask, apps, 6_000);
        prefix.run(3_000);
        let bytes = prefix.encode_snapshot(PrefixKey(7));

        let mut resumed = sim(DesignKind::Mask, apps, 6_000);
        resumed
            .restore_snapshot(&bytes, PrefixKey(7))
            .expect("restore");
        resumed.run(3_000);
        resumed.sync_stats();
        assert_eq!(oracle.stats(), resumed.stats(), "resume must be bit-exact");

        // The encoded state at the common end point must be byte-identical
        // too — stats equality alone could hide architectural divergence.
        assert_eq!(
            oracle.encode_snapshot(PrefixKey(7)),
            resumed.encode_snapshot(PrefixKey(7)),
        );
    }

    #[test]
    fn restore_rejects_wrong_key_and_garbage() {
        use mask_common::snapshot::PrefixKey;
        let apps: &[(&str, usize)] = &[("HISTO", 2)];
        let mut s = sim(DesignKind::SharedTlb, apps, 2_000);
        s.run(1_000);
        let bytes = s.encode_snapshot(PrefixKey(1));
        let mut fresh = sim(DesignKind::SharedTlb, apps, 2_000);
        assert!(fresh.restore_snapshot(&bytes, PrefixKey(2)).is_err());
        assert!(fresh
            .restore_snapshot(&bytes[..bytes.len() / 2], PrefixKey(1))
            .is_err());
    }

    #[test]
    fn wake_schedule_moves_a_core_between_its_slots() {
        let mut wake = WakeSchedule::new(70);
        assert_eq!(wake.words, 2);
        assert_eq!(wake.due(0, 0), u64::MAX);
        assert_eq!(wake.due(0, 1), (1 << 6) - 1, "cores 64..70");
        // Core 3 sleeps until cycle 9, core 65 parks, core 5 asks for more
        // than the wheel reaches and is due at the horizon instead.
        wake.set(3, 9, 0);
        wake.set(65, Cycle::MAX, 0);
        wake.set(5, 1_000, 0);
        assert_eq!(wake.due(0, 0), !(1 << 3 | 1 << 5));
        assert_eq!(wake.due(9, 0), 1 << 3);
        assert_eq!(wake.at[5], WAKE_HORIZON - 1);
        assert_eq!(wake.due(WAKE_HORIZON - 1, 0), 1 << 5);
        assert_eq!((wake.parked[0], wake.parked[1]), (0, 1 << 1));
        // Rousing the sleeper and the parked core makes both due next cycle.
        wake.set(3, 5, 4);
        wake.set(65, 5, 4);
        assert_eq!((wake.due(9, 0), wake.due(5, 0)), (0, 1 << 3));
        assert_eq!((wake.due(5, 1), wake.parked[1]), (1 << 1, 0));
        for core in 0..70 {
            wake.set(core, Cycle::MAX, 5);
        }
        assert_eq!(wake.parked, [u64::MAX, (1 << 6) - 1]);
        assert!(wake.wheel.iter().all(|&slot| slot == 0));
        wake.all_due(77);
        assert_eq!(wake.due(77, 1), (1 << 6) - 1);
        assert!(wake.at.iter().all(|&at| at == 77));
    }

    #[test]
    fn statistics_are_current_while_bursts_sleep() {
        // One instruction per core per cycle while nothing stalls: were a
        // sleeping burst credited at its end, a mid-burst read would lag.
        let mut s = sim(DesignKind::Ideal, &[("NW", 2), ("HS", 2)], 1_000);
        for cycle in 1..=40 {
            s.step();
            let st = s.stats();
            let issued: u64 = st
                .apps
                .iter()
                .map(|a| a.instructions + a.stall_cycles)
                .sum();
            assert_eq!(issued, 4 * cycle, "after cycle {cycle}");
        }
        assert!(
            s.wake.at.iter().any(|&at| at > s.now + 1),
            "NW and HS compute for 12+ cycles per memory instruction: some burst sleeps"
        );
    }

    /// Red test for the `core-wake` premise check: a core with ready warps
    /// marked as parked would count stalls while it should issue.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a skipped core must be idle (parked)")]
    fn parking_a_core_with_a_ready_warp_trips_the_sanitizer() {
        let mut s = sim(DesignKind::SharedTlb, &[("HISTO", 4)], 1_000);
        s.run(10);
        s.wake.set(2, Cycle::MAX, s.now);
        s.step();
    }

    #[test]
    #[should_panic(expected = "core counts must cover the GPU")]
    fn mismatched_core_counts_panic() {
        let mut cfg = SimConfig::new(DesignKind::SharedTlb);
        cfg.gpu.n_cores = 8;
        let _ = GpuSim::new(
            &cfg,
            &[AppSpec {
                profile: app_by_name("GUP").expect("known"),
                n_cores: 4,
            }],
        );
    }
}
