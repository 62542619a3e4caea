//! The top-level cycle loop: cores + translation + shared L2 + DRAM.

use crate::core_model::{DirectIssue, GpuCore, MAX_WARPS_PER_CORE};
use crate::translation::{ResolvedTranslation, TranslationUnit};
use mask_cache::l2::{L2Outcome, L2Response};
use mask_cache::SharedL2Cache;
use mask_common::config::{
    ComputePolicy, DesignSpec, DramPolicy, GpuConfig, SimConfig, TranslationPath,
};
use mask_common::ids::{Asid, CoreId, WarpId};
use mask_common::req::{MemRequest, RequestClass};
use mask_common::snapshot::{PrefixKey, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use mask_common::stats::SimStats;
use mask_common::Cycle;
use mask_dram::{Dram, DramCompletion, RowOutcome};
use mask_obs::profile::SimStage;
use mask_obs::QueueKind;
use mask_workloads::AppProfile;

/// One application's placement in a simulation.
#[derive(Clone, Copy, Debug)]
pub struct AppSpec {
    /// The workload to run, by value: a job is keyed by these parameters
    /// (every profile by its `Debug` rendering), not by the name alone.
    pub profile: AppProfile,
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
/// Derived state: a snapshot does not encode it.
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
    /// `reset_stats`, `flush_volatile` and `tlb_shootdown` change no warp's
    /// readiness and no retry queue, so they do not touch it.
    wake: WakeSchedule,
    /// Which cores each application owns, as bit masks over 64-core words:
    /// word `w` of application `a` is `app_cores[a * wake.words + w]`. The
    /// bulk credit is a population count per application, not an add per
    /// core.
    app_cores: Vec<u64>,
    /// Reusable scratch buffer for L2-bound requests.
    scratch_l2: Vec<MemRequest>,
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

/// Whether `gpu` can run `n_apps` applications under `design`, and if not,
/// why: every core holds 1..=[`MAX_WARPS_PER_CORE`] warps, and a design
/// that splits the DRAM channels, or each channel's banks, among two or
/// more applications has one per application. [`GpuSim::new`] asserts it;
/// a service checks it before it admits a job.
///
/// # Errors
///
/// The first limit the machine breaks, as a sentence.
pub fn check_machine(gpu: &GpuConfig, design: DesignSpec, n_apps: usize) -> Result<(), String> {
    let warps = gpu.warps_per_core;
    if !(1..=MAX_WARPS_PER_CORE).contains(&warps) {
        return Err(format!(
            "a core holds 1..={MAX_WARPS_PER_CORE} warps, not {warps}"
        ));
    }
    let split = match design.dram {
        DramPolicy::ChannelPartitioned => Some(("DRAM channels", gpu.dram.channels)),
        DramPolicy::BankColored => Some(("DRAM banks per channel", gpu.dram.banks_per_channel)),
        DramPolicy::Shared | DramPolicy::MaskQueues => None,
    };
    match split {
        Some((what, have)) if n_apps > 1 && n_apps > have => Err(format!(
            "the design splits {have} {what} among the applications, fewer than {n_apps}"
        )),
        _ => Ok(()),
    }
}

/// Writes the two gauges read off `xlat`'s current state into `stats`:
/// each app's tokens held and walks started (completed plus in flight).
/// Every counter is counted where its event happens, not here.
fn sync_gauges(xlat: &TranslationUnit, stats: &mut SimStats) {
    for (app, s) in stats.apps.iter_mut().enumerate() {
        let asid = Asid::new(app as u16);
        s.tokens_final = xlat.tokens_for(asid);
        s.walks_started = s.walks_completed + xlat.concurrent_walks(asid) as u64;
    }
}

impl GpuSim {
    /// Builds a simulator placing `apps` on consecutive core ranges.
    ///
    /// # Panics
    ///
    /// Panics if the core counts do not sum to the configured core count,
    /// if `apps` is empty, or if [`check_machine`] refuses the machine.
    pub fn new(cfg: &SimConfig, apps: &[AppSpec]) -> Self {
        // Give each simulator its own sanitizer session so that sims built
        // side by side (determinism tests) keep separate accounting.
        let san_session = mask_obs::hooks::new_session();
        mask_obs::hooks::enter_session(san_session);
        assert!(!apps.is_empty(), "at least one application required");
        let total: usize = apps.iter().map(|a| a.n_cores).sum();
        assert_eq!(total, cfg.gpu.n_cores, "core counts must cover the GPU");
        let n_apps = apps.len();
        check_machine(&cfg.gpu, cfg.design, n_apps).expect("the machine runs the mix");
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
            // The first epoch ends at its length; `Cycle::MAX` when there
            // are no epochs.
            next_epoch: match cfg.gpu.mask.epoch_cycles {
                0 => Cycle::MAX,
                epoch => epoch,
            },
            next_req_id: 0,
            n_apps,
            wake: WakeSchedule::new(cfg.gpu.n_cores),
            app_cores,
            scratch_l2: Vec::new(),
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

    /// Writes the two gauges derived from current state, `tokens_final` and
    /// `walks_started`, into the statistics block. Call after running (and
    /// before [`GpuSim::stats`]) so they reflect the machine's current
    /// state.
    pub fn sync_stats(&mut self) {
        sync_gauges(&self.xlat, &mut self.stats);
    }

    /// Simulation statistics collected so far. Every counter is current;
    /// the gauges `tokens_final` and `walks_started` are only as fresh as
    /// the last [`GpuSim::sync_stats`] call. The split lets the job engine
    /// (and any other reader) snapshot results without mutable access.
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
        let mut resolved = std::mem::take(&mut self.scratch_resolved);
        self.xlat.tick(
            now,
            &mut self.next_req_id,
            &mut self.scratch_l2,
            &mut self.stats.apps,
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
                        &mut self.stats.apps,
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
        // Queue-depth sampling (deduplicated per thread inside the hook);
        // the depth computations are skipped entirely when tracing is off.
        if traced {
            mask_obs::hooks::queue_depth(QueueKind::L2, self.l2.queued() as u32);
            mask_obs::hooks::queue_depth(QueueKind::Dram, self.dram.queued() as u32);
            mask_obs::hooks::queue_depth(QueueKind::DramInFlight, self.dram.in_flight() as u32);
            mask_obs::hooks::queue_depth(QueueKind::Walker, self.xlat.walker_demand() as u32);
        }
        // 7. Per-cycle sampling.
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

    /// Stage 8 of `step`: end-of-epoch work, on the cycle `now` reaches a
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
    /// copy of the statistics block with the gauges synced. The
    /// live block stays as an untraced run leaves it, so traced machine
    /// state, snapshots included, is bit-identical to untraced.
    fn emit_epoch_metrics(&mut self) {
        let xlat = &self.xlat;
        self.obs.on_epoch(self.now, &self.stats, |stats| {
            sync_gauges(xlat, stats);
        });
    }

    /// Runs for `cycles` additional cycles.
    pub fn run(&mut self, cycles: u64) {
        let end = self.now + cycles;
        while self.now < end {
            self.step();
        }
    }

    /// Does nothing. It switched the whole-GPU idle fast-forward, which is
    /// gone; the name stays only because `benchmark/src/gpu_layer.rs`
    /// still calls it. ROADMAP item 5 deletes it with that call.
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

    /// Zeroes every statistics counter while leaving all architectural and
    /// cached state intact.
    ///
    /// Call after a warm-up period so measurements reflect steady state —
    /// in particular, MASK's epoch-based mechanisms (tokens, bypass
    /// decisions, Silver-queue quotas) only activate after the first
    /// 100K-cycle epoch.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new(self.n_apps, self.cfg.gpu.dram.channels);
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

    /// Encodes the full dynamic simulator state into a sealed snapshot
    /// carrying `key`. Any cycle between two steps will do: every per-step
    /// scratch vector is empty there.
    pub fn encode_snapshot(&self, key: PrefixKey) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.snapshot(&mut w);
        w.seal(key)
    }

    /// Brings this simulator to the state sealed in `bytes`. It must be
    /// fresh (cycle 0) and built from the same configuration and
    /// applications as the simulator that encoded `bytes`.
    ///
    /// The simulator is deterministic, so the state is replayed, not
    /// decoded: after the envelope checks (key, magic, version, length,
    /// checksum) only the cycle count is read, the simulator runs that
    /// far, and the result stands only if it encodes to `bytes` exactly.
    ///
    /// # Errors
    ///
    /// Any envelope failure, before anything is simulated.
    /// [`SnapshotError::Malformed`] for a simulator that has already run or
    /// a cycle count past `max_cycles`, also before anything is simulated,
    /// and for a replay that does not reproduce `bytes` (a snapshot of a
    /// machine that was not only run, or of another configuration). After that last error the simulator
    /// has run; discard it.
    pub fn restore_snapshot(&mut self, bytes: &[u8], key: PrefixKey) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::open_keyed(bytes, key)?;
        r.section("gpu")?;
        let cycle = r.u64()?;
        if self.now != 0 {
            return Err(SnapshotError::Malformed("replay needs a fresh simulator"));
        }
        if cycle > self.cfg.max_cycles {
            return Err(SnapshotError::Malformed("snapshot cycle out of range"));
        }
        self.run(cycle);
        if self.encode_snapshot(key) != bytes {
            return Err(SnapshotError::Malformed(
                "replay does not reproduce the snapshot",
            ));
        }
        Ok(())
    }
}

impl Snapshot for GpuSim {
    fn snapshot(&self, w: &mut SnapshotWriter) {
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
        s.run(5_000);
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
        ideal.run(10_000);
        base.run(10_000);
        ideal.sync_stats();
        base.sync_stats();
        let i = ideal.stats().apps[0].ipc().expect("cycles ran");
        let b = base.stats().apps[0].ipc().expect("cycles ran");
        assert!(
            i > b,
            "ideal TLB ({i:.3} IPC) must outperform SharedTLB ({b:.3} IPC)"
        );
    }

    #[test]
    fn two_apps_share_the_gpu() {
        let mut s = sim(DesignKind::SharedTlb, &[("HISTO", 2), ("GUP", 2)], 8_000);
        s.run(8_000);
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
        s.run(8_000);
        s.sync_stats();
        let st = s.stats();
        let xlat_probes: u64 = (0..4).map(|l| st.apps[0].l2_translation[l].accesses).sum();
        assert!(xlat_probes > 0, "walker requests must reach the L2 cache");
        assert!(st.apps[0].dram_translation.requests > 0, "and DRAM");
    }

    #[test]
    fn upper_walk_levels_hit_more_than_leaves() {
        let mut s = sim(DesignKind::SharedTlb, &[("CONS", 4)], 20_000);
        s.run(20_000);
        s.sync_stats();
        let st = s.stats();
        let root = st.apps[0].l2_translation[0]
            .hit_rate()
            .expect("root probed");
        let leaf = st.apps[0].l2_translation[3]
            .hit_rate()
            .expect("leaf probed");
        assert!(
            root > leaf,
            "root PTE lines are shared (hit {root:.2}); leaf lines are not (hit {leaf:.2})"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = sim(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 3_000);
        let mut b = sim(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 3_000);
        a.run(3_000);
        b.run(3_000);
        a.sync_stats();
        b.sync_stats();
        assert_eq!(a.stats(), b.stats(), "simulation must be bit-reproducible");
    }

    #[test]
    fn mask_design_reports_tokens() {
        let mut s = sim(DesignKind::Mask, &[("CONS", 2), ("RED", 2)], 4_000);
        s.run(4_000);
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
        let miss_before = s.stats().apps[0].l1_tlb.miss_rate().expect("probed");
        // Shoot down app 0's translations; its miss rate must spike while
        // app 1 is unaffected structurally.
        s.tlb_shootdown(Asid::new(0));
        s.reset_stats();
        s.run(2_000);
        s.sync_stats();
        let miss_after = s.stats().apps[0].l1_tlb.miss_rate().expect("probed");
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
