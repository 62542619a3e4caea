//! The deterministic **plan → execute → assemble** simulation engine.
//!
//! Every paper artefact is a set of *independent* simulations: a
//! [`GpuSim`](mask_gpu::GpuSim) owns its whole machine state, is `Send`,
//! and never observes anything outside itself — the experiment suite is
//! embarrassingly parallel. This module centralizes that parallelism:
//!
//! 1. **plan** — callers (the [`PairRunner`](crate::runner::PairRunner)
//!    batch entry points and the experiment harnesses) describe whole
//!    workload sets as [`SimJob`] lists and submit them in one call;
//! 2. **execute** — a [`JobPool`] deduplicates jobs by their canonical
//!    [`JobKey`], resolves alone-baseline jobs from a process-wide
//!    [`BaselineCache`], and fans the remaining unique jobs out over
//!    `std::thread::scope` workers;
//! 3. **assemble** — results come back indexed by submission order, so
//!    the output of any batch is **byte-identical at every worker count**
//!    (each job is a closed deterministic state machine; scheduling can
//!    only reorder wall-clock execution, never results).
//!
//! Worker count: an explicit [`JobOptions`] request, else the `MASK_JOBS`
//! environment variable, else the machine's available parallelism. `1`
//! runs jobs serially on the calling thread (no threads are spawned).
//!
//! The sanitizer (`mask-sanitizer`) keeps its accounting in thread-local
//! sessions; each job builds and runs its simulator entirely on one worker
//! thread, so sanitized parallel batches keep per-simulation accounting
//! exactly as isolated as serial ones.
//!
//! This is the only module in the simulator crates allowed to use thread
//! primitives (`std::thread`, `Mutex`, atomics) — `cargo xtask lint`
//! enforces the boundary with the `parallelism` rule.

use mask_common::config::{
    snapshot_cap_override, snapshot_dir_override, DesignKind, DesignSpec, GpuConfig, JobOptions,
    SimConfig,
};
use mask_common::snapshot::{Fnv1a, PrefixKey};
use mask_common::stats::SimStats;
use mask_common::store::EnvelopeStore;
use mask_gpu::{AppSpec, GpuSim};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One self-contained simulation: a design, an application placement, and
/// a cycle budget. Jobs with equal [`JobKey`]s produce bit-identical
/// statistics and are simulated at most once per batch (alone-baseline
/// jobs: at most once per *process*, via the [`BaselineCache`]).
#[derive(Clone, Debug)]
pub struct SimJob {
    /// The design to simulate.
    pub design: DesignKind,
    /// Application placement; core counts determine the GPU size.
    pub specs: Vec<AppSpec>,
    /// Total cycles to simulate.
    pub max_cycles: u64,
    /// Warm-up cycles excluded from measurement (clamped to at most half
    /// of `max_cycles`, exactly as the serial runner always did).
    pub warmup_cycles: u64,
    /// Base PRNG seed.
    pub seed: u64,
    /// Machine template (its `n_cores` is overridden by the placement).
    pub gpu: GpuConfig,
}

/// Canonical deduplication key of a [`SimJob`].
///
/// Two jobs compare equal exactly when they would simulate the same
/// machine on the same placement for the same cycles — the machine
/// configuration is folded in via its complete `Debug` rendering, so a
/// sensitivity sweep that tweaks any `GpuConfig` knob gets distinct keys.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct JobKey {
    /// The *spec*, not the preset name: two named presets with identical
    /// policy axes would dedup to one simulation, and distinct specs
    /// (e.g. `NoIsolation` vs `SharedTlb`, which differ only in compute
    /// partitioning) never collapse.
    design: DesignSpec,
    apps: Vec<(&'static str, usize)>,
    max_cycles: u64,
    warmup_cycles: u64,
    seed: u64,
    gpu: String,
}

impl SimJob {
    /// The job's canonical deduplication key.
    #[must_use]
    pub fn key(&self) -> JobKey {
        self.key_with(self.max_cycles, self.warmup_cycles, &self.gpu)
    }

    /// The key of this design, placement and seed under the given cycle
    /// budgets and machine ([`SimJob::key`], or a view of it).
    fn key_with(&self, max_cycles: u64, warmup_cycles: u64, gpu: &GpuConfig) -> JobKey {
        JobKey {
            design: self.design.spec(),
            apps: self
                .specs
                .iter()
                .map(|s| (s.profile.name, s.n_cores))
                .collect(),
            max_cycles,
            warmup_cycles,
            seed: self.seed,
            gpu: format!("{gpu:?}"),
        }
    }

    /// Whether this is an alone-baseline run (a single application), the
    /// class of jobs memoized process-wide.
    #[must_use]
    pub fn is_alone(&self) -> bool {
        self.specs.len() == 1
    }

    /// Runs the simulation to completion and snapshots its statistics,
    /// measured after the warm-up window.
    #[must_use]
    pub fn run(&self) -> SimStats {
        let mut sim = self.build_sim();
        sim.run(self.warmup_eff());
        self.finish_measured(sim)
    }

    /// Like [`SimJob::run`], but with the warm-up phase served from
    /// `prefix` when possible: the first job per [`PrefixKey`] simulates
    /// its warm-up exactly once and publishes a sealed snapshot; every
    /// later job restores from those bytes and runs only the measured
    /// phase. Restore-then-run is bit-identical to the straight-through
    /// simulation, so results cannot depend on whether a snapshot was
    /// reused. Falls back to the plain path when the job has no warm-up or
    /// its warm-up endpoint is not epoch-safe, and re-runs from cycle zero
    /// if a (disk-loaded) snapshot fails to restore.
    #[must_use]
    pub fn run_with_prefix(&self, prefix: &PrefixCache) -> SimStats {
        let warmup = self.warmup_eff();
        if warmup == 0 || !self.warmup_is_epoch_safe() {
            return self.run();
        }
        let key = self.prefix_key();
        let cell = prefix.cell(key);
        let mut warmed: Option<GpuSim> = None;
        let mut simulated = false;
        let bytes = cell.get_or_init(|| {
            // A stored snapshot that fails envelope validation degrades to
            // re-simulation instead of poisoning the in-memory cell.
            if let Some(bytes) = prefix.disk.as_ref().and_then(|d| d.load(key)) {
                return Arc::new(bytes);
            }
            simulated = true;
            let mut sim = self.build_sim();
            sim.run(warmup);
            let bytes = sim.encode_snapshot(key);
            if let Some(disk) = &prefix.disk {
                disk.store(key, &bytes);
            }
            warmed = Some(sim);
            Arc::new(bytes)
        });
        if simulated {
            prefix.note_miss();
        } else {
            prefix.note_hit();
        }
        let sim = match warmed {
            // The winner keeps its live warmed simulator — restoring its
            // own snapshot would only re-derive the state it already has.
            Some(sim) => sim,
            None => {
                let mut fresh = self.build_sim();
                match fresh.restore_snapshot(bytes, key) {
                    Ok(()) => fresh,
                    Err(_) => {
                        // A failed restore leaves `fresh` unusable; a
                        // damaged snapshot must only cost wall clock,
                        // never change results.
                        let mut cold = self.build_sim();
                        cold.run(warmup);
                        cold
                    }
                }
            }
        };
        self.finish_measured(sim)
    }

    /// The warm-up prefix key: FNV-1a over the `Debug` rendering of the
    /// *warm-up view* of [`SimJob::key`] — the same canonical description
    /// of the job, with everything that provably cannot influence the first
    /// `warmup` cycles normalised away: `max_cycles` is dropped, the warm-up
    /// length is the effective one, the machine is sized by the placement
    /// as [`SimJob::build_sim`] sizes it, and, when the warm-up ends before
    /// the first epoch boundary, the epoch-end-only MASK knobs are reset
    /// ([`MaskParams::reset_epoch_end_only`](mask_common::config::MaskParams::reset_epoch_end_only)).
    /// Everything else — any field `GpuConfig` has or gains — is in the key
    /// by construction. Jobs with equal keys reach bit-identical machine
    /// state at the end of warm-up.
    #[must_use]
    pub fn prefix_key(&self) -> PrefixKey {
        let warmup = self.warmup_eff();
        let mut gpu = self.sized_gpu();
        if gpu.mask.epoch_cycles == 0 || warmup < gpu.mask.epoch_cycles {
            gpu.mask.reset_epoch_end_only();
        }
        let view = self.key_with(0, warmup, &gpu);
        let mut h = Fnv1a::new();
        h.write(format!("{view:?}").as_bytes());
        PrefixKey(h.finish())
    }

    /// Whether the end of the warm-up phase lands on an epoch-safe
    /// snapshot point (an epoch boundary, or anywhere before the first
    /// one). Only such warm-ups may be shared through the [`PrefixCache`].
    #[must_use]
    pub fn warmup_is_epoch_safe(&self) -> bool {
        let warmup = self.warmup_eff();
        let epoch = self.gpu.mask.epoch_cycles;
        epoch == 0 || warmup < epoch || warmup.is_multiple_of(epoch)
    }

    /// The effective warm-up length: clamped to at most half of
    /// `max_cycles`, exactly as the serial runner always did.
    fn warmup_eff(&self) -> u64 {
        self.warmup_cycles.min(self.max_cycles / 2)
    }

    /// The machine this job simulates: the template with `n_cores`
    /// overridden by the placement's total.
    fn sized_gpu(&self) -> GpuConfig {
        let mut gpu = self.gpu.clone();
        gpu.n_cores = self.specs.iter().map(|s| s.n_cores).sum();
        gpu
    }

    /// Builds the simulator this job describes, at cycle zero.
    fn build_sim(&self) -> GpuSim {
        let cfg = SimConfig {
            gpu: self.sized_gpu(),
            design: self.design.spec(),
            max_cycles: self.max_cycles,
            seed: self.seed,
        };
        GpuSim::new(&cfg, &self.specs)
    }

    /// Runs the measured phase on a simulator positioned at the end of
    /// warm-up and snapshots its statistics.
    fn finish_measured(&self, mut sim: GpuSim) -> SimStats {
        sim.reset_stats();
        sim.run(self.max_cycles - self.warmup_eff());
        sim.sync_stats();
        sim.stats().clone()
    }
}

/// Runs one job with an engine-timeline span around it (`mask-obs` job
/// profiling; the span label and timing cost nothing unless tracing is
/// live).
fn run_one_timed(job: &SimJob, lane: u32, prefix: Option<&PrefixCache>) -> SimStats {
    let timer = mask_obs::profile::begin_job();
    let out = match prefix {
        Some(cache) => job.run_with_prefix(cache),
        None => job.run(),
    };
    if mask_obs::tracing_active() {
        timer.finish(&job_label(job), lane);
    }
    out
}

/// Short human-readable label for a job's engine-timeline span.
fn job_label(job: &SimJob) -> String {
    use fmt::Write;
    let mut s = format!("{:?}", job.design);
    for spec in &job.specs {
        let _ = write!(s, " {}x{}", spec.profile.name, spec.n_cores);
    }
    s
}

/// Counters describing one [`BaselineCache`]'s effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct alone-baseline simulations held.
    pub entries: usize,
    /// Lookups answered from the cache (simulations avoided).
    pub hits: u64,
    /// Lookups that had to simulate (one per distinct entry).
    pub misses: u64,
}

#[derive(Default)]
struct CacheInner {
    map: BTreeMap<JobKey, SimStats>,
    hits: u64,
    misses: u64,
}

/// Process-wide memo of alone-baseline simulations.
///
/// `IPC_alone` baselines are design-dependent but pair-independent, and the
/// oracle scheduler's probe runs re-derive the same baselines again at probe
/// length — so one cache shared by every experiment (and every probe)
/// guarantees each unique `(design, placement, cycles, seed, machine)`
/// alone run is simulated exactly once per process. Tests that need exact
/// accounting can attach a private cache via [`JobPool::with_cache`].
#[derive(Default)]
pub struct BaselineCache {
    inner: Mutex<CacheInner>,
}

impl BaselineCache {
    /// Creates an empty cache behind the shared handle [`JobPool`] expects.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(BaselineCache::default())
    }

    /// Hit/miss/occupancy counters.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the cache lock.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("baseline cache lock poisoned");
        CacheStats {
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
        }
    }

    fn lookup(&self, key: &JobKey) -> Option<SimStats> {
        let mut inner = self.inner.lock().expect("baseline cache lock poisoned");
        match inner.map.get(key).cloned() {
            Some(stats) => {
                inner.hits += 1;
                Some(stats)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn insert(&self, key: JobKey, stats: SimStats) {
        let mut inner = self.inner.lock().expect("baseline cache lock poisoned");
        inner.map.insert(key, stats);
    }
}

/// The process-wide [`BaselineCache`] every default [`JobPool`] shares.
#[must_use]
pub fn process_cache() -> Arc<BaselineCache> {
    static CACHE: OnceLock<Arc<BaselineCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(BaselineCache::new))
}

/// Counters describing one [`PrefixCache`]'s effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Distinct warm-up prefixes tracked (each simulated at most once per
    /// process, or zero times when served from the on-disk store).
    pub entries: usize,
    /// Jobs whose warm-up was answered by an existing snapshot (warm-up
    /// simulations avoided, whether from memory or disk).
    pub hits: u64,
    /// Jobs that had to simulate their warm-up (one per prefix not found
    /// on disk).
    pub misses: u64,
}

struct PrefixInner {
    map: BTreeMap<PrefixKey, Arc<OnceLock<Arc<Vec<u8>>>>>,
    hits: u64,
    misses: u64,
}

/// Process-wide store of sealed warm-up snapshots, keyed by
/// [`SimJob::prefix_key`].
///
/// A sweep varies measurement-phase knobs around a common warm-up; this
/// cache makes each unique warm-up prefix run exactly once — concurrent
/// jobs with the same key block on one `OnceLock` cell, the winner
/// simulates and seals the snapshot, everyone else restores from the
/// bytes. With `MASK_SNAPSHOT_DIR` set, snapshots are also persisted in an
/// [`EnvelopeStore`] and reloaded by later processes, amortizing warm-up
/// across whole sweep invocations.
pub struct PrefixCache {
    inner: Mutex<PrefixInner>,
    disk: Option<EnvelopeStore>,
}

impl PrefixCache {
    /// An in-memory cache backed by the on-disk store at `dir` (`None`:
    /// in-memory only), keeping at most `cap` snapshots on disk
    /// (least-recently-used evicted first; `None` = unbounded), behind the
    /// shared handle [`JobPool`] expects.
    #[must_use]
    pub fn with_store(dir: Option<PathBuf>, cap: Option<usize>) -> Arc<Self> {
        Arc::new(PrefixCache {
            inner: Mutex::new(PrefixInner {
                map: BTreeMap::new(),
                hits: 0,
                misses: 0,
            }),
            disk: dir.map(|dir| EnvelopeStore::open(dir, cap)),
        })
    }

    /// A purely in-memory cache (no on-disk store); what tests that assert
    /// exact warm-up counts attach via [`JobPool::with_prefix_cache`].
    #[must_use]
    pub fn in_memory() -> Arc<Self> {
        Self::with_store(None, None)
    }

    /// A cache whose on-disk store follows the `MASK_SNAPSHOT_DIR`
    /// environment variable (unset: in-memory only), capped at
    /// `MASK_SNAPSHOT_CAP` snapshots (unset or unparsable: unbounded).
    #[must_use]
    pub fn from_env() -> Arc<Self> {
        Self::with_store(snapshot_dir_override(), snapshot_cap_override())
    }

    /// Hit/miss/occupancy counters.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the cache lock.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        let inner = self.inner.lock().expect("prefix cache lock poisoned");
        PrefixCacheStats {
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
        }
    }

    /// The shared once-cell for `key`; its winner simulates the warm-up.
    fn cell(&self, key: PrefixKey) -> Arc<OnceLock<Arc<Vec<u8>>>> {
        let mut inner = self.inner.lock().expect("prefix cache lock poisoned");
        Arc::clone(inner.map.entry(key).or_default())
    }

    fn note_hit(&self) {
        self.inner.lock().expect("prefix cache lock poisoned").hits += 1;
    }

    fn note_miss(&self) {
        self.inner
            .lock()
            .expect("prefix cache lock poisoned")
            .misses += 1;
    }
}

/// The process-wide [`PrefixCache`] every default [`JobPool`] shares,
/// configured from `MASK_SNAPSHOT_DIR` at first use.
#[must_use]
pub fn process_prefix_cache() -> Arc<PrefixCache> {
    static CACHE: OnceLock<Arc<PrefixCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(PrefixCache::from_env))
}

/// One worker's locally collected results, tagged by work index.
type WorkerResults = Vec<(usize, SimStats)>;

/// Executes [`SimJob`] batches over a fixed number of worker threads.
///
/// Cheap to clone: clones share the same baseline cache.
#[derive(Clone)]
pub struct JobPool {
    workers: usize,
    cache: Arc<BaselineCache>,
    prefix: Arc<PrefixCache>,
    reuse_prefix: bool,
}

impl fmt::Debug for JobPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobPool")
            .field("workers", &self.workers)
            .field("cache", &self.cache.stats())
            .field("prefix", &self.prefix.stats())
            .field("reuse_prefix", &self.reuse_prefix)
            .finish()
    }
}

impl JobPool {
    /// A pool honoring `MASK_JOBS` / available parallelism, sharing the
    /// process-wide baseline cache.
    #[must_use]
    pub fn from_env() -> Self {
        Self::with_options(JobOptions::default())
    }

    /// A pool with `opts`' worker policy (explicit request, else
    /// `MASK_JOBS`, else available parallelism).
    #[must_use]
    pub fn with_options(opts: JobOptions) -> Self {
        let workers = opts.requested().unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        JobPool {
            workers: workers.max(1),
            cache: process_cache(),
            prefix: process_prefix_cache(),
            reuse_prefix: true,
        }
    }

    /// A pool with exactly `n` workers (`1` = serial).
    #[must_use]
    pub fn with_workers(n: usize) -> Self {
        Self::with_options(JobOptions::with_workers(n))
    }

    /// Replaces the baseline cache (e.g. with a private one in tests that
    /// assert exact simulation counts).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<BaselineCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the prefix cache (e.g. with a private one in tests that
    /// assert exact warm-up counts, or one bound to a specific snapshot
    /// directory).
    #[must_use]
    pub fn with_prefix_cache(mut self, prefix: Arc<PrefixCache>) -> Self {
        self.prefix = prefix;
        self
    }

    /// Enables or disables warm-up prefix reuse (default: enabled).
    /// Results are bit-identical either way — disabling only forces every
    /// job to re-simulate its warm-up, which is what the reuse benchmark
    /// measures against.
    #[must_use]
    pub fn with_prefix_reuse(mut self, reuse: bool) -> Self {
        self.reuse_prefix = reuse;
        self
    }

    /// The worker count this pool fans out over.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The alone-baseline cache this pool consults.
    #[must_use]
    pub fn cache(&self) -> &Arc<BaselineCache> {
        &self.cache
    }

    /// The warm-up prefix cache this pool consults.
    #[must_use]
    pub fn prefix_cache(&self) -> &Arc<PrefixCache> {
        &self.prefix
    }

    /// One-line human-readable completion summary: worker count plus the
    /// baseline- and prefix-cache counters, stating how many simulations
    /// (whole alone runs, warm-up phases) the caches avoided.
    #[must_use]
    pub fn completion_summary(&self) -> String {
        let b = self.cache.stats();
        let p = self.prefix.stats();
        format!(
            "[mask-core] job pool: {} worker(s); baseline cache: {} entries, \
             {} hit(s) / {} miss(es); prefix cache: {} snapshot(s), \
             {} warm-up(s) reused / {} simulated",
            self.workers, b.entries, b.hits, b.misses, p.entries, p.hits, p.misses
        )
    }

    /// Runs a batch and returns one [`SimStats`] per job, in submission
    /// order. Equal-keyed jobs are simulated once; alone-baseline jobs are
    /// additionally served from (and recorded in) the baseline cache.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a job (e.g. a sanitizer violation) on the
    /// calling thread, payload intact.
    #[must_use]
    pub fn run_batch(&self, jobs: &[SimJob]) -> Vec<SimStats> {
        // Trace bookkeeping for the `job_pool` metrics frame (see
        // `mask-obs`); both values stay `None` unless tracing is live.
        let trace = mask_obs::tracing_active();
        let batch_start = trace.then(std::time::Instant::now); // lint: allow(nondeterminism) -- profiling only, never read by the simulation
        let cache_before = trace.then(|| self.cache.stats());
        let prefix_before = trace.then(|| self.prefix.stats());
        // Plan: collapse equal-keyed jobs, answer alone runs from cache.
        let mut results: Vec<Option<SimStats>> = vec![None; jobs.len()];
        let mut unique: BTreeMap<JobKey, Vec<usize>> = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            unique.entry(job.key()).or_default().push(i);
        }
        let n_unique = unique.len();
        let mut work: Vec<(&SimJob, Vec<usize>)> = Vec::new();
        for (key, idxs) in unique {
            let job = &jobs[idxs[0]];
            if job.is_alone() {
                if let Some(stats) = self.cache.lookup(&key) {
                    for &i in &idxs {
                        results[i] = Some(stats.clone());
                    }
                    continue;
                }
            }
            work.push((job, idxs));
        }
        // Execute: fan the unique jobs out; output is keyed by work index,
        // so worker scheduling cannot affect what callers observe.
        let outputs = self.execute(&work);
        // Assemble: scatter each unique result to every submitting slot.
        for ((job, idxs), stats) in work.iter().zip(outputs) {
            if job.is_alone() {
                self.cache.insert(job.key(), stats.clone());
            }
            for &i in idxs {
                results[i] = Some(stats.clone());
            }
        }
        if let (Some(start), Some(before), Some(p_before)) =
            (batch_start, cache_before, prefix_before)
        {
            let after = self.cache.stats();
            let p_after = self.prefix.stats();
            mask_obs::metrics::job_pool_frame(
                self.workers,
                jobs.len(),
                n_unique,
                after.hits.saturating_sub(before.hits),
                after.misses.saturating_sub(before.misses),
                p_after.hits.saturating_sub(p_before.hits),
                p_after.misses.saturating_sub(p_before.misses),
                start.elapsed().as_micros() as u64,
            );
        }
        results
            .into_iter()
            .map(|r| r.expect("every planned job resolves to a result"))
            .collect()
    }

    fn execute(&self, work: &[(&SimJob, Vec<usize>)]) -> Vec<SimStats> {
        let n_workers = self.workers.min(work.len());
        let prefix = self.reuse_prefix.then(|| &*self.prefix);
        if n_workers <= 1 {
            return work
                .iter()
                .map(|(job, _)| run_one_timed(job, 0, prefix))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Vec<WorkerResults> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    let next = &next;
                    s.spawn(move || {
                        let lane = w as u32;
                        let mut local = Vec::new();
                        loop {
                            // Relaxed ordering: the ticket counter only
                            // hands out unique indices; `work` is read-only
                            // and was published by the scope spawn.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= work.len() {
                                break;
                            }
                            local.push((i, run_one_timed(work[i].0, lane, prefix)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    // Surface job panics (sanitizer violations, simulator
                    // asserts) on the caller with their original payload.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut out: Vec<Option<SimStats>> = vec![None; work.len()];
        for (i, stats) in collected.into_iter().flatten() {
            out[i] = Some(stats);
        }
        out.into_iter()
            .map(|o| o.expect("workers drain the whole work list"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_workloads::app_by_name;

    fn job(design: DesignKind, apps: &[(&str, usize)], seed: u64) -> SimJob {
        let mut gpu = GpuConfig::maxwell();
        gpu.warps_per_core = 16;
        SimJob {
            design,
            specs: apps
                .iter()
                .map(|&(name, n_cores)| AppSpec {
                    profile: app_by_name(name).expect("known app"),
                    n_cores,
                })
                .collect(),
            max_cycles: 4_000,
            warmup_cycles: 1_000,
            seed,
            gpu,
        }
    }

    #[test]
    fn run_matches_a_one_job_batch() {
        let j = job(DesignKind::Mask, &[("GUP", 2), ("HISTO", 2)], 11);
        let pool = JobPool::with_workers(1)
            .with_cache(BaselineCache::new())
            .with_prefix_cache(PrefixCache::in_memory());
        assert_eq!(
            vec![j.run()],
            pool.run_batch(std::slice::from_ref(&j)),
            "the direct and pooled entry points run the same simulation"
        );
    }

    #[test]
    fn keys_separate_every_ingredient() {
        let base = job(DesignKind::SharedTlb, &[("GUP", 2)], 1);
        assert_eq!(base.key(), base.clone().key());
        let design = job(DesignKind::Mask, &[("GUP", 2)], 1);
        let apps = job(DesignKind::SharedTlb, &[("GUP", 2), ("HS", 2)], 1);
        let seed = job(DesignKind::SharedTlb, &[("GUP", 2)], 2);
        let mut gpu = base.clone();
        gpu.gpu.tlb.l2_entries /= 2;
        for other in [&design, &apps, &seed, &gpu] {
            assert_ne!(base.key(), other.key());
        }
    }

    #[test]
    fn batch_order_and_dedup_are_stable_at_any_worker_count() {
        let jobs = vec![
            job(DesignKind::SharedTlb, &[("GUP", 2)], 7),
            job(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 7),
            job(DesignKind::SharedTlb, &[("GUP", 2)], 7), // duplicate of #0
        ];
        let serial = JobPool::with_workers(1).with_cache(BaselineCache::new());
        let wide_cache = BaselineCache::new();
        let wide = JobPool::with_workers(8).with_cache(Arc::clone(&wide_cache));
        let a = serial.run_batch(&jobs);
        let b = wide.run_batch(&jobs);
        assert_eq!(a, b, "results must not depend on worker count");
        assert_eq!(a[0], a[2], "equal keys yield equal results");
        // The duplicated alone job was simulated once and cached once.
        let stats = wide_cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn alone_baselines_are_served_from_the_cache_across_batches() {
        let cache = BaselineCache::new();
        let pool = JobPool::with_workers(2).with_cache(Arc::clone(&cache));
        let j = job(DesignKind::SharedTlb, &[("HS", 2)], 3);
        let first = pool.run_batch(std::slice::from_ref(&j));
        let again = pool.run_batch(std::slice::from_ref(&j));
        assert_eq!(first, again);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1, "simulated exactly once");
        assert_eq!(stats.hits, 1, "second batch answered from cache");
    }

    #[test]
    fn shared_runs_are_not_cached_process_wide() {
        let cache = BaselineCache::new();
        let pool = JobPool::with_workers(1).with_cache(Arc::clone(&cache));
        let j = job(DesignKind::SharedTlb, &[("HISTO", 2), ("GUP", 2)], 3);
        let _ = pool.run_batch(std::slice::from_ref(&j));
        assert_eq!(cache.stats().entries, 0);
    }

    /// An 8-job single-axis sweep sharing one warm-up prefix (the varied
    /// knob is epoch-end-only and the warm-up ends before the first
    /// epoch boundary).
    fn token_sweep(n: usize) -> Vec<SimJob> {
        (0..n)
            .map(|i| {
                let mut j = job(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 9);
                j.gpu.mask.initial_tokens_frac = 0.3 + 0.05 * i as f64;
                j
            })
            .collect()
    }

    #[test]
    fn prefix_keys_share_across_epoch_end_only_knobs() {
        let jobs = token_sweep(3);
        assert!(jobs[0].warmup_is_epoch_safe());
        assert_eq!(jobs[0].prefix_key(), jobs[1].prefix_key());
        assert_eq!(jobs[0].prefix_key(), jobs[2].prefix_key());
        // ... but every JobKey stays distinct: no result deduplication.
        assert_ne!(jobs[0].key(), jobs[1].key());
        // Prefix-shaping ingredients split the key.
        let mut seed = jobs[0].clone();
        seed.seed += 1;
        let mut warm = jobs[0].clone();
        warm.warmup_cycles += 500;
        let mut machine = jobs[0].clone();
        machine.gpu.tlb.l2_entries /= 2;
        let mut epoch = jobs[0].clone();
        epoch.gpu.mask.epoch_cycles = 1; // warm-up now crosses boundaries
        for other in [&seed, &warm, &machine, &epoch] {
            assert_ne!(jobs[0].prefix_key(), other.prefix_key());
        }
        // Once the warm-up crosses an epoch boundary, epoch-end-only
        // knobs shape the prefix and must split the key.
        let mut a = jobs[0].clone();
        a.warmup_cycles = 2_000;
        a.max_cycles = 4_000;
        a.gpu.mask.epoch_cycles = 1_000;
        let mut b = a.clone();
        b.gpu.mask.initial_tokens_frac = 0.9;
        assert_ne!(a.prefix_key(), b.prefix_key());
    }

    #[test]
    fn prefix_keys_split_on_any_machine_leaf_but_not_the_template_core_count() {
        let base = token_sweep(1).remove(0);
        // One leaf per `GpuConfig` sub-struct.
        let tweaks: [fn(&mut GpuConfig); 6] = [
            |g| g.tlb.l2_ports += 1,
            |g| g.pwc.latency += 1,
            |g| g.l1_cache.mshrs += 1,
            |g| g.dram.t_rp += 1,
            |g| g.dram.sched = mask_common::config::MemSchedKind::GpuBatch,
            |g| g.page_fault_latency += 1,
        ];
        for (i, tweak) in tweaks.into_iter().enumerate() {
            let mut other = base.clone();
            tweak(&mut other.gpu);
            assert_ne!(base.prefix_key(), other.prefix_key(), "tweak {i}");
        }
        // The placement sizes the machine: the template's own `n_cores`
        // never reaches the simulator, so it is not in the prefix key.
        let mut resized = base.clone();
        resized.gpu.n_cores += 7;
        assert_eq!(base.prefix_key(), resized.prefix_key());
        assert_ne!(base.key(), resized.key());
    }

    #[test]
    fn prefix_reuse_is_invisible_in_results_and_warms_up_once() {
        let jobs = token_sweep(4);
        let oracle: Vec<SimStats> = jobs.iter().map(SimJob::run).collect();
        for workers in [1, 4] {
            let prefix = PrefixCache::in_memory();
            let pool = JobPool::with_workers(workers)
                .with_cache(BaselineCache::new())
                .with_prefix_cache(Arc::clone(&prefix));
            let reused = pool.run_batch(&jobs);
            assert_eq!(oracle, reused, "prefix reuse must not change results");
            let stats = prefix.stats();
            assert_eq!(stats.entries, 1, "one shared prefix");
            assert_eq!(stats.misses, 1, "warm-up simulated exactly once");
            assert_eq!(stats.hits, jobs.len() as u64 - 1);
        }
    }

    #[test]
    fn prefix_reuse_can_be_disabled() {
        let jobs = token_sweep(2);
        let prefix = PrefixCache::in_memory();
        let pool = JobPool::with_workers(2)
            .with_cache(BaselineCache::new())
            .with_prefix_cache(Arc::clone(&prefix))
            .with_prefix_reuse(false);
        let off = pool.run_batch(&jobs);
        assert_eq!(off, jobs.iter().map(SimJob::run).collect::<Vec<_>>());
        assert_eq!(prefix.stats(), PrefixCacheStats::default());
    }

    #[test]
    fn epoch_unsafe_warmups_fall_back_to_the_plain_path() {
        let mut j = job(DesignKind::Mask, &[("GUP", 2)], 5);
        // Warm-up strictly between the first and second epoch boundaries:
        // its endpoint is not epoch-safe, so no snapshot may be taken.
        j.gpu.mask.epoch_cycles = 1_000;
        j.warmup_cycles = 1_500;
        j.max_cycles = 4_000;
        assert!(!j.warmup_is_epoch_safe());
        let prefix = PrefixCache::in_memory();
        assert_eq!(j.run_with_prefix(&prefix), j.run());
        assert_eq!(prefix.stats(), PrefixCacheStats::default());
    }

    #[test]
    fn snapshot_dir_round_trips_across_cache_instances() {
        let dir = std::env::temp_dir().join(format!("mask-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = token_sweep(2);
        let first = PrefixCache::with_store(Some(dir.clone()), None);
        let a = jobs[0].run_with_prefix(&first);
        assert_eq!(first.stats().misses, 1);
        let file = dir.join(format!("{}.msnp", jobs[0].prefix_key()));
        assert!(file.exists(), "winner persists its sealed snapshot");
        // A fresh cache (a later sweep process) loads the snapshot instead
        // of re-simulating the warm-up.
        let second = PrefixCache::with_store(Some(dir.clone()), None);
        let b = jobs[1].run_with_prefix(&second);
        let stats = second.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0), "served from disk");
        assert_eq!(a, jobs[0].run());
        assert_eq!(b, jobs[1].run());
        // A file corrupted under a live cache (past the opening sweep)
        // degrades to re-simulation with correct results.
        let third = PrefixCache::with_store(Some(dir.clone()), None);
        let mut bytes = std::fs::read(&file).expect("snapshot readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&file, &bytes).expect("snapshot writable");
        let c = jobs[0].run_with_prefix(&third);
        assert_eq!(c, a, "corruption costs wall clock, never correctness");
        assert_eq!(third.stats().misses, 1, "re-simulated the warm-up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
