//! The pool: plans a batch (dedup, baseline cache, shared warm-ups), fans
//! the unique jobs out over workers, scatters results in submission order.

use super::cache::{
    process_cache, process_prefix_cache, BaselineCache, BatchSnapshots, PrefixCache,
};
use super::job::{JobKey, SimJob};
use mask_common::config::JobOptions;
use mask_common::snapshot::PrefixKey;
use mask_common::stats::SimStats;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Short human-readable label for a job's engine-timeline span.
fn job_label(job: &SimJob) -> String {
    use fmt::Write;
    let mut s = format!("{:?}", job.design);
    for spec in &job.specs {
        let _ = write!(s, " {}x{}", spec.profile.name, spec.n_cores);
    }
    s
}

/// Runs one job — its warm-up by way of `snapshots` when the plan gave it
/// a `key` — with an engine-timeline span around it on `lane`, the lane
/// its traced events carry too (`mask-obs` job profiling; label and timing
/// cost nothing unless tracing is live).
fn run_one(
    job: &SimJob,
    lane: u32,
    key: Option<PrefixKey>,
    snapshots: &BatchSnapshots<'_>,
) -> SimStats {
    let timer = mask_obs::profile::begin_job(lane);
    let out = match key {
        Some(key) => job.finish_measured(snapshots.warm_up(job, key)),
        None => job.run(),
    };
    if mask_obs::tracing_active() {
        timer.finish(&job_label(job));
    }
    out
}

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
    /// assert exact warm-up counts, or one bound to a snapshot directory).
    #[must_use]
    pub fn with_prefix_cache(mut self, prefix: Arc<PrefixCache>) -> Self {
        self.prefix = prefix;
        self
    }

    /// Enables or disables warm-up prefix reuse (default: enabled).
    /// Results are bit-identical either way — disabled, no batch groups its
    /// jobs by warm-up, which is what the reuse benchmark measures against.
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
             {} hit(s) / {} miss(es); prefix cache: \
             {} warm-up(s) reused / {} simulated",
            self.workers, b.entries, b.hits, b.misses, p.hits, p.misses
        )
    }

    /// Runs a batch and returns one [`SimStats`] per job, in submission
    /// order. Equal-keyed jobs are simulated once; alone-baseline jobs are
    /// additionally served from (and recorded in) the baseline cache; jobs
    /// with equal [`SimJob::prefix_key`]s simulate their warm-up once and
    /// share its snapshot until the batch returns.
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
        #[expect(
            clippy::disallowed_methods,
            reason = "profiling only, never read by the simulation"
        )]
        let batch_start = trace.then(std::time::Instant::now);
        let cache_before = trace.then(|| self.cache.stats());
        let prefix_before = trace.then(|| self.prefix.stats());
        // Plan: collapse equal-keyed jobs, answer alone runs from cache,
        // name the warm-ups that have a second reader.
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
        let (keys, snapshots) = self.plan_warmups(work.iter().map(|(job, _)| *job));
        // Execute: fan the unique jobs out; output is keyed by work index,
        // so worker scheduling cannot affect what callers observe. The
        // snapshots die here, with the batch that planned them.
        let outputs = self.execute(work.len(), |i, lane| {
            run_one(work[i].0, lane, keys[i], &snapshots)
        });
        drop(snapshots);
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

    /// Names which of `jobs` share a warm-up — a pure function of the job
    /// list and this pool's prefix settings; nothing is simulated. Per job,
    /// the prefix key its warm-up is counted (and possibly shared) under:
    /// `None` for no warm-up, one that ends off an epoch-safe point, or
    /// prefix reuse switched off. Per key with a reader, a snapshot cell.
    fn plan_warmups<'a>(
        &self,
        jobs: impl Iterator<Item = &'a SimJob>,
    ) -> (Vec<Option<PrefixKey>>, BatchSnapshots<'_>) {
        let keys: Vec<Option<PrefixKey>> = jobs
            .map(|job| (self.reuse_prefix && job.has_sharable_warmup()).then(|| job.prefix_key()))
            .collect();
        let snapshots = BatchSnapshots::plan(&self.prefix, keys.iter().flatten().copied());
        (keys, snapshots)
    }

    /// `run(i, lane)` for every work index `i < n`, over the workers.
    fn execute(&self, n: usize, run: impl Fn(usize, u32) -> SimStats + Sync) -> Vec<SimStats> {
        let n_workers = self.workers.min(n);
        if n_workers <= 1 {
            return (0..n).map(|i| run(i, 0)).collect();
        }
        let next = AtomicUsize::new(0);
        // One list per worker of its results, tagged by work index.
        let collected: Vec<Vec<(usize, SimStats)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_workers)
                .map(|w| {
                    let (next, run) = (&next, &run);
                    s.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            // Relaxed ordering: the ticket counter only
                            // hands out unique indices; what `run` reads was
                            // published by the scope spawn.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, run(i, w as u32)));
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
        let mut out: Vec<Option<SimStats>> = vec![None; n];
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
    use super::super::cache::PrefixCacheStats;
    use super::super::job::tests::{job, token_sweep};
    use super::*;
    use mask_common::config::DesignKind;
    use std::path::PathBuf;

    fn private_pool(workers: usize, prefix: &Arc<PrefixCache>) -> JobPool {
        JobPool::with_workers(workers)
            .with_cache(BaselineCache::new())
            .with_prefix_cache(Arc::clone(prefix))
    }

    /// A fresh snapshot directory private to one test.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mask-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A job whose warm-up ends strictly between the first and second
    /// epoch boundaries: not epoch-safe, so no snapshot may be taken.
    fn epoch_unsafe_job() -> SimJob {
        let mut j = job(DesignKind::Mask, &[("GUP", 2)], 5);
        j.gpu.mask.epoch_cycles = 1_000;
        j.warmup_cycles = 1_500;
        j.max_cycles = 4_000;
        j
    }

    #[test]
    fn run_matches_a_one_job_batch() {
        let j = job(DesignKind::Mask, &[("GUP", 2), ("HISTO", 2)], 11);
        let pool = private_pool(1, &PrefixCache::in_memory());
        assert_eq!(
            vec![j.run()],
            pool.run_batch(std::slice::from_ref(&j)),
            "the direct and pooled entry points run the same simulation"
        );
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

    #[test]
    fn the_plan_groups_only_warmups_with_a_second_reader() {
        let pool = private_pool(1, &PrefixCache::in_memory());
        // Per job its key, and the keys that got a snapshot cell.
        let plan = |pool: &JobPool, jobs: &[SimJob]| {
            let (keys, snapshots) = pool.plan_warmups(jobs.iter());
            (keys, snapshots.cells.keys().copied().collect::<Vec<_>>())
        };
        // N distinct keys: no group, every warm-up is the job's own.
        let distinct: Vec<SimJob> = (0..4)
            .map(|seed| job(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], seed))
            .collect();
        let own: Vec<_> = distinct.iter().map(|j| Some(j.prefix_key())).collect();
        assert_eq!(plan(&pool, &distinct), (own.clone(), vec![]));
        // k equal keys: one group of k, wherever its members sit.
        let mut mixed = token_sweep(3);
        let key = Some(mixed[0].prefix_key());
        mixed.insert(1, distinct[0].clone());
        assert_eq!(
            plan(&pool, &mixed),
            (vec![key, own[0], key, key], vec![mixed[0].prefix_key()])
        );
        // No warm-up, or an epoch-unsafe one: in no group, even in pairs.
        let mut cold = distinct[0].clone();
        cold.warmup_cycles = 0;
        let unshared = [cold.clone(), cold, epoch_unsafe_job(), epoch_unsafe_job()];
        assert_eq!(plan(&pool, &unshared), (vec![None; 4], vec![]));
        // Reuse off: never group.
        let off = pool.clone().with_prefix_reuse(false);
        assert_eq!(plan(&off, &mixed), (vec![None; 4], vec![]));
        // An on-disk store to feed makes a singleton worth sealing.
        let dir = temp_dir("plan");
        let stored = private_pool(1, &PrefixCache::with_store(Some(dir.clone()), None));
        assert_eq!(plan(&stored, &distinct).1.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_reuse_is_invisible_in_results_and_warms_up_once() {
        let jobs = token_sweep(4);
        let oracle: Vec<SimStats> = jobs.iter().map(SimJob::run).collect();
        for workers in [1, 4] {
            let prefix = PrefixCache::in_memory();
            let reused = private_pool(workers, &prefix).run_batch(&jobs);
            assert_eq!(oracle, reused, "prefix reuse must not change results");
            let stats = prefix.stats();
            assert_eq!(stats.entries, 0, "the snapshot went with its batch");
            assert_eq!(stats.misses, 1, "warm-up simulated exactly once");
            assert_eq!(stats.hits, jobs.len() as u64 - 1);
        }
    }

    #[test]
    fn a_mixed_batch_shares_what_it_can_and_carries_nothing_over() {
        // One group of 3, 2 singletons, 1 job without a warm-up.
        let mut jobs = token_sweep(3);
        jobs.push(job(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 21));
        jobs.push(job(DesignKind::SharedTlb, &[("HS", 2), ("MUM", 2)], 22));
        let mut cold = job(DesignKind::Mask, &[("HS", 2), ("GUP", 2)], 23);
        cold.warmup_cycles = 0;
        jobs.push(cold);
        let oracle: Vec<SimStats> = jobs.iter().map(SimJob::run).collect();
        for workers in [1, 4] {
            let prefix = PrefixCache::in_memory();
            let pool = private_pool(workers, &prefix);
            // The second, identical batch finds nothing left by the first.
            for batch in 1..=2 {
                assert_eq!(pool.run_batch(&jobs), oracle);
                assert_eq!(
                    prefix.stats(),
                    PrefixCacheStats {
                        entries: 0,
                        hits: 2 * batch,
                        misses: 3 * batch,
                    }
                );
            }
        }
    }

    #[test]
    fn prefix_reuse_can_be_disabled() {
        let jobs = token_sweep(2);
        let prefix = PrefixCache::in_memory();
        let pool = private_pool(2, &prefix).with_prefix_reuse(false);
        let off = pool.run_batch(&jobs);
        assert_eq!(off, jobs.iter().map(SimJob::run).collect::<Vec<_>>());
        assert_eq!(prefix.stats(), PrefixCacheStats::default());
    }

    #[test]
    fn epoch_unsafe_warmups_fall_back_to_the_plain_path() {
        let j = epoch_unsafe_job();
        assert!(!j.has_sharable_warmup());
        // Even with a store asking for every warm-up it can get.
        let dir = temp_dir("unsafe");
        let prefix = PrefixCache::with_store(Some(dir.clone()), None);
        let served = private_pool(1, &prefix).run_batch(std::slice::from_ref(&j));
        assert_eq!(served, vec![j.run()]);
        assert_eq!(prefix.stats(), PrefixCacheStats::default());
        assert_eq!(std::fs::read_dir(&dir).expect("store dir").count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_dir_round_trips_across_cache_instances() {
        let dir = temp_dir("round-trip");
        let jobs = token_sweep(2);
        let run_alone = |prefix: &Arc<PrefixCache>, j: &SimJob| {
            private_pool(1, prefix)
                .run_batch(std::slice::from_ref(j))
                .remove(0)
        };
        let first = PrefixCache::with_store(Some(dir.clone()), None);
        let a = run_alone(&first, &jobs[0]);
        assert_eq!((first.stats().entries, first.stats().misses), (0, 1));
        let file = dir.join(format!("{}.msnp", jobs[0].prefix_key()));
        assert!(file.exists(), "winner persists its sealed snapshot");
        // A fresh cache (a later sweep process) loads the snapshot instead
        // of re-simulating the warm-up.
        let second = PrefixCache::with_store(Some(dir.clone()), None);
        let b = run_alone(&second, &jobs[1]);
        let stats = second.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0), "served from disk");
        assert_eq!(stats.entries, 0, "the loaded bytes went with the batch");
        assert_eq!(a, jobs[0].run());
        assert_eq!(b, jobs[1].run());
        // A file corrupted under a live cache (past the opening sweep)
        // degrades to re-simulation with correct results.
        let third = PrefixCache::with_store(Some(dir.clone()), None);
        let mut bytes = std::fs::read(&file).expect("snapshot readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&file, &bytes).expect("snapshot writable");
        let c = run_alone(&third, &jobs[0]);
        assert_eq!(c, a, "corruption costs wall clock, never correctness");
        assert_eq!(third.stats().misses, 1, "re-simulated the warm-up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_that_fails_to_restore_is_a_miss_not_a_reuse() {
        let dir = temp_dir("bad-payload");
        let j = token_sweep(1).remove(0);
        let prefix = PrefixCache::with_store(Some(dir.clone()), None);
        // A sound envelope under the right key around a payload no
        // simulator wrote: passes every check short of the restore itself.
        let mut w = mask_common::snapshot::SnapshotWriter::new();
        w.u64(0xBAD);
        let sealed = w.seal(j.prefix_key());
        std::fs::write(dir.join(format!("{}.msnp", j.prefix_key())), sealed).expect("plant");
        let served = private_pool(1, &prefix).run_batch(std::slice::from_ref(&j));
        assert_eq!(served, vec![j.run()]);
        let stats = prefix.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
