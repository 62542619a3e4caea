//! The pool: plans a batch (dedup, baseline cache), fans the unique jobs
//! out over workers, scatters results in submission order.

use super::cache::{process_cache, BaselineCache, PrefixCache};
use super::job::{JobKey, SimJob};
use mask_common::config::JobOptions;
use mask_common::stats::SimStats;
use std::collections::BTreeMap;
use std::fmt;
#[expect(clippy::disallowed_types, reason = "parallelism island")]
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

/// Runs one job and counts it in `simulated`, with an engine-timeline span
/// around it on `lane`, the lane its traced events carry too (`mask-obs`
/// job profiling; label and timing cost nothing unless tracing is live).
fn run_one(job: &SimJob, lane: u32, simulated: &PrefixCache) -> SimStats {
    let timer = mask_obs::profile::begin_job(lane);
    let out = job.run();
    simulated.count_simulated();
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
    simulated: Arc<PrefixCache>,
}

impl fmt::Debug for JobPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobPool")
            .field("workers", &self.workers)
            .field("cache", &self.cache.stats())
            .finish_non_exhaustive()
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
            simulated: PrefixCache::in_memory(),
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

    /// Replaces the counter of jobs simulated. Called by
    /// `benchmark/src/engine.rs`; ROADMAP item 5 deletes it.
    #[must_use]
    pub fn with_prefix_cache(mut self, simulated: Arc<PrefixCache>) -> Self {
        self.simulated = simulated;
        self
    }

    /// Ignores its flag: there is no warm-up sharing left to switch off.
    /// Called by `benchmark/src/engine.rs`; ROADMAP item 5 deletes it.
    #[must_use]
    pub fn with_prefix_reuse(self, _reuse: bool) -> Self {
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

    /// The counter of jobs this pool simulated. Read by
    /// `benchmark/src/sweep.rs` and `benchmark/src/service.rs`; ROADMAP
    /// item 5 deletes it.
    #[must_use]
    pub fn prefix_cache(&self) -> &Arc<PrefixCache> {
        &self.simulated
    }

    /// One-line human-readable completion summary: worker count plus the
    /// baseline-cache counters, stating how many whole alone runs the
    /// cache avoided.
    #[must_use]
    pub fn completion_summary(&self) -> String {
        let b = self.cache.stats();
        format!(
            "[mask-core] job pool: {} worker(s); baseline cache: {} entries, \
             {} hit(s) / {} miss(es)",
            self.workers, b.entries, b.hits, b.misses
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
        #[expect(
            clippy::disallowed_methods,
            reason = "profiling only, never read by the simulation"
        )]
        let batch_start = trace.then(std::time::Instant::now);
        let cache_before = trace.then(|| self.cache.stats());
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
        let outputs = self.execute(work.len(), |i, lane| {
            run_one(work[i].0, lane, &self.simulated)
        });
        // Assemble: scatter each unique result to every submitting slot.
        for ((job, idxs), stats) in work.iter().zip(outputs) {
            if job.is_alone() {
                self.cache.insert(job.key(), stats.clone());
            }
            for &i in idxs {
                results[i] = Some(stats.clone());
            }
        }
        if let (Some(start), Some(before)) = (batch_start, cache_before) {
            let after = self.cache.stats();
            mask_obs::metrics::job_pool_frame(
                self.workers,
                jobs.len(),
                n_unique,
                after.hits.saturating_sub(before.hits),
                after.misses.saturating_sub(before.misses),
                start.elapsed().as_micros() as u64,
            );
        }
        results
            .into_iter()
            .map(|r| r.expect("every planned job resolves to a result"))
            .collect()
    }

    /// `run(i, lane)` for every work index `i < n`, over the workers.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the one place the job engine spawns workers"
    )]
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

    #[test]
    fn run_matches_a_one_job_batch() {
        let j = job(DesignKind::Mask, &[("GUP", 2), ("HISTO", 2)], 11);
        let pool = JobPool::with_workers(1).with_cache(BaselineCache::new());
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
    fn the_pool_counts_each_job_it_simulates_once() {
        let alone = job(DesignKind::SharedTlb, &[("GUP", 2)], 7);
        let mut cold = job(DesignKind::Mask, &[("HS", 2), ("GUP", 2)], 23);
        cold.warmup_cycles = 0;
        // Two sweep jobs that once shared a warm-up, a duplicate of the
        // first, the cached alone baseline and a job with no warm-up.
        let mut jobs = token_sweep(2);
        let duplicate = jobs[0].clone();
        jobs.extend([duplicate, alone.clone(), cold]);
        let oracle: Vec<SimStats> = jobs.iter().map(SimJob::run).collect();
        for workers in [1, 4] {
            let pool = JobPool::with_workers(workers).with_cache(BaselineCache::new());
            let _ = pool.run_batch(std::slice::from_ref(&alone));
            assert_eq!(pool.run_batch(&jobs), oracle);
            assert_eq!(
                pool.prefix_cache().stats(),
                PrefixCacheStats {
                    entries: 0,
                    hits: 0,
                    // The alone run of the first batch, then the two sweep
                    // jobs and the cold one.
                    misses: 4,
                }
            );
        }
    }
}
