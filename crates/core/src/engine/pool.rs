//! The pool: plans a batch (dedup, result memo), fans the unique jobs out
//! over workers, scatters results in submission order.

use super::cache::{process_memo, PrefixCache, ResultMemo};
use super::job::{JobKey, SimJob};
use mask_common::config::JobOptions;
use mask_common::stats::SimStats;
use mask_gpu::GpuSim;
use std::cell::RefCell;
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

/// The simulator a thread ran its last job on, left at that job's end.
struct Held {
    /// The counter of the pool that ran it: only that pool (or a clone of
    /// it) continues it, so a pool's hit/miss split depends on its own jobs
    /// alone, never on what another pool left on the thread.
    pool: Arc<PrefixCache>,
    key: JobKey,
    sim: GpuSim,
}

thread_local! {
    /// This thread's [`Held`] simulator, if any: at most one per thread,
    /// freed with the thread. It stays on the thread that ran it because
    /// `mask-obs`'s checker sessions are per thread.
    static HELD: RefCell<Option<Held>> = const { RefCell::new(None) };
}

/// Runs one job, keyed `key`, and counts it in `simulated`, with an
/// engine-timeline span around it on `lane`, the lane its traced events
/// carry too (`mask-obs` job profiling; label and timing cost nothing
/// unless tracing is live).
///
/// When `key` [extends](JobKey::extends) the key of the simulator this
/// thread holds for the same pool, the job runs that simulator on by the
/// difference instead of simulating from cycle 0; otherwise the held
/// simulator is dropped before the job allocates anything. With `hold`,
/// the job's simulator is held afterwards for the next job on this thread;
/// without, it is dropped. A continued job's epoch frames diff against the
/// frames the held run emitted, so the trace gate must not be toggled
/// between two jobs of one pool on one thread.
fn run_one(
    job: &SimJob,
    key: &JobKey,
    lane: u32,
    hold: bool,
    simulated: &Arc<PrefixCache>,
) -> Arc<SimStats> {
    let timer = mask_obs::profile::begin_job(lane);
    let (mut sim, continued) = match HELD.take() {
        Some(held) if Arc::ptr_eq(&held.pool, simulated) && key.extends(&held.key) => {
            (held.sim, true)
        }
        stale => {
            drop(stale);
            (job.warmed_up(), false)
        }
    };
    let stats = job.run_on(&mut sim);
    simulated.count(continued);
    if hold {
        HELD.set(Some(Held {
            pool: Arc::clone(simulated),
            key: key.clone(),
            sim,
        }));
    } else {
        drop(sim);
    }
    if mask_obs::tracing_active() {
        timer.finish(&job_label(job));
    }
    Arc::new(stats)
}

/// Executes [`SimJob`] batches over a fixed number of worker threads.
///
/// Cheap to clone: clones share the same result memo.
#[derive(Clone)]
pub struct JobPool {
    workers: usize,
    cache: Arc<ResultMemo>,
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
    /// process-wide result memo.
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
            cache: process_memo(),
            simulated: PrefixCache::in_memory(),
        }
    }

    /// A pool with exactly `n` workers (`1` = serial).
    #[must_use]
    pub fn with_workers(n: usize) -> Self {
        Self::with_options(JobOptions::with_workers(n))
    }

    /// Replaces the result memo (e.g. with a private one in tests that
    /// assert exact simulation counts or what a simulation emits).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<ResultMemo>) -> Self {
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

    /// The result memo this pool consults.
    #[must_use]
    pub fn cache(&self) -> &Arc<ResultMemo> {
        &self.cache
    }

    /// The counter of jobs this pool simulated. Read by
    /// `benchmark/src/sweep.rs` and `benchmark/src/service.rs`; ROADMAP
    /// item 5 deletes it.
    #[must_use]
    pub fn prefix_cache(&self) -> &Arc<PrefixCache> {
        &self.simulated
    }

    /// One-line human-readable completion summary: worker count, the
    /// result-memo counters, stating how many whole runs the memo avoided,
    /// and how many of the jobs run continued a held simulator.
    #[must_use]
    pub fn completion_summary(&self) -> String {
        let b = self.cache.stats();
        let p = self.simulated.stats();
        format!(
            "[mask-core] job pool: {} worker(s); result memo: {} entries, \
             {} hit(s) / {} miss(es); {} job(s) run, {} continued",
            self.workers,
            b.entries,
            b.hits,
            b.misses,
            p.hits + p.misses,
            p.hits
        )
    }

    /// Runs a batch and returns one result per job, in submission order.
    /// Equal-keyed jobs are simulated once, and only when the memo does not
    /// already hold their result; every simulated result is recorded in
    /// the memo. Slots of equal-keyed jobs share one `Arc`.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a job (e.g. a sanitizer violation) on the
    /// calling thread, payload intact.
    #[must_use]
    pub fn run_batch(&self, jobs: &[SimJob]) -> Vec<Arc<SimStats>> {
        // Trace bookkeeping for the `job_pool` metrics frame (see
        // `mask-obs`); both values stay `None` unless tracing is live.
        let trace = mask_obs::tracing_active();
        #[expect(
            clippy::disallowed_methods,
            reason = "profiling only, never read by the simulation"
        )]
        let batch_start = trace.then(std::time::Instant::now);
        let cache_before = trace.then(|| self.cache.stats());
        // Plan: collapse equal-keyed jobs, answer known ones from the memo;
        // `work` maps every other key to its first submission.
        let keys: Vec<JobKey> = jobs.iter().map(SimJob::key).collect();
        let mut results: BTreeMap<&JobKey, Arc<SimStats>> = BTreeMap::new();
        let mut work: BTreeMap<&JobKey, usize> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            if results.contains_key(key) || work.contains_key(key) {
                continue;
            }
            if let Some(stats) = self.cache.lookup(key) {
                results.insert(key, stats);
            } else {
                work.insert(key, i);
            }
        }
        let n_unique = results.len() + work.len();
        // Execute: fan the unique jobs out in key order; output is tagged
        // by work index and filed by key, so worker scheduling cannot affect
        // what callers observe.
        let work: Vec<(&JobKey, usize)> = work.into_iter().collect();
        let outputs = self.execute(work.len(), |w, lane, fanned_out| {
            let (key, i) = work[w];
            // Only the calling thread holds a simulator, for its next job: a
            // worker thread ends with its batch.
            run_one(&jobs[i], key, lane, !fanned_out, &self.simulated)
        });
        // Assemble: memoise each new result; equal keys share its `Arc`.
        for (w, stats) in outputs {
            let key = work[w].0;
            self.cache.insert(key.clone(), Arc::clone(&stats));
            results.insert(key, stats);
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
        keys.iter().map(|key| Arc::clone(&results[key])).collect()
    }

    /// `run(i, lane, fanned_out)` for every work index `i < n`, over the
    /// workers (`fanned_out`) or serially on the calling thread, each result
    /// tagged by its `i`, in no particular order.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the one place the job engine spawns workers"
    )]
    fn execute(
        &self,
        n: usize,
        run: impl Fn(usize, u32, bool) -> Arc<SimStats> + Sync,
    ) -> Vec<(usize, Arc<SimStats>)> {
        let n_workers = self.workers.min(n);
        if n_workers <= 1 {
            return (0..n).map(|i| (i, run(i, 0, false))).collect();
        }
        // No job of this batch runs on the calling thread, so what it holds
        // would only add to the batch's peak memory.
        drop(HELD.take());
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
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
                            local.push((i, run(i, w as u32, true)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(local) => local,
                    // Surface job panics (sanitizer violations, simulator
                    // asserts) on the caller with their original payload.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::cache::PrefixCacheStats;
    use super::super::job::tests::{job, token_sweep};
    use super::*;
    use mask_common::config::DesignKind;
    use proptest::prelude::*;

    /// Applications the chains place, two cores each.
    const CHAIN_APPS: [&str; 6] = ["HISTO", "GUP", "HS", "CONS", "LPS", "SCAN"];

    /// One link of a random job chain, drawn from `(kind, d)`.
    #[derive(Clone, Copy, Debug)]
    enum Link {
        /// The head, `d` cycles longer, alone in its batch.
        Extend(u64),
        /// The head, run on past its next epoch boundary, alone.
        CrossEpoch(u64),
        /// Resubmits an earlier link: a memo hit, nothing runs.
        Revisit(usize),
        /// The head, `d` cycles longer, in one batch with an unrelated job.
        WithUnrelated(u64),
    }

    impl Link {
        fn draw((kind, d): (u8, u64)) -> Link {
            match kind {
                0 => Link::Extend(d),
                1 => Link::CrossEpoch(d % 200),
                2 => Link::Revisit(d as usize),
                _ => Link::WithUnrelated(d),
            }
        }
    }

    /// The batches of one chain: the head, then one batch per link.
    fn chain_batches(head: &SimJob, links: &[Link]) -> Vec<Vec<SimJob>> {
        let epoch = head.gpu.mask.epoch_cycles;
        let mut head = head.clone();
        let mut batches = vec![vec![head.clone()]];
        for &link in links {
            let batch = match link {
                Link::Extend(d) => {
                    head.max_cycles += d;
                    vec![head.clone()]
                }
                Link::CrossEpoch(d) => {
                    head.max_cycles = (head.max_cycles / epoch + 1) * epoch + d;
                    vec![head.clone()]
                }
                Link::Revisit(i) => {
                    let earlier: Vec<&SimJob> = batches.iter().flatten().collect();
                    vec![earlier[i % earlier.len()].clone()]
                }
                Link::WithUnrelated(d) => {
                    let mut unrelated = head.clone();
                    unrelated.seed ^= 1;
                    head.max_cycles += d;
                    vec![unrelated, head.clone()]
                }
            };
            batches.push(batch);
        }
        batches
    }

    /// Links that must continue the simulator the calling thread holds: an
    /// extension alone in its batch right after the head ran or a revisit,
    /// at any worker count (a one-job batch runs on the calling thread).
    fn sure_continuations(links: &[Link]) -> u64 {
        let mut sure = 0;
        let mut head_held = true;
        for &link in links {
            match link {
                Link::Extend(_) | Link::CrossEpoch(_) => {
                    sure += u64::from(head_held);
                    head_held = true;
                }
                Link::Revisit(_) => {}
                Link::WithUnrelated(_) => head_held = false,
            }
        }
        sure
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Every design, at 1 and 4 workers: a chain of extensions (some
        /// across epoch boundaries) with memo hits and unrelated jobs
        /// between them gives each job exactly its fresh run's result, and
        /// the extensions continue the held simulator.
        #[test]
        fn continued_chains_match_fresh_runs(
            seed in 0u64..10_000,
            apps in collection::vec(0usize..CHAIN_APPS.len(), 1..4),
            draws in collection::vec((0u8..4, 1u64..1_500), 3..7),
        ) {
            // The first two links always extend, so every chain continues.
            let links: Vec<Link> = [(0, 400), (1, 50)]
                .into_iter()
                .chain(draws)
                .map(Link::draw)
                .collect();
            let placement: Vec<(&str, usize)> =
                apps.iter().map(|&a| (CHAIN_APPS[a], 2)).collect();
            for design in DesignKind::ALL {
                let mut head = job(design, &placement, seed);
                head.gpu.mask.epoch_cycles = 1_000;
                head.warmup_cycles = 600;
                head.max_cycles = 1_200;
                let batches = chain_batches(&head, &links);
                let fresh: Vec<Vec<SimStats>> = batches
                    .iter()
                    .map(|b| b.iter().map(SimJob::run).collect())
                    .collect();
                for workers in [1, 4] {
                    let pool = JobPool::with_workers(workers).with_cache(ResultMemo::new());
                    for (batch, want) in batches.iter().zip(&fresh) {
                        let got = pool.run_batch(batch);
                        for (got, want) in got.iter().zip(want) {
                            prop_assert_eq!(&**got, want, "{:?}, {} worker(s)", design, workers);
                        }
                    }
                    let counted = pool.prefix_cache().stats();
                    let memo = pool.cache().stats();
                    prop_assert_eq!(counted.hits + counted.misses, memo.misses);
                    prop_assert!(
                        counted.hits >= sure_continuations(&links),
                        "{:?}, {} worker(s): {:?} for {:?}", design, workers, counted, links
                    );
                }
            }
        }
    }

    /// `warmup_cycles` 1 000 is clamped to `max_cycles / 2` below 2 000
    /// cycles, so the first three jobs of this chain zero their statistics
    /// at cycles 995, 998 and 1 000 though all ask for the same raw
    /// warm-up: only the last job may continue the one before it.
    #[test]
    fn continuing_compares_the_effective_warm_up_not_the_raw_one() {
        let mut j = job(DesignKind::Mask, &[("GUP", 2), ("HISTO", 2)], 5);
        j.warmup_cycles = 1_000;
        for workers in [1, 4] {
            let pool = JobPool::with_workers(workers).with_cache(ResultMemo::new());
            for max_cycles in [1_990, 1_997, 2_000, 2_010] {
                j.max_cycles = max_cycles;
                let got = pool.run_batch(std::slice::from_ref(&j));
                assert_eq!(*got[0], j.run(), "max_cycles {max_cycles}");
            }
            assert_eq!(
                pool.prefix_cache().stats(),
                PrefixCacheStats {
                    entries: 0,
                    hits: 1,
                    misses: 3,
                }
            );
        }
    }

    /// A job is the machine and warm-up it runs: a template core count
    /// that the placement overrides, or a raw warm-up clamped to the same
    /// cycle, gives the same key and one simulation.
    #[test]
    fn what_never_reaches_the_simulator_makes_no_second_job() {
        let j = job(DesignKind::Mask, &[("GUP", 2), ("HISTO", 2)], 12);
        let mut resized = j.clone();
        resized.gpu.n_cores += 7;
        let mut half = j.clone();
        half.warmup_cycles = j.max_cycles / 2;
        let mut over = j.clone();
        over.warmup_cycles = j.max_cycles;
        for (a, b) in [(&j, &resized), (&half, &over)] {
            assert_eq!(a.key(), b.key());
            let memo = ResultMemo::new();
            let pool = JobPool::with_workers(1).with_cache(Arc::clone(&memo));
            let got = pool.run_batch(&[a.clone(), b.clone()]);
            assert!(Arc::ptr_eq(&got[0], &got[1]), "one result for both");
            assert_eq!(*got[1], b.run());
            assert_eq!(memo.stats().misses, 1, "simulated once");
        }
    }

    #[test]
    fn a_fanned_out_batch_frees_the_callers_simulator() {
        let j = job(DesignKind::SharedTlb, &[("GUP", 2)], 4);
        let pool = JobPool::with_workers(2).with_cache(ResultMemo::new());
        let _ = pool.run_batch(std::slice::from_ref(&j));
        assert!(HELD.with_borrow(Option::is_some), "a one-job batch holds");
        let mut other = j.clone();
        other.seed += 1;
        let mut longer = j.clone();
        longer.max_cycles += 1_000;
        let _ = pool.run_batch(&[other, longer]);
        assert!(
            HELD.with_borrow(Option::is_none),
            "no job of a fanned-out batch runs on the calling thread"
        );
        assert_eq!(pool.prefix_cache().stats().hits, 0);
    }

    /// Two pools one after the other on one thread: the second pool's first
    /// job runs from cycle 0 though it extends the first pool's last one,
    /// so each pool's counts depend on its own jobs alone.
    #[test]
    fn a_pool_never_continues_another_pools_simulator() {
        let j = job(DesignKind::Mask, &[("GUP", 2)], 6);
        let mut longer = j.clone();
        longer.max_cycles += 1_000;
        let first = JobPool::with_workers(1).with_cache(ResultMemo::new());
        let _ = first.run_batch(std::slice::from_ref(&j));
        let second = JobPool::with_workers(1).with_cache(ResultMemo::new());
        assert_eq!(
            *second.run_batch(std::slice::from_ref(&longer))[0],
            longer.run()
        );
        assert_eq!(second.prefix_cache().stats().hits, 0);
        // A clone shares its pool's counter, so it continues what the pool
        // left on the thread.
        let mut longest = longer.clone();
        longest.max_cycles += 1_000;
        let clone = second.clone();
        assert_eq!(
            *clone.run_batch(std::slice::from_ref(&longest))[0],
            longest.run()
        );
        assert_eq!(second.prefix_cache().stats().hits, 1);
    }

    #[test]
    fn run_matches_a_one_job_batch() {
        let j = job(DesignKind::Mask, &[("GUP", 2), ("HISTO", 2)], 11);
        let pool = JobPool::with_workers(1).with_cache(ResultMemo::new());
        assert_eq!(
            vec![Arc::new(j.run())],
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
        let serial = JobPool::with_workers(1).with_cache(ResultMemo::new());
        let wide_memo = ResultMemo::new();
        let wide = JobPool::with_workers(8).with_cache(Arc::clone(&wide_memo));
        let a = serial.run_batch(&jobs);
        let b = wide.run_batch(&jobs);
        assert_eq!(a, b, "results must not depend on worker count");
        assert!(Arc::ptr_eq(&a[0], &a[2]), "equal keys share one result");
        // Two unique jobs, each simulated once and memoised once.
        let stats = wide_memo.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn alone_baselines_are_served_from_the_memo_across_batches() {
        let memo = ResultMemo::new();
        let pool = JobPool::with_workers(2).with_cache(Arc::clone(&memo));
        let j = job(DesignKind::SharedTlb, &[("HS", 2)], 3);
        let first = pool.run_batch(std::slice::from_ref(&j));
        let again = pool.run_batch(std::slice::from_ref(&j));
        assert_eq!(first, again);
        let stats = memo.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1, "simulated exactly once");
        assert_eq!(stats.hits, 1, "second batch answered from the memo");
    }

    #[test]
    fn shared_runs_are_memoised_across_batches() {
        let j = job(DesignKind::SharedTlb, &[("HISTO", 2), ("GUP", 2)], 3);
        for workers in [1, 8] {
            let memo = ResultMemo::new();
            let pool = JobPool::with_workers(workers).with_cache(Arc::clone(&memo));
            let first = pool.run_batch(std::slice::from_ref(&j));
            let again = pool.run_batch(&[j.clone(), j.clone()]);
            assert!(Arc::ptr_eq(&first[0], &again[0]), "{workers} worker(s)");
            assert!(Arc::ptr_eq(&again[0], &again[1]), "{workers} worker(s)");
            assert_eq!(pool.prefix_cache().stats().misses, 1, "simulated once");
            let stats = memo.stats();
            assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
        }
    }

    #[test]
    fn the_pool_counts_each_job_it_simulates_once() {
        let alone = job(DesignKind::SharedTlb, &[("GUP", 2)], 7);
        let mut cold = job(DesignKind::Mask, &[("HS", 2), ("GUP", 2)], 23);
        cold.warmup_cycles = 0;
        // Two sweep jobs that once shared a warm-up, a duplicate of the
        // first, the memoised alone baseline and a job with no warm-up.
        let mut jobs = token_sweep(2);
        let duplicate = jobs[0].clone();
        jobs.extend([duplicate, alone.clone(), cold]);
        let oracle: Vec<Arc<SimStats>> = jobs.iter().map(|j| Arc::new(j.run())).collect();
        for workers in [1, 4] {
            let pool = JobPool::with_workers(workers).with_cache(ResultMemo::new());
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
