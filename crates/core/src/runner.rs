//! High-level simulation runners.
//!
//! [`PairRunner`] reproduces the paper's experimental procedure (§6): each
//! multiprogrammed workload runs once *shared* (both apps concurrently on a
//! partitioned set of cores) and once *alone* per application ("`IPCalone` is
//! the IPC of an application that runs on the same number of GPU cores, but
//! does not share GPU resources with any other application"). Shared and
//! alone runs are both plain [`SimJob`]s memoised in the process-wide
//! [`ResultMemo`](crate::engine::ResultMemo): alone runs are
//! design-dependent but pair-independent, and the same (pair, design)
//! shared runs feed several figures, so every experiment shares one memo
//! and each unique run is simulated exactly once per process.
//!
//! [`PairRunner::run_apps`] submits shared runs only; [`PairRunner::run_batch`]
//! adds the alone baselines that weighted speedup and unfairness read, and
//! [`PairRunner::run_pairs`] and [`PairRunner::run_named`] call it on even
//! core splits. Each submits one [`JobPool`] batch, so independent
//! simulations fan out over `MASK_JOBS` worker threads while results stay
//! bit-identical at any count.
//!
//! Mixes hold each [`AppProfile`] by value; a job is keyed by its parameters
//! (a stock profile by its bare name), so a mix may carry a swept copy.

use crate::engine::{JobPool, SimJob};
use crate::metrics::{unfairness, weighted_speedup};
use mask_common::config::{DesignKind, GpuConfig, JobOptions};
use mask_common::stats::{AppStats, SimStats};
use mask_gpu::AppSpec;
use mask_workloads::{app_by_name, AppPair, AppProfile};
use std::sync::Arc;

/// Options shared by all runs of one experiment.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Total GPU cores (Table 1: 30).
    pub n_cores: usize,
    /// Cycles per run.
    pub max_cycles: u64,
    /// Base PRNG seed.
    pub seed: u64,
    /// Warm-up cycles excluded from measurement (clamped to at most half
    /// of `max_cycles`). MASK's epoch mechanisms engage after the first
    /// epoch, so the default warm-up is one default epoch.
    pub warmup_cycles: u64,
    /// Machine template (its `n_cores` is overridden per run).
    pub gpu: GpuConfig,
    /// Worker policy for the job engine (default: `MASK_JOBS`, else the
    /// machine's available parallelism).
    pub jobs: JobOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        let gpu = GpuConfig::maxwell();
        RunOptions {
            n_cores: gpu.n_cores,
            max_cycles: mask_common::config::DEFAULT_MAX_CYCLES,
            seed: mask_common::config::DEFAULT_SEED,
            warmup_cycles: mask_common::config::DEFAULT_EPOCH_CYCLES,
            gpu,
            jobs: JobOptions::default(),
        }
    }
}

/// Result of one shared pair run plus its alone baselines.
#[derive(Clone, Debug, PartialEq)]
pub struct PairOutcome {
    /// Workload name (`A_B`).
    pub name: String,
    /// The design simulated.
    pub design: DesignKind,
    /// Per-app IPC in the shared run.
    pub shared_ipc: Vec<f64>,
    /// Per-app IPC running alone on the same core counts.
    pub alone_ipc: Vec<f64>,
    /// Weighted speedup (§6).
    pub weighted_speedup: f64,
    /// Aggregate IPC of the shared run (§7.1 "IPC throughput").
    pub ipc_throughput: f64,
    /// Maximum slowdown (§6).
    pub unfairness: f64,
    /// Full statistics of the shared run, shared with the memo.
    pub stats: Arc<SimStats>,
}

/// Per-app IPCs, an app that ran no cycle at 0: the zero-IPC convention
/// [`weighted_speedup`] and [`unfairness`] document.
fn ipcs<'a>(apps: impl IntoIterator<Item = &'a AppStats>) -> Vec<f64> {
    apps.into_iter().map(|a| a.ipc().unwrap_or(0.0)).collect()
}

fn assemble_outcome(
    design: DesignKind,
    stats: Arc<SimStats>,
    alone_ipc: Vec<f64>,
    name: String,
) -> PairOutcome {
    let shared_ipc = ipcs(&stats.apps);
    PairOutcome {
        name,
        design,
        weighted_speedup: weighted_speedup(&shared_ipc, &alone_ipc),
        ipc_throughput: shared_ipc.iter().sum(),
        unfairness: unfairness(&shared_ipc, &alone_ipc),
        shared_ipc,
        alone_ipc,
        stats,
    }
}

/// Runs single apps, pairs, and n-app mixes through the job engine.
#[derive(Clone, Debug)]
pub struct PairRunner {
    opts: RunOptions,
    pool: JobPool,
}

impl PairRunner {
    /// Creates a runner; its [`JobPool`] honours `opts.jobs` and shares the
    /// process-wide result memo.
    #[must_use]
    pub fn new(opts: RunOptions) -> Self {
        let pool = JobPool::with_options(opts.jobs);
        PairRunner { opts, pool }
    }

    /// Creates a runner on an explicit pool (e.g. one with a private
    /// result memo, or shared with another runner).
    #[must_use]
    pub fn with_pool(opts: RunOptions, pool: JobPool) -> Self {
        PairRunner { opts, pool }
    }

    /// The options in use.
    #[must_use]
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// The job pool this runner submits to.
    #[must_use]
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// Builds the [`SimJob`] for one placement under this runner's options.
    fn job(&self, design: DesignKind, specs: Vec<AppSpec>) -> SimJob {
        SimJob {
            design,
            specs,
            max_cycles: self.opts.max_cycles,
            warmup_cycles: self.opts.warmup_cycles,
            seed: self.opts.seed,
            gpu: self.opts.gpu.clone(),
        }
    }

    /// Runs every placement × design as one shared run, with no alone
    /// baseline, in one [`JobPool::run_batch`] call: the statistics of
    /// `placements[p]` under `designs[d]`, measured after the warm-up window,
    /// are at index `p * designs.len() + d`.
    #[must_use]
    pub fn run_apps(
        &self,
        placements: &[Vec<AppSpec>],
        designs: &[DesignKind],
    ) -> Vec<Arc<SimStats>> {
        let jobs = placements
            .iter()
            .flat_map(|p| designs.iter().map(|&d| self.job(d, p.clone())));
        self.pool.run_batch(&jobs.collect::<Vec<_>>())
    }

    /// Plans, executes, and assembles a whole batch: for every placement ×
    /// design, the shared run plus one alone baseline per member app are
    /// submitted as jobs in a single [`JobPool::run_batch`] call.
    ///
    /// Returns outcomes placement-major, design-minor: the outcome of
    /// `placements[p]` under `designs[d]` is at index `p * designs.len() + d`.
    ///
    /// # Panics
    ///
    /// Panics if any placement is empty.
    #[must_use]
    pub fn run_batch(
        &self,
        placements: &[Vec<AppSpec>],
        designs: &[DesignKind],
    ) -> Vec<PairOutcome> {
        // Execute: the pool dedups equal jobs and fans out over workers.
        let stats = self.pool.run_batch(&self.plan_batch(placements, designs));
        Self::assemble_batch(placements, designs, stats)
    }

    /// The plan half of [`PairRunner::run_batch`]: one shared job plus
    /// per-app alone jobs per placement × design. Harnesses whose rows
    /// differ in machine configuration concatenate several runners' plans
    /// into one [`JobPool::run_batch`] call.
    pub(crate) fn plan_batch(
        &self,
        placements: &[Vec<AppSpec>],
        designs: &[DesignKind],
    ) -> Vec<SimJob> {
        let mut jobs = Vec::new();
        for placement in placements {
            assert!(!placement.is_empty(), "need at least one application");
            for &design in designs {
                jobs.push(self.job(design, placement.clone()));
                for spec in placement {
                    jobs.push(self.job(design, vec![*spec]));
                }
            }
        }
        jobs
    }

    /// The assemble half of [`PairRunner::run_batch`]: walks `stats` in the
    /// exact order [`PairRunner::plan_batch`] planned the jobs.
    pub(crate) fn assemble_batch(
        placements: &[Vec<AppSpec>],
        designs: &[DesignKind],
        stats: Vec<Arc<SimStats>>,
    ) -> Vec<PairOutcome> {
        let mut out = Vec::with_capacity(placements.len() * designs.len());
        let mut cursor = stats.into_iter();
        for placement in placements {
            let name = placement
                .iter()
                .map(|s| s.profile.name)
                .collect::<Vec<_>>()
                .join("_");
            for &design in designs {
                let shared = cursor.next().expect("one result per planned job");
                let alone: Vec<_> = placement
                    .iter()
                    .map(|_| cursor.next().expect("one result per planned job"))
                    .collect();
                let alone_ipc = ipcs(alone.iter().map(|s| &s.apps[0]));
                out.push(assemble_outcome(design, shared, alone_ipc, name.clone()));
            }
        }
        out
    }

    /// Runs every pair × design combination with even core splits in one
    /// batch. Outcomes are pair-major, design-minor (chunk by
    /// `designs.len()` to group per pair).
    #[must_use]
    pub fn run_pairs(&self, pairs: &[AppPair], designs: &[DesignKind]) -> Vec<PairOutcome> {
        let mixes: Vec<_> = pairs.iter().map(|p| vec![p.a, p.b]).collect();
        self.run_batch(&self.even_placements(&mixes), designs)
    }

    /// Runs one mix, looked up by benchmark names, with an even core split
    /// under one design; `None` if a name is unknown.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty or longer than the runner's core count.
    #[must_use]
    pub fn run_named(&self, names: &[&str], design: DesignKind) -> Option<PairOutcome> {
        let mix = names
            .iter()
            .copied()
            .map(app_by_name)
            .collect::<Option<_>>()?;
        self.run_batch(&self.even_placements(&[mix]), &[design])
            .pop()
    }

    /// The even-split placement of each mix: `n_cores / n` cores per app,
    /// the remainder to the last. Every harness splits cores this way.
    ///
    /// # Panics
    ///
    /// Panics if a mix is empty or has more apps than the runner has cores,
    /// which would leave an app with none.
    pub(crate) fn even_placements(&self, mixes: &[Vec<AppProfile>]) -> Vec<Vec<AppSpec>> {
        let total = self.opts.n_cores;
        mixes
            .iter()
            .map(|mix| {
                let n = mix.len();
                assert!(n > 0, "need at least one application");
                assert!(
                    n <= total,
                    "{n} apps cannot share {total} cores: an app would get none"
                );
                let base = total / n;
                mix.iter()
                    .enumerate()
                    .map(|(i, &profile)| AppSpec {
                        profile,
                        n_cores: base + if i + 1 == n { total % n } else { 0 },
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ResultMemo;

    fn small_opts() -> RunOptions {
        let mut gpu = GpuConfig::maxwell();
        gpu.warps_per_core = 16;
        RunOptions {
            n_cores: 4,
            max_cycles: 6_000,
            seed: 1,
            warmup_cycles: 1_000,
            gpu,
            jobs: JobOptions::serial(),
        }
    }

    fn private_runner() -> PairRunner {
        PairRunner::with_pool(
            small_opts(),
            JobPool::with_workers(1).with_cache(ResultMemo::new()),
        )
    }

    #[test]
    fn pair_outcome_has_consistent_metrics() {
        let r = PairRunner::new(small_opts());
        let o = r
            .run_named(&["HISTO", "GUP"], DesignKind::SharedTlb)
            .expect("known apps");
        assert_eq!(o.shared_ipc.len(), 2);
        assert_eq!(o.name, "HISTO_GUP");
        assert!(o.weighted_speedup > 0.0 && o.weighted_speedup <= 2.5);
        assert!(o.unfairness >= 1.0 - 1e-9 || o.unfairness > 0.0);
        assert!((o.ipc_throughput - o.shared_ipc.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn alone_runs_are_cached_exactly_once() {
        let memo = ResultMemo::new();
        let r = PairRunner::with_pool(
            small_opts(),
            JobPool::with_workers(1).with_cache(Arc::clone(&memo)),
        );
        let alone = [AppSpec {
            profile: app_by_name("GUP").expect("exists"),
            n_cores: 2,
        }];
        let a1 = r.run_apps(&[alone.to_vec()], &[DesignKind::SharedTlb]);
        let a2 = r.run_apps(&[alone.to_vec()], &[DesignKind::SharedTlb]);
        assert!(Arc::ptr_eq(&a1[0], &a2[0]));
        let cs = memo.stats();
        assert_eq!(cs.entries, 1);
        assert_eq!(cs.misses, 1, "baseline simulated exactly once");
        assert_eq!(cs.hits, 1, "repeat answered from the memo");
    }

    #[test]
    fn run_apps_simulates_only_the_shared_runs() {
        let memo = ResultMemo::new();
        let r = PairRunner::with_pool(
            small_opts(),
            JobPool::with_workers(2).with_cache(Arc::clone(&memo)),
        );
        let spec = |name, n_cores| AppSpec {
            profile: app_by_name(name).expect("known"),
            n_cores,
        };
        let placements = [vec![spec("HISTO", 2), spec("GUP", 2)], vec![spec("MUM", 4)]];
        let designs = [DesignKind::SharedTlb, DesignKind::Mask];
        let got = r.run_apps(&placements, &designs);
        assert_eq!(memo.stats().misses, 4, "no alone baseline is simulated");
        assert_eq!(got.len(), 4);
        for (p, placement) in placements.iter().enumerate() {
            for (d, &design) in designs.iter().enumerate() {
                let want = r.job(design, placement.clone()).run();
                assert_eq!(*got[p * designs.len() + d], want, "{p} {design:?}");
            }
        }
    }

    #[test]
    fn unknown_app_yields_none() {
        let r = private_runner();
        assert!(r.run_named(&["NOPE", "GUP"], DesignKind::Ideal).is_none());
    }

    #[test]
    fn multi_run_splits_cores() {
        let r = private_runner();
        let o = r
            .run_named(&["GUP", "HS", "BP"], DesignKind::SharedTlb)
            .expect("known apps");
        assert_eq!(o.shared_ipc.len(), 3);
        assert_eq!(o.name, "GUP_HS_BP");
        // Cores split 1/1/2 over 4 cores: all apps make progress.
        assert!(o.shared_ipc.iter().all(|&i| i > 0.0));
        let mix = ["GUP", "HS", "BP"].map(|n| app_by_name(n).expect("known"));
        let split = &r.even_placements(&[mix.to_vec()])[0];
        assert_eq!(
            split.iter().map(|s| s.n_cores).collect::<Vec<_>>(),
            [1, 1, 2]
        );
    }

    #[test]
    fn batch_order_matches_single_runs() {
        let r = private_runner();
        let pairs = [
            AppPair {
                a: app_by_name("HISTO").expect("known"),
                b: app_by_name("GUP").expect("known"),
            },
            AppPair {
                a: app_by_name("MUM").expect("known"),
                b: app_by_name("LPS").expect("known"),
            },
        ];
        let designs = [DesignKind::SharedTlb, DesignKind::Mask];
        let batch = r.run_pairs(&pairs, &designs);
        assert_eq!(batch.len(), 4);
        for (i, pair) in pairs.iter().enumerate() {
            for (j, &design) in designs.iter().enumerate() {
                let got = &batch[i * designs.len() + j];
                assert_eq!(got.name, pair.name());
                assert_eq!(got.design, design);
                let names = [pair.a.name, pair.b.name];
                assert_eq!(Some(got), r.run_named(&names, design).as_ref());
            }
        }
    }

    #[test]
    #[should_panic(expected = "5 apps cannot share 4 cores")]
    fn a_mix_with_more_apps_than_cores_is_refused() {
        let gup = app_by_name("GUP").expect("known");
        let _ = private_runner().even_placements(&[vec![gup; 5]]);
    }

    #[test]
    fn ideal_weighted_speedup_beats_shared_tlb() {
        // MUM scatters 4 pages per memory instruction, so translation
        // pressure saturates the walker even on the tiny test GPU.
        let r = PairRunner::new(RunOptions {
            max_cycles: 12_000,
            ..small_opts()
        });
        let base = r
            .run_named(&["MUM", "RED"], DesignKind::SharedTlb)
            .expect("known");
        let ideal = r
            .run_named(&["MUM", "RED"], DesignKind::Ideal)
            .expect("known");
        assert!(
            ideal.ipc_throughput > base.ipc_throughput,
            "ideal {:.3} vs base {:.3}",
            ideal.ipc_throughput,
            base.ipc_throughput
        );
    }
}
