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
//! shared runs feed several figures, so every experiment (and every oracle
//! probe) shares one memo and each unique run is simulated exactly once
//! per process.
//!
//! The batch entry points ([`PairRunner::run_pairs`],
//! [`PairRunner::run_multi_batch`], [`PairRunner::run_batch`]) submit whole
//! workload sets to the [`JobPool`] at once, so independent simulations fan
//! out over `MASK_JOBS` worker threads while results stay bit-identical at
//! any worker count.
//!
//! Mixes hold each [`AppProfile`] by value; a job is keyed by its parameters
//! (a stock profile by its bare name), so a mix may carry a swept copy.

use crate::engine::{JobPool, SimJob};
use crate::metrics::{unfairness, weighted_speedup};
use mask_common::config::{DesignKind, GpuConfig, JobOptions};
use mask_common::stats::SimStats;
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
    /// 100K-cycle epoch, so the default warm-up is one epoch.
    pub warmup_cycles: u64,
    /// Machine template (its `n_cores` is overridden per run).
    pub gpu: GpuConfig,
    /// Worker policy for the job engine (default: `MASK_JOBS`, else the
    /// machine's available parallelism).
    pub jobs: JobOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            n_cores: 30,
            max_cycles: mask_common::config::default_max_cycles(),
            seed: 0xA55A_2018,
            warmup_cycles: 100_000,
            gpu: GpuConfig::maxwell(),
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

fn assemble_outcome(
    design: DesignKind,
    stats: Arc<SimStats>,
    alone_ipc: Vec<f64>,
    name: String,
) -> PairOutcome {
    let shared_ipc: Vec<f64> = stats.apps.iter().map(mask_common::AppStats::ipc).collect();
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

    /// Splits `n_cores` evenly over `n` apps (remainder to the last app).
    fn even_split(&self, n: usize) -> Vec<usize> {
        let base = self.opts.n_cores / n;
        (0..n)
            .map(|i| {
                if i == n - 1 {
                    self.opts.n_cores - base * (n - 1)
                } else {
                    base
                }
            })
            .collect()
    }

    /// Runs an arbitrary placement and returns its statistics, measured
    /// after the warm-up window, served from the result memo when it holds
    /// them.
    #[must_use]
    pub fn run_apps(&self, design: DesignKind, specs: &[AppSpec]) -> Arc<SimStats> {
        let jobs = [self.job(design, specs.to_vec())];
        self.pool
            .run_batch(&jobs)
            .pop()
            .expect("one job in, one result out")
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
                let alone_ipc: Vec<f64> = placement
                    .iter()
                    .map(|_| cursor.next().expect("one result per planned job").apps[0].ipc())
                    .collect();
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
        self.run_batch(&self.pair_placements(pairs), designs)
    }

    /// The even-split placement of each pair.
    pub(crate) fn pair_placements(&self, pairs: &[AppPair]) -> Vec<Vec<AppSpec>> {
        let mixes: Vec<_> = pairs.iter().map(|p| vec![p.a, p.b]).collect();
        self.even_placements(&mixes)
    }

    /// The even-split placement of each mix.
    fn even_placements(&self, mixes: &[Vec<AppProfile>]) -> Vec<Vec<AppSpec>> {
        mixes
            .iter()
            .map(|mix| {
                assert!(!mix.is_empty(), "need at least one application");
                let split = self.even_split(mix.len());
                mix.iter()
                    .zip(split)
                    .map(|(&profile, n_cores)| AppSpec { profile, n_cores })
                    .collect()
            })
            .collect()
    }

    /// Runs every mix × design combination with even core splits in one
    /// batch. Outcomes are mix-major, design-minor.
    ///
    /// # Panics
    ///
    /// Panics if any mix is empty.
    #[must_use]
    pub fn run_multi_batch(
        &self,
        mixes: &[Vec<AppProfile>],
        designs: &[DesignKind],
    ) -> Vec<PairOutcome> {
        self.run_batch(&self.even_placements(mixes), designs)
    }

    /// Runs a two-application workload with an even core split.
    #[must_use]
    pub fn run_pair(&self, a: AppProfile, b: AppProfile, design: DesignKind) -> PairOutcome {
        let ca = self.opts.n_cores / 2;
        let cb = self.opts.n_cores - ca;
        self.run_pair_split(a, b, design, ca, cb)
    }

    /// Runs a two-application workload with an explicit core split.
    #[must_use]
    pub fn run_pair_split(
        &self,
        a: AppProfile,
        b: AppProfile,
        design: DesignKind,
        cores_a: usize,
        cores_b: usize,
    ) -> PairOutcome {
        let placement = vec![
            AppSpec {
                profile: a,
                n_cores: cores_a,
            },
            AppSpec {
                profile: b,
                n_cores: cores_b,
            },
        ];
        self.run_batch(std::slice::from_ref(&placement), &[design])
            .pop()
            .expect("one placement in, one outcome out")
    }

    /// Runs a pair looked up by benchmark names.
    #[must_use]
    pub fn run_named(&self, a: &str, b: &str, design: DesignKind) -> Option<PairOutcome> {
        Some(self.run_pair(app_by_name(a)?, app_by_name(b)?, design))
    }

    /// Finds the best core split for a pair by probing candidate splits
    /// with short runs, then runs the full-length simulation at the winner.
    ///
    /// This implements the paper's oracle scheduler (§6): "the scheduler
    /// partitions the cores according to the best weighted speedup for that
    /// pair found by an exhaustive search over all possible static core
    /// partitionings". We bound the search to `candidates` splits (cores
    /// assigned to the first app) probed at `probe_cycles` each; pass every
    /// value in `1..n_cores` for the paper's exhaustive variant.
    ///
    /// All candidate probes are submitted as one batch, and their runs flow
    /// through the same memo as everything else — identical probe
    /// baselines are simulated once, not once per candidate.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    #[must_use]
    pub fn run_pair_oracle(
        &self,
        a: AppProfile,
        b: AppProfile,
        design: DesignKind,
        candidates: &[usize],
        probe_cycles: u64,
    ) -> PairOutcome {
        assert!(!candidates.is_empty(), "need at least one candidate split");
        let probe_runner = PairRunner::with_pool(
            RunOptions {
                max_cycles: probe_cycles.max(2),
                warmup_cycles: probe_cycles / 4,
                ..self.opts.clone()
            },
            self.pool.clone(),
        );
        let valid: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&ca| ca != 0 && ca < self.opts.n_cores)
            .collect();
        let placements: Vec<Vec<AppSpec>> = valid
            .iter()
            .map(|&ca| {
                vec![
                    AppSpec {
                        profile: a,
                        n_cores: ca,
                    },
                    AppSpec {
                        profile: b,
                        n_cores: self.opts.n_cores - ca,
                    },
                ]
            })
            .collect();
        let probes = probe_runner.run_batch(&placements, &[design]);
        let mut best = (f64::MIN, self.opts.n_cores / 2);
        for (&ca, o) in valid.iter().zip(&probes) {
            if o.weighted_speedup > best.0 {
                best = (o.weighted_speedup, ca);
            }
        }
        self.run_pair_split(a, b, design, best.1, self.opts.n_cores - best.1)
    }

    /// Runs `n` applications with an even core split, returning the shared
    /// stats plus per-app weighted-speedup inputs.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    #[must_use]
    pub fn run_multi(&self, profiles: &[AppProfile], design: DesignKind) -> PairOutcome {
        self.run_multi_batch(std::slice::from_ref(&profiles.to_vec()), &[design])
            .pop()
            .expect("one mix in, one outcome out")
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
            .run_named("HISTO", "GUP", DesignKind::SharedTlb)
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
        let a1 = r.run_apps(DesignKind::SharedTlb, &alone);
        let a2 = r.run_apps(DesignKind::SharedTlb, &alone);
        assert!(Arc::ptr_eq(&a1, &a2));
        let cs = memo.stats();
        assert_eq!(cs.entries, 1);
        assert_eq!(cs.misses, 1, "baseline simulated exactly once");
        assert_eq!(cs.hits, 1, "repeat answered from the memo");
    }

    #[test]
    fn unknown_app_yields_none() {
        let r = private_runner();
        assert!(r.run_named("NOPE", "GUP", DesignKind::Ideal).is_none());
    }

    #[test]
    fn multi_run_splits_cores() {
        let r = private_runner();
        let apps = ["GUP", "HS", "BP"].map(|n| app_by_name(n).expect("known"));
        let o = r.run_multi(&apps, DesignKind::SharedTlb);
        assert_eq!(o.shared_ipc.len(), 3);
        assert_eq!(o.name, "GUP_HS_BP");
        // Cores split 1/1/2 over 4 cores: all apps make progress.
        assert!(o.shared_ipc.iter().all(|&i| i > 0.0));
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
                assert_eq!(*got, r.run_pair(pair.a, pair.b, design));
            }
        }
    }

    #[test]
    fn oracle_split_is_at_least_as_good_as_even() {
        let r = private_runner();
        let a = app_by_name("MUM").expect("known");
        let b = app_by_name("LPS").expect("known");
        let even = r.run_pair(a, b, DesignKind::SharedTlb);
        let oracle = r.run_pair_oracle(a, b, DesignKind::SharedTlb, &[1, 2, 3], 3_000);
        // The oracle probes include the even split, so modulo probe noise
        // it should not be substantially worse.
        assert!(
            oracle.weighted_speedup >= even.weighted_speedup * 0.9,
            "oracle ({:.3}) much worse than even split ({:.3})",
            oracle.weighted_speedup,
            even.weighted_speedup
        );
    }

    #[test]
    fn oracle_probe_runs_land_in_the_shared_memo() {
        let memo = ResultMemo::new();
        let r = PairRunner::with_pool(
            small_opts(),
            JobPool::with_workers(1).with_cache(Arc::clone(&memo)),
        );
        let a = app_by_name("MUM").expect("known");
        let b = app_by_name("LPS").expect("known");
        let _ = r.run_pair_oracle(a, b, DesignKind::SharedTlb, &[1, 2, 3], 3_000);
        let after_first = memo.stats();
        // 3 probe splits × (1 shared + 2 alone runs) at probe length, then
        // the full-length shared run and its 2 baselines at the winner.
        assert_eq!(after_first.entries as u64, after_first.misses);
        // A second oracle run over the same candidates re-simulates nothing.
        let _ = r.run_pair_oracle(a, b, DesignKind::SharedTlb, &[1, 2, 3], 3_000);
        let after_second = memo.stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits > after_first.hits);
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
            .run_named("MUM", "RED", DesignKind::SharedTlb)
            .expect("known");
        let ideal = r.run_named("MUM", "RED", DesignKind::Ideal).expect("known");
        assert!(
            ideal.ipc_throughput > base.ipc_throughput,
            "ideal {:.3} vs base {:.3}",
            ideal.ipc_throughput,
            base.ipc_throughput
        );
    }
}
