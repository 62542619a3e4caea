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
//! [`PairRunner::run_apps`] submits shared runs only. Every run with alone
//! baselines, which weighted speedup and unfairness read, goes through one
//! planner: [`PairRunner::run_pairs`] and [`PairRunner::run_named`] plan on
//! the runner's machine, and the harnesses whose rows or columns differ by
//! machine plan on several. Each call submits one [`JobPool`] batch, so
//! independent simulations fan out over the pool's worker threads while
//! results stay bit-identical at any count.
//!
//! Mixes hold each [`AppProfile`] by value; a job is keyed by its
//! parameters (every profile by its `Debug` rendering), so a mix may carry
//! a swept copy.

use crate::engine::{JobPool, SimJob};
use crate::metrics::{unfairness, weighted_speedup};
use mask_common::config::{DesignKind, GpuConfig};
use mask_common::stats::{AppStats, SimStats};
use mask_gpu::AppSpec;
use mask_workloads::{app_by_name, AppPair, AppProfile};
use std::sync::Arc;

/// The job template a [`PairRunner`] plans: everything of a run but its
/// design and placement.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Cycles per run.
    pub max_cycles: u64,
    /// Base PRNG seed.
    pub seed: u64,
    /// Warm-up cycles excluded from measurement (clamped to at most half
    /// of `max_cycles`). MASK's epoch mechanisms engage after the first
    /// epoch, so the default warm-up is one default epoch.
    pub warmup_cycles: u64,
    /// The machine. Its `n_cores` (Table 1: 30) is what each mix is split
    /// over; an alone run keeps its app's share of them.
    pub gpu: GpuConfig,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_cycles: mask_common::config::DEFAULT_MAX_CYCLES,
            seed: mask_common::config::DEFAULT_SEED,
            warmup_cycles: mask_common::config::DEFAULT_EPOCH_CYCLES,
            gpu: GpuConfig::maxwell(),
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

/// The even-split placement of each mix over `total` cores: `total / n`
/// cores per app, the remainder to the last. Every harness splits cores
/// this way.
///
/// # Panics
///
/// Panics if a mix is empty or has more apps than `total`, which would
/// leave an app with none.
fn even_split(total: usize, mixes: &[Vec<AppProfile>]) -> Vec<Vec<AppSpec>> {
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

/// Runs single apps, pairs, and n-app mixes through the job engine.
#[derive(Clone, Debug)]
pub struct PairRunner {
    opts: RunOptions,
    pool: JobPool,
}

impl PairRunner {
    /// Creates a runner on the default pool ([`JobPool::from_env`]), which
    /// shares the process-wide result memo.
    #[must_use]
    pub fn new(opts: RunOptions) -> Self {
        Self::with_pool(opts, JobPool::from_env())
    }

    /// Creates a runner on an explicit pool (e.g. one with a set worker
    /// count or a private result memo, or shared with another runner).
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

    /// The [`SimJob`] of one placement on `gpu` under this runner's
    /// budgets and seed.
    fn job(&self, gpu: &GpuConfig, design: DesignKind, specs: Vec<AppSpec>) -> SimJob {
        SimJob {
            design,
            specs,
            max_cycles: self.opts.max_cycles,
            warmup_cycles: self.opts.warmup_cycles,
            seed: self.opts.seed,
            gpu: gpu.clone(),
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
        let jobs = placements.iter().flat_map(|p| {
            designs
                .iter()
                .map(|&d| self.job(&self.opts.gpu, d, p.clone()))
        });
        self.pool.run_batch(&jobs.collect::<Vec<_>>())
    }

    /// The one planner of runs with alone baselines. On each of `machines`,
    /// each mix is split evenly over the machine's cores and runs shared
    /// under each design, and each member app runs alone on its share; all
    /// of it goes out as one [`JobPool::run_batch`] call.
    ///
    /// Returns outcomes machine-major, then mix, then design: chunk by
    /// `mixes.len() * designs.len()` to group per machine.
    ///
    /// # Panics
    ///
    /// Panics if a mix is empty or has more apps than its machine has
    /// cores.
    pub(crate) fn run_grid(
        &self,
        machines: &[GpuConfig],
        mixes: &[Vec<AppProfile>],
        designs: &[DesignKind],
    ) -> Vec<PairOutcome> {
        let grid: Vec<_> = machines
            .iter()
            .flat_map(|gpu| {
                even_split(gpu.n_cores, mixes)
                    .into_iter()
                    .flat_map(move |p| designs.iter().map(move |&d| (gpu, p.clone(), d)))
            })
            .collect();
        let jobs: Vec<_> = grid
            .iter()
            .flat_map(|(gpu, placement, design)| {
                let alone = placement.iter().map(|spec| vec![*spec]);
                std::iter::once(placement.clone())
                    .chain(alone)
                    .map(|specs| self.job(gpu, *design, specs))
            })
            .collect();
        // The pool dedups equal jobs and fans out over workers; the results
        // come back in plan order.
        let mut stats = self.pool.run_batch(&jobs).into_iter();
        grid.into_iter()
            .map(|(_, placement, design)| {
                let shared = stats.next().expect("one result per planned job");
                let alone: Vec<_> = stats.by_ref().take(placement.len()).collect();
                let alone_ipc = ipcs(alone.iter().map(|s| &s.apps[0]));
                let shared_ipc = ipcs(&shared.apps);
                let names: Vec<_> = placement.iter().map(|s| s.profile.name).collect();
                PairOutcome {
                    name: names.join("_"),
                    design,
                    weighted_speedup: weighted_speedup(&shared_ipc, &alone_ipc),
                    ipc_throughput: shared_ipc.iter().sum(),
                    unfairness: unfairness(&shared_ipc, &alone_ipc),
                    shared_ipc,
                    alone_ipc,
                    stats: shared,
                }
            })
            .collect()
    }

    /// Runs every pair × design combination with even core splits in one
    /// batch. Outcomes are pair-major, design-minor (chunk by
    /// `designs.len()` to group per pair).
    #[must_use]
    pub fn run_pairs(&self, pairs: &[AppPair], designs: &[DesignKind]) -> Vec<PairOutcome> {
        let mixes: Vec<_> = pairs.iter().map(|p| vec![p.a, p.b]).collect();
        self.run_grid(std::slice::from_ref(&self.opts.gpu), &mixes, designs)
    }

    /// Runs one mix, looked up by benchmark names, with an even core split
    /// under one design; `None` if a name is unknown.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty or longer than the machine's core count.
    #[must_use]
    pub fn run_named(&self, names: &[&str], design: DesignKind) -> Option<PairOutcome> {
        let mix = names
            .iter()
            .copied()
            .map(app_by_name)
            .collect::<Option<_>>()?;
        self.run_grid(std::slice::from_ref(&self.opts.gpu), &[mix], &[design])
            .pop()
    }

    /// The even-split placement of each mix over the machine's cores (see
    /// [`PairRunner::run_grid`]).
    ///
    /// # Panics
    ///
    /// Panics if a mix is empty or has more apps than the machine has
    /// cores.
    pub(crate) fn even_placements(&self, mixes: &[Vec<AppProfile>]) -> Vec<Vec<AppSpec>> {
        even_split(self.opts.gpu.n_cores, mixes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ResultMemo;

    fn small_opts() -> RunOptions {
        let mut gpu = GpuConfig::maxwell();
        gpu.n_cores = 4;
        gpu.warps_per_core = 16;
        RunOptions {
            max_cycles: 6_000,
            seed: 1,
            warmup_cycles: 1_000,
            gpu,
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
                let want = r.job(&r.opts.gpu, design, placement.clone()).run();
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
    fn one_plan_over_two_machines_equals_each_machines_own() {
        let memo = ResultMemo::new();
        let pool = JobPool::with_workers(2).with_cache(Arc::clone(&memo));
        let mut narrow = small_opts().gpu;
        narrow.n_cores = 2;
        narrow.tlb.l2_entries /= 2;
        let machines = [small_opts().gpu, narrow];
        let pair = |a, b| AppPair {
            a: app_by_name(a).expect("known"),
            b: app_by_name(b).expect("known"),
        };
        // The second pair reverses the first: new shared runs, but the
        // same alone runs.
        let pairs = [pair("HISTO", "GUP"), pair("GUP", "HISTO")];
        let mixes: Vec<_> = pairs.iter().map(|p| vec![p.a, p.b]).collect();
        let designs = [DesignKind::SharedTlb, DesignKind::Mask];
        let r = PairRunner::with_pool(small_opts(), pool.clone());
        let got = r.run_grid(&machines, &mixes, &designs);
        let mut want = Vec::new();
        for gpu in &machines {
            let opts = RunOptions {
                gpu: gpu.clone(),
                ..small_opts()
            };
            want.extend(PairRunner::with_pool(opts, pool.clone()).run_pairs(&pairs, &designs));
        }
        assert_eq!(got, want);
        // Per machine and design: 2 shared runs and 2 distinct alone runs.
        assert_eq!(memo.stats().misses, 2 * 2 * 4, "each unique job once");
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
