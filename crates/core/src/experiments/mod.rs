//! Experiment harnesses: one module per paper table/figure, and
//! [`REGISTRY`], the artefact ids `repro` regenerates (DESIGN.md §5).
//!
//! A harness runs at the [`ExpOptions`] it is given and reads no
//! environment variable of its own: `repro` reads `MASK_SIM_CYCLES` (cycles
//! per run) and `MASK_PAIR_LIMIT` (number of two-app workloads simulated)
//! into the options it passes, and the job engine reads `MASK_JOBS` (worker
//! threads it fans simulations over; `1` = serial). A harness
//! submits its runs as one job batch ([`timemux`] one engine job, then
//! steps that job's `GpuSim` directly), so simulations run concurrently and
//! bit-identically at any worker count. One that reads no alone baseline
//! simulates none (`PairRunner::run_apps`).

pub mod ablation;
pub mod components;
pub mod dram_char;
pub mod fidelity;
pub mod generality;
pub mod interference;
pub mod multiprog;
pub mod scalability;
pub mod sensitivity;
pub mod single_app;
pub mod timemux;

use crate::engine::JobPool;
use crate::metrics::mean;
use crate::overhead::{AreaPower, StorageCost};
use crate::runner::{PairOutcome, PairRunner, RunOptions};
use crate::table::Table;
use mask_common::config::{DesignKind, GpuConfig, JobOptions};

/// One artefact `repro` regenerates: its id, the pairs it simulates unless
/// `repro` is given another pair count (heavy sweeps default to fewer), and
/// the function producing its tables.
pub type Artefact = (&'static str, usize, fn(&ExpOptions) -> Vec<Table>);

/// Every artefact of the paper's evaluation, plus the design ablations.
/// `fig11_15` emits Fig. 3 as well, from the same sweep.
pub static REGISTRY: [Artefact; 13] = [
    ("fig01", 35, |o| vec![timemux::run(o)]),
    ("fig03", 35, |o| {
        vec![multiprog::sweep(o, &multiprog::FIG03_DESIGNS).fig03()]
    }),
    ("fig05_06", 35, fig05_06),
    ("fig07", 35, |o| vec![interference::run(o)]),
    ("fig08_09", 35, fig08_09),
    ("fig11_15", 35, |o| {
        multiprog::sweep(o, &DesignKind::ALL).tables()
    }),
    ("tab02", 35, |o| {
        vec![single_app::tab02(&single_app::measure(o))]
    }),
    ("tab03", 35, |o| vec![scalability::throughput(o)]),
    ("tab04", 6, |o| vec![generality::run(o)]),
    ("sec72", 8, |o| vec![components::run(o)]),
    ("sec73", 2, sec73),
    ("sec74", 35, sec74),
    ("ablations", 2, ablations),
];

/// The registry entry named `id`.
pub fn artefact(id: &str) -> Option<&'static Artefact> {
    REGISTRY.iter().find(|a| a.0 == id)
}

fn fig05_06(o: &ExpOptions) -> Vec<Table> {
    let rows = single_app::measure(o);
    vec![single_app::fig05(&rows), single_app::fig06(&rows)]
}

fn fig08_09(o: &ExpOptions) -> Vec<Table> {
    let rows = dram_char::measure(o);
    vec![dram_char::fig08(&rows), dram_char::fig09(&rows)]
}

fn sec73(o: &ExpOptions) -> Vec<Table> {
    use sensitivity::{demand_paging, large_pages, memory_policies, tlb_size_sweep, walker_slots};
    vec![
        tlb_size_sweep(o),
        large_pages(o),
        memory_policies(o),
        demand_paging(o),
        walker_slots(o),
    ]
}

fn sec74(_: &ExpOptions) -> Vec<Table> {
    let cfg = GpuConfig::maxwell();
    vec![
        StorageCost::compute(&cfg).to_table(),
        AreaPower::compute(&cfg).to_table(),
    ]
}

fn ablations(o: &ExpOptions) -> Vec<Table> {
    use ablation::{bypass_margin, epoch_length, golden_capacity, token_policy};
    vec![
        token_policy(o),
        bypass_margin(o),
        golden_capacity(o),
        epoch_length(o),
    ]
}

/// Average weighted speedup per design of `outcomes`, which are
/// design-minor over `designs` designs (`None` for a design with no
/// outcome).
fn avg_ws(outcomes: &[PairOutcome], designs: usize) -> Vec<Option<f64>> {
    let ws = |d| {
        outcomes
            .iter()
            .skip(d)
            .step_by(designs)
            .map(|o| o.weighted_speedup)
    };
    (0..designs).map(|d| mean(ws(d))).collect()
}

/// Default number of paper workload pairs an experiment simulates: all 35
/// two-app pairs the paper evaluates.
pub const DEFAULT_PAIR_LIMIT: usize = 35;

/// Common experiment options.
#[derive(Clone, Debug)]
pub struct ExpOptions {
    /// Cycles per simulation run.
    pub cycles: u64,
    /// Total GPU cores.
    pub n_cores: usize,
    /// Warp contexts per core.
    pub warps_per_core: usize,
    /// Number of paper pairs to simulate (1..=35).
    pub pair_limit: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker policy for the job engine (default: `MASK_JOBS`, else the
    /// machine's available parallelism).
    pub jobs: JobOptions,
}

impl Default for ExpOptions {
    fn default() -> Self {
        let run = RunOptions::default();
        ExpOptions {
            cycles: run.max_cycles,
            n_cores: run.gpu.n_cores,
            warps_per_core: run.gpu.warps_per_core,
            pair_limit: DEFAULT_PAIR_LIMIT,
            seed: run.seed,
            jobs: JobOptions::default(),
        }
    }
}

impl ExpOptions {
    /// A fast configuration for unit/integration tests.
    pub fn quick() -> Self {
        ExpOptions {
            cycles: 5_000,
            n_cores: 4,
            warps_per_core: 16,
            pair_limit: 2,
            seed: 7,
            jobs: JobOptions::default(),
        }
    }

    /// Builds a [`PairRunner`] honoring these options, on a pool with
    /// their worker policy.
    pub fn runner(&self) -> PairRunner {
        PairRunner::with_pool(self.run_options(), JobPool::with_options(self.jobs))
    }

    /// Builds [`RunOptions`] honoring these options: the Table 1 machine
    /// with these core and warp counts.
    pub fn run_options(&self) -> RunOptions {
        let mut run = RunOptions {
            max_cycles: self.cycles,
            seed: self.seed,
            ..RunOptions::default()
        };
        run.gpu.n_cores = self.n_cores;
        run.gpu.warps_per_core = self.warps_per_core;
        run
    }

    /// The paper pairs to simulate, truncated to `pair_limit`.
    pub fn pairs(&self) -> Vec<mask_workloads::AppPair> {
        let mut p = mask_workloads::paper_pairs();
        p.truncate(self.pair_limit.max(1));
        p
    }

    /// Like [`ExpOptions::pairs`], but samples the most translation-
    /// pressured pairs first (2-HMR before 1-HMR before 0-HMR, stable
    /// within a category). Experiments that default to a small pair subset
    /// use this so the subset actually exercises the contention the paper
    /// studies.
    pub fn pressured_pairs(&self) -> Vec<mask_workloads::AppPair> {
        let mut p = mask_workloads::paper_pairs();
        p.sort_by_key(|pair| std::cmp::Reverse(pair.hmr_count()));
        p.truncate(self.pair_limit.max(1));
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_scale() {
        let o = ExpOptions::default();
        assert_eq!(o.cycles, 300_000);
        assert_eq!(o.pair_limit, 35);
        assert_eq!(o.pairs().len(), 35);
        assert_eq!((o.n_cores, o.warps_per_core), (30, 64));
        assert_eq!(o.run_options().gpu.n_cores, o.n_cores);
    }

    #[test]
    fn quick_options_are_small() {
        let o = ExpOptions::quick();
        assert!(o.cycles <= 10_000);
        assert_eq!(o.pairs().len(), 2);
        assert_eq!(o.run_options().gpu.n_cores, o.n_cores);
    }
}
