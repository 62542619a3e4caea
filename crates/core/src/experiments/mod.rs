//! Experiment harnesses: one module per paper table/figure, and
//! [`REGISTRY`], the artefact ids `repro` regenerates (DESIGN.md §5).
//!
//! All harnesses honor three environment variables so the whole suite can
//! be scaled: `MASK_SIM_CYCLES` (cycles per run), `MASK_PAIR_LIMIT`
//! (number of two-app workloads simulated), and `MASK_JOBS` (worker
//! threads the job engine fans simulations over; `1` = serial). Every
//! harness submits its runs as one job batch, so independent simulations
//! execute concurrently while results stay bit-identical at any worker
//! count.

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

use crate::metrics::mean;
use crate::overhead::{AreaPower, StorageCost};
use crate::runner::{PairOutcome, PairRunner, RunOptions};
use crate::table::Table;
use mask_common::config::{DesignKind, GpuConfig, JobOptions};
use mask_workloads::HmrCategory;

/// One artefact `repro` regenerates: its id, the pairs it simulates unless
/// `MASK_PAIR_LIMIT` is set (heavy sweeps default to fewer), and the
/// function producing its tables.
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
    ("fig11_15", 35, fig11_15),
    ("tab02", 35, |_| vec![single_app::tab02()]),
    ("tab03", 35, |o| vec![scalability::run(o)]),
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

fn fig11_15(o: &ExpOptions) -> Vec<Table> {
    let s = multiprog::sweep(o, &DesignKind::ALL);
    let mut tables = vec![s.fig03(), s.fig11_weighted_speedup()];
    tables.extend(HmrCategory::ALL.map(|c| s.fig12_14_per_workload(c)));
    tables.extend([s.fig15_unfairness(), s.headline()]);
    tables
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
/// design-minor over `designs` designs.
fn avg_ws(outcomes: &[PairOutcome], designs: usize) -> Vec<f64> {
    let ws = |d| {
        outcomes
            .iter()
            .skip(d)
            .step_by(designs)
            .map(|o| o.weighted_speedup)
    };
    (0..designs).map(|d| mean(ws(d))).collect()
}

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
        ExpOptions {
            cycles: mask_common::config::default_max_cycles(),
            n_cores: 30,
            warps_per_core: 64,
            pair_limit: mask_common::config::default_pair_limit(),
            seed: 0xA55A_2018,
            jobs: JobOptions::default(),
        }
    }
}

impl ExpOptions {
    /// The defaults with at most `pair_cap` pairs, unless `MASK_PAIR_LIMIT`
    /// is set.
    pub fn with_pair_cap(pair_cap: usize) -> Self {
        let mut opts = ExpOptions::default();
        if mask_common::config::pair_limit_override().is_none() {
            opts.pair_limit = opts.pair_limit.min(pair_cap);
        }
        opts
    }

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

    /// Builds a [`PairRunner`] honoring these options.
    pub fn runner(&self) -> PairRunner {
        PairRunner::new(self.run_options())
    }

    /// Builds [`RunOptions`] honoring these options.
    pub fn run_options(&self) -> RunOptions {
        let mut gpu = GpuConfig::maxwell();
        gpu.warps_per_core = self.warps_per_core;
        RunOptions {
            n_cores: self.n_cores,
            max_cycles: self.cycles,
            seed: self.seed,
            warmup_cycles: 100_000,
            gpu,
            jobs: self.jobs,
        }
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
    fn default_honors_env_shape() {
        let o = ExpOptions::default();
        assert_eq!(o.n_cores, 30);
        assert!(o.pair_limit >= 1 && o.pair_limit <= 35);
    }

    #[test]
    fn quick_options_are_small() {
        let o = ExpOptions::quick();
        assert!(o.cycles <= 10_000);
        assert_eq!(o.pairs().len(), 2);
    }
}
