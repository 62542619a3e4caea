//! `headline_sweep`: the Fig. 11 pair x design sweep through the job
//! engine on two workers.
//!
//! The sweep is one indivisible unit, so it is passed over several times,
//! every pass through the same path: a `PairRunner` on an engine of its
//! own, whose caches start empty. Every pass then does the same work, must
//! return the same outcomes and counts, and the fast pass can be told from
//! the passes a busy host slowed down. `multiprog::sweep`, the entry point
//! `cargo bench --bench fig11_15_multiprog` uses, is that same call on the
//! process-wide caches; set-up runs small sweeps through it.

use crate::engine::{exp_options, private_pool, DESIGNS};
use crate::report::Report;
use crate::stats::Quartiles;
use crate::trace::Tracer;
use crate::Ctx;
use mask_common::config::DesignKind;
use mask_core::experiments::{multiprog, ExpOptions};
use mask_core::PairRunner;
use std::time::Instant;

/// Engine workers; the benchmark never loads more than two threads.
const WORKERS: usize = 2;

/// The four Section 7.1 claims, in percent: weighted-speedup gain over
/// SharedTLB, shortfall against Ideal, IPC-throughput gain, unfairness
/// reduction.
const PAPER_HEADLINE: [f64; 4] = [57.8, 23.2, 43.4, 22.4];

#[derive(Clone, Copy, Debug)]
pub struct SweepSizes {
    pub passes: usize,
    pub pairs: usize,
    pub cycles: u64,
    pub n_cores: usize,
    pub warps_per_core: usize,
    /// Cycles, SMs and warps of the small sweep that set-up runs.
    pub setup: (u64, usize, usize),
}

impl SweepSizes {
    /// A pass is indivisible, so the time budget chooses how many of the
    /// 35 paper pairs (in the paper's order, which mixes the three HMR
    /// classes) each of the three passes covers: 4 at 20 seconds, all 35
    /// from 175 seconds up. Cycles, SMs and warps are the EXPERIMENTS.md
    /// setting.
    pub fn for_seconds(seconds: u64) -> SweepSizes {
        SweepSizes {
            passes: 3,
            pairs: (seconds as usize / 5).clamp(2, 35),
            cycles: 200_000,
            n_cores: 30,
            warps_per_core: 64,
            setup: (40_000, 8, 16),
        }
    }

    pub fn smoke() -> SweepSizes {
        SweepSizes {
            passes: 2,
            pairs: 3,
            cycles: 6_000,
            n_cores: 4,
            warps_per_core: 8,
            setup: (2_000, 2, 4),
        }
    }

    pub fn options(&self, seed: u64) -> ExpOptions {
        exp_options(
            (self.cycles, self.n_cores, self.warps_per_core),
            self.pairs,
            seed,
            WORKERS,
        )
    }
}

/// One (pair, design) outcome as the headline needs it: the pair's HMR
/// class, the design, and weighted speedup, IPC throughput and unfairness.
type Row = (usize, DesignKind, [f64; 3]);

/// The four headline quantities computed as `MultiprogSweep::headline`
/// computes them, from the unrounded outcomes of the pairs in HMR class
/// `only` (all pairs when `None`).
fn headline(rows: &[Row], only: Option<usize>) -> Option<[f64; 4]> {
    // Per design: mean weighted speedup, IPC throughput and unfairness.
    let means = |design: DesignKind| {
        let picked: Vec<&[f64; 3]> = rows
            .iter()
            .filter(|(hmr, d, _)| *d == design && only.is_none_or(|o| *hmr == o))
            .map(|(_, _, v)| v)
            .collect();
        let n = picked.len() as f64;
        (!picked.is_empty())
            .then(|| [0, 1, 2].map(|i| picked.iter().map(|v| v[i]).sum::<f64>() / n))
    };
    let [base_ws, base_ipc, base_unf] = means(DesignKind::SharedTlb)?;
    let [mask_ws, mask_ipc, mask_unf] = means(DesignKind::Mask)?;
    let [ideal_ws, _, _] = means(DesignKind::Ideal)?;
    Some([
        (mask_ws / base_ws - 1.0) * 100.0,
        (1.0 - mask_ws / ideal_ws) * 100.0,
        (mask_ipc / base_ipc - 1.0) * 100.0,
        (1.0 - mask_unf / base_unf) * 100.0,
    ])
}

/// The first pair of the subset in which both applications are
/// translation-bound, else its first pair: where the traced run probes the
/// simulator and the engine.
pub fn characteristic_pair(sizes: &SweepSizes, seed: u64) -> [&'static str; 2] {
    let pairs = sizes.options(seed).pairs();
    let pick = pairs
        .iter()
        .find(|p| p.hmr_count() == 2)
        .unwrap_or(&pairs[0]);
    [pick.a.name, pick.b.name]
}

pub fn run(ctx: &Ctx, sizes: SweepSizes, report: &mut Report, tracer: &mut Tracer) {
    // Set-up: a small sweep through `multiprog::sweep`, the entry point the
    // figure benches use, which pays the process's first-use costs (thread
    // spawn, allocator growth, the process-wide caches) before the timed
    // passes. Each round has its own seed so none is answered from a cache.
    let setups: Vec<f64> = (0..ctx.setup_rounds())
        .map(|i| {
            let t0 = Instant::now();
            let seed = ctx.seed.wrapping_add(1_000 + i as u64);
            let small = exp_options(sizes.setup, 2, seed, WORKERS);
            let swept = multiprog::sweep(&small, &DESIGNS);
            report.check(swept.outcomes.len() == 2 * DESIGNS.len(), || {
                "set-up sweep lost outcomes".to_owned()
            });
            t0.elapsed().as_secs_f64()
        })
        .collect();
    ctx.record_setup(report, &setups);

    let opts = sizes.options(ctx.seed);
    let pairs = opts.pairs();
    let cpu0 = crate::host::cpu_seconds();
    let passes: Vec<_> = (0..sizes.passes)
        .map(|pass| {
            let runner = PairRunner::with_pool(opts.run_options(), private_pool(WORKERS));
            let (outcomes, wall) = tracer.scope("core.sweep", None, pass as u64, || {
                runner.run_pairs(&pairs, &DESIGNS)
            });
            let baseline = runner.pool().cache().stats();
            let prefix = runner.pool().prefix_cache().stats();
            let counts = [
                baseline.hits,
                baseline.misses,
                prefix.entries as u64,
                prefix.hits,
                prefix.misses,
            ];
            (outcomes, wall, counts)
        })
        .collect();
    let cpu_s = crate::host::cpu_seconds() - cpu0;
    let (first, _, counts) = &passes[0];

    // Outputs: every (pair, design) outcome present and finite, and every
    // later pass, on an engine that shares nothing with the first, equal
    // to it outcome for outcome and count for count.
    let checks0 = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    for pair in &pairs {
        for design in DESIGNS {
            let row = first
                .iter()
                .find(|o| o.name == pair.name() && o.design == design)
                .map(|o| [o.weighted_speedup, o.ipc_throughput, o.unfairness])
                .filter(|v| v.iter().all(|x| x.is_finite()));
            report.check(row.is_some(), || {
                format!("{} under {design}: missing or not finite", pair.name())
            });
            rows.extend(row.map(|v| (pair.hmr_count(), design, v)));
        }
    }
    for (pass, (outcomes, _, again)) in passes.iter().enumerate().skip(1) {
        report.check(outcomes.len() == first.len() && again == counts, || {
            format!(
                "pass {pass}: {} outcomes, engine counts {again:?}; the first had {} and {counts:?}",
                outcomes.len(),
                first.len()
            )
        });
        for (a, b) in first.iter().zip(outcomes) {
            report.check(a == b, || {
                format!(
                    "{} under {}: pass {pass} disagrees with the first",
                    a.name, a.design
                )
            });
        }
    }
    report.layer("bench.checks_s", checks0.elapsed().as_secs_f64());

    let [baseline_hits, baseline_misses, prefix_entries, prefix_hits, prefix_misses] = *counts;
    // Every job that reaches the simulator passes the prefix cache once,
    // as a warm-up simulated or a warm-up reused.
    let simulated = prefix_hits + prefix_misses;
    let sim_cycles = simulated * sizes.cycles;
    let walls: Vec<f64> = passes.iter().map(|(_, wall, _)| *wall).collect();
    let q = Quartiles::of(&walls);
    report.e2e(
        "sim_cycles_per_s",
        sim_cycles as f64 / q.fast,
        Some(q.inverted(|w| sim_cycles as f64 / w)),
    );
    match headline(&rows, None) {
        Some(h) => {
            let err = h
                .iter()
                .zip(PAPER_HEADLINE)
                .map(|(ours, paper)| (paper - ours).abs())
                .sum::<f64>()
                / 4.0;
            report.e2e("paper_headline_err_pp", err, None);
            report.layer("core.paper_ws_gain_pct", h[0]);
            report.layer("core.paper_ideal_shortfall_pct", h[1]);
            report.layer("core.paper_ipc_gain_pct", h[2]);
            report.layer("core.paper_unfairness_red_pct", h[3]);
        }
        None => report.check(false, || "no headline: a design has no outcomes".to_owned()),
    }
    for (hmr, name) in [
        "core.ws_gain_pct_0hmr",
        "core.ws_gain_pct_1hmr",
        "core.ws_gain_pct_2hmr",
    ]
    .iter()
    .enumerate()
    {
        if let Some(h) = headline(&rows, Some(hmr)) {
            report.layer(name, h[0]);
        }
    }
    // Submitted: one shared run and two alone baselines per (pair, design).
    report.layer(
        "core.jobs_submitted",
        (pairs.len() * DESIGNS.len() * 3) as f64,
    );
    report.layer("core.jobs_simulated", simulated as f64);
    report.layer("core.baseline_hits", baseline_hits as f64);
    report.layer("core.baseline_misses", baseline_misses as f64);
    report.layer("core.prefix_snapshots", prefix_entries as f64);
    report.layer("core.prefix_reused", prefix_hits as f64);
    report.layer("core.sim_cycles_total", sim_cycles as f64);
    report.layer("bench.samples", walls.len() as f64);
    report.layer("bench.sweep_pairs", pairs.len() as f64);
    report.layer("bench.unit_ms_p50", q.q2 * 1e3);
    report.layer("bench.cpu_s", cpu_s);
    report.layer("bench.timed_wall_s", walls.iter().sum());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_agrees_with_the_experiment_crates_own_table() {
        let swept = multiprog::sweep(&SweepSizes::smoke().options(3), &DESIGNS);
        let rows: Vec<Row> = swept
            .pairs
            .iter()
            .flat_map(|p| DESIGNS.map(|d| (p, d)))
            .map(|(p, d)| {
                let o = &swept.outcomes[&(p.name(), d)];
                let v = [o.weighted_speedup, o.ipc_throughput, o.unfairness];
                (p.hmr_count(), d, v)
            })
            .collect();
        let ours = headline(&rows, None).expect("all three designs ran");
        let table = swept.headline();
        assert_eq!(table.rows.len(), ours.len());
        for (ours, (label, cells)) in ours.iter().zip(&table.rows) {
            assert_eq!(format!("{ours:.1}"), cells[0], "{label}");
        }
    }
}
