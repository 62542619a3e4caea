//! `serial_2hmr` and `serial_0hmr`: `GpuSim` driven directly, one thread,
//! no engine. The same repetition runs until the time budget is spent; in
//! a traced run every other repetition records spans.

use crate::gpu_layer::{self, SimCase, TracedRep};
use crate::report::Report;
use crate::stats::{self, Quartiles};
use crate::trace::Tracer;
use crate::Ctx;
use std::time::{Duration, Instant};

/// Fewest repetitions a run times, whatever the budget.
const MIN_REPS: usize = 5;

#[derive(Clone, Copy, Debug)]
pub struct SerialSizes {
    pub apps: [&'static str; 2],
    pub cores_each: usize,
    pub warps_per_core: usize,
    pub cycles_per_rep: u64,
}

impl SerialSizes {
    /// SCAN x15 + CONS x15, 64 warps per SM, two MASK epochs a repetition.
    pub const TWO_HMR: SerialSizes = SerialSizes {
        apps: ["SCAN", "CONS"],
        cores_each: 15,
        warps_per_core: 64,
        cycles_per_rep: 200_000,
    };
    /// NW x15 + HS x15: a cycle costs a third as much, so a repetition of
    /// about the same host time holds three times the cycles.
    pub const ZERO_HMR: SerialSizes = SerialSizes {
        apps: ["NW", "HS"],
        cores_each: 15,
        warps_per_core: 64,
        cycles_per_rep: 600_000,
    };

    pub fn smoke(self) -> SerialSizes {
        SerialSizes {
            cores_each: 2,
            warps_per_core: 8,
            cycles_per_rep: self.cycles_per_rep / 40,
            ..self
        }
    }

    pub fn case(&self, seed: u64) -> SimCase {
        SimCase::pair(
            self.apps,
            self.cores_each,
            self.warps_per_core,
            self.cycles_per_rep,
            seed,
        )
    }
}

/// Runs the workload; returns the traced repetitions for the `gpu.` probes.
pub fn run(
    ctx: &Ctx,
    sizes: SerialSizes,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Vec<TracedRep> {
    // Set-up: build the inputs and run one discarded repetition, which
    // faults in the heap the timed ones reuse.
    let mut reference = None;
    let setups: Vec<f64> = (0..ctx.setup_rounds())
        .map(|_| {
            let t0 = Instant::now();
            let case = sizes.case(ctx.seed);
            let (_, stats) = gpu_layer::rep(&case);
            let s = t0.elapsed().as_secs_f64();
            reference.get_or_insert(stats);
            s
        })
        .collect();
    ctx.record_setup(report, &setups);
    let case = sizes.case(ctx.seed);
    let reference = reference.unwrap_or_else(|| gpu_layer::rep(&case).1);

    let budget = Duration::from_secs(ctx.main_seconds());
    let cpu0 = crate::host::cpu_seconds();
    let start = Instant::now();
    let mut plain_s = Vec::new();
    let mut traced = Vec::new();
    while plain_s.len() + traced.len() < MIN_REPS || start.elapsed() < budget {
        let n = plain_s.len() + traced.len();
        let stats = if ctx.traced && n % 2 == 0 {
            let rep = gpu_layer::traced_rep(&case, tracer, n as u64);
            let stats = rep.stats.clone();
            traced.push(rep);
            stats
        } else {
            let (secs, stats) = gpu_layer::rep(&case);
            plain_s.push(secs);
            stats
        };
        // Same seed, same inputs: every repetition must simulate exactly
        // what the discarded one did.
        report.check(stats == reference, || {
            format!("repetition {n} differs from the reference repetition")
        });
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_s = crate::host::cpu_seconds() - cpu0;

    let all_s: Vec<f64> = plain_s
        .iter()
        .copied()
        .chain(traced.iter().map(|r| r.secs))
        .collect();
    let q = Quartiles::of(&all_s);
    let cycles = sizes.cycles_per_rep as f64;
    report.e2e(
        "sim_cycles_per_s",
        cycles / q.fast,
        Some(q.inverted(|s| cycles / s)),
    );

    gpu_layer::exact_counts(&reference, sizes.cycles_per_rep, report);
    report.layer("bench.samples", all_s.len() as f64);
    report.layer("bench.cycles_per_rep", cycles);
    report.layer("bench.unit_ms_p50", q.q2 * 1e3);
    report.layer("bench.cpu_s", cpu_s);
    report.layer("bench.timed_wall_s", wall);

    if ctx.traced && !plain_s.is_empty() && !traced.is_empty() {
        // Traced and untraced repetitions alternate, so both groups see
        // the same host at the same time.
        let fast = |v: &[f64]| stats::percentile(v, stats::FAST_PERCENTILE);
        let with = fast(&traced.iter().map(|r| r.secs).collect::<Vec<_>>());
        let without = fast(&plain_s);
        report.layer(
            "bench.trace_overhead_pct",
            100.0 * (with - without) / without,
        );
    }
    traced
}
