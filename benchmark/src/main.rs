//! `maskbench`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! maskbench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! maskbench compare <A> <B> [--allow-drift]      # result files or directories
//! maskbench selftest                             # every workload at smoke scale
//! maskbench manifest                             # prints BENCHMARK.json
//! ```

mod compare;
mod engine;
mod gpu_layer;
mod host;
mod json;
mod manifest;
mod probes;
mod report;
mod serial;
mod service;
mod stats;
mod sweep;
mod trace;

use engine::EnginePoint;
use gpu_layer::{SimCase, TracedRep};
use probes::ProbeScale;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Default workload seed.
const DEFAULT_SEED: u64 = 2018;
/// Repetitions of the characteristic simulation a traced run probes when
/// its main workload is not itself a series of them.
const PROBE_REPS: u64 = 3;
/// Longest job of the engine probe; its ratios do not need long runs.
const ENGINE_PROBE_CYCLES: u64 = 60_000;

/// What one `run` was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// About a twentieth of the size, one set-up round: `selftest`.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Set-up is timed this many times and the median reported, so that one
    /// slow file-system moment does not read as a set-up regression.
    pub fn setup_rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Seconds the main workload gets: all of them untraced, half when
    /// traced, where the layer probes take the other half.
    pub fn main_seconds(&self) -> u64 {
        if self.traced {
            (self.seconds / 2).max(1)
        } else {
            self.seconds
        }
    }

    /// A directory of this run's own for stores and other litter.
    pub fn scratch(&self) -> PathBuf {
        self.out_dir
            .join(format!("tmp-{}-{}", self.workload, std::process::id()))
    }

    pub fn probe_scale(&self) -> ProbeScale {
        if self.smoke {
            ProbeScale::SMOKE
        } else {
            ProbeScale::FULL
        }
    }

    pub fn record_setup(&self, report: &mut Report, rounds: &[f64]) {
        report.e2e("setup_s", stats::median(rounds), None);
        report.layer(
            "bench.setup_min_s",
            rounds.iter().copied().fold(f64::INFINITY, f64::min),
        );
        report.layer(
            "bench.setup_max_s",
            rounds.iter().copied().fold(0.0, f64::max),
        );
    }
}

/// What a traced run does after its main workload. Every workload probes
/// the simulator, the trace generators and the engine at its own operating
/// point (`case`); the probes whose result does not depend on the workload
/// run once, in the traced run of the workload whose layer they belong to.
fn traced_tail(
    ctx: &Ctx,
    case: &SimCase,
    main_reps: Vec<TracedRep>,
    report: &mut Report,
    tracer: &mut Tracer,
) {
    let reps = if main_reps.is_empty() {
        let reps: Vec<TracedRep> = (0..PROBE_REPS)
            .map(|i| gpu_layer::traced_rep(case, tracer, (3 << 20) + i))
            .collect();
        gpu_layer::exact_counts(&reps[0].stats, case.cycles, report);
        reps
    } else {
        main_reps
    };
    gpu_layer::host_time_metrics(case, &reps, tracer, report);
    let scale = ctx.probe_scale();
    probes::trace_generators(ctx.seed, case.apps, scale, report);
    let point = EnginePoint {
        apps: case.apps,
        n_cores: case.cfg.gpu.n_cores,
        warps_per_core: case.cfg.gpu.warps_per_core,
        cycles: case.cycles.min(ENGINE_PROBE_CYCLES),
        seed: ctx.seed,
    };
    engine::probe(&point, tracer, report);
    match ctx.workload.as_str() {
        manifest::SERIAL_2HMR => {
            probes::components(ctx.seed, scale, report);
            gpu_layer::reference_checksums(report);
            let long = EnginePoint {
                cycles: case.cycles,
                ..point
            };
            let job = long.job(case.cycles * 3 / 2, case.cycles / 2);
            engine::axis_speedups(&job, tracer, report);
        }
        manifest::HEADLINE_SWEEP => engine::planning_probe(&point, report),
        manifest::MASKD_MIX => {
            probes::service_parts(ctx.seed, &reps[0].stats, &ctx.scratch(), scale, report);
        }
        _ => {}
    }

    const TIMER_CALLS: u32 = 100_000;
    let t0 = Instant::now();
    for _ in 0..TIMER_CALLS {
        std::hint::black_box(Instant::now());
    }
    let timer_ns = t0.elapsed().as_secs_f64() * 1e9 / f64::from(TIMER_CALLS);
    report.layer("bench.timer_ns", timer_ns);
    report.layer("bench.spans", tracer.len() as f64);
    if report.get("bench.trace_overhead_pct").is_none() {
        // One span around one indivisible pass leaves nothing to alternate
        // with; the overhead is then the spans' own clock reads.
        let wall = report.get("bench.timed_wall_s").map_or(1.0, |m| m.value);
        report.layer(
            "bench.trace_overhead_pct",
            100.0 * (2.0 * timer_ns * tracer.len() as f64 / 1e9) / wall,
        );
    }
}

/// Runs one workload and returns its report and spans.
fn run_workload(ctx: &Ctx, scrubbed: &[String]) -> Result<(Report, Tracer), String> {
    if manifest::workload(&ctx.workload).is_none() {
        let known: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{}` (known: {})",
            ctx.workload,
            known.join(", ")
        ));
    }
    std::fs::create_dir_all(ctx.scratch())
        .map_err(|e| format!("{}: {e}", ctx.scratch().display()))?;
    let mut report = Report::new(
        &ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        host::host_block(scrubbed),
    );
    let mut tracer = Tracer::new(ctx.traced);
    let rss_after_main;
    match ctx.workload.as_str() {
        manifest::SERIAL_2HMR | manifest::SERIAL_0HMR => {
            let full = if ctx.workload == manifest::SERIAL_2HMR {
                serial::SerialSizes::TWO_HMR
            } else {
                serial::SerialSizes::ZERO_HMR
            };
            let sizes = if ctx.smoke { full.smoke() } else { full };
            let reps = serial::run(ctx, sizes, &mut report, &mut tracer);
            rss_after_main = host::peak_rss_mib();
            if ctx.traced {
                let case = sizes.case(ctx.seed);
                traced_tail(ctx, &case, reps, &mut report, &mut tracer);
            }
        }
        manifest::HEADLINE_SWEEP => {
            let sizes = if ctx.smoke {
                sweep::SweepSizes::smoke()
            } else {
                sweep::SweepSizes::for_seconds(ctx.main_seconds())
            };
            sweep::run(ctx, sizes, &mut report, &mut tracer);
            rss_after_main = host::peak_rss_mib();
            if ctx.traced {
                let case = SimCase::pair(
                    sweep::characteristic_pair(&sizes, ctx.seed),
                    sizes.n_cores / 2,
                    sizes.warps_per_core,
                    sizes.cycles,
                    ctx.seed,
                );
                traced_tail(ctx, &case, Vec::new(), &mut report, &mut tracer);
            }
        }
        _ => {
            let sizes = if ctx.smoke {
                service::MixSizes::smoke()
            } else {
                service::MixSizes::for_seconds(ctx.main_seconds())
            };
            service::run(ctx, sizes, &mut report, &mut tracer);
            rss_after_main = host::peak_rss_mib();
            if ctx.traced {
                let case = SimCase::pair(
                    ["SCAN", "CONS"],
                    sizes.cores_each,
                    sizes.warps_per_core,
                    sizes.cycles,
                    ctx.seed,
                );
                traced_tail(ctx, &case, Vec::new(), &mut report, &mut tracer);
            }
        }
    }
    report.e2e("peak_rss_mb", rss_after_main, None);
    let failed_pct = report.failed_ops_pct();
    report.e2e("failed_ops_pct", failed_pct, None);
    let _ = std::fs::remove_dir_all(ctx.scratch());
    Ok((report, tracer))
}

fn write_outputs(ctx: &Ctx, report: &Report, tracer: &Tracer) -> Result<(), String> {
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let suffix = if ctx.traced { "traced.json" } else { "json" };
    write(
        ctx.out_dir.join(format!("{}.{suffix}", ctx.workload)),
        report.to_json().pretty(),
    )?;
    if ctx.traced {
        write(
            ctx.out_dir.join(format!("{}.trace.json", ctx.workload)),
            tracer.chrome_trace().compact(),
        )?;
    }
    Ok(())
}

/// Per span name: how many, their total time, and the part of it not
/// covered by child spans (the layer's self time).
fn print_span_totals(tracer: &Tracer) {
    println!("-- spans");
    println!(
        "{:<28} {:>8} {:>14} {:>14}",
        "name", "count", "total ms", "self ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{name:<28} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn parse_run_args(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from("target/maskbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("`{flag} {v}`: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = number(value()?)?,
            "--seconds" => ctx.seconds = number(value()?)?.max(1),
            "--trace" => ctx.traced = number(value()?)? != 0,
            "--out" => ctx.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if ctx.workload.is_empty() {
        return Err("`run` needs `--workload <name>`".to_owned());
    }
    Ok(ctx)
}

fn cmd_run(args: &[String], scrubbed: &[String]) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_owned());
    }
    let ctx = parse_run_args(args)?;
    let (report, tracer) = run_workload(&ctx, scrubbed)?;
    write_outputs(&ctx, &report, &tracer)?;
    report.print();
    if ctx.traced {
        print_span_totals(&tracer);
    }
    // Last line of standard output: what the driver reads.
    println!("{}", report.driver_line()?);
    Ok(ExitCode::SUCCESS)
}

/// Every workload at about a twentieth of its size, untraced then traced:
/// a smoke test of the whole measuring path, not a measurement.
fn cmd_selftest(scrubbed: &[String]) -> Result<ExitCode, String> {
    let t0 = Instant::now();
    let out_dir = PathBuf::from("target/maskbench/selftest");
    for w in &manifest::WORKLOADS {
        for traced in [false, true] {
            let ctx = Ctx {
                workload: w.name.to_owned(),
                seed: DEFAULT_SEED,
                seconds: 1,
                traced,
                smoke: true,
                out_dir: out_dir.clone(),
            };
            let (report, tracer) = run_workload(&ctx, scrubbed)?;
            write_outputs(&ctx, &report, &tracer)?;
            report.driver_line()?;
            if report.failed != 0 {
                report.print();
                return Err(format!(
                    "{}: {} output checks failed",
                    w.name, report.failed
                ));
            }
            println!(
                "selftest {:<15} {:<8} ok: {} checks, {} spans",
                w.name,
                if traced { "traced" } else { "untraced" },
                report.attempted,
                tracer.len()
            );
        }
    }
    println!("selftest passed in {:.1} s", t0.elapsed().as_secs_f64());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let allow_drift = args.iter().any(|a| a == "--allow-drift");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = paths.as_slice() else {
        return Err("usage: maskbench compare <A> <B> [--allow-drift]".to_owned());
    };
    let outcome = compare::compare_paths(Path::new(a), Path::new(b))?;
    print!("{}", outcome.render());
    Ok(if outcome.passes(allow_drift) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Before anything can start a thread or read a knob.
    let scrubbed = host::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], &scrubbed),
        Some("compare") => cmd_compare(&args[1..]),
        Some("selftest") => cmd_selftest(&scrubbed),
        Some("manifest") => {
            print!("{}", manifest::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: maskbench run|compare|selftest|manifest (see benchmark/README.md)".to_owned(),
        ),
    };
    result.unwrap_or_else(|e| {
        eprintln!("maskbench: {e}");
        ExitCode::from(2)
    })
}
