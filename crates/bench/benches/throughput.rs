//! Engine-throughput benchmark: simulated cycles per wall-clock second.
//!
//! Unlike the figure/table harnesses, this target measures the simulator
//! itself: it drives `GpuSim` directly (no job engine, equivalent to
//! `MASK_JOBS=1`) on quickstart-scale workloads and reports how many
//! simulated cycles the hot loop retires per second. Results are written
//! to `target/mask-results/BENCH_pr7.json`; the committed `BENCH_pr7.json`
//! at the repository root records the reference numbers.
//!
//! ```text
//! cargo bench -p mask-bench --bench throughput                  # measure
//! cargo bench -p mask-bench --bench throughput -- --check       # CI gate
//! cargo bench -p mask-bench --features obs --bench throughput -- --check
//! # ^ same gate with the mask-obs hooks compiled in and tracing left off:
//! #   the floor then bounds the tracing-disabled overhead.
//! ```
//!
//! Environment:
//!
//! * `MASK_BENCH_CYCLES` — simulated cycles per run (default 200 000);
//! * `MASK_BENCH_REPS` — timed repetitions, best-of (default 3);
//! * `MASK_BENCH_MIN_CPS` — override the `--check` floor.
//!
//! `--check` fails (exit 1) when (a) the measured 2-app throughput drops
//! below 70% of `cycles_per_sec_after` committed in `BENCH_pr7.json`, or
//! (b) it drops below 70% of the pre-PR `cycles_per_sec_after` committed
//! in `BENCH_pr5.json` (so an obs build's disabled-tracing path is gated
//! against the engine as it was before the hooks existed). The floor can
//! be overridden for slow runners via the environment variable above.

use mask_common::config::{DesignKind, SimConfig};
use mask_gpu::{AppSpec, GpuSim};
use mask_workloads::app_by_name;
use std::path::Path;
use std::time::Instant;

struct Workload {
    /// JSON key for this workload.
    name: &'static str,
    /// `(app, cores)` placements; core counts must sum to 30.
    apps: &'static [(&'static str, usize)],
}

/// Quickstart-scale workloads: a single app owning the whole GPU and the
/// README's CONS+LPS two-app split.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "single_app_CONS",
        apps: &[("CONS", 30)],
    },
    Workload {
        name: "two_app_CONS_LPS",
        apps: &[("CONS", 15), ("LPS", 15)],
    },
];

fn build(w: &Workload, cycles: u64) -> GpuSim {
    let mut cfg = SimConfig::new(DesignKind::Mask).with_max_cycles(cycles);
    cfg.gpu.n_cores = w.apps.iter().map(|(_, c)| c).sum();
    let specs: Vec<AppSpec> = w
        .apps
        .iter()
        .map(|(name, c)| AppSpec {
            profile: app_by_name(name).expect("known app"),
            n_cores: *c,
        })
        .collect();
    GpuSim::new(&cfg, &specs)
}

/// Best-of-`reps` cycles/sec for one workload, plus a checksum of the
/// final instruction counts (so the timed loop cannot be optimized away
/// and runs are comparable across engine versions).
fn measure(w: &Workload, cycles: u64, reps: usize) -> (f64, u64) {
    let mut best = 0.0f64;
    let mut checksum = 0u64;
    for _ in 0..reps {
        let mut sim = build(w, cycles);
        let started = Instant::now();
        sim.run_to_completion();
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        sim.sync_stats();
        checksum = (0..sim.n_apps()).map(|a| sim.instructions(a)).sum();
        best = best.max(cycles as f64 / secs);
    }
    (best, checksum)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Repository root (this file lives at `crates/bench/benches/`).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
}

/// Extracts `"key": <number>` from a flat JSON object within `section`.
/// A 20-line scanner beats a serde dependency for this one file.
fn json_number(text: &str, section: &str, key: &str) -> Option<f64> {
    let sec = text.find(&format!("\"{section}\""))?;
    let tail = &text[sec..];
    let k = tail.find(&format!("\"{key}\""))?;
    let after = &tail[k..];
    let colon = after.find(':')?;
    let rest = after[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let cycles = env_u64("MASK_BENCH_CYCLES", 200_000);
    let reps = env_u64("MASK_BENCH_REPS", 3) as usize;

    // When the obs hooks are compiled in, pin the runtime gate off: this
    // bench measures (and gates) the tracing-*disabled* path even if the
    // surrounding CI leg exports MASK_TRACE=1.
    mask_obs::set_runtime(Some(false));
    println!(
        "=== engine throughput — cycles/run={cycles} reps={reps} (best-of) \
         obs_hooks={} ===\n",
        mask_obs::is_enabled()
    );
    let mut results = Vec::new();
    for w in WORKLOADS {
        let (cps, checksum) = measure(w, cycles, reps);
        println!(
            "{:<20} {:>14.0} cycles/sec  (instr checksum {checksum})",
            w.name, cps
        );
        results.push((w.name, cps, checksum));
    }

    // Always archive the measurement.
    let mut json = String::from("{\n  \"bench\": \"throughput\",\n");
    json.push_str(&format!(
        "  \"cycles_per_run\": {cycles},\n  \"obs_hooks_compiled\": {},\n  \"measured\": {{\n",
        mask_obs::is_enabled()
    ));
    for (i, (name, cps, checksum)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{name}\": {{ \"cycles_per_sec\": {cps:.0}, \"instr_checksum\": {checksum} }}{comma}\n"
        ));
    }
    json.push_str("  }\n}\n");
    let out_dir = repo_root().join("target/mask-results");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(out_dir.join("BENCH_pr7.json"), &json);
    }

    if check {
        let committed = std::fs::read_to_string(repo_root().join("BENCH_pr7.json"))
            .expect("--check needs the committed BENCH_pr7.json at the repo root");
        let reference = std::env::var("MASK_BENCH_MIN_CPS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .or_else(|| json_number(&committed, "two_app_CONS_LPS", "cycles_per_sec_after"))
            .expect("committed JSON must carry two_app_CONS_LPS.cycles_per_sec_after");
        let floor = reference * 0.7;
        let measured = results
            .iter()
            .find(|(n, ..)| *n == "two_app_CONS_LPS")
            .map(|(_, cps, _)| *cps)
            .expect("two-app workload measured");
        println!(
            "check: measured {measured:.0} cycles/sec vs floor {floor:.0} (70% of {reference:.0})"
        );
        if measured < floor {
            eprintln!("throughput regression: {measured:.0} < {floor:.0} cycles/sec");
            std::process::exit(1);
        }

        // Tracing-disabled overhead gate: the same measurement must also
        // clear the floor derived from the engine as committed *before*
        // the obs hooks existed (BENCH_pr5.json). Run with
        // `--features obs` this bounds the cost of compiled-in-but-off
        // tracing; without it it is a plain cross-PR regression gate.
        if let Some(pre_pr) = std::env::var("MASK_BENCH_MIN_CPS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .or_else(|| {
                std::fs::read_to_string(repo_root().join("BENCH_pr5.json"))
                    .ok()
                    .and_then(|c| json_number(&c, "two_app_CONS_LPS", "cycles_per_sec_after"))
            })
        {
            let pre_floor = pre_pr * 0.7;
            println!(
                "check: tracing-off overhead — {measured:.0} cycles/sec vs pre-PR floor \
                 {pre_floor:.0} (70% of {pre_pr:.0}, obs_hooks={})",
                mask_obs::is_enabled()
            );
            if measured < pre_floor {
                eprintln!(
                    "tracing-disabled overhead regression vs pre-PR baseline: \
                     {measured:.0} < {pre_floor:.0} cycles/sec"
                );
                std::process::exit(1);
            }
        }

        println!("check: OK");
    }
}
