//! Trace viewer: run a short traced workload and export it for Perfetto.
//!
//! Runs two two-application workloads through the job engine with tracing
//! forced on, then writes `trace.json` (open it at <https://ui.perfetto.dev>
//! or `chrome://tracing`) and `metrics.jsonl` (one counter frame per line)
//! to `MASK_TRACE_OUT` (default `target/mask-trace/`) and prints a summary.
//!
//! ```text
//! cargo run --release --example trace_viewer
//! ```

use mask_core::prelude::*;

fn main() {
    // Force the runtime gate on so the example works without MASK_TRACE
    // in the environment (setting it is still honoured for real runs).
    mask_obs::set_runtime(Some(true));

    // Short epochs so a few thousand cycles cross several epoch
    // boundaries and the per-epoch metrics stream has content.
    let mut gpu = GpuConfig::maxwell();
    gpu.warps_per_core = 16;
    gpu.mask.epoch_cycles = 2_000;
    let job = |seed: u64, a: &str, b: &str| SimJob {
        design: DesignKind::Mask,
        specs: [a, b]
            .iter()
            .map(|name| AppSpec {
                profile: app_by_name(name).expect("known app"),
                n_cores: 2,
            })
            .collect(),
        max_cycles: 10_000,
        warmup_cycles: 2_000,
        seed,
        gpu: gpu.clone(),
    };

    println!("tracing two 4-core MASK workloads (CONS+LPS, HISTO+GUP)...");
    let pool = JobPool::with_workers(2).with_cache(BaselineCache::new());
    let stats = pool.run_batch(&[job(1, "CONS", "LPS"), job(2, "HISTO", "GUP")]);
    for (s, name) in stats.iter().zip(["CONS_LPS", "HISTO_GUP"]) {
        let ipc: f64 = s.apps.iter().map(mask_common::AppStats::ipc).sum();
        println!("  {name}: aggregate IPC {ipc:.2}");
    }

    let summary = mask_obs::export::write_all().expect("trace export");
    println!();
    println!("trace   : {}", summary.trace_path.display());
    println!("metrics : {}", summary.metrics_path.display());
    println!(
        "{} events, {} frames, {} engine spans, {} dropped",
        summary.events, summary.frames, summary.spans, summary.dropped
    );
    println!("counter families: {}", summary.families.join(", "));
    println!();
    println!("open the trace at https://ui.perfetto.dev (process 1 is the");
    println!("simulated timeline at 1us = 1 cycle; process 2 is engine wall");
    println!("clock); each metrics.jsonl line is one counter frame.");
    if summary.dropped > 0 {
        println!(
            "note: the sink kept the newest {} events and overwrote {} older ones",
            mask_obs::ring::SINK_CAPACITY,
            summary.dropped
        );
    }
}
