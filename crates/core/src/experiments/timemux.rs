//! Figure 1: overhead of time multiplexing as process count grows (§2.1).
//!
//! The paper measures real NVIDIA K40 and GTX 1080 GPUs running 2–10
//! concurrent processes, each "a GPU kernel that interleaves basic
//! arithmetic operations with loads and stores". We do not have the
//! hardware, so we reproduce the *mechanism*: time-sliced execution where
//! every context switch (1) drains the pipeline and pays kernel relaunch
//! cost, (2) starts with cold TLBs and caches (simulated by flushing all
//! volatile state and measuring the warm-up loss directly), and (3) pays a
//! device-memory restore cost that grows with the number of resident
//! processes (the 10-process runs oversubscribe device memory, so each
//! switch pages progressively more state back in). The trend — overhead
//! growing from ~10% at 2 processes toward ~90% at 10 — is what Fig. 1
//! demonstrates and what motivates spatial multiplexing.

use super::ExpOptions;
use crate::engine::SimJob;
use crate::table::Table;
use mask_common::config::{DesignKind, SimConfig};
use mask_gpu::{AppSpec, GpuSim};
use mask_workloads::app_by_name;

/// Pipeline drain + kernel relaunch cost per context switch, in cycles.
const DRAIN_CYCLES: u64 = 800;
/// Device-memory restore cost per additional resident process, per switch.
const SWAP_CYCLES_PER_PROC: u64 = 900;
/// Scheduling quantum in cycles.
const QUANTUM: u64 = 10_000;

/// Runs the Fig. 1 experiment: per-process work `work_instructions`,
/// process counts 2..=10.
pub fn run(opts: &ExpOptions) -> Table {
    let profile = app_by_name("MM").expect("MM exists");
    let ropts = opts.run_options();
    let spec = [AppSpec {
        profile,
        n_cores: opts.n_cores,
    }];

    // Back-to-back execution: steady-state instruction rate. This is an
    // ordinary alone run, so it goes through the job engine (and its
    // baseline cache) like every other baseline.
    let runner = opts.runner();
    let alone_stats = runner.pool().run_batch(&[SimJob {
        design: DesignKind::SharedTlb,
        specs: spec.to_vec(),
        max_cycles: opts.cycles,
        warmup_cycles: 0,
        seed: ropts.seed,
        gpu: ropts.gpu.clone(),
    }]);
    let alone_instr = alone_stats[0].apps[0].instructions.max(1);

    // Time-multiplexed execution cannot be a batch job: the quantum loop
    // flushes volatile state interactively between run() calls.
    let cfg = {
        let mut gpu = ropts.gpu.clone();
        gpu.n_cores = opts.n_cores;
        SimConfig {
            gpu,
            design: DesignKind::SharedTlb.spec(),
            max_cycles: opts.cycles,
            seed: ropts.seed,
        }
    };

    // Time-multiplexed execution: measure the per-quantum instruction rate
    // when every quantum starts from cold TLBs and caches.
    let mut tm = GpuSim::new(&cfg, &spec);
    let quanta = (opts.cycles / QUANTUM).max(1);
    let mut tm_instr = 0u64;
    for _ in 0..quanta {
        tm.flush_volatile();
        let before = tm.instructions(0);
        tm.run(QUANTUM);
        tm_instr += tm.instructions(0) - before;
    }
    let tm_instr = tm_instr.max(1);

    // Per-quantum instruction counts.
    let alone_rate = alone_instr as f64 / opts.cycles as f64;
    let tm_rate = tm_instr as f64 / (quanta * QUANTUM) as f64;

    let mut table = Table::new(
        "Figure 1: time-multiplexing overhead vs. concurrent process count",
        &["processes", "overhead_pct"],
    );
    for k in 2..=10u64 {
        // Work per process: instructions executed in `opts.cycles` of
        // uninterrupted execution.
        let work = alone_instr as f64;
        let back_to_back = k as f64 * (work / alone_rate);
        // Cold-start loss: each quantum yields tm_rate instead of
        // alone_rate. Switch cost: drain + paging that grows with the
        // number of other resident processes.
        let switch_cost = DRAIN_CYCLES + SWAP_CYCLES_PER_PROC * (k - 1);
        let quanta_per_proc = (work / (tm_rate * QUANTUM as f64)).ceil();
        let tm_total = k as f64 * quanta_per_proc * (QUANTUM as f64 + switch_cost as f64);
        let overhead = (tm_total / back_to_back - 1.0) * 100.0;
        table.row(k.to_string(), vec![format!("{overhead:.1}")]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_grows_with_process_count() {
        let opts = ExpOptions {
            cycles: 20_000,
            ..ExpOptions::quick()
        };
        let t = run(&opts);
        assert_eq!(t.len(), 9, "process counts 2..=10");
        let o2 = t.value("2", "overhead_pct").expect("row 2");
        let o10 = t.value("10", "overhead_pct").expect("row 10");
        assert!(
            o2 > 0.0,
            "time multiplexing always costs something, got {o2}"
        );
        assert!(
            o10 > o2,
            "overhead must grow with process count ({o2} -> {o10})"
        );
    }
}
