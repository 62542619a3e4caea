//! End-to-end demand-paging behaviour (the §5.5 extension).

use mask_core::prelude::*;
use std::sync::Arc;

fn stats_with_fault_latency(latency: u64) -> Arc<SimStats> {
    scan_window(latency, 20_000, 0)
}

/// SCAN alone on four cores, measured from `warmup_cycles` to
/// `max_cycles`.
fn scan_window(latency: u64, max_cycles: u64, warmup_cycles: u64) -> Arc<SimStats> {
    let mut gpu = GpuConfig::maxwell();
    gpu.n_cores = 4;
    gpu.warps_per_core = 16;
    gpu.page_fault_latency = latency;
    let runner = PairRunner::new(RunOptions {
        max_cycles,
        seed: 5,
        warmup_cycles,
        gpu,
    });
    runner
        .run_apps(
            &[vec![AppSpec {
                profile: app_by_name("SCAN").expect("known"),
                n_cores: 4,
            }]],
            &[DesignKind::SharedTlb],
        )
        .remove(0)
}

#[test]
fn faults_are_counted_only_when_enabled() {
    let without = stats_with_fault_latency(0);
    let with = stats_with_fault_latency(5_000);
    assert_eq!(
        without.apps[0].page_faults, 0,
        "fault-free mode takes no faults"
    );
    assert!(with.apps[0].page_faults > 0, "first touches must fault");
}

#[test]
fn fault_latency_costs_throughput() {
    let without = stats_with_fault_latency(0);
    let with = stats_with_fault_latency(5_000);
    assert!(
        with.apps[0].instructions < without.apps[0].instructions,
        "5K-cycle faults must slow a streaming app ({} vs {})",
        with.apps[0].instructions,
        without.apps[0].instructions
    );
}

#[test]
fn each_page_faults_at_most_once() {
    let with = stats_with_fault_latency(2_000);
    // Every fault stems from a primary L1-TLB-miss translation request,
    // so faults can never exceed L1 TLB misses; and re-touches of a
    // faulted page never fault again (faults are first-touch only).
    assert!(
        with.apps[0].page_faults <= with.apps[0].l1_tlb.misses(),
        "faults ({}) cannot exceed L1 TLB misses ({})",
        with.apps[0].page_faults,
        with.apps[0].l1_tlb.misses()
    );
    assert!(with.apps[0].page_faults > 0);
}

#[test]
fn faults_are_counted_in_the_measured_window_only() {
    // The simulation never reads `max_cycles` or its statistics, so the
    // faults taken after a warm-up of `W` cycles are exactly those of a
    // whole run less those of a run that stops at `W`.
    const W: u64 = 5_000;
    let whole = scan_window(2_000, 20_000, 0).apps[0].page_faults;
    let warmup = scan_window(2_000, W, 0).apps[0].page_faults;
    let window = scan_window(2_000, 20_000, W).apps[0].page_faults;
    assert!(
        warmup > 0,
        "the warm-up must fault for this to test anything"
    );
    assert_eq!(
        window,
        whole - warmup,
        "warm-up faults leaked into the measured window"
    );
}
