//! End-to-end design-ordering invariants: the qualitative relationships
//! the paper's evaluation (§7) establishes must hold in the reproduction.
//!
//! Uses MUM (4-page scatter per memory instruction) so translation
//! pressure saturates the shared walker even on the scaled-down test GPU.

use mask_core::prelude::*;

fn opts(cycles: u64) -> RunOptions {
    let mut gpu = GpuConfig::maxwell();
    gpu.n_cores = 8;
    gpu.warps_per_core = 32;
    RunOptions {
        max_cycles: cycles,
        seed: 3,
        warmup_cycles: cycles / 4,
        gpu,
    }
}

/// Runs one translation-heavy pair under every design.
fn sweep(cycles: u64) -> Vec<(DesignKind, PairOutcome)> {
    let runner = PairRunner::new(opts(cycles));
    DesignKind::ALL
        .into_iter()
        .map(|d| (d, runner.run_named(&["MUM", "LPS"], d).expect("known pair")))
        .collect()
}

#[test]
fn ideal_dominates_every_design() {
    let all = sweep(30_000);
    let ideal = all
        .iter()
        .find(|(d, _)| *d == DesignKind::Ideal)
        .expect("ideal present");
    for (d, o) in &all {
        assert!(
            o.ipc_throughput <= ideal.1.ipc_throughput * 1.02,
            "{d} ({:.3}) must not beat Ideal ({:.3})",
            o.ipc_throughput,
            ideal.1.ipc_throughput
        );
    }
}

#[test]
fn baselines_pay_a_translation_cost() {
    let all = sweep(30_000);
    let get = |k| {
        all.iter()
            .find(|(d, _)| *d == k)
            .map(|(_, o)| o.ipc_throughput)
            .expect("design present")
    };
    let ideal = get(DesignKind::Ideal);
    let shared = get(DesignKind::SharedTlb);
    assert!(
        shared < ideal * 0.97,
        "SharedTLB ({shared:.3}) should be measurably below Ideal ({ideal:.3}) on a \
         translation-heavy pair"
    );
}

#[test]
fn static_partitioning_underperforms_dynamic_sharing() {
    let all = sweep(30_000);
    let get = |k| {
        all.iter()
            .find(|(d, _)| *d == k)
            .map(|(_, o)| o.weighted_speedup)
            .expect("design present")
    };
    assert!(
        get(DesignKind::Static) <= get(DesignKind::SharedTlb) * 1.05,
        "Static ({:.3}) should not beat dynamic sharing ({:.3})",
        get(DesignKind::Static),
        get(DesignKind::SharedTlb)
    );
}

#[test]
fn mask_components_never_collapse() {
    // Every MASK component must stay within a reasonable band of the
    // baseline (they are designed to help, and must never be catastrophic).
    let all = sweep(30_000);
    let base = all
        .iter()
        .find(|(d, _)| *d == DesignKind::SharedTlb)
        .map(|(_, o)| o.weighted_speedup)
        .expect("baseline");
    for k in [
        DesignKind::MaskTlb,
        DesignKind::MaskCache,
        DesignKind::MaskDram,
        DesignKind::Mask,
    ] {
        let ws = all
            .iter()
            .find(|(d, _)| *d == k)
            .map(|(_, o)| o.weighted_speedup)
            .expect("design");
        assert!(
            ws > base * 0.85,
            "{k} weighted speedup ({ws:.3}) collapsed vs SharedTLB ({base:.3})"
        );
    }
}
