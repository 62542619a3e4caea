//! Bit-reproducibility across the whole stack.

use mask_core::prelude::*;
use std::sync::Arc;

/// One simulation on a private memo, so that a repeat really re-runs.
fn run(seed: u64, design: DesignKind) -> Arc<SimStats> {
    let mut gpu = GpuConfig::maxwell();
    gpu.n_cores = 4;
    gpu.warps_per_core = 16;
    let opts = RunOptions {
        max_cycles: 8_000,
        seed,
        warmup_cycles: 2_000,
        gpu,
    };
    let pool = JobPool::with_workers(1).with_cache(ResultMemo::new());
    let runner = PairRunner::with_pool(opts, pool);
    runner
        .run_apps(
            &[vec![
                AppSpec {
                    profile: app_by_name("MUM").expect("known"),
                    n_cores: 2,
                },
                AppSpec {
                    profile: app_by_name("HISTO").expect("known"),
                    n_cores: 2,
                },
            ]],
            &[design],
        )
        .remove(0)
}

#[test]
fn identical_seeds_identical_stats() {
    for design in [DesignKind::SharedTlb, DesignKind::Mask, DesignKind::PwCache] {
        let a = run(42, design);
        let b = run(42, design);
        assert_eq!(a, b, "{design} not reproducible");
    }
}

#[test]
fn different_seeds_different_traces() {
    let a = run(1, DesignKind::SharedTlb);
    let b = run(2, DesignKind::SharedTlb);
    assert_ne!(
        a.apps[0].instructions, b.apps[0].instructions,
        "different seeds should perturb execution"
    );
}
