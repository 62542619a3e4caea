//! The ablation harnesses submit all rows of a table as one batch, and
//! Table 4 all its architectures; each table must be exactly the one built
//! a row at a time.

use mask_core::experiments::{ablation, generality, ExpOptions};
use mask_core::metrics::mean;
use mask_core::prelude::*;

/// What a harness reported before it batched its rows: every row through
/// a runner and pool of its own, sharing nothing.
fn row_at_a_time(
    opts: &ExpOptions,
    designs: &[DesignKind],
    tweak: impl FnOnce(&mut GpuConfig),
) -> Vec<PairOutcome> {
    let mut run = opts.run_options();
    tweak(&mut run.gpu);
    let pool = JobPool::with_options(opts.jobs).with_cache(ResultMemo::new());
    PairRunner::with_pool(run, pool).run_pairs(&opts.pressured_pairs(), designs)
}

fn avg_ws(outcomes: &[PairOutcome]) -> Option<f64> {
    mean(outcomes.iter().map(|o| o.weighted_speedup))
}

#[test]
fn one_batch_ablations_equal_row_at_a_time() {
    use mask_common::config::TokenPolicyKind::{HillClimb, Literal};
    let opts = ExpOptions::quick();

    let mut expected = Table::new(
        "Ablation: token adjustment policy (avg weighted speedup, MASK-TLB)",
        &["policy", "MASK-TLB"],
    );
    for (label, policy) in [
        ("literal (Sec. 5.2)", Literal),
        ("hill-climb (Sec. 7.4)", HillClimb),
    ] {
        let row = row_at_a_time(&opts, &[DesignKind::MaskTlb], |g| {
            g.mask.token_policy = policy;
        });
        expected.row_f64(label, &[avg_ws(&row)]);
    }
    assert_eq!(ablation::token_policy(&opts), expected);

    let mut expected = Table::new(
        "Ablation: L2-bypass hysteresis margin (avg weighted speedup, MASK-Cache)",
        &["margin", "MASK-Cache"],
    );
    for margin in [0.0, 0.05, 0.15] {
        let row = row_at_a_time(&opts, &[DesignKind::MaskCache], |g| {
            g.mask.bypass_margin = margin;
        });
        expected.row_f64(format!("{margin:.2}"), &[avg_ws(&row)]);
    }
    assert_eq!(ablation::bypass_margin(&opts), expected);

    // Table 4: a row per architecture, each design's weighted speedup
    // normalized to Ideal's on the same pair.
    let mut expected = Table::new(
        "Table 4: average performance normalized to Ideal, per architecture",
        &["architecture", "PWCache", "SharedTLB", "MASK"],
    );
    let designs = [
        DesignKind::Ideal,
        DesignKind::PwCache,
        DesignKind::SharedTlb,
        DesignKind::Mask,
    ];
    for (name, mut arch) in generality::architectures() {
        arch.warps_per_core = arch.warps_per_core.min(opts.warps_per_core.max(8));
        arch.n_cores = arch.n_cores.min(opts.n_cores.max(2));
        let row = row_at_a_time(&opts, &designs, |g| *g = arch);
        let norm = [1, 2, 3].map(|d| {
            let per_pair = row.chunks(designs.len());
            let kept = per_pair.filter(|c| c[0].weighted_speedup > 0.0);
            mean(kept.map(|c| c[d].weighted_speedup / c[0].weighted_speedup))
        });
        expected.row_f64(name, &norm);
    }
    assert_eq!(generality::run(&opts), expected);
}
