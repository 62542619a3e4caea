//! The ablation harnesses submit all rows of a table as one batch; the
//! table must be exactly the one built row at a time.

use mask_core::experiments::{ablation, ExpOptions};
use mask_core::metrics::mean;
use mask_core::prelude::*;

/// What the harness reported before it batched its rows: every row through
/// a runner and pool of its own, sharing nothing.
fn row_at_a_time(opts: &ExpOptions, design: DesignKind, tweak: impl FnOnce(&mut GpuConfig)) -> f64 {
    let mut run = opts.run_options();
    tweak(&mut run.gpu);
    let pool = JobPool::with_options(run.jobs).with_cache(BaselineCache::new());
    let outcomes = PairRunner::with_pool(run, pool).run_pairs(&opts.pressured_pairs(), &[design]);
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
        let ws = row_at_a_time(&opts, DesignKind::MaskTlb, |g| g.mask.token_policy = policy);
        expected.row_f64(label, &[ws]);
    }
    assert_eq!(ablation::token_policy(&opts), expected);

    let mut expected = Table::new(
        "Ablation: L2-bypass hysteresis margin (avg weighted speedup, MASK-Cache)",
        &["margin", "MASK-Cache"],
    );
    for margin in [0.0, 0.05, 0.15] {
        let ws = row_at_a_time(&opts, DesignKind::MaskCache, |g| {
            g.mask.bypass_margin = margin;
        });
        expected.row_f64(format!("{margin:.2}"), &[ws]);
    }
    assert_eq!(ablation::bypass_margin(&opts), expected);
}
