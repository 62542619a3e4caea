//! Sharing is declared by submitting together: the two ablations whose rows
//! differ only in an epoch-end-only knob submit all rows as one batch, so
//! that rows 2..n restore the warm-up row 1 simulated.
//!
//! Alone in its own test binary, with both tables built one after the
//! other, because the harnesses run on the process-wide prefix cache and
//! its counters are the evidence.

use mask_core::engine::process_prefix_cache;
use mask_core::experiments::{ablation, ExpOptions};
use mask_core::metrics::mean;
use mask_core::prelude::*;
use mask_core::PrefixCache;

/// What the harness reported before it batched its rows: every row through
/// a runner and pool of its own, sharing nothing.
fn row_at_a_time(opts: &ExpOptions, design: DesignKind, tweak: impl FnOnce(&mut GpuConfig)) -> f64 {
    let mut run = opts.run_options();
    tweak(&mut run.gpu);
    let pool = JobPool::with_options(run.jobs)
        .with_cache(BaselineCache::new())
        .with_prefix_cache(PrefixCache::in_memory());
    let outcomes = PairRunner::with_pool(run, pool).run_pairs(&opts.pressured_pairs(), &[design]);
    mean(outcomes.iter().map(|o| o.weighted_speedup))
}

#[test]
fn one_batch_ablations_equal_row_at_a_time_and_share_warmups() {
    use mask_common::config::TokenPolicyKind::{HillClimb, Literal};
    let opts = ExpOptions::quick();
    let cache = process_prefix_cache();

    let before = cache.stats();
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
    let after_tokens = cache.stats();
    assert!(after_tokens.hits > before.hits, "row 2 restored row 1's");
    assert_eq!(after_tokens.entries, 0, "nothing outlives the batch");

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
    let after_margins = cache.stats();
    assert!(after_margins.hits > after_tokens.hits);
    assert_eq!(after_margins.entries, 0);
}
