//! Ablation studies of MASK's design choices (DESIGN.md experiment index).
//!
//! The paper fixes several micro-parameters empirically (§6): the token
//! adjustment rule, the Golden-queue capacity, and the bypass comparison.
//! These ablations quantify each choice on translation-heavy workloads.

use super::ExpOptions;
use crate::engine::SimJob;
use crate::metrics::mean;
use crate::runner::PairRunner;
use crate::table::Table;
use mask_common::config::{DesignKind, GpuConfig, TokenPolicyKind};

/// One ablation table: a row per `(label, value)` of `rows` (labels under
/// `column`), holding the average weighted speedup of `design` over the
/// pressured pairs on Maxwell with `tweak(gpu, value)` applied.
///
/// All rows ride one job batch. Submitting together is how jobs declare
/// that they may share a warm-up, and rows that differ only in an
/// epoch-end-only knob do share it whenever the warm-up ends before the
/// first epoch boundary (runs shorter than two epochs).
fn ablate<L: ToString, T: Copy>(
    title: &str,
    column: &str,
    opts: &ExpOptions,
    design: DesignKind,
    rows: &[(L, T)],
    tweak: impl Fn(&mut GpuConfig, T),
) -> Table {
    let base = PairRunner::new(opts.run_options());
    let placements = base.pair_placements(&opts.pressured_pairs());
    let plans: Vec<Vec<SimJob>> = rows
        .iter()
        .map(|&(_, value)| {
            let mut run = opts.run_options();
            tweak(&mut run.gpu, value);
            PairRunner::new(run).plan_batch(&placements, &[design])
        })
        .collect();
    let mut stats = base.pool().run_batch(&plans.concat()).into_iter();
    let mut t = Table::new(title, &[column, design.label()]);
    for ((label, _), plan) in rows.iter().zip(&plans) {
        let row = stats.by_ref().take(plan.len()).collect();
        let outcomes = PairRunner::assemble_batch(&placements, &[design], row);
        let ws = mean(outcomes.iter().map(|o| o.weighted_speedup));
        t.row_f64(label.to_string(), &[ws]);
    }
    t
}

/// Token-controller policy: §5.2's literal rule vs §7.4's direction-
/// register hill climbing (see `mask-tlb::tokens`).
pub fn token_policy(opts: &ExpOptions) -> Table {
    ablate(
        "Ablation: token adjustment policy (avg weighted speedup, MASK-TLB)",
        "policy",
        opts,
        DesignKind::MaskTlb,
        &[
            ("literal (Sec. 5.2)", TokenPolicyKind::Literal),
            ("hill-climb (Sec. 7.4)", TokenPolicyKind::HillClimb),
        ],
        |g, policy| g.mask.token_policy = policy,
    )
}

/// Bypass hysteresis margin: 0.0 is the paper's literal `level < data`
/// comparison; larger margins skip marginal (lossy) bypasses.
pub fn bypass_margin(opts: &ExpOptions) -> Table {
    ablate(
        "Ablation: L2-bypass hysteresis margin (avg weighted speedup, MASK-Cache)",
        "margin",
        opts,
        DesignKind::MaskCache,
        &[0.0, 0.05, 0.15].map(|margin| (format!("{margin:.2}"), margin)),
        |g, margin| g.mask.bypass_margin = margin,
    )
}

/// Golden-queue capacity (the paper uses a 16-entry FIFO per channel).
pub fn golden_capacity(opts: &ExpOptions) -> Table {
    ablate(
        "Ablation: Golden queue capacity (avg weighted speedup, MASK-DRAM)",
        "entries",
        opts,
        DesignKind::MaskDram,
        &[4usize, 16, 64].map(|cap| (cap, cap)),
        |g, cap| g.dram.golden_capacity = cap,
    )
}

/// Epoch length (the paper empirically selects 100K cycles, §5.2).
pub fn epoch_length(opts: &ExpOptions) -> Table {
    let epochs: Vec<(u64, u64)> = [50_000u64, 100_000, 200_000]
        .into_iter()
        .filter(|epoch| epoch * 2 <= opts.cycles)
        .map(|epoch| (epoch, epoch))
        .collect();
    ablate(
        "Ablation: epoch length (avg weighted speedup, full MASK)",
        "epoch_cycles",
        opts,
        DesignKind::Mask,
        &epochs,
        |g, epoch| g.mask.epoch_cycles = epoch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            cycles: 5_000,
            pair_limit: 1,
            ..ExpOptions::quick()
        }
    }

    #[test]
    fn ablations_produce_complete_tables() {
        assert_eq!(token_policy(&tiny()).len(), 2);
        assert_eq!(bypass_margin(&tiny()).len(), 3);
        assert_eq!(golden_capacity(&tiny()).len(), 3);
        // With tiny cycles, epochs longer than half the run are skipped.
        let e = epoch_length(&tiny());
        assert!(e.len() <= 3);
    }
}
