//! Ablation studies of MASK's design choices (DESIGN.md experiment index).
//!
//! The paper fixes several micro-parameters empirically (§6): the token
//! adjustment rule, the Golden-queue capacity, and the bypass comparison.
//! These ablations quantify each choice on translation-heavy workloads.

use super::{avg_ws, ExpOptions};
use crate::table::Table;
use mask_common::config::{DesignKind, GpuConfig, TokenPolicyKind};

/// One knob-sweep table: a row per `(label, value)` of `rows` (labels under
/// `column`), holding the average weighted speedup of each of `designs`
/// over the pressured pairs on Maxwell with `tweak(gpu, value)` applied.
/// The §7.3 sensitivity tables are sweeps of the same shape.
///
/// Each row is a machine of one plan, so all rows ride one job batch and
/// fan out over the workers together.
pub(super) fn ablate<L: ToString, T: Copy>(
    title: &str,
    column: &str,
    opts: &ExpOptions,
    designs: &[DesignKind],
    rows: &[(L, T)],
    tweak: impl Fn(&mut GpuConfig, T),
) -> Table {
    let runner = opts.runner();
    let machines: Vec<_> = rows
        .iter()
        .map(|&(_, value)| {
            let mut gpu = runner.options().gpu.clone();
            tweak(&mut gpu, value);
            gpu
        })
        .collect();
    let mixes: Vec<_> = opts
        .pressured_pairs()
        .iter()
        .map(|p| vec![p.a, p.b])
        .collect();
    let outcomes = runner.run_grid(&machines, &mixes, designs);
    let mut headers = vec![column];
    headers.extend(designs.iter().map(|d| d.label()));
    let mut t = Table::new(title, &headers);
    for ((label, _), row) in rows
        .iter()
        .zip(outcomes.chunks(mixes.len() * designs.len()))
    {
        t.row_f64(label.to_string(), &avg_ws(row, designs.len()));
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
        &[DesignKind::MaskTlb],
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
        &[DesignKind::MaskCache],
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
        &[DesignKind::MaskDram],
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
        &[DesignKind::Mask],
        &epochs,
        |g, epoch| g.mask.epoch_cycles = epoch,
    )
}
