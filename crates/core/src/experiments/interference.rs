//! Figure 7: inter-address-space interference at the shared L2 TLB (§4.2).
//!
//! "Figure 7 compares the 512-entry L2 TLB miss rate of four representative
//! workloads when each application in the workload runs in isolation to the
//! miss rate when the two applications run concurrently and share the L2
//! TLB."

use super::ExpOptions;
use crate::table::{num, Table};
use mask_common::config::DesignKind;
use mask_workloads::app_by_name;

/// The paper's four representative pairs.
pub const FIG07_PAIRS: [(&str, &str); 4] = [
    ("3DS", "HISTO"),
    ("CONS", "LPS"),
    ("MUM", "HISTO"),
    ("RED", "RAY"),
];

/// Runs Fig. 7: per-app shared-L2-TLB miss rate, alone vs shared. All
/// twelve runs (two alone + one shared per pair) go out as one job batch.
pub fn run(opts: &ExpOptions) -> Table {
    let runner = opts.runner();
    let mut t = Table::new(
        "Figure 7: effect of interference on the shared L2 TLB miss rate",
        &["workload", "app", "alone", "shared"],
    );
    // Alone runs use the app's core share, as in the paper's IPCalone
    // methodology; the shared L2 TLB remains full-sized.
    let mixes: Vec<_> = FIG07_PAIRS
        .iter()
        .map(|&(a, b)| [a, b].map(|n| app_by_name(n).expect("known app")).to_vec())
        .collect();
    let mut placements = Vec::new();
    for pair in runner.even_placements(&mixes) {
        placements.push(vec![pair[0]]);
        placements.push(vec![pair[1]]);
        placements.push(pair);
    }
    let outcomes = runner.run_batch(&placements, &[DesignKind::SharedTlb]);
    for ((an, bn), chunk) in FIG07_PAIRS.iter().zip(outcomes.chunks(3)) {
        let (alone_a, alone_b, shared) = (&chunk[0].stats, &chunk[1].stats, &chunk[2].stats);
        let name = format!("{an}_{bn}");
        t.row(
            name.clone(),
            vec![
                format!("App1 ({an})"),
                num(alone_a.apps[0].l2_tlb.miss_rate(), 3),
                num(shared.apps[0].l2_tlb.miss_rate(), 3),
            ],
        );
        t.row(
            name,
            vec![
                format!("App2 ({bn})"),
                num(alone_b.apps[0].l2_tlb.miss_rate(), 3),
                num(shared.apps[1].l2_tlb.miss_rate(), 3),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_never_lowers_low_miss_apps_substantially() {
        let opts = ExpOptions {
            cycles: 8_000,
            ..ExpOptions::quick()
        };
        let t = run(&opts);
        assert_eq!(t.len(), 8, "two rows per pair");
        // The LPS row (App2 of CONS_LPS) is the thrashing victim: its
        // shared miss rate must not be lower than alone.
        let alone: f64 = t
            .rows
            .iter()
            .find(|(l, c)| l == "CONS_LPS" && c[0].contains("LPS"))
            .map(|(_, c)| c[1].parse().expect("numeric"))
            .expect("LPS row");
        let shared: f64 = t
            .rows
            .iter()
            .find(|(l, c)| l == "CONS_LPS" && c[0].contains("LPS"))
            .map(|(_, c)| c[2].parse().expect("numeric"))
            .expect("LPS row");
        assert!(
            shared >= alone * 0.9,
            "interference should not *improve* LPS's shared miss rate (alone {alone}, shared {shared})"
        );
    }
}
