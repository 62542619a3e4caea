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
    let placements: Vec<_> = runner
        .even_placements(&mixes)
        .into_iter()
        .flat_map(|pair| [vec![pair[0]], vec![pair[1]], pair])
        .collect();
    let stats = runner.run_apps(&placements, &[DesignKind::SharedTlb]);
    // Per pair: App1 alone, App2 alone, then both shared.
    for ((an, bn), runs) in FIG07_PAIRS.iter().zip(stats.chunks(3)) {
        for (i, app) in [an, bn].into_iter().enumerate() {
            let miss_rate =
                |run: usize, slot: usize| num(runs[run].apps[slot].l2_tlb.miss_rate(), 3);
            let cells = vec![
                format!("App{} ({app})", i + 1),
                miss_rate(i, 0),
                miss_rate(2, i),
            ];
            t.row(format!("{an}_{bn}"), cells);
        }
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
