//! Figures 5 and 6: single-application translation pressure (§4.1), plus
//! the measured Table 2 classification.
//!
//! * Fig. 5 — "average number of concurrent page table walks (sampled
//!   every 10K cycles)";
//! * Fig. 6 — "average number of stalled warps per active TLB miss";
//! * Table 2 — each application's L1/L2 TLB miss-rate quadrant;
//!
//! all three from one batch: the `SharedTLB` baseline with each
//! application running alone.

use super::ExpOptions;
use crate::table::{num, Table};
use mask_common::config::DesignKind;
use mask_workloads::{all_apps, expected_class, AppProfile, TlbClass};

/// Per-application single-run measurements; a `None` rate had nothing to
/// count (no cycle, no resolved miss, no TLB probe).
#[derive(Clone, Debug)]
pub struct SingleAppRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Fig. 5 metric.
    pub avg_concurrent_walks: Option<f64>,
    /// Fig. 5 error-bar top (max observed).
    pub max_concurrent_walks: u64,
    /// Fig. 6 metric: warps stalled per resolved translation, shared-L2-TLB
    /// hits included ([`mask_common::stats::AppStats::avg_warps_stalled_per_miss`]).
    pub avg_warps_stalled: Option<f64>,
    /// Fig. 6 error-bar top.
    pub max_warps_stalled: u64,
    /// Table 2: L1 TLB miss rate over every core's L1 TLB.
    pub l1_miss_rate: Option<f64>,
    /// Table 2: shared L2 TLB miss rate.
    pub l2_miss_rate: Option<f64>,
}

/// Runs every application alone on the `SharedTLB` baseline, submitting
/// the whole set as one job batch.
pub fn measure(opts: &ExpOptions) -> Vec<SingleAppRow> {
    let runner = opts.runner();
    let mixes: Vec<Vec<AppProfile>> = all_apps().iter().map(|&p| vec![p]).collect();
    let stats = runner.run_apps(&runner.even_placements(&mixes), &[DesignKind::SharedTlb]);
    all_apps()
        .iter()
        .zip(stats)
        .map(|(profile, s)| {
            let a = &s.apps[0];
            SingleAppRow {
                name: profile.name,
                avg_concurrent_walks: a.avg_concurrent_walks(),
                max_concurrent_walks: a.walk_concurrency_max,
                avg_warps_stalled: a.avg_warps_stalled_per_miss(),
                max_warps_stalled: a.stalled_warps_max,
                l1_miss_rate: a.l1_tlb.miss_rate(),
                l2_miss_rate: a.l2_tlb.miss_rate(),
            }
        })
        .collect()
}

/// Fig. 5 table.
pub fn fig05(rows: &[SingleAppRow]) -> Table {
    let mut t = Table::new(
        "Figure 5: average number of concurrent page walks (single-app, SharedTLB)",
        &["app", "avg_walks", "max_walks"],
    );
    for r in rows {
        t.row(
            r.name,
            vec![
                num(r.avg_concurrent_walks, 1),
                r.max_concurrent_walks.to_string(),
            ],
        );
    }
    t
}

/// Fig. 6 table.
pub fn fig06(rows: &[SingleAppRow]) -> Table {
    let mut t = Table::new(
        "Figure 6: average warps stalled per TLB miss (single-app, SharedTLB)",
        &["app", "avg_stalled", "max_stalled"],
    );
    for r in rows {
        t.row(
            r.name,
            vec![num(r.avg_warps_stalled, 1), r.max_warps_stalled.to_string()],
        );
    }
    t
}

/// Table 2: measured L1/L2 TLB miss-rate classification, the procedure the
/// paper uses for workload selection (§6), on the timed simulator. An app
/// with no probe of either TLB has no class: its `class` and `match` cells
/// read `-`.
pub fn tab02(rows: &[SingleAppRow]) -> Table {
    let mut t = Table::new(
        "Table 2: workload categorization by L1/L2 TLB miss rates",
        &["app", "l1_miss", "l2_miss", "class", "paper_class", "match"],
    );
    for r in rows {
        let (l1, l2) = (r.l1_miss_rate, r.l2_miss_rate);
        let got = l1.zip(l2).map(|(l1, l2)| TlbClass::from_rates(l1, l2));
        let want = expected_class(r.name).expect("all apps classified");
        let fmt = |c: TlbClass| {
            format!(
                "{}-{}",
                if c.l1_high { "HighL1" } else { "LowL1" },
                if c.l2_high { "HighL2" } else { "LowL2" }
            )
        };
        let verdict = match got {
            None => "-",
            Some(c) if c == want => "yes",
            Some(_) => "NO",
        };
        t.row(
            r.name,
            vec![
                num(l1, 3),
                num(l2, 3),
                got.map_or_else(|| "-".to_owned(), fmt),
                fmt(want),
                verdict.to_owned(),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_app_measurements_cover_all_apps() {
        let mut opts = ExpOptions::quick();
        opts.cycles = 4_000;
        let rows = measure(&opts);
        assert_eq!(rows.len(), all_apps().len());
        // High-pressure apps generate walks.
        let cons = rows
            .iter()
            .find(|r| r.name == "CONS")
            .expect("CONS present");
        assert!(cons.avg_concurrent_walks > Some(0.0));
        let f5 = fig05(&rows);
        let f6 = fig06(&rows);
        assert_eq!(f5.len(), rows.len());
        assert_eq!(f6.len(), rows.len());
    }

    /// Every app lands in its paper quadrant on the timed model. At 60 000
    /// cycles the largest Low-L2 rate over seeds 1–8 is 0.124; at 5 000,
    /// cold misses push LUD, NN, BP, HS and LPS over the 20 % line, and FFT
    /// and SCP make no L2 TLB access at all.
    #[test]
    fn tab02_classification_matches_everywhere() {
        let opts = ExpOptions {
            cycles: 60_000,
            warps_per_core: 64,
            ..ExpOptions::quick()
        };
        let rows = measure(&opts);
        let t = tab02(&rows);
        assert_eq!(t.len(), all_apps().len());
        let wrong: Vec<String> = t
            .rows
            .iter()
            .filter(|(_, cells)| cells[4] != "yes")
            .map(|(label, cells)| format!("{label}: {cells:?}"))
            .collect();
        assert!(wrong.is_empty(), "misclassified:\n{}", wrong.join("\n"));
        let lud = rows.iter().find(|r| r.name == "LUD").expect("LUD present");
        let lud_l1 = lud.l1_miss_rate.expect("LUD probes its L1 TLB");
        assert!(
            lud_l1 < 0.10,
            "LUD should have a very low L1 TLB miss rate, got {lud_l1:.3}"
        );
    }

    /// At 5 000 cycles FFT and SCP make no L2 TLB access in the measured
    /// window: their L2 miss rate and class are "no data", not a Low-L2
    /// rate of 0, and their `match` cell is not `yes`, so the test above
    /// would count them as misclassified.
    #[test]
    fn tab02_says_no_data_for_an_unprobed_l2_tlb() {
        let opts = ExpOptions {
            cycles: 5_000,
            warps_per_core: 64,
            ..ExpOptions::quick()
        };
        let t = tab02(&measure(&opts));
        for app in ["FFT", "SCP"] {
            assert_eq!(t.cell(app, "l2_miss"), Some("-"), "{app}");
            assert_eq!(t.cell(app, "class"), Some("-"), "{app}");
            assert_ne!(t.cell(app, "match"), Some("yes"), "{app}");
        }
    }
}
