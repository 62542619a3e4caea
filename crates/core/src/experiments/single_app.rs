//! Figures 5 and 6: single-application translation pressure (§4.1), plus
//! the measured Table 2 classification.
//!
//! * Fig. 5 — "average number of concurrent page table walks (sampled
//!   every 10K cycles)";
//! * Fig. 6 — "average number of stalled warps per active TLB miss";
//!
//! both on the `SharedTLB` baseline with each application running alone.

use super::ExpOptions;
use crate::table::Table;
use mask_common::config::DesignKind;
use mask_workloads::{all_apps, expected_class, AppProfile, ClassifyConfig, TlbClass};

/// Per-application single-run measurements.
#[derive(Clone, Debug)]
pub struct SingleAppRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Fig. 5 metric.
    pub avg_concurrent_walks: f64,
    /// Fig. 5 error-bar top (max observed).
    pub max_concurrent_walks: u64,
    /// Fig. 6 metric.
    pub avg_warps_stalled: f64,
    /// Fig. 6 error-bar top.
    pub max_warps_stalled: u64,
}

/// Runs every application alone on the `SharedTLB` baseline, submitting
/// the whole set as one job batch.
pub fn measure(opts: &ExpOptions) -> Vec<SingleAppRow> {
    let runner = opts.runner();
    let mixes: Vec<Vec<AppProfile>> = all_apps().iter().map(|&p| vec![p]).collect();
    let outcomes = runner.run_multi_batch(&mixes, &[DesignKind::SharedTlb]);
    all_apps()
        .iter()
        .zip(outcomes)
        .map(|(profile, o)| {
            let a = &o.stats.apps[0];
            SingleAppRow {
                name: profile.name,
                avg_concurrent_walks: a.avg_concurrent_walks(),
                max_concurrent_walks: a.walk_concurrency_max,
                avg_warps_stalled: a.avg_warps_stalled_per_miss(),
                max_warps_stalled: a.stalled_warps_max,
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
                format!("{:.1}", r.avg_concurrent_walks),
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
            vec![
                format!("{:.1}", r.avg_warps_stalled),
                r.max_warps_stalled.to_string(),
            ],
        );
    }
    t
}

/// Table 2: measured L1/L2 TLB miss-rate classification (functional model,
/// same procedure the paper uses for workload selection).
pub fn tab02() -> Table {
    let cfg = ClassifyConfig {
        ops_per_warp: 250,
        ..ClassifyConfig::default()
    };
    let mut t = Table::new(
        "Table 2: workload categorization by L1/L2 TLB miss rates",
        &["app", "l1_miss", "l2_miss", "class", "paper_class", "match"],
    );
    for app in all_apps() {
        let (l1, l2) = mask_workloads::measure_tlb_rates(app, &cfg);
        let got = TlbClass::from_rates(l1, l2);
        let want = expected_class(app.name).expect("all apps classified");
        let fmt = |c: TlbClass| {
            format!(
                "{}-{}",
                if c.l1_high { "HighL1" } else { "LowL1" },
                if c.l2_high { "HighL2" } else { "LowL2" }
            )
        };
        t.row(
            app.name,
            vec![
                format!("{l1:.3}"),
                format!("{l2:.3}"),
                fmt(got),
                fmt(want),
                if got == want {
                    "yes".into()
                } else {
                    "NO".into()
                },
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
        assert!(cons.avg_concurrent_walks > 0.0);
        let f5 = fig05(&rows);
        let f6 = fig06(&rows);
        assert_eq!(f5.len(), rows.len());
        assert_eq!(f6.len(), rows.len());
    }

    #[test]
    fn tab02_classification_matches_everywhere() {
        let t = tab02();
        assert_eq!(t.len(), all_apps().len());
        for (label, cells) in &t.rows {
            assert_eq!(cells[4], "yes", "{label} misclassified: {cells:?}");
        }
    }
}
