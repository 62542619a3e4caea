//! Figures 3 and 11–15: multiprogrammed performance and fairness across
//! designs.
//!
//! One sweep simulates every workload pair under every design; the tables
//! of Fig. 3 (baselines vs Ideal), Fig. 11 (weighted speedup by category),
//! Figs. 12–14 (per-workload weighted speedup split by n-HMR category),
//! Fig. 15 (unfairness by category) and the §7.1 headline are all views
//! over that sweep.

use super::ExpOptions;
use crate::metrics::mean;
use crate::runner::PairOutcome;
use crate::table::Table;
use mask_common::config::DesignKind;
use mask_workloads::{AppPair, HmrCategory};
use std::collections::BTreeMap;

/// The designs Fig. 3 reads: both baselines and Ideal.
pub const FIG03_DESIGNS: [DesignKind; 3] = [
    DesignKind::PwCache,
    DesignKind::SharedTlb,
    DesignKind::Ideal,
];

/// The sweep: every (pair, design) outcome.
#[derive(Clone, Debug)]
pub struct MultiprogSweep {
    /// Outcomes keyed by (workload name, design).
    pub outcomes: BTreeMap<(String, DesignKind), PairOutcome>,
    /// The pairs simulated, in order.
    pub pairs: Vec<AppPair>,
    /// Designs simulated.
    pub designs: Vec<DesignKind>,
}

/// Runs the sweep over `designs` (Figs. 11–15 compare `DesignKind::ALL`).
/// Every (pair, design) run — shared and alone — is submitted as one job
/// batch, so the sweep saturates `MASK_JOBS` worker threads.
pub fn sweep(opts: &ExpOptions, designs: &[DesignKind]) -> MultiprogSweep {
    let runner = opts.runner();
    let pairs = opts.pairs();
    let mut outcomes = BTreeMap::new();
    for o in runner.run_pairs(&pairs, designs) {
        outcomes.insert((o.name.clone(), o.design), o);
    }
    MultiprogSweep {
        outcomes,
        pairs,
        designs: designs.to_vec(),
    }
}

impl MultiprogSweep {
    /// Every table of the sweep, in `repro fig11_15` order: Fig. 3,
    /// Fig. 11, Figs. 12–14, Fig. 15 and the §7.1 headline. The sweep must
    /// cover [`FIG03_DESIGNS`].
    pub fn tables(&self) -> Vec<Table> {
        let mut tables = vec![self.fig03(), self.fig11_weighted_speedup()];
        tables.extend(HmrCategory::ALL.map(|c| self.fig12_14_per_workload(c)));
        tables.extend([self.fig15_unfairness(), self.headline()]);
        tables
    }

    /// Average of `metric` over pairs in `cat` (or all pairs if `None`);
    /// `None` if no such pair ran under `design`.
    fn avg(
        &self,
        design: DesignKind,
        cat: Option<HmrCategory>,
        metric: impl Fn(&PairOutcome) -> f64,
    ) -> Option<f64> {
        mean(
            self.pairs
                .iter()
                .filter(|p| cat.is_none_or(|c| p.category() == c))
                .filter_map(|p| self.outcomes.get(&(p.name(), design)))
                .map(&metric),
        )
    }

    /// Fig. 3 (§3): per-pair weighted speedup of `PWCache` and `SharedTLB`
    /// normalized to Ideal. "Both variants incur a significant performance
    /// overhead (45.0% and 40.6% on average)." The sweep must cover
    /// [`FIG03_DESIGNS`].
    pub fn fig03(&self) -> Table {
        let mut t = Table::new(
            "Figure 3: baseline designs vs. ideal performance (normalized weighted speedup)",
            &["workload", "PWCache", "SharedTLB"],
        );
        let ws = |p: &AppPair, d| self.outcomes[&(p.name(), d)].weighted_speedup;
        let mut ratios = Vec::new();
        for p in &self.pairs {
            let ideal = ws(p, DesignKind::Ideal);
            if ideal > 0.0 {
                let r = [DesignKind::PwCache, DesignKind::SharedTlb].map(|d| ws(p, d) / ideal);
                t.row_f64(p.name(), &r);
                ratios.push(r);
            }
        }
        if !ratios.is_empty() {
            t.row_f64(
                "Average",
                &[0, 1].map(|i| mean(ratios.iter().map(|r| r[i]))),
            );
        }
        t
    }

    /// Fig. 11: weighted speedup by workload category and design.
    pub fn fig11_weighted_speedup(&self) -> Table {
        let mut headers = vec!["category"];
        headers.extend(self.designs.iter().map(|d| d.label()));
        let mut t = Table::new(
            "Figure 11: multiprogrammed performance (weighted speedup)",
            &headers,
        );
        for cat in HmrCategory::ALL {
            if !self.pairs.iter().any(|p| p.category() == cat) {
                continue;
            }
            let cells: Vec<_> = self
                .designs
                .iter()
                .map(|&d| self.avg(d, Some(cat), |o| o.weighted_speedup))
                .collect();
            t.row_f64(cat.label(), &cells);
        }
        let avg: Vec<_> = self
            .designs
            .iter()
            .map(|&d| self.avg(d, None, |o| o.weighted_speedup))
            .collect();
        t.row_f64("Average", &avg);
        t
    }

    /// Figs. 12–14: per-workload weighted speedup for one category.
    pub fn fig12_14_per_workload(&self, cat: HmrCategory) -> Table {
        let fig = match cat {
            HmrCategory::Hmr0 => "Figure 12 (0-HMR)",
            HmrCategory::Hmr1 => "Figure 13 (1-HMR)",
            HmrCategory::Hmr2 => "Figure 14 (2-HMR)",
        };
        let mut headers = vec!["workload"];
        headers.extend(self.designs.iter().map(|d| d.label()));
        let mut t = Table::new(format!("{fig}: per-workload weighted speedup"), &headers);
        for p in self.pairs.iter().filter(|p| p.category() == cat) {
            let cells: Vec<f64> = self
                .designs
                .iter()
                .map(|&d| {
                    self.outcomes
                        .get(&(p.name(), d))
                        .map_or(0.0, |o| o.weighted_speedup)
                })
                .collect();
            t.row_f64(p.name(), &cells);
        }
        t
    }

    /// Fig. 15: unfairness (maximum slowdown) by category.
    pub fn fig15_unfairness(&self) -> Table {
        let designs: Vec<DesignKind> = self
            .designs
            .iter()
            .copied()
            .filter(|d| {
                matches!(
                    d,
                    DesignKind::Static
                        | DesignKind::Partitioned
                        | DesignKind::NoIsolation
                        | DesignKind::PwCache
                        | DesignKind::SharedTlb
                        | DesignKind::Mask
                )
            })
            .collect();
        let mut headers = vec!["category"];
        headers.extend(designs.iter().map(|d| d.label()));
        let mut t = Table::new(
            "Figure 15: multiprogrammed workload unfairness (max slowdown)",
            &headers,
        );
        for cat in HmrCategory::ALL {
            if !self.pairs.iter().any(|p| p.category() == cat) {
                continue;
            }
            let cells: Vec<_> = designs
                .iter()
                .map(|&d| self.avg(d, Some(cat), |o| o.unfairness))
                .collect();
            t.row_f64(cat.label(), &cells);
        }
        let avg: Vec<_> = designs
            .iter()
            .map(|&d| self.avg(d, None, |o| o.unfairness))
            .collect();
        t.row_f64("Average", &avg);
        t
    }

    /// §7.1 headline numbers: MASK vs the best baseline and vs Ideal.
    pub fn headline(&self) -> Table {
        let mut t = Table::new(
            "Headline: MASK vs baselines (averages over simulated pairs)",
            &["metric", "value"],
        );
        // MASK's average of `metric` over `baseline`'s, when both ran and
        // `baseline`'s is positive.
        let rel = |baseline, metric: fn(&PairOutcome) -> f64| match (
            self.avg(DesignKind::Mask, None, metric),
            self.avg(baseline, None, metric),
        ) {
            (Some(mask), Some(base)) if base > 0.0 => Some(mask / base),
            _ => None,
        };
        let rows: [(&str, Option<f64>); 4] = [
            (
                "WS improvement over SharedTLB (%)",
                rel(DesignKind::SharedTlb, |o| o.weighted_speedup).map(|r| r - 1.0),
            ),
            (
                "WS shortfall vs Ideal (%)",
                rel(DesignKind::Ideal, |o| o.weighted_speedup).map(|r| 1.0 - r),
            ),
            (
                "IPC throughput improvement over SharedTLB (%)",
                rel(DesignKind::SharedTlb, |o| o.ipc_throughput).map(|r| r - 1.0),
            ),
            (
                "Unfairness reduction vs SharedTLB (%)",
                rel(DesignKind::SharedTlb, |o| o.unfairness).map(|r| 1.0 - r),
            ),
        ];
        for (label, change) in rows {
            if let Some(change) = change {
                t.row(label, vec![format!("{:.1}", change * 100.0)]);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_views() {
        let opts = ExpOptions::quick();
        let designs = [DesignKind::SharedTlb, DesignKind::Mask, DesignKind::Ideal];
        let s = sweep(&opts, &designs);
        assert_eq!(s.outcomes.len(), 2 * 3);
        let f11 = s.fig11_weighted_speedup();
        assert!(!f11.is_empty());
        assert_eq!(f11.headers.len(), 4);
        let f15 = s.fig15_unfairness();
        assert!(!f15.is_empty());
        let head = s.headline();
        assert!(head.len() >= 3);
        // Per-workload tables cover each simulated pair exactly once.
        let total: usize = HmrCategory::ALL
            .iter()
            .map(|&c| s.fig12_14_per_workload(c).len())
            .sum();
        assert_eq!(total, s.pairs.len());
    }

    #[test]
    fn ideal_dominates_in_weighted_speedup() {
        let opts = ExpOptions {
            cycles: 10_000,
            ..ExpOptions::quick()
        };
        let s = sweep(&opts, &[DesignKind::SharedTlb, DesignKind::Ideal]);
        let f11 = s.fig11_weighted_speedup();
        let base = f11.value("Average", "SharedTLB").expect("cell");
        let ideal = f11.value("Average", "Ideal").expect("cell");
        assert!(
            ideal >= base * 0.95,
            "ideal ({ideal}) should not lose to SharedTLB ({base})"
        );
    }
}
