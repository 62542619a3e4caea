//! The 35 two-application workloads of the paper's evaluation.
//!
//! "We randomly select 35 pairs of applications, avoiding pairs where both
//! applications have a low L1 TLB miss rate and low L2 TLB miss rate" (§6).
//! The exact pair list is taken from Figs. 8–9; pairs are categorized by
//! how many member applications have *both* high L1 and high L2 TLB miss
//! rates (`n-HMR`, §6).

use crate::apps::{app_by_name, expected_class};
use crate::profile::AppProfile;

/// A two-application workload.
#[derive(Clone, Copy, Debug)]
pub struct AppPair {
    /// First application (also first in the paper's `A_B` name).
    pub a: AppProfile,
    /// Second application.
    pub b: AppProfile,
}

impl AppPair {
    /// The paper's workload name, e.g. `"3DS_HISTO"`.
    pub fn name(&self) -> String {
        format!("{}_{}", self.a.name, self.b.name)
    }

    /// How many member apps are High-L1 *and* High-L2 (HMR) by Table 2.
    pub fn hmr_count(&self) -> usize {
        [self.a, self.b]
            .iter()
            .filter(|p| expected_class(p.name).is_some_and(|c| c.l1_high && c.l2_high))
            .count()
    }

    /// The workload category used to group Figs. 11–15.
    pub fn category(&self) -> HmrCategory {
        match self.hmr_count() {
            0 => HmrCategory::Hmr0,
            1 => HmrCategory::Hmr1,
            _ => HmrCategory::Hmr2,
        }
    }
}

/// Workload categories of §6: `n-HMR` contains pairs with `n` high-miss-
/// rate members.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HmrCategory {
    /// Neither app is high/high.
    Hmr0,
    /// One app is high/high.
    Hmr1,
    /// Both apps are high/high.
    Hmr2,
}

impl HmrCategory {
    /// All categories in display order.
    pub const ALL: [HmrCategory; 3] = [HmrCategory::Hmr0, HmrCategory::Hmr1, HmrCategory::Hmr2];

    /// The paper's label.
    pub const fn label(self) -> &'static str {
        match self {
            HmrCategory::Hmr0 => "0-HMR",
            HmrCategory::Hmr1 => "1-HMR",
            HmrCategory::Hmr2 => "2-HMR",
        }
    }
}

impl core::fmt::Display for HmrCategory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper's 35 workload pairs (order of Figs. 8–9).
pub const PAIR_NAMES: [(&str, &str); 35] = [
    ("3DS", "BP"),
    ("3DS", "HISTO"),
    ("BLK", "LPS"),
    ("CFD", "MM"),
    ("CONS", "LPS"),
    ("CONS", "LUH"),
    ("FWT", "BP"),
    ("HISTO", "GUP"),
    ("HISTO", "LPS"),
    ("LUH", "BFS2"),
    ("LUH", "GUP"),
    ("MM", "CONS"),
    ("MUM", "HISTO"),
    ("NW", "HS"),
    ("NW", "LPS"),
    ("RAY", "GUP"),
    ("RAY", "HS"),
    ("RED", "BP"),
    ("RED", "GUP"),
    ("RED", "MM"),
    ("RED", "RAY"),
    ("RED", "SC"),
    ("SCAN", "CONS"),
    ("SCAN", "HISTO"),
    ("SCAN", "SAD"),
    ("SCAN", "SRAD"),
    ("SCP", "GUP"),
    ("SCP", "HS"),
    ("SC", "FWT"),
    ("SRAD", "3DS"),
    ("TRD", "HS"),
    ("TRD", "LPS"),
    ("TRD", "MUM"),
    ("TRD", "RAY"),
    ("TRD", "RED"),
];

/// Builds the full pair list.
///
/// # Panics
///
/// Panics if a pair references an unknown benchmark (would be a bug in
/// [`PAIR_NAMES`]).
pub fn paper_pairs() -> Vec<AppPair> {
    PAIR_NAMES
        .iter()
        .map(|(a, b)| AppPair {
            // PAIR_NAMES is a static table cross-checked against APPS by the
            // tests below, so lookup failure is unreachable in a shipped build.
            #[expect(clippy::panic, reason = "PAIR_NAMES is checked against APPS")]
            a: app_by_name(a).unwrap_or_else(|| panic!("unknown app {a}")),
            #[expect(clippy::panic, reason = "PAIR_NAMES is checked against APPS")]
            b: app_by_name(b).unwrap_or_else(|| panic!("unknown app {b}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_five_pairs() {
        assert_eq!(paper_pairs().len(), 35);
    }

    #[test]
    fn category_counts_match_figures_12_to_14() {
        let pairs = paper_pairs();
        let count = |c| pairs.iter().filter(|p| p.category() == c).count();
        // Fig. 12 shows 8 0-HMR pairs; Figs. 13/14 split the remainder.
        assert_eq!(count(HmrCategory::Hmr0), 8);
        assert_eq!(count(HmrCategory::Hmr1), 16);
        assert_eq!(count(HmrCategory::Hmr2), 11);
    }

    #[test]
    fn no_pair_is_doubly_insensitive() {
        // §6 excludes pairs where both apps are low/low.
        for p in paper_pairs() {
            let ca = expected_class(p.a.name).expect("classified");
            let cb = expected_class(p.b.name).expect("classified");
            let low = |c: &crate::apps::TlbClass| !c.l1_high && !c.l2_high;
            assert!(!(low(&ca) && low(&cb)), "{} is insensitive", p.name());
        }
    }

    #[test]
    fn fig_12_zero_hmr_pairs_match_paper() {
        let expected = [
            "HISTO_GUP",
            "HISTO_LPS",
            "NW_HS",
            "NW_LPS",
            "RAY_GUP",
            "RAY_HS",
            "SCP_GUP",
            "SCP_HS",
        ];
        let got: Vec<String> = paper_pairs()
            .iter()
            .filter(|p| p.category() == HmrCategory::Hmr0)
            .map(AppPair::name)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn names_and_display() {
        let pairs = paper_pairs();
        assert_eq!(pairs[1].name(), "3DS_HISTO");
        assert_eq!(HmrCategory::Hmr1.to_string(), "1-HMR");
    }
}
