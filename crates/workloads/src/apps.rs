//! The 30 named application profiles and Table 2's classification.
//!
//! Parameter choices are derived from each benchmark's published access
//! behaviour *class* (Table 2), not its arithmetic: e.g. `GUP` (GUPS) is
//! random scatter over a set that fits the shared L2 TLB but thrashes the
//! 64-entry L1 TLBs (High L1 / Low L2), `SCAN` streams an enormous array
//! with almost no page reuse (High/High), and `LUD`/`NN` work on hot tiles
//! (Low/Low). This crate only states each app's quadrant
//! ([`expected_class`]); the rates are measured on the timed simulator's
//! single-app runs (`mask_core::experiments::single_app`), whose tests
//! assert every profile lands in its quadrant.

use crate::profile::{AppProfile, Pattern};

/// A measured or expected TLB behaviour class (Table 2 quadrant).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlbClass {
    /// L1 TLB miss rate is "High" (≥ 20%).
    pub l1_high: bool,
    /// L2 TLB miss rate is "High" (≥ 20%).
    pub l2_high: bool,
}

/// The paper's Low/High boundary: workload pairs are excluded when both
/// apps have "low L1 TLB miss rate (i.e., <20%) and low L2 TLB miss rate
/// (i.e., <20%)" (§6).
pub const HIGH_THRESHOLD: f64 = 0.20;

impl TlbClass {
    /// Classifies a measured `(l1_miss_rate, l2_miss_rate)` pair.
    pub fn from_rates(l1: f64, l2: f64) -> Self {
        TlbClass {
            l1_high: l1 >= HIGH_THRESHOLD,
            l2_high: l2 >= HIGH_THRESHOLD,
        }
    }
}

/// Expected Table 2 quadrant for each benchmark.
///
/// `JPEG`, `LIB`, and `SPMV` appear in the paper's Figs. 5–6 but not in
/// Table 2; their classes here follow their published suite behaviour.
pub fn expected_class(name: &str) -> Option<TlbClass> {
    let (l1_high, l2_high) = match name {
        // Table 2, row 1: Low L1 / Low L2.
        "LUD" | "NN" => (false, false),
        // Row 2: Low L1 / High L2.
        "BFS2" | "FFT" | "HISTO" | "NW" | "QTC" | "RAY" | "SAD" | "SCP" | "JPEG" | "LIB" => {
            (false, true)
        }
        // Row 3: High L1 / Low L2.
        "BP" | "GUP" | "HS" | "LPS" => (true, false),
        // Row 4: High L1 / High L2.
        "3DS" | "BLK" | "CFD" | "CONS" | "FWT" | "LUH" | "MM" | "MUM" | "RED" | "SC" | "SCAN"
        | "SRAD" | "TRD" | "SPMV" => (true, true),
        _ => return None,
    };
    Some(TlbClass { l1_high, l2_high })
}

const fn stream(pages: u64, burst: u64, group: u32) -> Pattern {
    Pattern::Stream {
        pages,
        burst,
        group,
    }
}

const fn random(pages: u64, ppi: u32) -> Pattern {
    Pattern::Random {
        pages,
        pages_per_instr: ppi,
    }
}

const fn tiled(hot: u64, p_hot: f64, stream_pages: u64, burst: u64, group: u32) -> Pattern {
    Pattern::TiledHot {
        hot,
        p_hot,
        stream_pages,
        burst,
        group,
    }
}

const fn hot_cold(hot: u64, p_hot: f64, cold: u64) -> Pattern {
    Pattern::HotCold { hot, p_hot, cold }
}

const fn app(
    name: &'static str,
    pattern: Pattern,
    lines_per_instr: u32,
    compute_per_mem: u32,
    line_locality: f64,
) -> AppProfile {
    AppProfile {
        name,
        pattern,
        lines_per_instr,
        compute_per_mem,
        line_locality,
    }
}

/// All 30 application profiles (Fig. 5's benchmark list).
pub static APPS: [AppProfile; 30] = [
    // ---- Low L1 / Low L2: hot tiles that fit the L1 TLB ----
    app("LUD", hot_cold(32, 0.97, 64), 4, 10, 0.5),
    app("NN", hot_cold(48, 0.95, 96), 8, 14, 0.5),
    // ---- Low L1 / High L2: burst-streaming over huge footprints ----
    app("BFS2", stream(1572864, 12, 8), 2, 14, 0.7),
    app("FFT", stream(1048576, 16, 8), 4, 14, 0.7),
    app("HISTO", stream(786432, 24, 16), 2, 18, 0.7),
    app("JPEG", stream(524288, 28, 16), 4, 18, 0.7),
    app("LIB", stream(655360, 20, 8), 4, 24, 0.7),
    app("NW", stream(524288, 20, 8), 4, 22, 0.7),
    app("QTC", stream(1048576, 16, 8), 4, 24, 0.7),
    app("RAY", stream(1310720, 24, 4), 2, 22, 0.7),
    app("SAD", stream(786432, 32, 8), 4, 14, 0.7),
    app("SCP", stream(1048576, 24, 8), 4, 12, 0.7),
    // ---- High L1 / Low L2: random over a set that fits the L2 TLB ----
    app("BP", random(320, 1), 2, 12, 0.6),
    app("GUP", random(400, 2), 2, 6, 0.5),
    app("HS", random(288, 1), 2, 12, 0.6),
    app("LPS", random(352, 1), 2, 12, 0.6),
    // ---- High L1 / High L2: hot sets near the shared-L2-TLB capacity
    // plus huge reuse-free regions. Alone, the hot set partially fits the
    // 512-entry shared TLB (miss rates 40-70%); co-running two such apps
    // thrashes it (Fig. 7), which is what TLB-Fill Tokens recover. ----
    app("3DS", tiled(384, 0.5, 2097152, 1, 1), 2, 12, 0.6),
    app("BLK", hot_cold(448, 0.55, 1048576), 2, 14, 0.7),
    app("CFD", tiled(320, 0.45, 1572864, 1, 1), 2, 13, 0.6),
    app("CONS", hot_cold(512, 0.5, 786432), 2, 10, 0.6),
    app("FWT", tiled(256, 0.5, 1048576, 1, 1), 2, 14, 0.6),
    app("LUH", tiled(448, 0.4, 2097152, 1, 1), 2, 21, 0.7),
    app("MM", tiled(384, 0.55, 1572864, 1, 1), 2, 17, 0.7),
    app("MUM", random(1310720, 4), 4, 10, 0.5),
    app("RED", tiled(320, 0.5, 1572864, 1, 1), 2, 12, 0.6),
    app("SC", hot_cold(384, 0.5, 655360), 2, 12, 0.6),
    app("SCAN", tiled(256, 0.45, 2097152, 1, 1), 2, 10, 0.6),
    app("SPMV", hot_cold(512, 0.5, 917504), 2, 14, 0.6),
    app("SRAD", tiled(384, 0.55, 1179648, 1, 1), 2, 19, 0.7),
    app("TRD", hot_cold(448, 0.45, 1572864), 2, 17, 0.6),
];

/// All application profiles in a stable order.
pub fn all_apps() -> &'static [AppProfile] {
    &APPS
}

/// Looks up a profile by the paper's benchmark abbreviation.
pub fn app_by_name(name: &str) -> Option<AppProfile> {
    APPS.iter().find(|a| a.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn class_threshold_boundaries() {
        assert_eq!(
            TlbClass::from_rates(0.19, 0.19),
            TlbClass {
                l1_high: false,
                l2_high: false
            }
        );
        assert_eq!(
            TlbClass::from_rates(0.20, 0.19),
            TlbClass {
                l1_high: true,
                l2_high: false
            }
        );
        assert_eq!(
            TlbClass::from_rates(0.05, 0.9),
            TlbClass {
                l1_high: false,
                l2_high: true
            }
        );
    }

    #[test]
    fn thirty_unique_apps() {
        let names: BTreeSet<_> = APPS.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn every_app_has_an_expected_class() {
        for a in all_apps() {
            assert!(expected_class(a.name).is_some(), "{} unclassified", a.name);
        }
        assert!(expected_class("NOPE").is_none());
    }

    #[test]
    fn table_2_membership_counts() {
        let counts = |l1: bool, l2: bool| {
            APPS.iter()
                .filter(|a| {
                    let c = expected_class(a.name).expect("classified");
                    c.l1_high == l1 && c.l2_high == l2
                })
                .count()
        };
        assert_eq!(counts(false, false), 2); // LUD, NN
        assert_eq!(counts(false, true), 10); // Table 2's 8 + JPEG + LIB
        assert_eq!(counts(true, false), 4); // BP, GUP, HS, LPS
        assert_eq!(counts(true, true), 14); // Table 2's 13 + SPMV
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(app_by_name("GUP").map(|a| a.name), Some("GUP"));
        assert!(app_by_name("XXX").is_none());
    }
}
