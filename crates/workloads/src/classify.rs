//! Functional TLB-miss-rate measurement (regenerates Table 2).
//!
//! Runs an application's warp traces through a latency-free model of the
//! TLB hierarchy (per-core L1 TLBs and one shared L2 TLB, sized by
//! Table 1's [`TlbConfig::default`]) and reports the observed miss rates. This is how the paper's
//! Table 2 classifies benchmarks; the full timed simulator in `mask-gpu`
//! reproduces the same behaviour with latencies attached.

use crate::profile::AppProfile;
use crate::trace::WarpTrace;
use mask_common::addr::{Ppn, PAGE_SIZE_4K_LOG2};
use mask_common::config::TlbConfig;
use mask_common::ids::Asid;
use mask_tlb::{L1Tlb, L2TlbProbe, SharedL2Tlb};

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

/// Configuration for the functional measurement.
#[derive(Clone, Debug)]
pub struct ClassifyConfig {
    /// Cores running the application.
    pub n_cores: usize,
    /// Warp contexts per core.
    pub warps_per_core: usize,
    /// Memory instructions per warp to simulate.
    pub ops_per_warp: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for ClassifyConfig {
    fn default() -> Self {
        ClassifyConfig {
            n_cores: 4,
            warps_per_core: 64,
            ops_per_warp: 200,
            seed: 0x7ab1e2,
        }
    }
}

/// Measures `(l1_miss_rate, l2_miss_rate)` for one application running
/// alone on `cfg.n_cores` cores.
pub fn measure_tlb_rates(profile: &AppProfile, cfg: &ClassifyConfig) -> (f64, f64) {
    let asid = Asid::new(0);
    let tlb = TlbConfig::default();
    let mut l1s: Vec<L1Tlb> = (0..cfg.n_cores)
        .map(|_| L1Tlb::new(tlb.l1_entries))
        .collect();
    let mut l2 = SharedL2Tlb::new(tlb.l2_entries, tlb.l2_assoc, 1, 0);
    let mut traces: Vec<WarpTrace> = (0..cfg.n_cores)
        .flat_map(|c| (0..cfg.warps_per_core).map(move |w| (c as u64, w as u64)))
        .map(|(c, w)| WarpTrace::new(*profile, cfg.seed, c, w, PAGE_SIZE_4K_LOG2))
        .collect();
    let (mut l1_acc, mut l1_miss) = (0u64, 0u64);
    // Round-robin across warps approximates concurrent execution.
    for _ in 0..cfg.ops_per_warp {
        for (i, t) in traces.iter_mut().enumerate() {
            let core = i / cfg.warps_per_core;
            let op = t.next_op();
            let mut pages: Vec<u64> = op
                .lines
                .iter()
                .map(|va| va.vpn(PAGE_SIZE_4K_LOG2).0)
                .collect();
            pages.sort_unstable();
            pages.dedup();
            for page in pages {
                let vpn = mask_common::addr::Vpn(page);
                l1_acc += 1;
                if l1s[core].probe(asid, vpn).is_some() {
                    continue;
                }
                l1_miss += 1;
                let ppn = match l2.probe(asid, vpn) {
                    L2TlbProbe::Miss => {
                        // Walk "succeeds" instantly; invent a stable frame.
                        let ppn = Ppn(page + 1);
                        l2.fill(asid, vpn, ppn, true);
                        ppn
                    }
                    hit => hit.ppn().expect("hit carries a translation"),
                };
                l1s[core].fill(asid, vpn, ppn);
            }
        }
    }
    let l1_rate = if l1_acc == 0 {
        0.0
    } else {
        l1_miss as f64 / l1_acc as f64
    };
    (l1_rate, l2.lifetime_stats(asid).miss_rate())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{all_apps, expected_class};

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

    /// The headline property: every synthetic profile lands in its paper
    /// quadrant (regenerates Table 2).
    #[test]
    fn all_apps_match_table_2() {
        // Long enough that compulsory (cold) misses do not dominate the
        // low-miss-rate apps' L2 statistics.
        let cfg = ClassifyConfig {
            ops_per_warp: 250,
            ..ClassifyConfig::default()
        };
        let mut failures = Vec::new();
        for app in all_apps() {
            let (l1, l2) = measure_tlb_rates(app, &cfg);
            let got = TlbClass::from_rates(l1, l2);
            let want = expected_class(app.name).expect("classified");
            if got != want {
                failures.push(format!(
                    "{}: measured l1={l1:.3} l2={l2:.3} -> {got:?}, expected {want:?}",
                    app.name
                ));
            }
        }
        assert!(
            failures.is_empty(),
            "misclassified apps:\n{}",
            failures.join("\n")
        );
    }

    #[test]
    fn low_low_apps_barely_miss() {
        let cfg = ClassifyConfig::default();
        let lud = crate::apps::app_by_name("LUD").expect("exists");
        let (l1, _) = measure_tlb_rates(&lud, &cfg);
        assert!(
            l1 < 0.10,
            "LUD should have a very low L1 TLB miss rate, got {l1:.3}"
        );
    }

    #[test]
    fn gup_thrashes_l1_but_fits_l2() {
        let cfg = ClassifyConfig::default();
        let gup = crate::apps::app_by_name("GUP").expect("exists");
        let (l1, l2) = measure_tlb_rates(&gup, &cfg);
        assert!(
            l1 > 0.5,
            "GUP random scatter thrashes the L1 TLB, got {l1:.3}"
        );
        assert!(
            l2 < 0.2,
            "GUP's 400-page set fits the 512-entry L2 TLB, got {l2:.3}"
        );
    }
}
