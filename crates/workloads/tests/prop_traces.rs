//! Property tests for the synthetic trace generators.

use mask_common::addr::PAGE_SIZE_4K_LOG2;
use mask_workloads::{all_apps, expected_class, AppProfile, Pattern, WarpTrace};
use proptest::prelude::*;

/// Total pages `profile` can touch: the sum of its pattern's regions.
fn footprint_pages(profile: &AppProfile) -> u64 {
    match profile.pattern {
        Pattern::Stream { pages, .. } | Pattern::Random { pages, .. } => pages,
        Pattern::TiledHot {
            hot, stream_pages, ..
        } => hot + stream_pages,
        Pattern::HotCold { hot, cold, .. } => hot + cold,
    }
}

#[test]
fn footprints_exceed_tlb_reach_where_expected() {
    for a in all_apps() {
        let c = expected_class(a.name).expect("classified");
        if c.l2_high {
            assert!(
                footprint_pages(a) > 2048,
                "{}: high-L2 apps need footprints above TLB reach",
                a.name
            );
        } else {
            assert!(
                footprint_pages(a) <= 512,
                "{}: low-L2 apps must fit the shared L2 TLB",
                a.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated address stays inside the profile's footprint.
    #[test]
    fn addresses_stay_in_footprint(app_idx in 0usize..30, core in 0u64..8, warp in 0u64..64, seed: u64) {
        let profile = all_apps()[app_idx];
        let mut t = WarpTrace::new(profile, seed, core, warp, PAGE_SIZE_4K_LOG2);
        let max_pages = footprint_pages(&profile);
        let mut lines = Vec::new();
        for _ in 0..64 {
            t.next_op_into(&mut lines);
            prop_assert!(!lines.is_empty());
            for va in &lines {
                let page = (va.raw() - 0x10_0000_0000) >> PAGE_SIZE_4K_LOG2;
                prop_assert!(page < max_pages, "{}: page {page} outside footprint {max_pages}", profile.name);
                prop_assert_eq!(va.raw() % mask_common::addr::LINE_SIZE, 0);
            }
        }
    }

    /// Identical coordinates reproduce identical traces; different warps
    /// eventually diverge.
    #[test]
    fn determinism_and_divergence(app_idx in 0usize..30, seed: u64) {
        let profile = all_apps()[app_idx];
        let mut a = WarpTrace::new(profile, seed, 0, 0, PAGE_SIZE_4K_LOG2);
        let mut b = WarpTrace::new(profile, seed, 0, 0, PAGE_SIZE_4K_LOG2);
        let (mut la, mut lb) = (Vec::new(), Vec::new());
        for _ in 0..32 {
            prop_assert_eq!(a.next_op_into(&mut la), b.next_op_into(&mut lb));
            prop_assert_eq!(&la, &lb);
        }
        let mut c = WarpTrace::new(profile, seed, 5, 63, PAGE_SIZE_4K_LOG2);
        let mut same = 0;
        let mut a2 = WarpTrace::new(profile, seed, 0, 0, PAGE_SIZE_4K_LOG2);
        for _ in 0..32 {
            if a2.next_op_into(&mut la) == c.next_op_into(&mut lb) && la == lb {
                same += 1;
            }
        }
        prop_assert!(same < 32, "{}: distant warps fully correlated", profile.name);
    }
}
