//! Property tests for the PRNG and statistics foundations.

use mask_common::rng::Pcg32;
use mask_common::stats::{DramClassStats, HitStats};
use proptest::prelude::*;

proptest! {
    /// `below(bound)` is always strictly below its bound.
    #[test]
    fn below_is_bounded(seed: u64, stream: u64, bound in 1u64..u64::MAX) {
        let mut rng = Pcg32::new(seed, stream);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// The generator is a pure function of its seed pair.
    #[test]
    fn rng_is_deterministic(seed: u64, stream: u64) {
        let mut a = Pcg32::new(seed, stream);
        let mut b = Pcg32::new(seed, stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `unit()` stays in [0, 1).
    #[test]
    fn unit_in_range(seed: u64) {
        let mut rng = Pcg32::new(seed, 1);
        for _ in 0..64 {
            let u = rng.unit();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Hit-rate bookkeeping: hits + misses == accesses, rates in [0,1], and
    /// no rate at all without an access.
    #[test]
    fn hit_stats_invariants(outcomes in proptest::collection::vec(any::<bool>(), 0..200)) {
        let mut h = HitStats::default();
        for o in &outcomes {
            h.record(*o);
        }
        prop_assert_eq!(h.accesses, outcomes.len() as u64);
        prop_assert_eq!(h.hits + h.misses(), h.accesses);
        prop_assert_eq!(h.hit_rate().is_none(), h.accesses == 0);
        prop_assert_eq!(h.miss_rate().is_none(), h.accesses == 0);
        if let (Some(hit), Some(miss)) = (h.hit_rate(), h.miss_rate()) {
            prop_assert!((0.0..=1.0).contains(&hit));
            prop_assert!((hit + miss - 1.0).abs() < 1e-9);
        }
    }

    /// Merging DRAM class stats is associative on the counted fields.
    #[test]
    fn dram_stats_merge_adds(r1 in 0u64..1000, r2 in 0u64..1000, l1 in 0u64..100_000, l2 in 0u64..100_000) {
        let a = DramClassStats { requests: r1, latency_sum: l1, ..Default::default() };
        let b = DramClassStats { requests: r2, latency_sum: l2, ..Default::default() };
        let mut m = a.clone();
        m.merge(&b);
        prop_assert_eq!(m.requests, r1 + r2);
        prop_assert_eq!(m.latency_sum, l1 + l2);
    }
}
