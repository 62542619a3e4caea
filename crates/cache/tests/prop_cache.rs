//! Property tests for the data cache, MSHRs, and the timed L2.

use mask_cache::{DataCache, MshrAlloc, MshrTable, SharedL2Cache};
use mask_common::addr::LineAddr;
use mask_common::config::{CacheConfig, L2Policy};
use mask_common::ids::{Asid, CoreId};
use mask_common::req::{MemRequest, ReqId, RequestClass};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    /// Probe-after-fill always hits until capacity pressure can evict.
    #[test]
    fn fill_then_probe_hits(lines in proptest::collection::vec(0u64..1000, 1..100)) {
        let mut c = DataCache::new(1 << 20, 16); // huge: no evictions
        for &l in &lines {
            c.fill(LineAddr(l), Asid::new(0));
            prop_assert!(c.probe(LineAddr(l), Asid::new(0)));
        }
        for &l in &lines {
            prop_assert!(c.peek(LineAddr(l), Asid::new(0)), "line {l} lost without pressure");
        }
    }

    /// Valid-line count never exceeds capacity.
    #[test]
    fn occupancy_bounded(lines in proptest::collection::vec(any::<u32>(), 0..400)) {
        let mut c = DataCache::new(16 * 1024, 4); // 128 lines
        for &l in &lines {
            c.fill(LineAddr(u64::from(l)), Asid::new(0));
        }
        prop_assert!(c.len() <= c.capacity_lines());
    }

    /// Every MSHR waiter is returned exactly once across completes.
    #[test]
    fn mshr_conserves_waiters(reqs in proptest::collection::vec((0u64..16, any::<u32>()), 0..100)) {
        let mut m: MshrTable<u32> = MshrTable::new(64);
        let mut expected: Vec<(u64, u32)> = Vec::new();
        for &(line, w) in &reqs {
            match m.allocate(LineAddr(line), w) {
                MshrAlloc::Primary | MshrAlloc::Secondary => expected.push((line, w)),
                MshrAlloc::Full => {}
            }
        }
        let mut returned: Vec<(u64, u32)> = Vec::new();
        for line in 0u64..16 {
            for w in m.complete(LineAddr(line)) {
                returned.push((line, w));
            }
        }
        expected.sort_unstable();
        returned.sort_unstable();
        prop_assert_eq!(expected, returned);
        prop_assert!(m.is_empty());
    }

    /// Conservation through the timed L2: every enqueued request produces
    /// exactly one response once DRAM fills return.
    #[test]
    fn l2_conserves_requests(lines in proptest::collection::vec(0u64..64, 1..80), translation_mask: u8) {
        let cfg = CacheConfig { bytes: 32 * 1024, assoc: 4, latency: 5, banks: 4, ports_per_bank: 2, mshrs: 8 };
        let mut l2 = SharedL2Cache::new(&cfg, if translation_mask.is_multiple_of(2) { L2Policy::SharedBypass } else { L2Policy::Shared }, 1);
        let mut ids = BTreeSet::new();
        for (i, &l) in lines.iter().enumerate() {
            let class = if i % 3 == 0 {
                RequestClass::Translation(mask_common::req::WalkLevel::new((i % 4 + 1) as u8))
            } else {
                RequestClass::Data
            };
            l2.enqueue(
                MemRequest::new(ReqId(i as u64), LineAddr(l), Asid::new(0), CoreId::new(0), class, 0),
                0,
            );
            ids.insert(ReqId(i as u64));
        }
        let mut seen = BTreeSet::new();
        for now in 0..10_000u64 {
            l2.tick(now);
            for r in l2.take_dram_requests() {
                // Instant DRAM.
                l2.dram_fill(r.line, now);
            }
            for resp in l2.take_responses() {
                prop_assert!(seen.insert(resp.req.id), "duplicate response {:?}", resp.req.id);
            }
            if seen.len() == ids.len() {
                break;
            }
        }
        prop_assert_eq!(seen.len(), ids.len(), "lost responses");
    }
}
