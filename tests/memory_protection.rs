//! Memory-protection invariants (§5.1): address spaces are isolated end to
//! end.

use mask_common::addr::{Vpn, PAGE_SIZE_4K_LOG2};
use mask_common::config::{DesignKind, GpuConfig};
use mask_common::ids::{Asid, CoreId, GlobalWarpId, WarpId};
use mask_common::stats::AppStats;
use mask_gpu::TranslationUnit;
use mask_pagetable::PageTables;
use mask_tlb::{L2TlbProbe, SharedL2Tlb};

#[test]
fn same_vpn_distinct_asids_distinct_frames() {
    let mut pts = PageTables::new(4, PAGE_SIZE_4K_LOG2);
    let vpn = Vpn(0xCAFE);
    let frames: Vec<_> = (0..4)
        .map(|a| pts.ensure_mapped(Asid::new(a), vpn))
        .collect();
    for i in 0..4 {
        for j in i + 1..4 {
            assert_ne!(
                frames[i], frames[j],
                "address spaces {i} and {j} share a frame"
            );
        }
    }
}

#[test]
fn shared_tlb_never_leaks_across_asids() {
    let mut tlb = SharedL2Tlb::new(512, 16, 2, 32);
    tlb.fill(Asid::new(0), Vpn(7), mask_common::addr::Ppn(99), true);
    assert_eq!(
        tlb.probe(Asid::new(1), Vpn(7)),
        L2TlbProbe::Miss,
        "cross-ASID TLB hit"
    );
}

#[test]
fn per_asid_flush_is_precise() {
    let mut tlb = SharedL2Tlb::new(512, 16, 2, 32);
    for v in 0..100u64 {
        tlb.fill(
            Asid::new((v % 2) as u16),
            Vpn(v),
            mask_common::addr::Ppn(v),
            true,
        );
    }
    tlb.flush_asid(Asid::new(0));
    for v in 0..100u64 {
        let hit = tlb.probe(Asid::new((v % 2) as u16), Vpn(v)).ppn().is_some();
        assert_eq!(
            hit,
            v % 2 == 1,
            "flush touched the wrong address space (vpn {v})"
        );
    }
}

#[test]
fn translation_unit_isolates_walks() {
    let cfg = GpuConfig::maxwell();
    let mut unit = TranslationUnit::new(&cfg, DesignKind::SharedTlb.spec(), &[1, 1]);
    let w0 = GlobalWarpId::new(CoreId::new(0), WarpId::new(0));
    let w1 = GlobalWarpId::new(CoreId::new(1), WarpId::new(0));
    let mut stats = [AppStats::default(), AppStats::default()];
    // `request` returns `true` for a new primary walk request and `false`
    // for a merge into a pending one.
    assert!(unit.request(Asid::new(0), Vpn(42), w0, 0, 0, &mut stats[0]));
    assert!(
        unit.request(Asid::new(1), Vpn(42), w1, 0, 0, &mut stats[1]),
        "same VPN in two address spaces must not merge"
    );
}
