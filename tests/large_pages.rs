//! End-to-end 2 MB large-page behaviour (§7.3 sensitivity).

use mask_common::addr::PAGE_SIZE_2M_LOG2;
use mask_core::prelude::*;
use std::sync::Arc;

fn run(page_size_log2: u32) -> Arc<SimStats> {
    let mut gpu = GpuConfig::maxwell();
    gpu.n_cores = 4;
    gpu.warps_per_core = 16;
    gpu.page_size_log2 = page_size_log2;
    let runner = PairRunner::new(RunOptions {
        max_cycles: 20_000,
        seed: 9,
        warmup_cycles: 5_000,
        gpu,
    });
    runner
        .run_apps(
            &[vec![AppSpec {
                profile: app_by_name("CONS").expect("known"),
                n_cores: 4,
            }]],
            &[DesignKind::SharedTlb],
        )
        .remove(0)
}

#[test]
fn large_pages_walk_three_levels() {
    let stats = run(PAGE_SIZE_2M_LOG2);
    assert_eq!(
        stats.apps[0].l2_translation[3].accesses, 0,
        "2MB pages must never touch a level-4 PTE"
    );
    let shallow: u64 = (0..3)
        .map(|i| stats.apps[0].l2_translation[i].accesses)
        .sum();
    assert!(shallow > 0, "walks still traverse the upper levels");
}

#[test]
fn large_pages_increase_tlb_reach() {
    let small = run(mask_common::addr::PAGE_SIZE_4K_LOG2);
    let large = run(PAGE_SIZE_2M_LOG2);
    // CONS's footprint in pages shrinks 512x: L1 TLB misses must drop.
    let miss = |s: &SimStats| s.apps[0].l1_tlb.miss_rate().expect("L1 TLB probed");
    assert!(
        miss(&large) < miss(&small),
        "2MB pages must raise TLB reach (miss {:.3} -> {:.3})",
        miss(&small),
        miss(&large)
    );
}

#[test]
fn large_pages_improve_translation_bound_throughput() {
    let small = run(mask_common::addr::PAGE_SIZE_4K_LOG2);
    let large = run(PAGE_SIZE_2M_LOG2);
    assert!(
        large.apps[0].instructions >= small.apps[0].instructions,
        "large pages must not hurt a TLB-thrashing app ({} vs {})",
        small.apps[0].instructions,
        large.apps[0].instructions
    );
}
