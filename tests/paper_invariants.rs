//! Quantitative invariants from the paper's analysis sections that must
//! emerge from the simulation (not be baked in).

use mask_core::prelude::*;

fn runner() -> PairRunner {
    let mut gpu = GpuConfig::maxwell();
    gpu.n_cores = 8;
    gpu.warps_per_core = 32;
    PairRunner::new(RunOptions {
        max_cycles: 40_000,
        seed: 11,
        warmup_cycles: 10_000,
        gpu,
    })
}

#[test]
fn walk_levels_hit_monotonically_less_toward_leaves() {
    // §4.3: "data cache hit rates of address translation requests ...
    // 99.8%, 98.8%, 68.7%, and 1.0% for the first (root), second, third,
    // and fourth levels".
    let r = runner();
    let stats = r
        .run_apps(
            &[vec![AppSpec {
                profile: app_by_name("CONS").expect("known"),
                n_cores: 8,
            }]],
            &[DesignKind::SharedTlb],
        )
        .remove(0);
    let a = &stats.apps[0];
    let rates: Vec<f64> = (0..4)
        .map(|i| a.l2_translation[i].hit_rate().expect("every level probed"))
        .collect();
    assert!(
        rates[0] >= rates[2] && rates[0] >= rates[3],
        "root must cache best: {rates:?}"
    );
    assert!(
        rates[3] < rates[0],
        "leaf level must cache strictly worse than root: {rates:?}"
    );
}

#[test]
fn interference_raises_shared_tlb_miss_rate() {
    // §4.2 / Fig. 7.
    let r = runner();
    let [gup, cons] = ["GUP", "CONS"].map(|name| AppSpec {
        profile: app_by_name(name).expect("known"),
        n_cores: 4,
    });
    let runs = r.run_apps(&[vec![gup], vec![gup, cons]], &[DesignKind::SharedTlb]);
    let (alone, shared) = (&runs[0], &runs[1]);
    let miss_alone = alone.apps[0].l2_tlb.miss_rate().expect("GUP probes");
    let miss_shared = shared.apps[0].l2_tlb.miss_rate().expect("GUP probes");
    assert!(
        miss_shared > miss_alone + 0.05,
        "co-running CONS must thrash GUP's shared L2 TLB entries \
         (alone {miss_alone:.3} vs shared {miss_shared:.3})"
    );
}

#[test]
fn translation_bandwidth_is_the_minority_share() {
    // Fig. 8: translation is a small fraction of utilized bandwidth.
    let r = runner();
    let o = r
        .run_named(&["CONS", "LPS"], DesignKind::SharedTlb)
        .expect("known");
    let share = o.stats.translation_bandwidth_share().expect("DRAM busy");
    assert!(
        share < 0.5,
        "translation bandwidth share {share:.3} should be the minority"
    );
    assert!(share > 0.0, "translation must reach DRAM at all");
}

#[test]
fn tlb_misses_stall_multiple_warps_for_sharing_workloads() {
    // §4.1 / Fig. 6: spatial locality makes one translation stall several
    // warps. GUP's small shared page set merges concurrent misses even at
    // this scaled-down test size; full-scale runs show several warps
    // stalled per miss (`repro fig05_06`; FIDELITY.json's `fig06_stalled`).
    let r = runner();
    let stats = r
        .run_apps(
            &[vec![AppSpec {
                profile: app_by_name("GUP").expect("known"),
                n_cores: 8,
            }]],
            &[DesignKind::SharedTlb],
        )
        .remove(0);
    assert!(
        stats.apps[0].avg_warps_stalled_per_miss() >= Some(1.0),
        "every miss stalls at least its requester"
    );
    assert!(
        stats.apps[0].stalled_warps_max >= 2,
        "page-sharing workloads must occasionally stall several warps on one miss"
    );
}

#[test]
fn mask_reduces_translation_dram_latency() {
    // §7.2: the Golden queue cuts DRAM latency for translations.
    let r = runner();
    let base = r
        .run_named(&["CONS", "RED"], DesignKind::SharedTlb)
        .expect("known");
    let mask = r
        .run_named(&["CONS", "RED"], DesignKind::MaskDram)
        .expect("known");
    let lat = |o: &PairOutcome| {
        let mut t = mask_common::stats::DramClassStats::default();
        for a in &o.stats.apps {
            t.merge(&a.dram_translation);
        }
        t.avg_latency().expect("translations reach DRAM")
    };
    assert!(
        lat(&mask) < lat(&base),
        "MASK-DRAM must cut translation DRAM latency ({:.0} -> {:.0})",
        lat(&base),
        lat(&mask)
    );
}

#[test]
fn bypass_cache_is_probed_once_per_main_array_miss_of_its_own_app() {
    // §5.2: the TLB bypass cache is probed beside the shared L2 TLB; a hit
    // in either is an L2 TLB hit. So each app's bypass-cache probes are its
    // main-array misses: its L2 TLB misses plus its bypass-cache hits.
    let o = runner()
        .run_named(&["MUM", "LPS"], DesignKind::MaskTlb)
        .expect("known");
    for (app, a) in o.stats.apps.iter().enumerate() {
        let bypass = a.tlb_bypass_cache;
        assert!(
            bypass.accesses > 0,
            "app {app} never probed the bypass cache"
        );
        assert_eq!(
            bypass.accesses,
            a.l2_tlb.misses() + bypass.hits,
            "app {app}: bypass cache {bypass:?}, L2 TLB {:?}",
            a.l2_tlb
        );
    }
}

#[test]
fn page_walk_cache_misses_are_their_own_apps_l2_accesses() {
    // Under PWCache every walk access that misses the page-walk cache goes
    // to the shared L2 cache. Over the measured window the two counts of an
    // app differ only by the accesses in flight at its ends: at most one
    // per walker slot.
    let r = runner();
    let slots = r.options().gpu.walker_slots as u64;
    let o = r
        .run_named(&["MUM", "LPS"], DesignKind::PwCache)
        .expect("known");
    for (app, a) in o.stats.apps.iter().enumerate() {
        let l2: u64 = a.l2_translation.iter().map(|l| l.accesses).sum();
        assert!(a.pwc.misses() > 0, "app {app} never missed the PWC");
        assert!(
            a.pwc.misses().abs_diff(l2) <= slots,
            "app {app}: {} PWC misses, {l2} L2 translation accesses",
            a.pwc.misses()
        );
    }
}
