//! Quantitative invariants from the paper's analysis sections that must
//! emerge from the simulation (not be baked in).

use mask_core::prelude::*;

fn runner() -> PairRunner {
    let mut gpu = GpuConfig::maxwell();
    gpu.warps_per_core = 32;
    PairRunner::new(RunOptions {
        n_cores: 8,
        max_cycles: 40_000,
        seed: 11,
        warmup_cycles: 10_000,
        gpu,
        jobs: JobOptions::serial(),
    })
}

#[test]
fn walk_levels_hit_monotonically_less_toward_leaves() {
    // §4.3: "data cache hit rates of address translation requests ...
    // 99.8%, 98.8%, 68.7%, and 1.0% for the first (root), second, third,
    // and fourth levels".
    let r = runner();
    let stats = r.run_apps(
        DesignKind::SharedTlb,
        &[AppSpec {
            profile: app_by_name("CONS").expect("known"),
            n_cores: 8,
        }],
    );
    let a = &stats.apps[0];
    let rates: Vec<f64> = (0..4).map(|i| a.l2_translation[i].hit_rate()).collect();
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
    let gup = app_by_name("GUP").expect("known");
    let cons = app_by_name("CONS").expect("known");
    let alone = r.run_apps(
        DesignKind::SharedTlb,
        &[AppSpec {
            profile: gup,
            n_cores: 4,
        }],
    );
    let shared = r.run_apps(
        DesignKind::SharedTlb,
        &[
            AppSpec {
                profile: gup,
                n_cores: 4,
            },
            AppSpec {
                profile: cons,
                n_cores: 4,
            },
        ],
    );
    let miss_alone = alone.apps[0].l2_tlb.miss_rate();
    let miss_shared = shared.apps[0].l2_tlb.miss_rate();
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
        .run_named("CONS", "LPS", DesignKind::SharedTlb)
        .expect("known");
    let share = o.stats.translation_bandwidth_share();
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
    let stats = r.run_apps(
        DesignKind::SharedTlb,
        &[AppSpec {
            profile: app_by_name("GUP").expect("known"),
            n_cores: 8,
        }],
    );
    assert!(
        stats.apps[0].avg_warps_stalled_per_miss() >= 1.0,
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
        .run_named("CONS", "RED", DesignKind::SharedTlb)
        .expect("known");
    let mask = r
        .run_named("CONS", "RED", DesignKind::MaskDram)
        .expect("known");
    let lat = |o: &PairOutcome| {
        let mut t = mask_common::stats::DramClassStats::default();
        for a in &o.stats.apps {
            t.merge(&a.dram_translation);
        }
        t.avg_latency()
    };
    assert!(
        lat(&mask) < lat(&base),
        "MASK-DRAM must cut translation DRAM latency ({:.0} -> {:.0})",
        lat(&base),
        lat(&mask)
    );
}
