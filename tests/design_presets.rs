//! Design-preset contracts for the `DesignSpec` refactor.
//!
//! PR 7 replaced scattered `DesignKind` predicate checks with per-layer
//! `DesignSpec` policy axes. These tests pin the refactor down from three
//! sides, and pin the repository's two reference instruction checksums:
//!
//! 1. **Oracle checksums** — every preset that existed before the refactor
//!    must simulate *bit-identically* to the predicate-based code. The
//!    constants below were recorded by hashing `format!("{:?}", stats)`
//!    (FNV-1a) on the pre-refactor tree at the same configuration.
//! 2. **Degeneracy** — the new `NoIsolation` preset only differs from
//!    `SharedTlb` in how cores are laid out across applications, so with a
//!    single application they must produce byte-identical statistics.
//! 3. **Isolation** — the new `Partitioned` preset colors frames, L2 sets,
//!    and DRAM banks per application; in a debug build (so under
//!    `cargo test`) the `l2-set-color` and `dram-bank-color` checks audit
//!    every fill and enqueue.

use mask_core::prelude::*;

fn placement(apps: &[(&str, usize)]) -> Vec<AppSpec> {
    apps.iter()
        .map(|&(name, n_cores)| AppSpec {
            profile: app_by_name(name).expect("known app"),
            n_cores,
        })
        .collect()
}

/// The oracle configuration: MUM (2 cores) + LPS (2 cores), short token
/// epochs. Matches the recording run exactly.
fn oracle_config(design: DesignKind) -> (SimConfig, Vec<AppSpec>) {
    let mut cfg = SimConfig::new(design).with_max_cycles(20_000);
    cfg.seed = 3;
    cfg.gpu.n_cores = 4;
    cfg.gpu.warps_per_core = 16;
    cfg.gpu.mask.epoch_cycles = 5_000;
    (cfg, placement(&[("MUM", 2), ("LPS", 2)]))
}

fn checksum(design: DesignKind) -> u64 {
    let (cfg, specs) = oracle_config(design);
    let mut sim = GpuSim::new(&cfg, &specs);
    sim.run_to_completion();
    sim.sync_stats();
    // FNV-1a over the canonical `Debug` rendering of the final statistics:
    // sensitive to any field changing anywhere.
    let mut h = mask_common::snapshot::Fnv1a::new();
    h.write(format!("{:?}", sim.stats()).as_bytes());
    h.finish()
}

/// Checksums recorded on the pre-refactor tree (predicate methods still in
/// place) for every preset that existed then, in the old plotting order.
const ORACLE: [(DesignKind, u64); 8] = [
    (DesignKind::Static, 0x6cf6_c693_c132_619c),
    (DesignKind::PwCache, 0xc790_aea4_2064_63af),
    (DesignKind::SharedTlb, 0xfa0a_5d67_b666_70fb),
    (DesignKind::MaskTlb, 0x174e_9bb8_09bf_233c),
    (DesignKind::MaskCache, 0x85b7_7f45_86cd_69b8),
    (DesignKind::MaskDram, 0xe5e8_dca8_bf64_1e2f),
    (DesignKind::Mask, 0xd346_3979_a2f8_6822),
    (DesignKind::Ideal, 0x2cab_2687_9807_f317),
];

/// The tentpole's bit-identity guarantee: decomposing each preset into
/// policy axes must not change a single simulated event.
#[test]
fn old_presets_simulate_bit_identically_to_the_predicate_era() {
    for (design, expected) in ORACLE {
        let got = checksum(design);
        assert_eq!(
            got, expected,
            "{design} diverged from its pre-refactor oracle: \
             got {got:#018x}, recorded {expected:#018x}"
        );
    }
}

/// With one application there is nothing to interleave: `AllSms`
/// round-robin over a single app is the identity layout, and every other
/// axis of the two presets is already equal.
#[test]
fn no_isolation_degenerates_to_shared_tlb_for_a_single_app() {
    let run = |design: DesignKind| {
        let mut cfg = SimConfig::new(design).with_max_cycles(15_000);
        cfg.seed = 11;
        cfg.gpu.n_cores = 4;
        cfg.gpu.warps_per_core = 16;
        let specs = [AppSpec {
            profile: app_by_name("HISTO").expect("known app"),
            n_cores: 4,
        }];
        let mut sim = GpuSim::new(&cfg, &specs);
        sim.run_to_completion();
        sim.sync_stats();
        sim.stats().clone()
    };
    assert_eq!(
        run(DesignKind::NoIsolation),
        run(DesignKind::SharedTlb),
        "NoIsolation must be byte-identical to SharedTlb when one app runs"
    );
}

/// Every preset is a distinct point in policy space — the engine dedups
/// jobs by spec, so two presets collapsing silently would drop results.
#[test]
fn all_ten_presets_have_pairwise_distinct_specs() {
    let specs: Vec<_> = DesignKind::ALL.iter().map(|d| d.spec()).collect();
    for i in 0..specs.len() {
        for j in i + 1..specs.len() {
            assert_ne!(
                specs[i],
                specs[j],
                "{} and {} share a DesignSpec; the job engine would dedup them",
                DesignKind::ALL[i],
                DesignKind::ALL[j]
            );
        }
    }
}

/// `Partitioned` isolation end to end. In a debug build the
/// `l2-set-color` and `dram-bank-color` checks audit every L2 fill and
/// DRAM enqueue; in any build, per-app instruction counts prove all apps
/// made progress inside their partitions.
#[test]
fn partitioned_runs_clean_under_the_sanitizer() {
    for (a, b) in [("MUM", "LPS"), ("CONS", "GUP"), ("HISTO", "RED")] {
        let mut cfg = SimConfig::new(DesignKind::Partitioned).with_max_cycles(15_000);
        cfg.seed = 5;
        cfg.gpu.n_cores = 4;
        cfg.gpu.warps_per_core = 16;
        let specs = [a, b].map(|name| AppSpec {
            profile: app_by_name(name).expect("known app"),
            n_cores: 2,
        });
        let mut sim = GpuSim::new(&cfg, &specs);
        sim.run_to_completion();
        sim.sync_stats();
        for (app, stats) in sim.stats().apps.iter().enumerate() {
            assert!(
                stats.instructions > 0,
                "{a}+{b}: app {app} starved inside its partition"
            );
        }
    }
}

/// Uneven partitioning: three apps over 16 L2 ways / 8 DRAM banks forces
/// the remainder-to-last split everywhere. Must not panic (checked or
/// not) and every app must make progress.
#[test]
fn partitioned_survives_uneven_three_app_splits() {
    let mut cfg = SimConfig::new(DesignKind::Partitioned).with_max_cycles(12_000);
    cfg.seed = 9;
    cfg.gpu.n_cores = 6;
    cfg.gpu.warps_per_core = 16;
    let specs = ["MUM", "LPS", "GUP"].map(|name| AppSpec {
        profile: app_by_name(name).expect("known app"),
        n_cores: 2,
    });
    let mut sim = GpuSim::new(&cfg, &specs);
    sim.run_to_completion();
    sim.sync_stats();
    for (app, stats) in sim.stats().apps.iter().enumerate() {
        assert!(stats.instructions > 0, "app {app} starved");
    }
}

/// The two reference instruction checksums (summed over applications;
/// MASK, default seed, 200 000 cycles on the Table 1 machine) that every
/// speed-only change since PR 3 has had to leave alone.
#[test]
fn reference_instruction_checksums_hold() {
    for (apps, expected) in [
        (&[("CONS", 30)][..], 2_908_786u64),
        (&[("CONS", 15), ("LPS", 15)][..], 5_135_307),
    ] {
        let cfg = SimConfig::new(DesignKind::Mask).with_max_cycles(200_000);
        let mut sim = GpuSim::new(&cfg, &placement(apps));
        sim.run_to_completion();
        sim.sync_stats();
        let got: u64 = sim.stats().apps.iter().map(|a| a.instructions).sum();
        assert_eq!(
            got, expected,
            "{apps:?} drifted from its reference checksum"
        );
    }
}
