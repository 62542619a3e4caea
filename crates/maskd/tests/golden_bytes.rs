//! Golden bytes: the two encodings of a `SimStats` that leave the process
//! (the sealed MSNP envelope and the canonical wire JSON) and the content
//! address of a fixed job are pinned here, so a change to how the counter
//! list or the job key is *written down* cannot move what is stored on disk
//! or sent over the network.

#[path = "../../common/tests/support/stats_gen.rs"]
mod stats_gen;

use mask_common::snapshot::{Fnv1a, PrefixKey, Snapshot, SnapshotWriter};
use mask_common::stats::SimStats;
use maskd::wire::{stats_to_value, JobSpec};

/// A two-app result whose `u64` leaf *i*, counted in struct order, holds
/// `seed + i` (wrapping). Built through the field table; the commit that
/// introduced these goldens wrote the same assignment out by hand.
fn golden_stats(seed: u64) -> SimStats {
    let mut n = seed;
    let mut next = || {
        let v = n;
        n = n.wrapping_add(1);
        v
    };
    stats_gen::fill_stats(2, &mut next, false)
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[test]
fn stats_encodings_are_pinned() {
    // (seed, FNV-1a of the sealed envelope, FNV-1a of the wire JSON)
    let golden: [(u64, u64, u64); 3] = [
        (0, 0x8043_ba12_414e_0097, 0x945a_cbec_9c14_6e2c),
        (0xA55A_2018, 0x6069_f2a3_69e8_6f7a, 0x9998_ea04_c420_f5c1),
        // Wraps past `u64::MAX` part-way through the first app.
        (u64::MAX - 40, 0x806b_93e7_95d4_e47b, 0xeda5_49ad_cdaf_e54d),
    ];
    for (seed, envelope, wire) in golden {
        let stats = golden_stats(seed);
        let mut w = SnapshotWriter::new();
        stats.snapshot(&mut w);
        assert_eq!(
            fnv(&w.seal(PrefixKey(seed))),
            envelope,
            "MSNP envelope moved at seed {seed:#x}"
        );
        assert_eq!(
            fnv(stats_to_value(&stats).serialize().as_bytes()),
            wire,
            "wire JSON moved at seed {seed:#x}"
        );
    }
}

#[test]
fn result_key_of_a_fixed_job_is_pinned() {
    let doc = r#"{"tenant":"golden","design":"MASK","gpu":"maxwell","seed":7,
        "apps":[{"app":"HS","cores":4},{"app":"MUM","cores":4}],
        "max_cycles":4000,"warmup_cycles":1000,
        "overrides":{"epoch_cycles":500,"l2_tlb_entries":256}}"#;
    let spec = JobSpec::from_value(&maskd::json::parse(doc).expect("json")).expect("spec");
    // The key folds in `MODEL_FINGERPRINT`, so it moves exactly when that
    // does.
    assert_eq!(
        maskd::store::result_key(&spec.to_sim_job()),
        0xf4e3_f715_abab_4047
    );
}

#[test]
fn result_keys_of_every_stock_profile_are_pinned() {
    // One 4-core job per stock profile, each `result_key` folded in
    // `all_apps` order: a change to how a profile is written into the key
    // would orphan that app's stored results.
    let mut h = Fnv1a::new();
    for app in mask_workloads::all_apps() {
        let doc = format!(
            r#"{{"tenant":"golden","design":"MASK","gpu":"maxwell","seed":7,
            "apps":[{{"app":"{}","cores":4}}],"max_cycles":4000,"warmup_cycles":1000}}"#,
            app.name
        );
        let spec = JobSpec::from_value(&maskd::json::parse(&doc).expect("json")).expect("spec");
        h.write_u64(maskd::store::result_key(&spec.to_sim_job()));
    }
    assert_eq!(mask_workloads::all_apps().len(), 30);
    assert_eq!(h.finish(), 0xc8ff_91d6_6029_3680);
}
