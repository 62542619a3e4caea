//! Golden bytes: the two encodings of a `SimStats` that leave the process
//! (the sealed MSNP envelope and the canonical wire JSON) and the content
//! address of a fixed job are pinned here, so a change to how the counter
//! list or the job key is *written down* cannot move what is stored on disk
//! or sent over the network.

use mask_common::snapshot::{Fnv1a, PrefixKey, Snapshot, SnapshotWriter};
use mask_common::stats::SimStats;
use maskd::wire::{stats_to_value, GpuOverrides, JobSpec};

/// A two-app result whose `u64` leaf *i*, counted in struct order, holds
/// `seed + i` (wrapping).
fn golden_stats(seed: u64) -> SimStats {
    let mut s = SimStats::new(2, 0);
    let mut n = seed;
    let mut next = || {
        let v = n;
        n = n.wrapping_add(1);
        v
    };
    for a in &mut s.apps {
        a.instructions = next();
        a.mem_instructions = next();
        a.cycles = next();
        a.stall_cycles = next();
        for h in [
            &mut a.l1_tlb,
            &mut a.l2_tlb,
            &mut a.tlb_bypass_cache,
            &mut a.pwc,
        ] {
            h.accesses = next();
            h.hits = next();
        }
        a.page_faults = next();
        a.walks_started = next();
        a.walks_completed = next();
        a.walk_latency_sum = next();
        a.walk_cycles_integral = next();
        a.walk_concurrency_max = next();
        a.stalled_warps_sum = next();
        a.stalled_warps_events = next();
        a.stalled_warps_max = next();
        for h in [&mut a.l1_data, &mut a.l2_data]
            .into_iter()
            .chain(&mut a.l2_translation)
        {
            h.accesses = next();
            h.hits = next();
        }
        a.l2_translation_bypassed = next();
        for d in [&mut a.dram_data, &mut a.dram_translation] {
            d.requests = next();
            d.latency_sum = next();
            d.bus_busy_cycles = next();
            d.row_hits = next();
            d.row_misses = next();
            d.row_conflicts = next();
        }
        a.tokens_final = next();
        a.fills_diverted = next();
    }
    s.cycles = next();
    s.dram_bus_busy = next();
    s.dram_channels = next() as usize;
    s
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
    let spec = JobSpec {
        tenant: "golden".to_owned(),
        design: mask_common::config::DesignKind::Mask,
        apps: vec![("HS".to_owned(), 4), ("MUM".to_owned(), 4)],
        max_cycles: 4000,
        warmup_cycles: 1000,
        seed: 7,
        gpu: "maxwell".to_owned(),
        overrides: GpuOverrides {
            epoch_cycles: Some(500),
            warps_per_core: None,
            l2_tlb_entries: Some(256),
        },
    };
    assert_eq!(
        maskd::store::result_key(&spec.to_sim_job()),
        0xa1b2_42c2_8c4d_0c6f
    );
}
