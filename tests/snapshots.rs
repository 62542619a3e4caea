//! Checkpoint/restore must be invisible in the results.
//!
//! `GpuSim` can seal its full dynamic state into a versioned, checksummed
//! snapshot at any epoch-safe point and restore it into a freshly
//! constructed simulator (`mask_common::snapshot`). These properties pin
//! the contract behind the engine's warm-up `PrefixCache`: for every
//! design preset, `snapshot → codec round-trip → restore → run(k)` is
//! **byte-identical** to the straight-through `run(n + k)` — same
//! `SimStats`, same re-encoded snapshot bytes — with the observability
//! hooks on or off. Damaged envelopes (corrupted, truncated,
//! version-bumped, or wrong-keyed bytes) are rejected with an error, never
//! silently restored.

use mask_common::snapshot::{PrefixKey, SnapshotError};
use mask_core::prelude::*;
use proptest::prelude::*;

/// A short epoch so the straddled run lengths below cross boundaries.
const EPOCH: u64 = 2_000;

/// Builds a small two-app simulation (4 cores, 16 warps/core).
fn build(design: DesignKind, seed: u64, cycles: u64) -> GpuSim {
    let mut cfg = SimConfig::new(design).with_max_cycles(cycles);
    cfg.seed = seed;
    cfg.gpu.n_cores = 4;
    cfg.gpu.warps_per_core = 16;
    cfg.gpu.mask.epoch_cycles = EPOCH;
    let specs: Vec<AppSpec> = [("HISTO", 2), ("GUP", 2)]
        .iter()
        .map(|&(name, n_cores)| AppSpec {
            profile: app_by_name(name).expect("known app"),
            n_cores,
        })
        .collect();
    GpuSim::new(&cfg, &specs)
}

/// The round-trip property for one configuration: run the prefix, seal,
/// restore into a fresh machine, run the suffix, and compare everything
/// against the straight-through oracle.
fn assert_round_trip(design: DesignKind, seed: u64, prefix: u64, suffix: u64) {
    let key = PrefixKey(seed ^ 0xA5A5);
    let total = prefix + suffix;

    let mut oracle = build(design, seed, total);
    oracle.run(total);
    oracle.sync_stats();

    let mut warm = build(design, seed, total);
    warm.run(prefix);
    let bytes = warm.encode_snapshot(key);

    let mut resumed = build(design, seed, total);
    resumed
        .restore_snapshot(&bytes, key)
        .expect("round-tripped snapshot restores");
    resumed.run(suffix);
    resumed.sync_stats();

    assert_eq!(
        oracle.stats(),
        resumed.stats(),
        "{design} seed={seed}: restore→run({suffix}) diverged from run({total})"
    );
    // Byte-level witness: the *entire machine state*, not just the
    // counters, is identical (both endpoints are epoch-safe by choice of
    // prefix/suffix).
    assert_eq!(
        oracle.encode_snapshot(key),
        resumed.encode_snapshot(key),
        "{design} seed={seed}: final machine states differ"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core property, across every design preset, with the obs hooks'
    /// runtime gate off and on (tracing reads simulation state but must
    /// never influence it).
    #[test]
    fn restore_then_run_is_byte_identical(seed in 0u64..1_000) {
        for obs in [false, true] {
            mask_obs::set_runtime(Some(obs));
            for design in DesignKind::ALL {
                // prefix = one epoch, suffix to the next boundary: both
                // snapshot points are epoch-safe.
                assert_round_trip(design, seed, EPOCH, EPOCH);
            }
        }
        mask_obs::set_runtime(Some(false));
    }

    /// Pre-first-epoch snapshot points (every cycle before the first
    /// boundary is epoch-safe): the restore contract does not depend on
    /// epoch alignment of the cut.
    #[test]
    fn early_cuts_round_trip(cut in 1u64..EPOCH) {
        assert_round_trip(DesignKind::Mask, 11, cut, 2 * EPOCH - cut);
    }
}

#[test]
fn damaged_envelopes_are_rejected() {
    let key = PrefixKey(99);
    let mut sim = build(DesignKind::Mask, 5, 2 * EPOCH);
    sim.run(EPOCH);
    let bytes = sim.encode_snapshot(key);

    // Wrong key: sealed under `key`, opened expecting another.
    let mut fresh = build(DesignKind::Mask, 5, 2 * EPOCH);
    assert!(matches!(
        fresh.restore_snapshot(&bytes, PrefixKey(100)),
        Err(SnapshotError::KeyMismatch { .. })
    ));

    // Truncation, anywhere: header-only and mid-payload cuts.
    for cut in [bytes.len() / 2, 16, 0] {
        let mut fresh = build(DesignKind::Mask, 5, 2 * EPOCH);
        assert!(
            fresh.restore_snapshot(&bytes[..cut], key).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }

    // A flipped payload byte fails the checksum.
    let mut corrupt = bytes.clone();
    let mid = 32 + (corrupt.len() - 32) / 2;
    corrupt[mid] ^= 0x01;
    let mut fresh = build(DesignKind::Mask, 5, 2 * EPOCH);
    assert!(matches!(
        fresh.restore_snapshot(&corrupt, key),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // A future format version is rejected up front (bytes 4..8 hold the
    // little-endian codec version).
    let mut vbump = bytes.clone();
    vbump[4] = vbump[4].wrapping_add(1);
    let mut fresh = build(DesignKind::Mask, 5, 2 * EPOCH);
    assert!(matches!(
        fresh.restore_snapshot(&vbump, key),
        Err(SnapshotError::BadVersion { .. })
    ));

    // A scribbled magic is not a snapshot at all.
    let mut garbage = bytes;
    garbage[0] = b'X';
    let mut fresh = build(DesignKind::Mask, 5, 2 * EPOCH);
    assert!(matches!(
        fresh.restore_snapshot(&garbage, key),
        Err(SnapshotError::BadMagic(_))
    ));
}
