//! Whole-machine state, pinned against the tree that recorded it.
//!
//! `tests/snapshots.rs` proves that round trips agree with each other;
//! `tests/design_presets.rs` pins end-of-run statistics. Neither notices a
//! change that moves what a snapshot holds, or what `stats()` reads, at a
//! cycle in the middle of a run — which is where a simulator that stops
//! visiting every core on every cycle could differ. For four designs on the
//! issue-bound pair (NW+HS) and the translation-bound pair (SCAN+CONS) this
//! pins the FNV-1a of
//!
//! * the sealed snapshot at cycle 1 237 (before the first epoch boundary,
//!   cores in the middle of compute bursts),
//! * `format!("{:?}", stats())` at cycle 3 001, reached by a second `run`
//!   call that starts and stops mid-burst,
//! * the sealed snapshot at cycle 100 000 (the first epoch boundary).
//!
//! The constants were recorded on the tree before the wake schedule existed
//! (every core, every L2 bank, every cycle), and re-recorded once when the
//! TLB structures, the page-walk cache and the translation unit stopped
//! keeping counts of their own (the snapshot lost those sections, and the
//! statistics block counts as events happen), with the reference checksums
//! and the `design_presets` oracles those counters do not reach unchanged.
//! A change that claims to be bit-identical may not edit them.
//!
//! `PATHS` adds, all on SCAN+CONS, the configurations whose code the eight
//! design rows do not reach: channel- and bank-partitioned baseline DRAM
//! queues with color-aware frames, the batch DRAM scheduler, three-level
//! page tables, demand paging, and a shootdown and a full flush in the
//! middle of the run. Its constants were recorded on the tree whose page
//! tables were dense 512-slot nodes, whose `AssocArray` scanned stamps for
//! its victim and whose DRAM schedulers scanned the queue entries.
//!
//! Its three `RedAlone` rows are the case the cycle-skip suite called an
//! idle tail: RED alone on four cores to 20 000 cycles. They were recorded
//! on the tree whose `GpuSim::run` could fast-forward over cycles in which
//! no core and no memory component had work; on these rows it found none,
//! because RED never parks all four cores at once.

use mask_common::addr::PAGE_SIZE_2M_LOG2;
use mask_common::config::MemSchedKind;
use mask_common::ids::Asid;
use mask_common::snapshot::{Fnv1a, PrefixKey};
use mask_common::MODEL_FINGERPRINT;
use mask_core::prelude::*;

const EARLY_CUT: u64 = 1_237;
const MID_BURST: u64 = 3_001;
const EPOCH_CUT: u64 = 100_000;

/// What a `PATHS` row changes about the run of a design row.
#[derive(Clone, Copy, Debug)]
enum Tweak {
    None,
    /// `dram.sched = GpuBatch`: the batch scheduler's per-application pass.
    BatchSched,
    /// 2 MB pages: three-level tables, the leaf one level up.
    LargePages,
    /// Demand paging with this fault service time.
    FaultLatency(u64),
    /// `tlb_shootdown(Asid 0)` after the cut at 1 237, `flush_volatile()`
    /// after the one at 3 001.
    Flushes,
    /// RED alone on all four cores, cut at 20 000 instead of 100 000.
    RedAlone,
}

const RED_ALONE_CUT: u64 = 20_000;

fn build(design: DesignKind, apps: [&str; 2], tweak: Tweak) -> GpuSim {
    let mut cfg = SimConfig::new(design).with_max_cycles(EPOCH_CUT);
    cfg.seed = 21;
    cfg.gpu.n_cores = 4;
    cfg.gpu.warps_per_core = 16;
    match tweak {
        Tweak::None | Tweak::Flushes | Tweak::RedAlone => {}
        Tweak::BatchSched => cfg.gpu.dram.sched = MemSchedKind::GpuBatch,
        Tweak::LargePages => cfg.gpu.page_size_log2 = PAGE_SIZE_2M_LOG2,
        Tweak::FaultLatency(cycles) => cfg.gpu.page_fault_latency = cycles,
    }
    let placement: &[(&str, usize)] = match tweak {
        Tweak::RedAlone => &[("RED", 4)],
        _ => &[(apps[0], 2), (apps[1], 2)],
    };
    let specs: Vec<AppSpec> = placement
        .iter()
        .map(|&(name, n_cores)| AppSpec {
            profile: app_by_name(name).expect("known app"),
            n_cores,
        })
        .collect();
    GpuSim::new(&cfg, &specs)
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// `[snapshot @ 1 237, stats @ 3 001, snapshot @ 100 000]` (the last at
/// 20 000 for [`Tweak::RedAlone`]).
fn digests(design: DesignKind, apps: [&str; 2], tweak: Tweak) -> [u64; 3] {
    let key = PrefixKey(0x601d);
    let mut sim = build(design, apps, tweak);
    sim.run(EARLY_CUT);
    let early = fnv(&sim.encode_snapshot(key));
    if matches!(tweak, Tweak::Flushes) {
        sim.tlb_shootdown(Asid::new(0));
    }
    sim.run(MID_BURST - EARLY_CUT);
    let stats = fnv(format!("{:?}", sim.stats()).as_bytes());
    if matches!(tweak, Tweak::Flushes) {
        sim.flush_volatile();
    }
    let end = match tweak {
        Tweak::RedAlone => RED_ALONE_CUT,
        _ => EPOCH_CUT,
    };
    sim.run(end - MID_BURST);
    let epoch = fnv(&sim.encode_snapshot(key));
    [early, stats, epoch]
}

const NW_HS: [&str; 2] = ["NW", "HS"];
const SCAN_CONS: [&str; 2] = ["SCAN", "CONS"];

const GOLDEN: [(DesignKind, [&str; 2], [u64; 3]); 8] = [
    (
        DesignKind::Mask,
        NW_HS,
        [
            0xe447_dc74_87e6_8987,
            0xd4e1_96d8_4036_e15e,
            0x3816_073f_98ed_dde9,
        ],
    ),
    (
        DesignKind::Mask,
        SCAN_CONS,
        [
            0x602d_3907_fd73_aea2,
            0x8c0b_5f97_5277_11d2,
            0x4c49_d39d_7b36_a437,
        ],
    ),
    (
        DesignKind::SharedTlb,
        NW_HS,
        [
            0x0293_3785_1d3b_dc2a,
            0x545c_6a60_6396_dcb9,
            0xc844_68c1_0055_b122,
        ],
    ),
    (
        DesignKind::SharedTlb,
        SCAN_CONS,
        [
            0xe633_d1c7_f2db_c18b,
            0x172b_f8f9_5c9e_9380,
            0x3ddd_763f_ed73_4ef1,
        ],
    ),
    (
        DesignKind::PwCache,
        NW_HS,
        [
            0x970d_2b68_2b03_6526,
            0x904b_81d5_21fe_d2e2,
            0x6c87_4a18_8eb6_21f4,
        ],
    ),
    (
        DesignKind::PwCache,
        SCAN_CONS,
        [
            0x133d_74f8_1234_c825,
            0x2613_bf1b_4699_0312,
            0xca41_c843_efd9_53f4,
        ],
    ),
    (
        DesignKind::Ideal,
        NW_HS,
        [
            0x9627_f2af_e936_0cc1,
            0x8bcd_f5e8_7189_21fd,
            0xd0cc_9adf_431c_acdb,
        ],
    ),
    (
        DesignKind::Ideal,
        SCAN_CONS,
        [
            0x697e_d436_cefc_9f1a,
            0xdfec_5a6d_519c_c786,
            0xaa68_ae88_7422_db81,
        ],
    ),
];

const PATHS: [(DesignKind, Tweak, [u64; 3]); 10] = [
    (
        DesignKind::Static,
        Tweak::None,
        [
            0x00fb_07e6_04df_e78b,
            0x664e_1b9f_ac24_5517,
            0x68b4_afc8_75b8_9838,
        ],
    ),
    (
        DesignKind::Partitioned,
        Tweak::None,
        [
            0xfdb1_3849_d85f_95e3,
            0xfe80_d2d6_0c10_ffec,
            0x6324_700b_829c_ed6b,
        ],
    ),
    (
        DesignKind::SharedTlb,
        Tweak::BatchSched,
        [
            0x6644_2b50_56a5_d455,
            0xaf00_aa6a_1571_c1de,
            0xf6cf_dc85_bb40_c07f,
        ],
    ),
    (
        DesignKind::Mask,
        Tweak::LargePages,
        [
            0xb318_6557_5a15_f8eb,
            0x2052_8dc3_980c_8408,
            0xd831_6aa7_899b_dc21,
        ],
    ),
    (
        DesignKind::PwCache,
        Tweak::LargePages,
        [
            0x693f_b126_79c9_3206,
            0x4dae_bed0_a376_e7e7,
            0x6b34_c174_57a6_911b,
        ],
    ),
    (
        DesignKind::SharedTlb,
        Tweak::FaultLatency(400),
        [
            0x85e6_aaba_6f5d_c9de,
            0x080d_2f8d_9951_69a4,
            0x0065_09ae_6e96_203e,
        ],
    ),
    (
        DesignKind::Mask,
        Tweak::Flushes,
        [
            0x602d_3907_fd73_aea2,
            0x70be_09e8_77d7_dc27,
            0xc6f3_8ab7_8c2e_2c60,
        ],
    ),
    (
        DesignKind::SharedTlb,
        Tweak::RedAlone,
        [
            0x2c56_9fab_23ff_1b87,
            0x6175_13dd_ea3b_94bf,
            0xac30_119a_5676_e57a,
        ],
    ),
    (
        DesignKind::PwCache,
        Tweak::RedAlone,
        [
            0xb79d_2860_aa33_1a18,
            0x12f7_8679_c8a1_52df,
            0x6717_72bb_4269_7f77,
        ],
    ),
    (
        DesignKind::Mask,
        Tweak::RedAlone,
        [
            0x43d3_7e65_0612_2947,
            0x254b_b7ed_3ad2_1cda,
            0x6937_e935_5db5_6304,
        ],
    ),
];

/// The reference instruction checksums `tests/design_presets.rs` pins
/// (`reference_instruction_checksums_hold`).
const REFERENCE_CHECKSUMS: [u64; 2] = [2_908_786, 5_135_307];

/// `MODEL_FINGERPRINT` names the model these constants were recorded on:
/// FNV-1a over the reference checksums, then every `GOLDEN` and `PATHS`
/// digest in table order, each as 8 little-endian bytes. Re-pinning any of
/// them fails here until the fingerprint moves too, and with it every
/// content key `maskd` stores results under.
#[test]
fn model_fingerprint_names_the_pinned_constants() {
    let mut h = Fnv1a::new();
    let designs = GOLDEN.iter().map(|(_, _, digests)| digests);
    let paths = PATHS.iter().map(|(_, _, digests)| digests);
    for value in REFERENCE_CHECKSUMS
        .iter()
        .chain(designs.chain(paths).flatten())
    {
        h.write_u64(*value);
    }
    assert_eq!(
        h.finish(),
        MODEL_FINGERPRINT,
        "re-pinned constants need a new fingerprint: {:#018x}",
        h.finish()
    );
}

#[test]
fn machine_state_matches_the_recording_tree() {
    let designs = GOLDEN.map(|(design, apps, want)| (design, apps, Tweak::None, want));
    let paths = PATHS.map(|(design, tweak, want)| (design, SCAN_CONS, tweak, want));
    let mut wrong = Vec::new();
    for (design, apps, tweak, want) in designs.into_iter().chain(paths) {
        let got = digests(design, apps, tweak);
        if got != want {
            wrong.push(format!(
                "{design} {}+{} {tweak:?}: got [{:#018x}, {:#018x}, {:#018x}]",
                apps[0], apps[1], got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "machine state moved (snapshot @ {EARLY_CUT}, stats @ {MID_BURST}, \
         snapshot @ {EPOCH_CUT}):\n{}",
        wrong.join("\n")
    );
}
