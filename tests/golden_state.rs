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
//! (every core, every L2 bank, every cycle). A change that claims to be
//! bit-identical may not edit them.
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
            0xfe88_3ae3_7660_68ce,
            0xecbc_aacb_57e8_62cb,
            0x46d4_614c_cf24_d3d1,
        ],
    ),
    (
        DesignKind::Mask,
        SCAN_CONS,
        [
            0x5799_85b3_0f25_6159,
            0x2ee9_0703_0035_5692,
            0xc38d_1ed0_4a1a_acc6,
        ],
    ),
    (
        DesignKind::SharedTlb,
        NW_HS,
        [
            0x37ea_c5e8_686f_daa0,
            0xecbc_aacb_57e8_62cb,
            0xfc8e_0e84_dffe_a146,
        ],
    ),
    (
        DesignKind::SharedTlb,
        SCAN_CONS,
        [
            0x9233_21fe_9517_be53,
            0xb09e_eeb4_9e80_d041,
            0xcfa2_927c_bcb1_82b7,
        ],
    ),
    (
        DesignKind::PwCache,
        NW_HS,
        [
            0x1cb5_f0a0_4cd2_e58a,
            0x904b_81d5_21fe_d2e2,
            0xaf9a_2395_b172_075f,
        ],
    ),
    (
        DesignKind::PwCache,
        SCAN_CONS,
        [
            0x38b1_4702_d305_3b54,
            0x2613_bf1b_4699_0312,
            0xbd6a_83b2_bfb4_72e8,
        ],
    ),
    (
        DesignKind::Ideal,
        NW_HS,
        [
            0x26dd_bdb0_302c_501a,
            0x8bcd_f5e8_7189_21fd,
            0xc177_0e5e_a22d_4cc6,
        ],
    ),
    (
        DesignKind::Ideal,
        SCAN_CONS,
        [
            0xf203_d45f_9e1b_15e2,
            0xdfec_5a6d_519c_c786,
            0x48b2_d2b3_25b9_7d8d,
        ],
    ),
];

const PATHS: [(DesignKind, Tweak, [u64; 3]); 10] = [
    (
        DesignKind::Static,
        Tweak::None,
        [
            0x89d3_9bd4_f9b1_1274,
            0x9276_bcff_8748_3556,
            0x8f82_52f5_f905_fb2d,
        ],
    ),
    (
        DesignKind::Partitioned,
        Tweak::None,
        [
            0x3d90_8d43_0490_f36b,
            0xe42e_5097_4e50_d510,
            0xf0c5_65cf_1776_2aa6,
        ],
    ),
    (
        DesignKind::SharedTlb,
        Tweak::BatchSched,
        [
            0x070c_b08d_72c5_700b,
            0x4733_6718_b6d4_94ff,
            0xa5f0_c292_4115_4980,
        ],
    ),
    (
        DesignKind::Mask,
        Tweak::LargePages,
        [
            0xd268_f422_59f7_76d3,
            0x1b14_8d5d_89e0_3a30,
            0xd834_b611_fc5f_d599,
        ],
    ),
    (
        DesignKind::PwCache,
        Tweak::LargePages,
        [
            0xcce7_54fb_de71_361f,
            0x4dae_bed0_a376_e7e7,
            0x93f4_20d0_b621_4cfb,
        ],
    ),
    (
        DesignKind::SharedTlb,
        Tweak::FaultLatency(400),
        [
            0x322e_947c_cbac_b251,
            0x1b41_4998_8e0c_5dbd,
            0xe3f8_115f_3254_35bd,
        ],
    ),
    (
        DesignKind::Mask,
        Tweak::Flushes,
        [
            0x5799_85b3_0f25_6159,
            0x5c67_3b39_d710_3687,
            0xedd6_040f_2ad0_91d9,
        ],
    ),
    (
        DesignKind::SharedTlb,
        Tweak::RedAlone,
        [
            0x372e_9d62_0604_783a,
            0xc63c_bc50_0fc6_bf09,
            0x68b3_5786_345c_d002,
        ],
    ),
    (
        DesignKind::PwCache,
        Tweak::RedAlone,
        [
            0x0131_c759_c742_f4b8,
            0x12f7_8679_c8a1_52df,
            0x4fc9_8028_c35f_177c,
        ],
    ),
    (
        DesignKind::Mask,
        Tweak::RedAlone,
        [
            0x83ec_3d8b_1071_c399,
            0x3937_28de_cf53_ff3e,
            0x36d7_f987_980b_7f38,
        ],
    ),
];

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
