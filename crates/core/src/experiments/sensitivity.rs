//! §7.3 sensitivity studies: shared L2 TLB size, large pages, memory
//! scheduling policy, and DRAM row policy.

use super::ablation::ablate;
use super::ExpOptions;
use crate::table::Table;
use mask_common::addr::{PAGE_SIZE_2M_LOG2, PAGE_SIZE_4K_LOG2};
use mask_common::config::{DesignKind, MemSchedKind, RowPolicy};

const SHARED_MASK: [DesignKind; 2] = [DesignKind::SharedTlb, DesignKind::Mask];
const SHARED_MASK_IDEAL: [DesignKind; 3] =
    [DesignKind::SharedTlb, DesignKind::Mask, DesignKind::Ideal];

/// Shared-L2-TLB size sweep: `SharedTLB` vs MASK from 64 to 8192 entries.
///
/// The paper: "MASK outperforms `SharedTLB` for all TLB sizes except the
/// 8192-entry shared L2 TLB", where the working set fits entirely.
pub fn tlb_size_sweep(opts: &ExpOptions) -> Table {
    ablate(
        "Sec. 7.3: sensitivity to shared L2 TLB size (avg weighted speedup)",
        "entries",
        opts,
        &SHARED_MASK,
        &[64usize, 128, 256, 512, 1024, 2048, 4096, 8192].map(|n| (n, n)),
        |g, entries| g.tlb.l2_entries = entries,
    )
}

/// Large (2 MB) pages: `SharedTLB`, MASK, and Ideal.
///
/// The paper: even with 2 MB pages "`SharedTLB` continues to experience high
/// contention ... 44.5% short of Ideal", while "MASK allows the GPU to
/// perform within 1.8% of Ideal".
pub fn large_pages(opts: &ExpOptions) -> Table {
    ablate(
        "Sec. 7.3: 2MB large pages (avg weighted speedup)",
        "page_size",
        opts,
        &SHARED_MASK_IDEAL,
        &[("4KB", PAGE_SIZE_4K_LOG2), ("2MB", PAGE_SIZE_2M_LOG2)],
        |g, log2| g.page_size_log2 = log2,
    )
}

/// Demand paging: fault service time sweep (extends §5.5, which the paper
/// leaves as future work — this quantifies how fault cost interacts with
/// the designs).
pub fn demand_paging(opts: &ExpOptions) -> Table {
    ablate(
        "Extension: demand-paging fault latency (avg weighted speedup)",
        "fault_latency",
        opts,
        &SHARED_MASK_IDEAL,
        &[0u64, 2_000, 10_000].map(|latency| (latency, latency)),
        |g, latency| g.page_fault_latency = latency,
    )
}

/// Walker concurrency ablation: the shared walker's slot count bounds
/// translation throughput (DESIGN.md ablation; Table 1 uses 64 slots).
pub fn walker_slots(opts: &ExpOptions) -> Table {
    ablate(
        "Ablation: page-table-walker slots (avg weighted speedup)",
        "slots",
        opts,
        &SHARED_MASK,
        &[16usize, 32, 64, 128].map(|slots| (slots, slots)),
        |g, slots| g.walker_slots = slots,
    )
}

/// Alternative memory scheduler and row policies.
pub fn memory_policies(opts: &ExpOptions) -> Table {
    use MemSchedKind::{FrFcfs, GpuBatch};
    use RowPolicy::{Closed, Open};
    ablate(
        "Sec. 7.3: sensitivity to memory policies (avg weighted speedup)",
        "policy",
        opts,
        &SHARED_MASK,
        &[
            ("FR-FCFS / open-row", (FrFcfs, Open)),
            ("FR-FCFS / closed-row", (FrFcfs, Closed)),
            ("GPU batch / open-row", (GpuBatch, Open)),
        ],
        |g, (sched, row)| {
            g.dram.sched = sched;
            g.dram.row_policy = row;
        },
    )
}
