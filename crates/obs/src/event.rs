//! The event vocabulary: one variant per simulator state transition.
//!
//! Every variant is plain `Copy` data — recording an event is a couple of
//! word moves into the thread-local ring, never a heap allocation. The
//! inventory mirrors the paper's analysis axes (§4, Figs. 4–9): TLB
//! behaviour, page-walk concurrency, shared-L2 and DRAM pressure, the
//! MASK mechanisms' decisions (bypass, tokens), and the in-flight
//! accounting the debug-build checker audits (request conservation, MSHR
//! allocation and fill).

/// Which TLB structure a probe event refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbLevel {
    /// Per-core L1 TLB.
    L1,
    /// Shared L2 TLB.
    L2,
    /// MASK's TLB bypass cache (§5.2).
    BypassCache,
}

/// Why a warp left the ready pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallKind {
    /// Waiting on an address translation (L1 TLB miss).
    Translation,
    /// Waiting on outstanding data-memory requests.
    Data,
}

/// Which shared queue a depth sample refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// Shared L2 cache bank queues (total across banks).
    L2 = 0,
    /// DRAM controller request queues (total across channels).
    Dram = 1,
    /// Requests in flight inside the DRAM device (issued, not completed).
    DramInFlight = 2,
    /// Page walks active or waiting for a walker slot.
    Walker = 3,
}

/// Number of [`QueueKind`] variants (sizing per-thread dedup state).
pub const N_QUEUE_KINDS: usize = 4;

impl QueueKind {
    /// Short lowercase name (trace/JSON labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::L2 => "l2_queue",
            QueueKind::Dram => "dram_queue",
            QueueKind::DramInFlight => "dram_in_flight",
            QueueKind::Walker => "walker_demand",
        }
    }
}

/// A request-conservation domain: every request [`Event::Issue`]d into one
/// must [`Event::Retire`] from it exactly once.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Domain {
    /// Requests accepted by the shared L2 until their response drains.
    L2Cache,
    /// Requests accepted by the DRAM device until they complete.
    Dram,
    /// Requests inside MASK's Golden/Silver/Normal DRAM queues.
    DramQueues,
    /// Page-walker accesses sent to memory until their response returns.
    XlatMem,
    /// Primary L1 data misses until the simulator consumes their response.
    CoreData,
}

/// Outcome of an MSHR allocation, as reported by the table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrOutcome {
    /// First miss on the line: a new entry was created.
    Primary,
    /// Merged into an existing entry.
    Secondary,
    /// Rejected: the table reported itself full.
    Full,
}

/// One simulator state transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Event {
    /// A warp left the ready pool.
    WarpStall {
        /// Global core index.
        core: u32,
        /// Warp slot within the core.
        warp: u32,
        /// What it is waiting for.
        kind: StallKind,
    },
    /// A warp re-entered the ready pool.
    WarpWake {
        /// Global core index.
        core: u32,
        /// Warp slot within the core.
        warp: u32,
    },
    /// A TLB structure was probed.
    TlbProbe {
        /// Which structure.
        level: TlbLevel,
        /// Address space of the probe.
        asid: u16,
        /// Whether it hit.
        hit: bool,
    },
    /// A translation request merged into an in-flight walk's MSHR entry.
    MshrMerge {
        /// Address space of the merged request.
        asid: u16,
    },
    /// A page walk moved into a walker slot.
    WalkerAcquire {
        /// Walker slot index.
        slot: u32,
        /// Starting radix level (1 = root).
        level: u8,
    },
    /// A walk advanced to its next radix level.
    WalkerLevel {
        /// Walker slot index.
        slot: u32,
        /// The level now being accessed.
        level: u8,
    },
    /// A walk completed and freed its slot.
    WalkerRelease {
        /// Walker slot index.
        slot: u32,
    },
    /// A shared queue's depth changed (emitted deduplicated, on change).
    QueueDepth {
        /// Which queue.
        queue: QueueKind,
        /// Entries queued at this cycle.
        depth: u32,
    },
    /// MASK's translation-aware L2 bypass decided a request's path (§5.3).
    Bypass {
        /// Address space of the translation request.
        asid: u16,
        /// Walk level of the request.
        level: u8,
        /// Whether it bypassed the L2 banks.
        bypassed: bool,
    },
    /// A token controller epoch adjusted an app's fill tokens (§5.2).
    TokenEpoch {
        /// The application.
        asid: u16,
        /// Tokens granted for the next epoch.
        tokens: u64,
        /// Warps the app runs (grants must stay within `1..=total_warps`).
        total_warps: u64,
    },
    /// A request entered a conservation domain.
    Issue {
        /// The domain.
        domain: Domain,
        /// Request id.
        id: u64,
    },
    /// A request left a conservation domain.
    Retire {
        /// The domain.
        domain: Domain,
        /// Request id.
        id: u64,
    },
    /// An MSHR table answered an allocation (reported after it updated).
    MshrAlloc {
        /// Table id (from `hooks::register_table`; 0 in release builds).
        table: u32,
        /// Line address.
        line: u64,
        /// What the table did.
        outcome: MshrOutcome,
        /// Entries the table holds afterwards.
        len: u32,
        /// The table's capacity.
        capacity: u32,
    },
    /// An MSHR table completed a line.
    MshrFill {
        /// Table id (from `hooks::register_table`; 0 in release builds).
        table: u32,
        /// Line address.
        line: u64,
        /// Waiters the fill released (0: the table held no entry for it).
        waiters: u32,
    },
}

impl Event {
    /// Stable event name for trace output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::WarpStall { .. } => "warp_stall",
            Event::WarpWake { .. } => "warp_wake",
            Event::TlbProbe { .. } => "tlb_probe",
            Event::MshrMerge { .. } => "mshr_merge",
            Event::WalkerAcquire { .. } => "walker_acquire",
            Event::WalkerLevel { .. } => "walker_level",
            Event::WalkerRelease { .. } => "walker_release",
            Event::QueueDepth { queue, .. } => queue.name(),
            Event::Bypass { .. } => "l2_bypass",
            Event::TokenEpoch { .. } => "token_epoch",
            Event::Issue { .. } => "issue",
            Event::Retire { .. } => "retire",
            Event::MshrAlloc { .. } => "mshr_alloc",
            Event::MshrFill { .. } => "mshr_fill",
        }
    }

    /// Counter family the event belongs to (Perfetto category).
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            Event::WarpStall { .. } | Event::WarpWake { .. } => "warp",
            Event::TlbProbe { .. } | Event::MshrMerge { .. } | Event::TokenEpoch { .. } => "tlb",
            Event::WalkerAcquire { .. }
            | Event::WalkerLevel { .. }
            | Event::WalkerRelease { .. } => "walker",
            Event::QueueDepth { queue, .. } => match queue {
                QueueKind::L2 => "l2",
                QueueKind::Dram | QueueKind::DramInFlight => "dram",
                QueueKind::Walker => "walker",
            },
            Event::Bypass { .. } => "l2",
            Event::Issue { domain, .. } | Event::Retire { domain, .. } => match domain {
                Domain::L2Cache | Domain::CoreData => "l2",
                Domain::Dram | Domain::DramQueues => "dram",
                Domain::XlatMem => "walker",
            },
            Event::MshrAlloc { .. } | Event::MshrFill { .. } => "mshr",
        }
    }
}

/// A cycle-stamped event as stored in the ring buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Record {
    /// Simulation cycle the event was recorded at.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_families_are_stable() {
        let e = Event::TlbProbe {
            level: TlbLevel::L2,
            asid: 1,
            hit: false,
        };
        assert_eq!(e.name(), "tlb_probe");
        assert_eq!(e.family(), "tlb");
        let q = Event::QueueDepth {
            queue: QueueKind::Dram,
            depth: 3,
        };
        assert_eq!(q.name(), "dram_queue");
        assert_eq!(q.family(), "dram");
        assert_eq!(
            Event::WalkerRelease { slot: 7 }.family(),
            "walker",
            "walker lifecycle events share one family"
        );
    }

    #[test]
    fn queue_kind_discriminants_fit_dedup_table() {
        for q in [
            QueueKind::L2,
            QueueKind::Dram,
            QueueKind::DramInFlight,
            QueueKind::Walker,
        ] {
            assert!((q as usize) < N_QUEUE_KINDS);
        }
    }
}
