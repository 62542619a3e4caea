//! Common foundation types for the MASK GPU memory-hierarchy reproduction.
//!
//! This crate holds everything that more than one subsystem needs:
//!
//! * strongly-typed addresses and identifiers ([`addr`], [`ids`]),
//! * the memory-request representation shared by the TLBs, caches, and the
//!   DRAM model ([`req`]),
//! * the full simulated-system configuration, with presets matching Table 1
//!   of the paper ([`config`]),
//! * simulation statistics counters ([`stats`]),
//! * a small deterministic PRNG so that every experiment is bit-reproducible
//!   without external dependencies ([`rng`]),
//! * the pinned set-index hash of the associative arrays ([`siphash`]),
//! * the versioned MSNP snapshot codec ([`snapshot`]) and the on-disk
//!   directory store of sealed envelopes built on it ([`store`]),
//! * the one JSON value type, parser and string escaper every emitter in
//!   the workspace uses ([`json`]).
//!
//! # Example
//!
//! ```
//! use mask_common::addr::{VirtAddr, PAGE_SIZE_4K_LOG2};
//! use mask_common::ids::Asid;
//!
//! let va = VirtAddr::new(0x7f12_3456_7abc);
//! assert_eq!(va.vpn(PAGE_SIZE_4K_LOG2).0, 0x7f12_3456_7);
//! assert_eq!(va.page_offset(PAGE_SIZE_4K_LOG2), 0xabc);
//! let asid = Asid::new(3);
//! assert_eq!(asid.index(), 3);
//! ```

// Sanitizer and test diagnostics print the request vocabulary and the
// counters: every public type here must be `Debug`.
#![deny(missing_debug_implementations)]

pub mod addr;
pub mod config;
pub mod ids;
pub mod json;
pub mod req;
pub mod rng;
pub mod siphash;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use addr::{LineAddr, PhysAddr, Ppn, VirtAddr, Vpn};
pub use config::{DesignKind, DesignSpec, GpuConfig, SimConfig};
pub use ids::{AppId, Asid, CoreId, WarpId};
pub use req::{MemRequest, RequestClass, WalkLevel};
pub use rng::Pcg32;
pub use snapshot::{PrefixKey, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::{AppStats, DramClassStats, SimStats};

/// Names the simulator model: FNV-1a over the two reference instruction
/// checksums (`tests/design_presets.rs`) and every whole-machine digest of
/// `tests/golden_state.rs`, which recomputes it from those tables. A model
/// change re-pins some of them and so must move this too; `maskd` folds it
/// into every content key, so results of an older model are never served.
pub const MODEL_FINGERPRINT: u64 = 0x98e4_63b8_99d1_cabd;

/// Current simulation time, measured in core clock cycles.
///
/// The whole simulated system runs in a single clock domain (the 1020 MHz
/// shader clock of Table 1); DRAM timing constants are expressed in core
/// cycles.
pub type Cycle = u64;
