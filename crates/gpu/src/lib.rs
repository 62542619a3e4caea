//! The cycle-driven GPU simulator: cores, warps, and the assembled memory
//! hierarchy.
//!
//! This crate wires every substrate together into the machine of Table 1:
//!
//! * [`core_model`] — shader cores with 64 warp contexts, a GTO
//!   (greedy-then-oldest) issue stage, per-core L1 TLBs and L1 data caches
//!   with MSHRs, and per-warp synthetic instruction streams;
//! * [`translation`] — the address-translation subsystem: shared L2 TLB or
//!   page-walk cache (per design), the 64-slot page-table walker, the
//!   translation MSHRs that merge duplicate walks and count stalled warps,
//!   TLB-Fill Tokens;
//! * [`sim`] — the top-level [`sim::GpuSim`] cycle loop connecting cores,
//!   translation, the banked shared L2, and DRAM, with epoch handling and
//!   statistics collection.
//!
//! The simulator models *one clock domain* and advances all components one
//! cycle at a time; every latency figure of Table 1 (1-cycle L1s, 10-cycle
//! shared structures, GDDR5 timing) appears here or in the component
//! crates.

pub mod core_model;
pub mod sim;
pub mod translation;

pub use core_model::{DirectIssue, GpuCore};
pub use sim::{check_machine, AppSpec, GpuSim};
pub use translation::TranslationUnit;
