//! Synthetic GPGPU workloads mirroring the paper's benchmark suite.
//!
//! The paper evaluates 27+ applications from CUDA SDK, Rodinia, Parboil,
//! LULESH and SHOC (§6), classified in Table 2 by their L1/L2 TLB miss
//! rates. The actual CUDA kernels are irrelevant to the phenomena under
//! study — what matters is each application's *memory access signature*:
//! page working-set size, page-reuse burstiness, cross-warp sharing,
//! coalescing degree, and compute intensity. This crate provides, for each
//! named benchmark, a deterministic trace generator whose signature places
//! it in the same Table 2 quadrant as the original.
//!
//! * [`profile`] — the parameter space ([`AppProfile`], [`Pattern`]).
//! * [`apps`] — the 30 named application profiles plus Table 2's expected
//!   classification ([`TlbClass`]).
//! * [`trace`] — per-warp stateful generators of instruction groups.
//! * [`pairs`] — the 35 two-application workloads of Figs. 8–15 with their
//!   n-HMR categories.
//!
//! The crate models no TLB: Table 2's rates are measured on the timed
//! simulator (`mask_core::experiments::single_app`, whose tests assert the
//! quadrants).

pub mod apps;
pub mod pairs;
pub mod profile;
pub mod trace;

pub use apps::{all_apps, app_by_name, expected_class, TlbClass};
pub use pairs::{paper_pairs, AppPair, HmrCategory};
pub use profile::{AppProfile, Pattern};
pub use trace::WarpTrace;
