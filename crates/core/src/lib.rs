//! MASK: a GPU memory hierarchy supporting multi-application concurrency.
//!
//! This crate is the public face of the reproduction of *Ausavarungnirun et
//! al., "MASK: Redesigning the GPU Memory Hierarchy to Support
//! Multi-Application Concurrency", ASPLOS 2018*. It assembles the substrate
//! crates into a ready-to-use API:
//!
//! * [`engine`] — the plan → execute → assemble job engine: deduplicated
//!   [`SimJob`](engine::SimJob) batches fanned out over `MASK_JOBS` worker
//!   threads with bit-identical results at any worker count;
//! * [`runner`] — one-call simulation of single apps, app pairs, and n-app
//!   mixes under any of the paper's eight designs;
//! * [`metrics`] — weighted speedup, IPC throughput, and unfairness
//!   (maximum slowdown), the evaluation's three metrics (§6);
//! * [`experiments`] — a module per paper table/figure that regenerates it;
//! * [`overhead`] — the §7.4 storage-cost and §7.5 area/power models;
//! * [`table`] — plain-text experiment tables.
//!
//! # Quickstart
//!
//! ```
//! use mask_core::prelude::*;
//!
//! // Run HISTO and GUP concurrently under full MASK for 20K cycles.
//! let outcome = PairRunner::new(RunOptions { max_cycles: 20_000, n_cores: 8, ..Default::default() })
//!     .run_named("HISTO", "GUP", DesignKind::Mask)
//!     .expect("known benchmarks");
//! assert!(outcome.weighted_speedup > 0.0);
//! ```

pub mod engine;
pub mod metrics;
pub mod overhead;
pub mod runner;
pub mod table;

pub mod experiments;

pub use engine::{BaselineCache, CacheStats, JobPool, PrefixCache, PrefixCacheStats, SimJob};
pub use metrics::{unfairness, weighted_speedup};
pub use runner::{PairOutcome, PairRunner, RunOptions};
pub use table::Table;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::engine::{
        BaselineCache, CacheStats, JobPool, PrefixCache, PrefixCacheStats, SimJob,
    };
    pub use crate::metrics::{unfairness, weighted_speedup};
    pub use crate::runner::{PairOutcome, PairRunner, RunOptions};
    pub use crate::table::Table;
    pub use mask_common::config::{DesignKind, GpuConfig, JobOptions, SimConfig};
    pub use mask_common::stats::{AppStats, SimStats};
    pub use mask_gpu::{AppSpec, GpuSim};
    pub use mask_workloads::{all_apps, app_by_name, paper_pairs, AppPair, HmrCategory};
}
