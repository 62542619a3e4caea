//! `maskd`: simulation-as-a-service for the MASK engine.
//!
//! The job engine made thousands of deterministic simulations cheap — but
//! the [`JobPool`](mask_core::JobPool) and its result memo still live and
//! die with one process. `maskd` is the long-running farm around them: a
//! daemon that serves simulation jobs to many concurrent tenants over a
//! hand-rolled HTTP/1.1 + JSON API (zero new dependencies; the repo is
//! offline-vendored), fairly multiplexing one warm
//! [`JobPool`](mask_core::JobPool) the way MASK itself fairly multiplexes a
//! shared TLB across address spaces.
//!
//! ```text
//! client ──POST /jobs──▶ acceptor ─▶ admission ─▶ DRR fair queue
//!                            │           │              │ batches
//!                            │       ResultStore ◀── JobPool (MASK_JOBS
//!                            │        (hit: no sim)     workers)
//!                            ▼                            │
//!                  GET /jobs/{id}/events ◀─ lifecycle + epoch frames
//! ```
//!
//! The layers, one module each:
//!
//! * [`json`] — the integer-only JSON value type of the wire protocol,
//!   with canonical (sorted-key, no-whitespace) serialization
//!   (`mask_common::json`, re-exported).
//! * [`wire`] — job specs and [`SimStats`](mask_common::stats::SimStats)
//!   as JSON documents. Every statistic counter is an integer, so the
//!   mapping is *exact* and a served result can be compared bit-for-bit
//!   against a local run.
//! * [`http`] — a minimal HTTP/1.1 request parser and response writer
//!   (`Content-Length` and chunked bodies) over `std::net`.
//! * [`store`] — the persistent content-addressed [`ResultStore`]:
//!   final statistics keyed by the model fingerprint and the job's
//!   canonical dedup key, held in the daemon's result memo and on disk,
//!   in one append-only log of envelopes sealed in the versioned MSNP
//!   snapshot codec, with one live writer per directory and one index,
//!   whose recency order `MASKD_STORE_CAP` bounds with or without a log.
//! * [`queue`] — the admission controller's deficit-round-robin fair
//!   queue across tenant ids.
//! * [`server`] — the daemon itself: thread-per-connection acceptor,
//!   request router, job registry, and the dispatcher thread that feeds
//!   DRR-ordered batches into the shared [`JobPool`](mask_core::JobPool).
//! * [`client`] — a small blocking client library (used by
//!   `examples/sweep_client.rs` and the end-to-end tests).
//! * [`config`] — every `MASKD_*` environment knob, resolved once at
//!   startup (the only module of this crate allowed to read the
//!   environment, enforced by clippy's `disallowed-methods`).
//!
//! # Determinism contract
//!
//! A result served by the daemon — freshly simulated, deduplicated within
//! a batch, or answered from the [`ResultStore`] of a previous process —
//! is **bit-identical** to running the same [`SimJob`](mask_core::SimJob)
//! directly through a local [`JobPool`](mask_core::JobPool)
//! (`tests/daemon_e2e.rs` proves it end to end). Scheduling, fair
//! queueing, and persistence can reorder *when* a job runs, never what it
//! produces. See DESIGN.md §15.
//!
//! [`server`] and [`store`] are parallelism islands (acceptor, dispatcher
//! and connection threads; the shared state and the store's lock), like the
//! job engine it wraps: their thread primitives carry item-level
//! `#[expect(clippy::disallowed_types | clippy::disallowed_methods)]`.

pub mod client;
pub mod config;
pub mod http;
pub mod queue;
pub mod server;
pub mod store;
pub mod wire;

pub use client::{Client, ClientError, JobReply, SubmitReply};
pub use config::DaemonConfig;
pub use mask_common::json;
pub use server::{Daemon, DaemonHandle};
pub use store::{result_key, ResultStore, StoreStats};
