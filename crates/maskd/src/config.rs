//! Daemon configuration, resolved from `MASKD_*` environment variables.
//!
//! This module is the **only** place in `crates/maskd` allowed to read the
//! environment (clippy bans `std::env::var` elsewhere; its three readers
//! carry the `#[expect]`s): every knob is resolved once into a
//! [`DaemonConfig`] at startup, so no request handler or scheduling
//! decision can silently fork behavior on ambient process state. See README.md's environment
//! variable reference for the full `MASK_*`/`MASKD_*` table.

use std::path::PathBuf;

/// Default listen address (`MASKD_ADDR` overrides). Port 0 asks the OS for
/// an ephemeral port; the daemon prints the bound address on startup.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7870";

/// Default bound on jobs queued across all tenants (`MASKD_QUEUE_DEPTH`).
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default bound on one tenant's queued jobs (`MASKD_TENANT_DEPTH`).
pub const DEFAULT_TENANT_DEPTH: usize = 32;

/// Default per-tenant in-flight cap (`MASKD_INFLIGHT`).
pub const DEFAULT_INFLIGHT: usize = 2;

/// Default deficit-round-robin quantum in simulated cycles
/// (`MASKD_QUANTUM`): one default-length job per tenant per round.
pub const DEFAULT_QUANTUM: u64 = 300_000;

/// Default cap on request bodies in bytes (`MASKD_MAX_BODY`).
pub const DEFAULT_MAX_BODY: usize = 1 << 20;

/// Everything the daemon needs to know at startup, fully resolved.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen address, e.g. `127.0.0.1:7870` (`MASKD_ADDR`).
    pub addr: String,
    /// Directory for the persistent result store (`MASKD_STORE_DIR`), one
    /// live writer per directory: a second serves from memory. `None` keeps
    /// results in memory only (they die with the process).
    pub store_dir: Option<PathBuf>,
    /// Maximum results kept, on disk and in memory, LRU-evicted
    /// (`MASKD_STORE_CAP`); `None` = unbounded.
    pub store_cap: Option<usize>,
    /// Bound on jobs queued across all tenants; submissions beyond it get
    /// `503 Service Unavailable` (`MASKD_QUEUE_DEPTH`).
    pub queue_depth: usize,
    /// Bound on one tenant's queued jobs; submissions beyond it get
    /// `429 Too Many Requests` (`MASKD_TENANT_DEPTH`).
    pub tenant_depth: usize,
    /// Per-tenant in-flight cap: jobs a tenant may have dispatched into the
    /// pool at once (`MASKD_INFLIGHT`).
    pub inflight: usize,
    /// Deficit-round-robin quantum in simulated cycles per tenant per round
    /// (`MASKD_QUANTUM`). A job's cost is its `max_cycles`.
    pub quantum: u64,
    /// Maximum accepted request body in bytes; larger bodies get
    /// `413 Payload Too Large` (`MASKD_MAX_BODY`).
    pub max_body: usize,
    /// Start with dispatch paused (tests and deterministic queue-order
    /// demos call [`crate::server::DaemonHandle::resume_dispatch`]).
    /// Not environment-driven.
    pub start_paused: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: DEFAULT_ADDR.to_owned(),
            store_dir: None,
            store_cap: None,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            tenant_depth: DEFAULT_TENANT_DEPTH,
            inflight: DEFAULT_INFLIGHT,
            quantum: DEFAULT_QUANTUM,
            max_body: DEFAULT_MAX_BODY,
            start_paused: false,
        }
    }
}

#[expect(clippy::disallowed_methods, reason = "a `MASKD_*` entry point")]
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

#[expect(clippy::disallowed_methods, reason = "a `MASKD_*` entry point")]
fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

impl DaemonConfig {
    /// Resolves every `MASKD_*` knob from the environment, falling back to
    /// the documented defaults. Called once at daemon startup.
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the `MASKD_*` entry point, read at boot"
    )]
    pub fn from_env() -> Self {
        let mut cfg = DaemonConfig::default();
        if let Ok(addr) = std::env::var("MASKD_ADDR") {
            if !addr.is_empty() {
                cfg.addr = addr;
            }
        }
        cfg.store_dir = std::env::var("MASKD_STORE_DIR")
            .ok()
            .filter(|d| !d.is_empty())
            .map(PathBuf::from);
        cfg.store_cap = env_usize("MASKD_STORE_CAP");
        if let Some(v) = env_usize("MASKD_QUEUE_DEPTH") {
            cfg.queue_depth = v.max(1);
        }
        if let Some(v) = env_usize("MASKD_TENANT_DEPTH") {
            cfg.tenant_depth = v.max(1);
        }
        if let Some(v) = env_usize("MASKD_INFLIGHT") {
            cfg.inflight = v.max(1);
        }
        if let Some(v) = env_u64("MASKD_QUANTUM") {
            cfg.quantum = v.max(1);
        }
        if let Some(v) = env_usize("MASKD_MAX_BODY") {
            cfg.max_body = v.max(1024);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = DaemonConfig::default();
        assert_eq!(cfg.addr, DEFAULT_ADDR);
        assert!(cfg.store_dir.is_none());
        assert!(cfg.queue_depth >= cfg.tenant_depth);
        assert!(!cfg.start_paused);
    }
}
