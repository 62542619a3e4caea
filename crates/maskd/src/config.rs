//! Daemon configuration, resolved from `MASKD_*` environment variables.
//!
//! This module is the **only** place in `crates/maskd` allowed to read the
//! environment (clippy bans `std::env::var` elsewhere; its one reader
//! carries the `#[expect]`): every knob is resolved once into a
//! [`DaemonConfig`] at startup, so no request handler or scheduling
//! decision can silently fork behavior on ambient process state. A numeric
//! knob that does not parse stops the boot rather than falling back to its
//! default. See README.md's environment variable reference for the full
//! `MASK_*`/`MASKD_*` table.

use std::path::PathBuf;
use std::str::FromStr;

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
    /// Maximum results kept, LRU-evicted, on disk and in memory alike
    /// (`MASKD_STORE_CAP`): a store that serves from memory, with no
    /// directory or on one another daemon holds, is bounded too. Recency is
    /// the store's counter, which the log's record order mirrors. `None` =
    /// unbounded.
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

impl DaemonConfig {
    /// Resolves every `MASKD_*` knob from the environment, falling back to
    /// the documented defaults for an unset or empty variable. Called once
    /// at daemon startup.
    ///
    /// # Errors
    ///
    /// A numeric variable whose value does not parse as a non-negative
    /// integer: the message names the variable and its value.
    #[expect(
        clippy::disallowed_methods,
        reason = "the `MASKD_*` entry point, read at boot"
    )]
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`Self::from_env`] on the variables `var` returns by name.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let var = |name: &str| var(name).filter(|v| !v.is_empty());
        let defaults = DaemonConfig::default();
        Ok(DaemonConfig {
            addr: var("MASKD_ADDR").unwrap_or(defaults.addr),
            store_dir: var("MASKD_STORE_DIR").map(PathBuf::from),
            store_cap: number(var, "MASKD_STORE_CAP")?,
            queue_depth: number(var, "MASKD_QUEUE_DEPTH")?
                .unwrap_or(defaults.queue_depth)
                .max(1),
            tenant_depth: number(var, "MASKD_TENANT_DEPTH")?
                .unwrap_or(defaults.tenant_depth)
                .max(1),
            inflight: number(var, "MASKD_INFLIGHT")?
                .unwrap_or(defaults.inflight)
                .max(1),
            quantum: number(var, "MASKD_QUANTUM")?
                .unwrap_or(defaults.quantum)
                .max(1),
            max_body: number(var, "MASKD_MAX_BODY")?
                .unwrap_or(defaults.max_body)
                .max(1024),
            start_paused: defaults.start_paused,
        })
    }
}

/// The value of the numeric variable `name`, if `var` has one: a value that
/// does not parse is an error naming the variable and the value.
fn number<T: FromStr>(
    var: impl Fn(&str) -> Option<String>,
    name: &str,
) -> Result<Option<T>, String> {
    var(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name}={v:?} is not a non-negative integer"))
        })
        .transpose()
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

    /// The numeric `MASKD_*` variables, each with a value it takes.
    const NUMERIC: [(&str, &str); 6] = [
        ("MASKD_STORE_CAP", "7"),
        ("MASKD_QUEUE_DEPTH", "9"),
        ("MASKD_TENANT_DEPTH", "5"),
        ("MASKD_INFLIGHT", "3"),
        ("MASKD_QUANTUM", "4000"),
        ("MASKD_MAX_BODY", "4096"),
    ];

    fn from_pairs(pairs: &[(&str, &str)]) -> Result<DaemonConfig, String> {
        DaemonConfig::from_vars(|name| {
            let value = pairs.iter().find(|(n, _)| *n == name)?.1;
            Some(value.to_owned())
        })
    }

    #[test]
    fn every_numeric_variable_is_read() {
        let cfg = from_pairs(&NUMERIC).expect("all parse");
        assert_eq!(cfg.store_cap, Some(7));
        assert_eq!((cfg.queue_depth, cfg.tenant_depth), (9, 5));
        assert_eq!((cfg.inflight, cfg.quantum, cfg.max_body), (3, 4000, 4096));
        let unset = from_pairs(&[("MASKD_STORE_CAP", ""), ("MASKD_ADDR", "")]).expect("empty");
        assert_eq!((unset.store_cap, unset.addr.as_str()), (None, DEFAULT_ADDR));
    }

    #[test]
    fn a_numeric_variable_that_does_not_parse_is_refused() {
        for (name, _) in NUMERIC {
            for bad in ["10k", "-1", "1.5", " 3", "many"] {
                let mut pairs = NUMERIC.to_vec();
                pairs.retain(|(n, _)| *n != name);
                pairs.push((name, bad));
                let err = from_pairs(&pairs).expect_err(name);
                assert!(
                    err.contains(name) && err.contains(bad),
                    "{name}={bad}: {err}"
                );
            }
        }
    }
}
