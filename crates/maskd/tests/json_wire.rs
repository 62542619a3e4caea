//! Property tests for the daemon's wire vocabulary.
//!
//! 1. **Round-trip exactness** — job specs and full results (every leaf of
//!    the field table set) survive `to_value → serialize → parse →
//!    from_value` bit for bit. (`Value` itself is cross-validated against
//!    the independent syntax checker in `crates/common/tests/json.rs`.)
//! 2. **Malformed-request rejection** — over a real socket: bad method,
//!    oversized body, truncated chunked body.

#[path = "../../common/tests/support/stats_gen.rs"]
mod stats_gen;

use mask_common::config::DesignKind;
use mask_common::rng::Pcg32;
use mask_common::stats::SimStats;
use mask_core::JobPool;
use mask_workloads::all_apps;
use maskd::json::parse;
use maskd::wire::{stats_from_value, stats_to_value, GpuOverrides, JobSpec};
use maskd::{Client, Daemon, DaemonConfig};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;

// Deterministic builders: a u64 seed fans out into arbitrary structures
// through the repo's PRNG, so each proptest case is a pure function of the
// drawn seed.

fn build_spec(g: &mut Pcg32) -> JobSpec {
    let designs = DesignKind::ALL;
    let apps = all_apps();
    let n_apps = 1 + g.below(3) as usize;
    JobSpec {
        tenant: format!("tenant-{}", g.below(5)),
        design: designs[g.below(designs.len() as u64) as usize],
        apps: (0..n_apps)
            .map(|_| {
                (
                    apps[g.below(apps.len() as u64) as usize].name.to_owned(),
                    1 + g.below(8) as usize,
                )
            })
            .collect(),
        max_cycles: 1 + g.below(1_000_000),
        warmup_cycles: g.below(100_000),
        seed: g.next_u64(),
        gpu: ["maxwell", "fermi", "integrated"][g.below(3) as usize].to_owned(),
        overrides: GpuOverrides {
            epoch_cycles: (g.next_u64() & 1 == 1).then(|| 1 + g.below(100_000)),
            warps_per_core: (g.next_u64() & 1 == 1).then(|| 1 + g.below(64) as usize),
            l2_tlb_entries: (g.next_u64() & 1 == 1).then(|| 1 + g.below(4096) as usize),
        },
    }
}

fn build_stats(g: &mut Pcg32) -> SimStats {
    let n_apps = 1 + g.below(4) as usize;
    stats_gen::fill_stats(n_apps, &mut || g.next_u64(), true)
}

proptest! {
    /// Job specs survive the wire bit-for-bit.
    #[test]
    fn job_spec_round_trip(seed in any::<u64>()) {
        let spec = build_spec(&mut Pcg32::new(seed, 0));
        let doc = spec.to_value().serialize();
        let back = JobSpec::from_value(&parse(&doc).expect("parses")).expect("valid spec");
        prop_assert_eq!(back, spec);
    }

    /// Full results — every `u64` counter including extreme values —
    /// survive the wire bit-for-bit.
    #[test]
    fn stats_round_trip(seed in any::<u64>()) {
        let stats = build_stats(&mut Pcg32::new(seed, 0));
        let doc = stats_to_value(&stats).serialize();
        let back = stats_from_value(&parse(&doc).expect("parses")).expect("valid stats");
        prop_assert_eq!(back, stats);
    }
}

// ---------------------------------------------------------------------
// Malformed requests over a real socket.
// ---------------------------------------------------------------------

/// Sends raw bytes, optionally half-closing the write side (to model a
/// client dying mid-body), and returns the status line of the response.
fn raw_request(addr: &str, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn socket_level_malformed_requests_get_clean_errors() {
    let cfg = DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        max_body: 4096,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(1)).expect("boot");
    let addr = daemon.addr().to_string();

    // Bad method on a known route.
    let status = raw_request(&addr, b"BREW /jobs HTTP/1.1\r\n\r\n");
    assert!(status.contains("405"), "bad method: {status}");

    // Declared body larger than MASKD_MAX_BODY.
    let status = raw_request(
        &addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
    );
    assert!(status.contains("413"), "oversized body: {status}");

    // Chunked body that dies mid-chunk.
    let status = raw_request(
        &addr,
        b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nff\r\ntoo short",
    );
    assert!(status.contains("400"), "truncated chunk: {status}");

    // Chunked body whose total exceeds the cap.
    let status = raw_request(
        &addr,
        b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffffff\r\n",
    );
    assert!(status.contains("413"), "oversized chunks: {status}");

    // The daemon survived all of it.
    let client = Client::new(addr);
    assert!(client.healthz().expect("healthz"));
    daemon.shutdown();
}
