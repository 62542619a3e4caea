//! End-to-end daemon tests: the acceptance criteria of the `maskd` PR.
//!
//! * **Determinism at the network boundary** — a job submitted over HTTP
//!   returns statistics bit-identical (`==` on the all-integer `SimStats`)
//!   to running the same `SimJob` directly.
//! * **Persistence across restarts** — a second daemon over the same
//!   store directory answers a resubmission from disk with *zero* jobs
//!   dispatched into its pool.
//! * **A hit costs one file, not the directory** — on a store of 84
//!   results 200 resubmissions are all hits, the directory is listed once
//!   (at boot), and a reboot finds the recency order the hits left.
//! * **Fairness and backpressure** — three tenants under a full queue get
//!   well-formed 429/503 rejections, and once dispatch resumes, the first
//!   round of dispatch sequence numbers covers all three tenants.
//!
//! No sleeps anywhere: `Client::wait` rides the chunked events stream,
//! which the daemon holds open until the job completes.

use mask_common::config::DesignKind;
use mask_core::JobPool;
use maskd::json::Value;
use maskd::wire::JobSpec;
use maskd::{Client, ClientError, Daemon, DaemonConfig};
use std::path::PathBuf;

/// A cheap two-app job (multi-app, so the engine's alone-baseline cache
/// never interferes with the daemon's store accounting).
fn spec(tenant: &str, design: DesignKind, seed: u64) -> JobSpec {
    JobSpec {
        tenant: tenant.to_owned(),
        design,
        apps: vec![("HS".to_owned(), 2), ("MUM".to_owned(), 2)],
        max_cycles: 2000,
        warmup_cycles: 500,
        seed,
        gpu: "maxwell".to_owned(),
        overrides: maskd::wire::GpuOverrides::default(),
    }
}

fn ephemeral_config() -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..DaemonConfig::default()
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maskd-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn served_results_are_bit_identical_to_local_runs() {
    let daemon =
        Daemon::spawn_with_pool(ephemeral_config(), JobPool::with_workers(2)).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    assert!(client.healthz().expect("healthz"));

    // Three cold jobs, then three with one warm-up (same seed and
    // machine, different lengths), one per batch.
    let cold = [
        spec("oracle", DesignKind::Mask, 101),
        spec("oracle", DesignKind::SharedTlb, 102),
        spec("oracle", DesignKind::Static, 103),
    ];
    let same_warmup = [2100, 2200, 2300].map(|max_cycles| JobSpec {
        max_cycles,
        ..spec("oracle", DesignKind::Mask, 104)
    });
    for spec in cold.iter().chain(&same_warmup) {
        let submitted = client.submit(spec).expect("submit");
        assert_eq!(submitted.status, "queued");
        assert!(!submitted.store_hit);
        let reply = client.wait(submitted.id).expect("wait");
        let served = reply.result.expect("done job carries its result");
        // The oracle: the same job, run directly in this process. The
        // engine guarantees the pool's worker count cannot change
        // results, so `==` on the all-integer stats is exact.
        let local = spec.to_sim_job().run();
        assert_eq!(served, local, "served result must be bit-identical");
    }
    daemon.shutdown();
}

#[test]
fn result_store_survives_restart_with_zero_resimulation() {
    let dir = temp_store("restart");
    let spec = spec("persist", DesignKind::Mask, 201);

    let first_result = {
        let cfg = DaemonConfig {
            store_dir: Some(dir.clone()),
            ..ephemeral_config()
        };
        let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(2)).expect("boot");
        let client = Client::new(daemon.addr().to_string());
        let submitted = client.submit(&spec).expect("submit");
        assert!(!submitted.store_hit, "first submission must simulate");
        let reply = client.wait(submitted.id).expect("wait");
        daemon.shutdown();
        reply.result.expect("result")
    };

    // A brand-new daemon over the same directory: the resubmission is
    // answered from disk — done immediately, store_hit, nothing ever
    // dispatched into the pool.
    let cfg = DaemonConfig {
        store_dir: Some(dir.clone()),
        ..ephemeral_config()
    };
    let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(2)).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    let submitted = client.submit(&spec).expect("resubmit");
    assert!(submitted.store_hit, "resubmission must hit the store");
    assert_eq!(submitted.status, "done");
    let reply = client.wait(submitted.id).expect("wait");
    assert!(reply.store_hit);
    assert_eq!(
        reply.result.expect("stored result"),
        first_result,
        "stored result must round-trip bit-identically through MSNP + JSON"
    );

    let stats = client.store_stats().expect("store stats");
    let scheduler = stats.get("scheduler").expect("scheduler section");
    assert_eq!(
        scheduler.get("simulated_jobs").and_then(Value::as_u64),
        Some(0),
        "restarted daemon must have simulated nothing"
    );
    assert_eq!(scheduler.get("store_hits").and_then(Value::as_u64), Some(1));
    let store = stats.get("store").expect("store section");
    assert_eq!(store.get("disk_loads").and_then(Value::as_u64), Some(1));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The named `store` counter of `GET /store/stats`.
fn store_count(client: &Client, name: &str) -> Option<u64> {
    let stats = client.store_stats().expect("store stats");
    stats.get("store")?.get(name).and_then(Value::as_u64)
}

/// The store directory's keys, least recently used first, as its sidecars
/// order them: `(sequence number, file stem)`.
fn sidecar_order(dir: &std::path::Path) -> Vec<String> {
    let mut entries: Vec<(u64, String)> = std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "lru"))
        .map(|p| {
            let seq = std::fs::read_to_string(&p).expect("sidecar");
            let stem = p.file_stem().expect("stem").to_string_lossy().into_owned();
            (seq.trim().parse().expect("sequence number"), stem)
        })
        .collect();
    entries.sort();
    entries.into_iter().map(|(_, stem)| stem).collect()
}

#[test]
fn a_store_hit_lists_nothing_and_recency_survives_a_reboot() {
    const STORED: u64 = 64;
    const JOBS: u64 = 20;
    const HITS: u64 = 200;
    let dir = temp_store("index");
    let boot = || {
        let cfg = DaemonConfig {
            store_dir: Some(dir.clone()),
            ..ephemeral_config()
        };
        Daemon::spawn_with_pool(cfg, JobPool::with_workers(2)).expect("boot")
    };
    // Another handle fills the directory before the daemon opens it.
    let filler = spec("fill", DesignKind::Mask, 500).to_sim_job().run();
    {
        let store = maskd::ResultStore::with_dir(dir.clone(), None);
        for key in 0..STORED {
            store.insert(key, &filler);
        }
    }

    let daemon = boot();
    let client = Client::new(daemon.addr().to_string());
    let specs: Vec<JobSpec> = (0..JOBS)
        .map(|i| spec("index", DesignKind::SharedTlb, 501 + i))
        .collect();
    let local: Vec<_> = specs.iter().map(|s| s.to_sim_job().run()).collect();
    for (spec, local) in specs.iter().zip(&local) {
        let submitted = client.submit(spec).expect("submit");
        assert!(!submitted.store_hit);
        let served = client.wait(submitted.id).expect("wait").result;
        assert_eq!(served.as_ref(), Some(local));
    }
    // Resubmissions in an order that is not the insertion order.
    let mut last_hit = Vec::new();
    for i in 0..HITS {
        let which = (i * 7 % JOBS) as usize;
        let submitted = client.submit(&specs[which]).expect("resubmit");
        assert!(submitted.store_hit, "resubmission {i} must hit");
        let served = client.wait(submitted.id).expect("wait").result;
        assert_eq!(served.as_ref(), Some(&local[which]));
        if i >= HITS - JOBS {
            last_hit.push(which);
        }
    }
    assert_eq!(store_count(&client, "hits"), Some(HITS));
    assert_eq!(store_count(&client, "disk_entries"), Some(STORED + JOBS));
    assert_eq!(store_count(&client, "disk_evictions"), Some(0));
    assert_eq!(
        store_count(&client, "dir_scans"),
        Some(1),
        "the sweep at open is the only directory listing"
    );
    daemon.shutdown();

    // A reboot sweeps the directory and keeps every entry; the sidecars
    // still order the jobs by their last hit, after every untouched one.
    let daemon = boot();
    let client = Client::new(daemon.addr().to_string());
    assert_eq!(store_count(&client, "disk_entries"), Some(STORED + JOBS));
    assert_eq!(store_count(&client, "dir_scans"), Some(1));
    let order = sidecar_order(&dir);
    let expected: Vec<String> = last_hit
        .iter()
        .map(|&which| format!("{:016x}", maskd::result_key(&specs[which].to_sim_job())))
        .collect();
    assert_eq!(order[STORED as usize..], expected);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn three_tenants_get_fair_shares_and_clean_backpressure() {
    // Paused dispatch so the queue fills deterministically; quantum equal
    // to the job cost so each DRR sweep grants every tenant exactly one
    // job; in-flight cap 1 for the same reason.
    let cfg = DaemonConfig {
        queue_depth: 6,
        tenant_depth: 2,
        inflight: 1,
        quantum: 2000,
        start_paused: true,
        ..ephemeral_config()
    };
    let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(3)).expect("boot");
    let client = Client::new(daemon.addr().to_string());

    // Tenant `a` fills its per-tenant allowance of 2, then gets a 429
    // (global queue still has room: that's *its* limit, not the pool's).
    let mut ids: Vec<(String, u64)> = Vec::new();
    for seed in [301, 302] {
        let s = client
            .submit(&spec("a", DesignKind::SharedTlb, seed))
            .expect("admit");
        ids.push(("a".to_owned(), s.id));
    }
    match client.submit(&spec("a", DesignKind::SharedTlb, 303)) {
        Err(ClientError::Http { status, body }) => {
            assert_eq!(status, 429, "tenant overflow must be 429");
            let doc = maskd::json::parse(&body).expect("error body must be JSON");
            assert!(doc.get("error").is_some());
        }
        other => panic!("expected 429, got {other:?}"),
    }

    // Tenants `b` and `c` fill the rest of the global queue.
    for (tenant, seeds) in [("b", [311, 312]), ("c", [321, 322])] {
        for seed in seeds {
            let s = client
                .submit(&spec(tenant, DesignKind::SharedTlb, seed))
                .expect("admit");
            ids.push((tenant.to_owned(), s.id));
        }
    }
    // Queue is now globally full: even a brand-new tenant gets a 503.
    match client.submit(&spec("d", DesignKind::SharedTlb, 331)) {
        Err(ClientError::Http { status, body }) => {
            assert_eq!(status, 503, "global overflow must be 503");
            let doc = maskd::json::parse(&body).expect("error body must be JSON");
            assert!(doc.get("error").is_some());
        }
        other => panic!("expected 503, got {other:?}"),
    }

    daemon.resume_dispatch();
    // Collect (tenant, dispatch_seq) for all six jobs.
    let mut dispatched: Vec<(String, u64)> = Vec::new();
    for (tenant, id) in &ids {
        let reply = client.wait(*id).expect("wait");
        dispatched.push((
            tenant.clone(),
            reply.dispatch_seq.expect("dispatched job has a seq"),
        ));
    }
    // Fair-share ordering: the first DRR round (sequence numbers 0..3)
    // serves one job from each of the three tenants — no tenant gets two
    // slots before every tenant got one.
    let mut first_round: Vec<&str> = dispatched
        .iter()
        .filter(|(_, seq)| *seq < 3)
        .map(|(t, _)| t.as_str())
        .collect();
    first_round.sort_unstable();
    assert_eq!(
        first_round,
        ["a", "b", "c"],
        "round 1 must cover all tenants"
    );
    // And the second round serves the second job of each tenant.
    let mut second_round: Vec<&str> = dispatched
        .iter()
        .filter(|(_, seq)| *seq >= 3)
        .map(|(t, _)| t.as_str())
        .collect();
    second_round.sort_unstable();
    assert_eq!(second_round, ["a", "b", "c"]);
    daemon.shutdown();
}

#[test]
fn duplicate_submissions_within_one_daemon_hit_the_store() {
    let daemon =
        Daemon::spawn_with_pool(ephemeral_config(), JobPool::with_workers(2)).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    let spec_a = spec("dup", DesignKind::MaskTlb, 401);

    let first = client.submit(&spec_a).expect("submit");
    assert!(!first.store_hit);
    let first_reply = client.wait(first.id).expect("wait");

    // Identical spec from a *different tenant*: content addressing makes
    // it a hit — tenant identity is not part of the result key.
    let mut spec_b = spec_a.clone();
    spec_b.tenant = "dup2".to_owned();
    let second = client.submit(&spec_b).expect("resubmit");
    assert!(
        second.store_hit,
        "identical job must be answered from store"
    );
    let second_reply = client.wait(second.id).expect("wait");
    assert_eq!(second_reply.result, first_reply.result);

    // A different seed is a different content address: no hit.
    let third = client
        .submit(&spec("dup", DesignKind::MaskTlb, 402))
        .expect("submit");
    assert!(!third.store_hit);
    let _ = client.wait(third.id).expect("wait");
    daemon.shutdown();
}

#[test]
fn malformed_submissions_are_rejected_not_crashed() {
    let daemon =
        Daemon::spawn_with_pool(ephemeral_config(), JobPool::with_workers(1)).expect("boot");
    let client = Client::new(daemon.addr().to_string());

    // Route-level failures.
    for (method, path, body) in [
        ("GET", "/nope", None),
        ("DELETE", "/jobs", None),
        ("GET", "/jobs/notanumber", None),
        ("POST", "/jobs", Some("{not json")),
        ("POST", "/jobs", Some("{\"tenant\":\"x\"}")),
    ] {
        let err = raw_call(&client, method, path, body);
        assert!(
            matches!(err, Some(400 | 404 | 405)),
            "{method} {path} must be rejected cleanly, got {err:?}"
        );
    }
    // Unknown job id.
    assert!(matches!(
        client.job(999_999),
        Err(ClientError::Http { status: 404, .. })
    ));
    // The daemon is still alive and serving after all of that.
    assert!(client.healthz().expect("healthz"));
    daemon.shutdown();
}

/// Issues a raw request through the public client surface, returning the
/// error status (None if it unexpectedly succeeded).
fn raw_call(client: &Client, method: &str, path: &str, body: Option<&str>) -> Option<u16> {
    // The typed client only exposes the real routes; drive the generic
    // plumbing through `store_stats`-style calls by matching on methods.
    let result = match (method, path, body) {
        ("POST", "/jobs", Some(doc)) => client.submit_raw(doc).err(),
        _ => client.get_raw(method, path).err(),
    };
    result.and_then(|e| match e {
        ClientError::Http { status, .. } => Some(status),
        _ => None,
    })
}
