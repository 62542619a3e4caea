//! End-to-end daemon tests: the acceptance criteria of the `maskd` PR.
//!
//! * **Determinism at the network boundary** — a job submitted over HTTP
//!   returns statistics bit-identical (`==` on the all-integer `SimStats`)
//!   to running the same `SimJob` directly.
//! * **Persistence across restarts** — a second daemon over the same
//!   store directory answers a resubmission from disk with *zero* jobs
//!   dispatched into its pool.
//! * **A shutdown releases the store** — twenty daemons booted one after
//!   another on one directory each answer the last job that ran from disk,
//!   also while connections of the daemon before, an events stream and a
//!   request still arriving, are open.
//! * **A store at cap keeps the most recently used** — on a store capped
//!   below the 84 results it is given, 200 resubmissions are all hits, the
//!   log is scanned once (at boot), eviction takes the least recently used,
//!   the log stays within twice its live bytes, and a reboot finds the
//!   recency order the hits left in the log's record order.
//! * **A result is sealed once** — the checksum a `completed` event reports,
//!   simulated or served from memory or disk, is the one the stored record
//!   carries.
//! * **An unwritable store costs persistence, not service** — every job
//!   still reaches `done`, and resubmissions are served from memory.
//! * **The cap binds a daemon without a directory** — at cap 1 a job the
//!   next one pushed out is simulated again.
//! * **One memo per daemon** — a resubmission is answered from the
//!   daemon's memo, a disk hit is promoted into it, and two daemons in one
//!   process never serve each other's results.
//! * **Fairness and backpressure** — three tenants under a full queue get
//!   well-formed 429/503 rejections, and once dispatch resumes, the first
//!   round of dispatch sequence numbers covers all three tenants.
//! * **Bounded retention** — at most `queue_depth` finished jobs stay
//!   beside the queued ones; an older id answers 410, one never issued 404,
//!   and a forgotten job's spec is a store hit with the same checksum.
//!
//! No sleeps anywhere: `Client::wait` rides the chunked events stream,
//! which the daemon holds open until the job completes.

use mask_common::config::DesignKind;
use mask_core::JobPool;
use maskd::json::Value;
use maskd::wire::JobSpec;
use maskd::{Client, ClientError, Daemon, DaemonConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;

/// A cheap two-app job.
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

/// A client extending one run job after job pays only for the cycles it
/// adds: the dispatcher thread runs the simulator it holds on, and every
/// served link equals a fresh local run, also when a store hit or an
/// unrelated job comes between two links.
#[test]
fn an_extending_chain_continues_the_held_simulator() {
    let pool = JobPool::with_workers(2);
    let runs = std::sync::Arc::clone(pool.prefix_cache());
    let daemon = Daemon::spawn_with_pool(ephemeral_config(), pool).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    let link = |max_cycles| JobSpec {
        max_cycles,
        ..spec("chain", DesignKind::Mask, 301)
    };
    // (spec, answered from the store)
    let chain = [
        (link(2_000), false),
        (link(2_100), false), // continued
        (link(2_100), true),
        (link(2_250), false), // continued: the hit ran nothing
        (spec("chain", DesignKind::Mask, 302), false),
        (link(2_400), false), // from cycle 0: the unrelated job ran between
        (link(2_550), false), // continued
    ];
    for (i, (spec, hit)) in chain.iter().enumerate() {
        let submitted = client.submit(spec).expect("submit");
        assert_eq!(submitted.store_hit, *hit, "link {i}");
        let served = client.wait(submitted.id).expect("wait").result;
        assert_eq!(served, Some(spec.to_sim_job().run()), "link {i}");
    }
    let counted = runs.stats();
    assert_eq!((counted.hits, counted.misses), (3, 3));
    let stats = client.store_stats().expect("stats");
    let summary = stats.get("pool_summary").and_then(Value::as_str);
    assert!(
        summary.is_some_and(|s| s.ends_with("6 job(s) run, 3 continued")),
        "{summary:?}"
    );
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

/// Opens job `id`'s events stream and reads it up to its `queued` event,
/// so that the daemon's thread serving it is waiting for the next one.
fn open_events(addr: SocketAddr, id: u64) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: maskd\r\nConnection: close\r\n\r\n"
    )
    .expect("request");
    let mut seen = Vec::new();
    while !seen.ends_with(b"\"queued\"") {
        let mut byte = [0];
        stream.read_exact(&mut byte).expect("the queued event");
        seen.push(byte[0]);
    }
    stream
}

#[test]
fn every_reboot_opens_the_store_its_predecessor_shut() {
    let dir = temp_store("reboots");
    let mut last: Option<JobSpec> = None;
    // Connections of the daemon before, still open at this boot.
    let mut lingering: Option<[TcpStream; 2]> = None;
    for boot in 0..20 {
        // Every fourth daemon never dispatches: its job stays queued, and
        // the job's events stream open, through the shutdown.
        let streaming = boot % 4 == 3;
        let cfg = DaemonConfig {
            store_dir: Some(dir.clone()),
            start_paused: streaming,
            ..ephemeral_config()
        };
        let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(1)).expect("boot");
        let client = Client::new(daemon.addr().to_string());
        if let Some(last) = &last {
            let again = client.submit(last).expect("resubmit");
            assert!(again.store_hit, "boot {boot}: the last job is a store hit");
            assert_eq!(store_count(&client, "disk_loads"), Some(1), "boot {boot}");
        }
        if let Some([mut events, _]) = lingering.take() {
            let mut rest = Vec::new();
            events.read_to_end(&mut rest).expect("the stream ended");
        }
        let next = spec("reboot", DesignKind::Mask, 1000 + boot);
        let submitted = client.submit(&next).expect("submit");
        assert!(!submitted.store_hit, "boot {boot}");
        if streaming {
            // Half a request, so its connection thread holds the daemon's
            // state until the next boot; accepted before the stream is.
            let mut partial = TcpStream::connect(daemon.addr()).expect("connect");
            partial.write_all(b"GET /healthz").expect("half a request");
            let events = open_events(daemon.addr(), submitted.id);
            daemon.shutdown();
            lingering = Some([events, partial]);
        } else {
            client.wait(submitted.id).expect("wait");
            daemon.shutdown();
            last = Some(next);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The named `store` counter of `GET /store/stats`.
fn store_count(client: &Client, name: &str) -> Option<u64> {
    let stats = client.store_stats().expect("store stats");
    stats.get("store")?.get(name).and_then(Value::as_u64)
}

/// The store log's records, in order, as `(address, envelope)`.
fn log_records(dir: &std::path::Path) -> Vec<(u64, Vec<u8>)> {
    use mask_common::snapshot::{envelope_len, validate_envelope};
    let bytes = std::fs::read(dir.join("results.log")).expect("store log");
    let mut out = Vec::new();
    let mut rest = &bytes[..];
    while let Some(len) = envelope_len(rest) {
        let (record, tail) = rest.split_at(usize::try_from(len).expect("length"));
        let key = validate_envelope(record).expect("a valid record");
        out.push((key.0, record.to_vec()));
        rest = tail;
    }
    assert!(rest.is_empty(), "the log ends on a record boundary");
    out
}

/// The addresses in the store's log, least recently used first: ordered
/// by the last record naming each.
fn log_order(dir: &std::path::Path) -> Vec<u64> {
    let mut last = std::collections::BTreeMap::new();
    for (at, (addr, _)) in log_records(dir).into_iter().enumerate() {
        last.insert(addr, at);
    }
    let mut order: Vec<(usize, u64)> = last.into_iter().map(|(addr, at)| (at, addr)).collect();
    order.sort_unstable();
    order.into_iter().map(|(_, addr)| addr).collect()
}

#[test]
fn a_store_hit_lists_nothing_and_recency_survives_a_reboot() {
    const STORED: u64 = 64;
    const JOBS: u64 = 20;
    const HITS: u64 = 200;
    const CAP: u64 = 74;
    let dir = temp_store("index");
    let boot = || {
        let cfg = DaemonConfig {
            store_dir: Some(dir.clone()),
            store_cap: Some(CAP as usize),
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
    assert_eq!(store_count(&client, "disk_entries"), Some(CAP));
    // The cold jobs pushed out the filler inserted first, and nothing else.
    let evicted = STORED + JOBS - CAP;
    assert_eq!(store_count(&client, "disk_evictions"), Some(evicted));
    assert_eq!(
        store_count(&client, "dir_scans"),
        Some(1),
        "the scan at open is the only full read of the log"
    );
    let bounded = |client: &Client| {
        let log = store_count(client, "log_bytes").expect("log_bytes");
        let live = store_count(client, "live_bytes").expect("live_bytes");
        let record = live / CAP;
        assert!(log <= 2 * live + record, "{log} log bytes for {live} live");
        let on_disk = std::fs::metadata(dir.join("results.log"))
            .expect("log")
            .len();
        assert_eq!(log, on_disk);
    };
    bounded(&client);
    daemon.shutdown();

    // A reboot at the same cap keeps the same results, in the same order:
    // the filler that survived, untouched, then the jobs by their last hit.
    let daemon = boot();
    let client = Client::new(daemon.addr().to_string());
    assert_eq!(store_count(&client, "disk_entries"), Some(CAP));
    assert_eq!(store_count(&client, "dir_scans"), Some(1));
    bounded(&client);
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.file_name())
        .collect();
    names.sort();
    assert_eq!(names, ["lock", "results.log"], "one log holds every result");
    let order = log_order(&dir);
    let survivors = order.len() - CAP as usize;
    let expected: Vec<u64> = (evicted..STORED)
        .chain(
            last_hit
                .iter()
                .map(|&which| maskd::result_key(&specs[which].to_sim_job())),
        )
        .collect();
    assert_eq!(order[survivors..], expected);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `checksum` of a job's `completed` event.
fn completed_checksum(client: &Client, id: u64) -> Option<u64> {
    let events = client.events(id).expect("events");
    let completed = events
        .iter()
        .map(|line| maskd::json::parse(line).expect("event line is JSON"))
        .find(|event| event.get("event").and_then(Value::as_str) == Some("completed"))?;
    completed.get("checksum").and_then(Value::as_u64)
}

#[test]
fn completed_events_carry_the_stored_envelope_checksum() {
    let dir = temp_store("checksum");
    let spec = spec("seal", DesignKind::PwCache, 701);
    let addr = maskd::result_key(&spec.to_sim_job());
    let boot = || {
        let cfg = DaemonConfig {
            store_dir: Some(dir.clone()),
            ..ephemeral_config()
        };
        Daemon::spawn_with_pool(cfg, JobPool::with_workers(1)).expect("boot")
    };

    let daemon = boot();
    let client = Client::new(daemon.addr().to_string());
    let health = client.get_raw("GET", "/healthz").expect("healthz");
    assert_eq!(
        health.get("fingerprint").and_then(Value::as_str),
        Some(format!("{:016x}", mask_common::MODEL_FINGERPRINT).as_str())
    );
    let simulated = client.submit(&spec).expect("submit");
    assert!(!simulated.store_hit);
    let sealed = completed_checksum(&client, simulated.id);
    let records = log_records(&dir);
    let [(model, _), (stored, on_disk)] = &records[..] else {
        panic!("the model and one record: {records:?}");
    };
    assert_eq!(*model, mask_common::MODEL_FINGERPRINT);
    assert!(sealed.is_some());
    assert_eq!(*stored, addr);
    assert_eq!(
        sealed,
        mask_common::snapshot::envelope_checksum(on_disk),
        "a simulated job reports the checksum of the record it was stored in"
    );
    // Answered from memory, then by a new daemon from disk: the same value.
    let from_memory = client.submit(&spec).expect("resubmit");
    assert!(from_memory.store_hit);
    assert_eq!(completed_checksum(&client, from_memory.id), sealed);
    daemon.shutdown();
    let daemon = boot();
    let client = Client::new(daemon.addr().to_string());
    let from_disk = client.submit(&spec).expect("resubmit");
    assert!(from_disk.store_hit);
    assert_eq!(completed_checksum(&client, from_disk.id), sealed);
    assert_eq!(store_count(&client, "disk_loads"), Some(1));
    // The disk hit was promoted into the memo, which answers from now on.
    let promoted = client.submit(&spec).expect("resubmit");
    assert!(promoted.store_hit);
    assert_eq!(completed_checksum(&client, promoted.id), sealed);
    assert_eq!(store_count(&client, "disk_loads"), Some(1));
    assert_eq!(store_count(&client, "hits"), Some(2));
    assert_eq!(store_count(&client, "entries"), Some(1));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `(retained_jobs, queued)` from one `GET /store/stats` document.
fn retained_and_queued(client: &Client) -> (u64, u64) {
    let stats = client.store_stats().expect("store stats");
    let scheduler = stats.get("scheduler").expect("scheduler section");
    let count = |name: &str| scheduler.get(name).and_then(Value::as_u64);
    (
        count("retained_jobs").expect("retained_jobs"),
        count("queued").expect("queued"),
    )
}

/// The HTTP status a failed call answered with (None if it succeeded).
fn status_of<T>(reply: Result<T, ClientError>) -> Option<u16> {
    match reply.err()? {
        ClientError::Http { status, .. } => Some(status),
        _ => None,
    }
}

#[test]
fn finished_jobs_beyond_the_queue_depth_are_forgotten_oldest_first() {
    const DEPTH: u64 = 4;
    let dir = temp_store("retention");
    let stored = [
        spec("r", DesignKind::Mask, 801),
        spec("r", DesignKind::SharedTlb, 802),
    ];
    {
        let store = maskd::ResultStore::with_dir(dir.clone(), None);
        for s in &stored {
            let job = s.to_sim_job();
            store.insert(maskd::result_key(&job), &job.run());
        }
    }
    let cfg = DaemonConfig {
        store_dir: Some(dir.clone()),
        queue_depth: DEPTH as usize,
        start_paused: true,
        ..ephemeral_config()
    };
    let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(2)).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    let bounded = |client: &Client| {
        let (retained, queued) = retained_and_queued(client);
        assert!(
            retained <= DEPTH + queued,
            "{retained} jobs retained with {queued} queued"
        );
    };
    let cold: Vec<JobSpec> = (0..5)
        .map(|i| spec("r", DesignKind::Mask, 810 + i))
        .collect();

    // While dispatch is paused: three cold jobs queue, and five store hits
    // finish at once, so the first hit is forgotten before any job runs.
    let mut submitted: Vec<(u64, &JobSpec)> = Vec::new();
    for s in &cold[..3] {
        let reply = client.submit(s).expect("submit");
        assert!(!reply.store_hit);
        submitted.push((reply.id, s));
        bounded(&client);
    }
    for s in stored.iter().cycle().take(5) {
        let reply = client.submit(s).expect("submit");
        assert!(reply.store_hit);
        submitted.push((reply.id, s));
        bounded(&client);
    }
    assert_eq!(retained_and_queued(&client), (DEPTH + 3, 3));
    daemon.resume_dispatch();
    let mut first_served = std::collections::BTreeMap::new();
    let mut checksums = std::collections::BTreeMap::new();
    for &(id, _) in &submitted[..3] {
        checksums.insert(id, completed_checksum(&client, id));
        first_served.insert(id, client.wait(id).expect("wait").result);
    }
    bounded(&client);

    // Closed loop: cold, a hit on the first cold job, cold, a hit on the
    // second.
    for s in [&cold[3], &cold[0], &cold[4], &cold[1]] {
        let reply = client.submit(s).expect("submit");
        submitted.push((reply.id, s));
        first_served.insert(reply.id, client.wait(reply.id).expect("wait").result);
        bounded(&client);
    }
    assert_eq!(submitted.len(), 12);
    assert_eq!(retained_and_queued(&client), (DEPTH, 0));

    // The four newest serve what they first served; the eight before them
    // are gone; an id never issued was never there.
    let (forgotten, kept) = submitted.split_at(submitted.len() - DEPTH as usize);
    for &(id, _) in kept {
        let served = client.job(id).expect("a kept job").result;
        assert!(served.is_some());
        assert_eq!(Some(&served), first_served.get(&id));
    }
    for &(id, _) in forgotten {
        assert_eq!(status_of(client.job(id)), Some(410), "job {id}");
        assert_eq!(
            status_of(client.events(id)),
            Some(410),
            "events of job {id}"
        );
    }
    let never = submitted.iter().map(|&(id, _)| id).max().expect("ids") + 1;
    for id in [0, never] {
        assert_eq!(status_of(client.job(id)), Some(404), "job {id}");
        assert_eq!(
            status_of(client.events(id)),
            Some(404),
            "events of job {id}"
        );
    }

    // A forgotten job's spec comes back from the store, sealed as before.
    let (old_id, old_spec) = submitted[2];
    let again = client.submit(old_spec).expect("resubmit");
    assert!(again.store_hit);
    assert_eq!(completed_checksum(&client, again.id), checksums[&old_id]);
    assert_eq!(
        client.job(again.id).expect("job").result,
        first_served[&old_id]
    );
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
    assert_eq!(
        completed_checksum(&client, second.id),
        completed_checksum(&client, first.id),
        "a memo hit reports the checksum of the fresh run"
    );

    // A different seed is a different content address: no hit.
    let third = client
        .submit(&spec("dup", DesignKind::MaskTlb, 402))
        .expect("submit");
    assert!(!third.store_hit);
    let _ = client.wait(third.id).expect("wait");
    let stats = client.store_stats().expect("store stats");
    let count = |section: &str, name: &str| {
        stats
            .get(section)
            .and_then(|s| s.get(name))
            .and_then(Value::as_u64)
    };
    assert_eq!(count("scheduler", "simulated_jobs"), Some(2));
    assert_eq!(count("scheduler", "store_hits"), Some(1));
    assert_eq!(
        store_count(&client, "entries"),
        Some(2),
        "the memo holds both"
    );
    daemon.shutdown();
}

#[test]
fn daemons_in_one_process_serve_only_their_own_results() {
    let dirs = [temp_store("own-a"), temp_store("own-b")];
    let daemons: Vec<_> = dirs
        .iter()
        .map(|dir| {
            let cfg = DaemonConfig {
                store_dir: Some(dir.clone()),
                ..ephemeral_config()
            };
            Daemon::spawn_with_pool(cfg, JobPool::with_workers(1)).expect("boot")
        })
        .collect();
    let spec = spec("own", DesignKind::Mask, 451);
    for daemon in &daemons {
        let client = Client::new(daemon.addr().to_string());
        let first = client.submit(&spec).expect("submit");
        assert!(!first.store_hit, "another daemon's result is not served");
        let _ = client.wait(first.id).expect("wait");
        let again = client.submit(&spec).expect("resubmit");
        assert!(again.store_hit, "a daemon serves its own result");
        assert_eq!(store_count(&client, "disk_entries"), Some(1));
        assert_eq!(store_count(&client, "entries"), Some(1));
    }
    for daemon in daemons {
        daemon.shutdown();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A store directory that cannot be created — its path runs through a
/// regular file, `ENOTDIR`, which stops root too — costs persistence, never
/// service: every job reaches `done` and resubmissions are memo hits.
#[test]
fn an_unwritable_store_serves_every_job_from_memory() {
    let base = temp_store("unwritable");
    let _ = std::fs::remove_file(&base);
    std::fs::write(&base, b"a file, not a directory").expect("blocker");
    let cfg = DaemonConfig {
        store_dir: Some(base.join("store")),
        ..ephemeral_config()
    };
    let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(1)).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    let specs: Vec<JobSpec> = (0..3)
        .map(|i| spec("ro", DesignKind::Mask, 901 + i))
        .collect();
    for (round, hit) in [(0, false), (1, true)] {
        for spec in &specs {
            let submitted = client.submit(spec).expect("submit");
            assert_eq!(submitted.store_hit, hit, "round {round}");
            let reply = client.wait(submitted.id).expect("wait");
            assert_eq!(reply.status, "done", "round {round}");
            assert_eq!(reply.result, Some(spec.to_sim_job().run()), "round {round}");
        }
    }
    assert_eq!(store_count(&client, "disk_entries"), Some(0));
    assert_eq!(store_count(&client, "entries"), Some(3));
    assert_eq!(store_count(&client, "hits"), Some(3));
    assert_eq!(store_count(&client, "log_bytes"), Some(0));
    daemon.shutdown();
    let _ = std::fs::remove_file(&base);
}

/// `MASKD_STORE_CAP` binds a daemon with no store directory: at cap 1 the
/// second job pushes the first out of its memo, so the first, submitted
/// again, is simulated again.
#[test]
fn a_daemon_without_a_store_directory_keeps_its_cap() {
    let cfg = DaemonConfig {
        store_dir: None,
        store_cap: Some(1),
        ..ephemeral_config()
    };
    let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(1)).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    let a = spec("capped", DesignKind::Mask, 951);
    let b = spec("capped", DesignKind::Mask, 952);
    for (round, spec) in [&a, &b, &a].into_iter().enumerate() {
        let submitted = client.submit(spec).expect("submit");
        assert!(!submitted.store_hit, "submission {round} is simulated");
        let reply = client.wait(submitted.id).expect("wait");
        assert_eq!(reply.result, Some(spec.to_sim_job().run()), "{round}");
    }
    let stats = client.store_stats().expect("store stats");
    let simulated = stats
        .get("scheduler")
        .and_then(|s| s.get("simulated_jobs"))
        .and_then(Value::as_u64);
    assert_eq!(simulated, Some(3));
    assert_eq!(store_count(&client, "entries"), Some(1));
    assert_eq!(store_count(&client, "disk_evictions"), Some(2));
    assert_eq!(store_count(&client, "log_bytes"), Some(0));
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

/// A job the simulator cannot run is refused with a 400 before it reaches
/// the dispatcher, which then serves the next valid job.
#[test]
fn a_job_the_simulator_cannot_run_is_refused_and_the_next_is_served() {
    let daemon =
        Daemon::spawn_with_pool(ephemeral_config(), JobPool::with_workers(1)).expect("boot");
    let client = Client::new(daemon.addr().to_string());
    let nine_apps = |design| JobSpec {
        apps: vec![("HS".to_owned(), 1); 9],
        ..spec("bad", design, 701)
    };
    let mut wide = spec("bad", DesignKind::Mask, 702);
    wide.overrides.warps_per_core = Some(129);
    for bad in [
        nine_apps(DesignKind::Static),
        nine_apps(DesignKind::Partitioned),
        wide,
    ] {
        assert!(
            matches!(
                client.submit(&bad),
                Err(ClientError::Http { status: 400, .. })
            ),
            "{bad:?} must be refused"
        );
    }
    let good = spec("bad", DesignKind::Mask, 703);
    let submitted = client.submit(&good).expect("submit");
    let reply = client.wait(submitted.id).expect("wait");
    assert_eq!(reply.result, Some(good.to_sim_job().run()));
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
