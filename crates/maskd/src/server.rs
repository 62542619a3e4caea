//! The daemon: acceptor, router, job registry, and dispatcher.
//!
//! ```text
//! TcpListener ── thread per connection ──▶ route()
//!                    POST /jobs ─▶ admission (memo → disk → DRR queue)
//!                    GET  /jobs/{id} ─▶ registry snapshot
//!                    GET  /jobs/{id}/events ─▶ chunked JSONL stream
//!                    GET  /store/stats, /healthz
//!
//! dispatcher thread: DRR batch ─▶ JobPool::run_batch ─▶ ResultStore (disk)
//!                                   │    (memo)
//!                             mask-obs epoch frames ─▶ job events
//! ```
//!
//! Threading model: one acceptor, one dispatcher, one short-lived thread
//! per connection. All of them share one `Shared` behind `Arc`; mutable
//! state lives in a single `Mutex<DaemonState>` (simulations run *outside*
//! the lock), with two condvars — `work` wakes the dispatcher on
//! admissions, `events` wakes event-stream watchers on job progress. This
//! file is a parallelism island: its thread primitives carry item-level
//! `#[expect(clippy::disallowed_types | clippy::disallowed_methods)]`.
//!
//! Determinism: the dispatcher is the only place jobs enter the
//! [`JobPool`], in DRR order, and every result is stored and served by
//! content address — so *when* a job runs (queue order, batch packing,
//! restarts) can never change *what* it returns (DESIGN.md §15).
//!
//! Memory: the registry keeps every queued and running job, and at most
//! `queue_depth` finished ones, forgetting the oldest first; a forgotten id
//! answers `410 Gone`, and resubmitting its spec is a store hit. A finished
//! job's result is the `Arc` the daemon's own result memo holds, not a copy.

use crate::config::DaemonConfig;
use crate::http::{self, Request};
use crate::json::{self, Value};
use crate::queue::{FairQueue, QueuedJob, Rejection};
use crate::store::{result_key, ResultStore};
use crate::wire::{self, JobSpec};
use mask_common::stats::SimStats;
use mask_common::MODEL_FINGERPRINT;
use mask_core::{JobPool, SimJob};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::atomic::{AtomicBool, Ordering};
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Lifecycle of one submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
}

impl JobStatus {
    fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
        }
    }
}

/// Registry entry for one submission.
struct JobEntry {
    tenant: String,
    key: u64,
    status: JobStatus,
    store_hit: bool,
    dispatch_seq: Option<u64>,
    /// JSONL event lines: lifecycle records plus attached epoch-metrics
    /// frames from `mask-obs` (batch granularity; see DESIGN.md §15).
    events: Vec<String>,
    /// The job to simulate, built once at submission; the dispatcher
    /// moves it into the pool's batch.
    job: Option<SimJob>,
    /// Shared with the daemon's result memo.
    result: Option<Arc<SimStats>>,
}

/// Everything behind the `state` mutex.
struct DaemonState {
    jobs: BTreeMap<u64, JobEntry>,
    /// Ids of the finished jobs still in `jobs`, in the order they
    /// finished; at most `retain` of them.
    finished: VecDeque<u64>,
    /// `MASKD_QUEUE_DEPTH`: finished jobs kept beside the unfinished ones.
    retain: usize,
    queue: FairQueue,
    /// The next id to issue. Only accepted submissions take one, so an id
    /// below it that `jobs` lacks was forgotten, not never issued.
    next_id: u64,
    /// Monotonic dispatch counter; each dispatched job records its
    /// position, which is what the fairness test asserts on. It is also
    /// the count of jobs handed to the pool (store hits never count),
    /// served as `scheduler.simulated_jobs`.
    dispatch_seq: u64,
    /// Sum of dispatched jobs' `max_cycles`: the cycles served, not the
    /// cycles simulated. A job that continues the simulator the dispatcher
    /// holds simulates only the cycles it adds, and the pool simulates
    /// equal jobs of one batch once.
    simulated_cycles: u64,
}

impl DaemonState {
    /// Marks `id` finished and forgets the oldest finished jobs beyond
    /// `retain`. Queued and running jobs are never forgotten.
    fn finish(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > self.retain {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }

    /// The answer for an id `jobs` lacks: forgotten (410) or never issued (404).
    fn missing(&self, id: u64) -> Reply {
        if (1..self.next_id).contains(&id) {
            let msg = "job forgotten (the daemon keeps MASKD_QUEUE_DEPTH finished jobs); \
                       resubmit it: a stored result answers without simulating";
            (410, error_body(msg))
        } else {
            (404, error_body("no such job"))
        }
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the state every daemon thread shares"
)]
struct Shared {
    cfg: DaemonConfig,
    store: ResultStore,
    pool: JobPool,
    state: Mutex<DaemonState>,
    /// Wakes the dispatcher (new work, resume, shutdown).
    work: Condvar,
    /// Wakes event-stream watchers (job progress, shutdown).
    events: Condvar,
    shutdown: AtomicBool,
    paused: AtomicBool,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, DaemonState> {
        // A poisoned lock means a handler panicked mid-update; the maps
        // are still structurally valid and jobs are content-addressed,
        // so serving beats refusing every later request.
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn stopping(&self) -> bool {
        // Relaxed ordering: the flag is a lone shutdown latch with no
        // dependent data; threads observing it late only loop once more.
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// The daemon. Construct with [`Daemon::spawn`] (or
/// [`Daemon::spawn_with_pool`] to control workers in tests).
pub struct Daemon;

/// A running daemon: the bound address plus shutdown control.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Boots a daemon for `cfg` with a default [`JobPool`] (honoring
    /// `MASK_JOBS`).
    pub fn spawn(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
        Self::spawn_with_pool(cfg, JobPool::from_env())
    }

    /// Boots a daemon serving jobs through the given pool's workers, on the
    /// daemon's own result memo: two daemons never share results.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "starts the acceptor and dispatcher threads"
    )]
    pub fn spawn_with_pool(cfg: DaemonConfig, pool: JobPool) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let store = match &cfg.store_dir {
            Some(dir) => ResultStore::with_dir(dir.clone(), cfg.store_cap),
            None => ResultStore::in_memory(),
        };
        let pool = pool.with_cache(Arc::clone(store.memo()));
        let shared = Arc::new(Shared {
            state: Mutex::new(DaemonState {
                jobs: BTreeMap::new(),
                finished: VecDeque::new(),
                retain: cfg.queue_depth,
                queue: FairQueue::new(cfg.queue_depth, cfg.tenant_depth, cfg.quantum),
                next_id: 1,
                dispatch_seq: 0,
                simulated_cycles: 0,
            }),
            work: Condvar::new(),
            events: Condvar::new(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(cfg.start_paused),
            cfg,
            store,
            pool,
        });

        let mut threads = Vec::new();
        let accept_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &accept_shared);
        }));
        let dispatch_shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            dispatch_loop(&dispatch_shared);
        }));

        Ok(DaemonHandle {
            addr,
            shared,
            threads,
        })
    }
}

impl DaemonHandle {
    /// The bound listen address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Unpauses dispatch (see `DaemonConfig::start_paused`): queued jobs
    /// start flowing into the pool.
    pub fn resume_dispatch(&self) {
        // Relaxed ordering: the pause gate carries no data; the condvar
        // notification below provides the dispatcher wakeup.
        self.shared.paused.store(false, Ordering::Relaxed);
        self.shared.work.notify_all();
    }

    /// Stops accepting, drains nothing (queued jobs stay queued), joins the
    /// acceptor and dispatcher, and closes the store, so that a daemon
    /// booted next on its directory opens it from disk.
    pub fn shutdown(mut self) {
        // Relaxed ordering: lone shutdown latch; the dummy connection and
        // condvar broadcasts below deliver the actual wakeups.
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.work.notify_all();
        self.shared.events.notify_all();
        // Unblock the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // A connection thread may still hold `shared` for a moment.
        self.shared.store.close();
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "one short-lived thread per connection"
)]
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let Ok(stream) = conn else { continue };
        let conn_shared = Arc::clone(shared);
        // Connection threads are short-lived and detached; an event
        // stream held across shutdown exits via the condvar broadcast.
        std::thread::spawn(move || {
            handle_connection(stream, &conn_shared);
        });
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let req = match http::read_request(&mut reader, shared.cfg.max_body) {
        Ok(req) => req,
        Err(e) => {
            let body = error_body(e.message());
            let _ = http::write_response(&mut stream, e.status(), &[], &body);
            return;
        }
    };
    route(&req, &mut stream, shared);
}

fn error_body(msg: &str) -> String {
    Value::obj([("error", Value::Str(msg.to_owned()))]).serialize()
}

fn route(req: &Request, stream: &mut TcpStream, shared: &Arc<Shared>) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let reply = match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => (200, healthz().serialize()),
        ("GET", ["store", "stats"]) => (200, store_stats(shared).serialize()),
        ("POST", ["jobs"]) => match submit(req, shared) {
            Ok((status, body)) => (status, body),
            Err((status, body)) => (status, body),
        },
        ("GET", ["jobs", id]) => match id.parse::<u64>() {
            Ok(id) => job_status(id, shared),
            Err(_) => (400, error_body("job id must be an integer")),
        },
        ("GET", ["jobs", id, "events"]) => match id.parse::<u64>() {
            Ok(id) => {
                stream_events(id, stream, shared);
                return;
            }
            Err(_) => (400, error_body("job id must be an integer")),
        },
        (_, ["jobs"] | ["jobs", ..] | ["store", "stats"] | ["healthz"]) => {
            (405, error_body("method not allowed"))
        }
        _ => (404, error_body("no such route")),
    };
    let (status, body) = reply;
    let retry: &[(&str, &str)] = if status == 503 || status == 429 {
        &[("Retry-After", "1")]
    } else {
        &[]
    };
    let _ = http::write_response(stream, status, retry, &body);
}

/// `{"fingerprint": <MODEL_FINGERPRINT as 16 hex digits>, "ok": true}`:
/// two daemons serve each other's stored results only if their
/// fingerprints match.
fn healthz() -> Value {
    Value::obj([
        ("ok", Value::Bool(true)),
        (
            "fingerprint",
            Value::Str(format!("{MODEL_FINGERPRINT:016x}")),
        ),
    ])
}

fn store_stats(shared: &Arc<Shared>) -> Value {
    let s = shared.store.stats();
    let state = shared.lock_state();
    let scheduler = Value::obj([
        ("queued", Value::Num(state.queue.len() as u64)),
        ("retained_jobs", Value::Num(state.jobs.len() as u64)),
        ("simulated_jobs", Value::Num(state.dispatch_seq)),
        ("simulated_cycles", Value::Num(state.simulated_cycles)),
        // Only admission looks the store up, so its hits are the
        // submissions answered without simulating. The lookup runs before
        // admission takes the state lock, so this may count a hit whose
        // job is not registered yet.
        ("store_hits", Value::Num(s.hits)),
    ]);
    drop(state);
    Value::obj([
        (
            "store",
            Value::obj([
                ("entries", Value::Num(s.entries as u64)),
                ("hits", Value::Num(s.hits)),
                ("misses", Value::Num(s.misses)),
                ("inserts", Value::Num(s.inserts)),
                ("disk_loads", Value::Num(s.disk_loads)),
                (
                    "disk_entries",
                    Value::Num(shared.store.disk_entries() as u64),
                ),
                ("dir_scans", Value::Num(s.dir_scans)),
                ("disk_evictions", Value::Num(s.disk_evictions)),
                ("log_bytes", Value::Num(s.log_bytes)),
                ("live_bytes", Value::Num(s.live_bytes)),
            ]),
        ),
        ("scheduler", scheduler),
        ("pool_workers", Value::Num(shared.pool.workers() as u64)),
        ("pool_summary", Value::Str(shared.pool.completion_summary())),
    ])
}

type Reply = (u16, String);

fn submit(req: &Request, shared: &Arc<Shared>) -> Result<Reply, Reply> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| (400, error_body("body must be UTF-8 JSON")))?;
    let doc = json::parse(text).map_err(|e| (400, error_body(&e.to_string())))?;
    let spec = JobSpec::from_value(&doc).map_err(|e| (400, error_body(&e.msg)))?;
    let job = spec.to_sim_job();
    let key = result_key(&job);

    // Memo, then disk: a known result never touches the queue, the pool,
    // or the per-tenant budgets. The store's file I/O runs before the
    // state lock is taken, so status queries and event streams never wait
    // on it.
    let stored = shared.store.lookup(&job);

    let mut state = shared.lock_state();
    let id = state.next_id;
    let mut entry = JobEntry {
        tenant: spec.tenant,
        key,
        status: JobStatus::Queued,
        store_hit: false,
        dispatch_seq: None,
        events: vec![event_line(id, "queued", &[])],
        job: None,
        result: None,
    };
    let hit = stored.is_some();
    if let Some((stats, checksum)) = stored {
        entry.status = JobStatus::Done;
        entry.store_hit = true;
        entry.result = Some(stats);
        entry.events.push(event_line(
            id,
            "completed",
            &[
                ("store_hit", Value::Bool(true)),
                ("checksum", Value::Num(checksum)),
            ],
        ));
    } else {
        let queued = QueuedJob {
            id,
            cost: job.max_cycles,
        };
        state
            .queue
            .admit(&entry.tenant, queued)
            .map_err(|rejection| match rejection {
                Rejection::QueueFull => (
                    503,
                    error_body("queue full (MASKD_QUEUE_DEPTH); retry later"),
                ),
                Rejection::TenantFull => (
                    429,
                    error_body("tenant queue full (MASKD_TENANT_DEPTH); retry later"),
                ),
            })?;
        entry.job = Some(job);
    }
    state.next_id += 1;
    state.jobs.insert(id, entry);
    if hit {
        state.finish(id);
    }
    drop(state);
    if !hit {
        shared.work.notify_all();
    }
    shared.events.notify_all();
    let (status, label) = if hit { (200, "done") } else { (201, "queued") };
    Ok((
        status,
        Value::obj([
            ("id", Value::Num(id)),
            ("status", Value::Str(label.into())),
            ("store_hit", Value::Bool(hit)),
        ])
        .serialize(),
    ))
}

fn event_line(id: u64, event: &str, extra: &[(&str, Value)]) -> String {
    let mut map = std::collections::BTreeMap::new();
    map.insert("event".to_owned(), Value::Str(event.to_owned()));
    map.insert("id".to_owned(), Value::Num(id));
    for (k, v) in extra {
        map.insert((*k).to_owned(), v.clone());
    }
    Value::Object(map).serialize()
}

fn job_status(id: u64, shared: &Arc<Shared>) -> Reply {
    let state = shared.lock_state();
    let Some(entry) = state.jobs.get(&id) else {
        return state.missing(id);
    };
    let mut map = std::collections::BTreeMap::new();
    map.insert("id".to_owned(), Value::Num(id));
    map.insert("tenant".to_owned(), Value::Str(entry.tenant.clone()));
    map.insert(
        "status".to_owned(),
        Value::Str(entry.status.label().to_owned()),
    );
    map.insert("store_hit".to_owned(), Value::Bool(entry.store_hit));
    map.insert("key".to_owned(), Value::Num(entry.key));
    if let Some(seq) = entry.dispatch_seq {
        map.insert("dispatch_seq".to_owned(), Value::Num(seq));
    }
    if let Some(result) = &entry.result {
        map.insert("result".to_owned(), wire::stats_to_value(result));
    }
    (200, Value::Object(map).serialize())
}

/// Streams a job's JSONL events as chunks: everything recorded so far,
/// then live appends until the job completes.
fn stream_events(id: u64, stream: &mut TcpStream, shared: &Arc<Shared>) {
    {
        let state = shared.lock_state();
        if !state.jobs.contains_key(&id) {
            let (status, body) = state.missing(id);
            drop(state);
            let _ = http::write_response(stream, status, &[], &body);
            return;
        }
    }
    if http::start_chunked(stream, 200, "application/jsonl").is_err() {
        return;
    }
    let mut seen = 0usize;
    loop {
        let mut state = shared.lock_state();
        let (pending, done) = match state.jobs.get(&id) {
            Some(entry) => (
                entry.events[seen.min(entry.events.len())..].to_vec(),
                entry.status == JobStatus::Done,
            ),
            None => (Vec::new(), true),
        };
        if pending.is_empty() && !done && !shared.stopping() {
            // Wait for progress; loop re-checks under the lock.
            state = match shared.events.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            drop(state);
            continue;
        }
        drop(state);
        seen += pending.len();
        for line in &pending {
            let mut framed = line.clone();
            framed.push('\n');
            if http::write_chunk(stream, framed.as_bytes()).is_err() {
                return;
            }
        }
        if done || shared.stopping() {
            let _ = http::finish_chunked(stream);
            return;
        }
    }
}

/// The dispatcher: assembles DRR batches and runs them through the pool.
fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let batch = {
            let mut state = shared.lock_state();
            loop {
                if shared.stopping() {
                    return;
                }
                // Relaxed ordering: pause is a lone gate re-checked on
                // every condvar wakeup; no data depends on it.
                let paused = shared.paused.load(Ordering::Relaxed);
                if !paused && !state.queue.is_empty() {
                    let selected = state
                        .queue
                        .select_batch(shared.pool.workers(), shared.cfg.inflight);
                    // Empty only while every tenant with work is at its
                    // in-flight cap: wait for a completion.
                    if !selected.is_empty() {
                        break prepare_batch(&mut state, selected);
                    }
                }
                state = match shared.work.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        run_batch(shared, batch);
    }
}

/// A dispatched job's registry coordinates; its `SimJob` travels beside
/// it, in the slice the pool runs.
struct Dispatched {
    id: u64,
    tenant: String,
}

fn prepare_batch(
    state: &mut DaemonState,
    selected: Vec<(String, u64)>,
) -> (Vec<Dispatched>, Vec<SimJob>) {
    let mut batch = Vec::with_capacity(selected.len());
    let mut jobs = Vec::with_capacity(selected.len());
    for (tenant, id) in selected {
        let Some(entry) = state.jobs.get_mut(&id) else {
            continue;
        };
        let Some(job) = entry.job.take() else {
            continue;
        };
        let seq = state.dispatch_seq;
        state.dispatch_seq += 1;
        entry.status = JobStatus::Running;
        entry.dispatch_seq = Some(seq);
        entry
            .events
            .push(event_line(id, "dispatched", &[("seq", Value::Num(seq))]));
        state.simulated_cycles += job.max_cycles;
        batch.push(Dispatched { id, tenant });
        jobs.push(job);
    }
    (batch, jobs)
}

fn run_batch(shared: &Arc<Shared>, (batch, jobs): (Vec<Dispatched>, Vec<SimJob>)) {
    if batch.is_empty() {
        return;
    }
    // The simulation runs outside the state lock: submissions and status
    // queries stay responsive during a long batch. The pool records every
    // result in the memo.
    let results = shared.pool.run_batch(&jobs);
    // Epoch-metrics frames collected during this batch (empty unless
    // MASK_TRACE is live). Attached at batch granularity — every job in
    // the batch sees the batch's frames.
    let frames = mask_obs::drain_frames();

    // Results reach the disk before the state lock is taken and before any
    // job reads as done: a client that saw `done` and resubmits hits, even
    // across a restart.
    let checksums: Vec<u64> = jobs
        .iter()
        .zip(&results)
        .map(|(job, stats)| shared.store.persist(job, stats))
        .collect();

    let mut state = shared.lock_state();
    for ((d, stats), checksum) in batch.iter().zip(results).zip(checksums) {
        state.queue.job_done(&d.tenant);
        if let Some(entry) = state.jobs.get_mut(&d.id) {
            for frame in &frames {
                entry.events.push(event_line(
                    d.id,
                    "epoch_frame",
                    &[("frame", Value::Str(frame.clone()))],
                ));
            }
            entry.events.push(event_line(
                d.id,
                "completed",
                &[
                    ("store_hit", Value::Bool(false)),
                    ("checksum", Value::Num(checksum)),
                    ("cycles", Value::Num(stats.cycles)),
                ],
            ));
            entry.status = JobStatus::Done;
            entry.result = Some(stats);
            state.finish(d.id);
        }
    }
    drop(state);
    shared.events.notify_all();
    // More work may have queued up while simulating.
    shared.work.notify_all();
}
