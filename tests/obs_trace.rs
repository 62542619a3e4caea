//! Tracing must be invisible in the results.
//!
//! The `mask-obs` hooks observe the simulator; they never steer it. These
//! tests pin the bit-identity contract: with tracing switched **on** at
//! runtime, every statistic — including raw instruction checksums — is
//! byte-identical to the same run with tracing **off**, across job-engine
//! worker counts (`MASK_JOBS`) and on the direct `SimJob::run` path. The
//! others drive batches end-to-end through the exporter: a traced batch
//! yields a well-formed Perfetto document and a metrics JSONL stream with
//! every counter family, its events on the lanes its jobs ran on, and an
//! untraced batch yields nothing at all.

use std::collections::BTreeSet;
use std::sync::Mutex;

use mask_common::snapshot::PrefixKey;
use mask_core::prelude::*;
use proptest::prelude::*;

/// The runtime trace gate is process-global, so tests that flip it must
/// not interleave.
static GATE: Mutex<()> = Mutex::new(());

/// A small two-app MASK job with a short token epoch (several epoch
/// boundaries inside a few thousand cycles).
fn job(seed: u64, apps: &[(&str, usize)], cycles: u64) -> SimJob {
    let mut gpu = GpuConfig::maxwell();
    gpu.warps_per_core = 16;
    gpu.mask.epoch_cycles = 2_000;
    SimJob {
        design: DesignKind::Mask,
        specs: apps
            .iter()
            .map(|(name, c)| AppSpec {
                profile: app_by_name(name).expect("known app"),
                n_cores: *c,
            })
            .collect(),
        max_cycles: cycles,
        warmup_cycles: cycles / 4,
        seed,
        gpu,
    }
}

/// Order-sensitive checksum over the raw instruction counters, so even a
/// reordering that leaves totals intact would be caught.
fn checksum(stats: &SimStats) -> u64 {
    let mut h = mask_common::snapshot::Fnv1a::new();
    for a in &stats.apps {
        for v in [a.instructions, a.mem_instructions, a.cycles, a.stall_cycles] {
            h.write_u64(v);
        }
    }
    h.finish()
}

/// Runs `jobs` through the job engine at 1 and 2 workers, then directly.
fn run_matrix(jobs: &[SimJob]) -> Vec<SimStats> {
    let mut out = Vec::new();
    for workers in [1, 2] {
        let pool = JobPool::with_workers(workers).with_cache(BaselineCache::new());
        out.extend(pool.run_batch(jobs));
    }
    out.extend(jobs.iter().map(SimJob::run));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The contract itself: tracing on vs. off, same bits everywhere.
    #[test]
    fn tracing_is_bit_identical_across_workers(seed in 0u64..500) {
        let _gate = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let jobs = [
            job(seed, &[("HISTO", 2), ("GUP", 2)], 5_000),
            job(seed, &[("CONS", 2), ("LPS", 2)], 5_000),
        ];
        mask_obs::set_runtime(Some(false));
        let off = run_matrix(&jobs);
        mask_obs::set_runtime(Some(true));
        let on = run_matrix(&jobs);
        mask_obs::set_runtime(Some(false));
        mask_obs::reset_collected();
        prop_assert_eq!(&off, &on, "tracing changed simulation results");
        for (a, b) in off.iter().zip(&on) {
            prop_assert_eq!(checksum(a), checksum(b));
        }
    }
}

/// Hooks write nothing into the machine: a few epochs in, a traced
/// simulator's snapshot is byte-identical to an untraced one's.
#[test]
fn tracing_leaves_machine_state_untouched() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let snapshot = |traced: bool| {
        mask_obs::set_runtime(Some(traced));
        let mut cfg = SimConfig::new(DesignKind::Mask).with_max_cycles(6_000);
        cfg.gpu.n_cores = 4;
        cfg.gpu.warps_per_core = 16;
        cfg.gpu.mask.epoch_cycles = 2_000;
        let specs = [("CONS", 2), ("LPS", 2)].map(|(name, n_cores)| AppSpec {
            profile: app_by_name(name).expect("known app"),
            n_cores,
        });
        let mut sim = GpuSim::new(&cfg, &specs);
        sim.run(6_000);
        sim.encode_snapshot(PrefixKey(1))
    };
    let untraced = snapshot(false);
    let traced = snapshot(true);
    mask_obs::set_runtime(Some(false));
    mask_obs::reset_collected();
    assert!(untraced == traced, "tracing wrote into machine state");
}

/// End-to-end: a traced batch exports a well-formed Perfetto document plus a
/// metrics JSONL stream carrying all five counter families.
#[test]
fn traced_batch_exports_all_counter_families() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    mask_obs::reset_collected();
    mask_obs::set_runtime(Some(true));
    let pool = JobPool::with_workers(2).with_cache(BaselineCache::new());
    let jobs = [
        job(11, &[("HISTO", 2), ("GUP", 2)], 8_000),
        job(12, &[("CONS", 2), ("LPS", 2)], 8_000),
    ];
    let _ = pool.run_batch(&jobs);
    mask_obs::set_runtime(Some(false));

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp")
        .join(format!("obs_trace_{}", std::process::id()));
    let summary = mask_obs::export::write_to(&dir).expect("export succeeds");
    assert!(summary.events > 0, "ring captured no events");
    assert!(summary.frames > 0, "no metrics frames");
    assert_eq!(
        summary.dropped, 0,
        "the sink bound drops a test-sized trace"
    );

    let trace = std::fs::read_to_string(&summary.trace_path).expect("trace.json written");
    let doc = mask_common::json::parse(&trace).expect("trace.json is well-formed JSON");
    assert!(doc.get("traceEvents").is_some());

    let jsonl = std::fs::read_to_string(&summary.metrics_path).expect("metrics.jsonl written");
    assert!(jsonl.lines().count() >= 2);
    for family in ["tlb", "walker", "l2", "dram", "job_pool"] {
        assert!(
            summary.families.iter().any(|f| f == family),
            "family {family} missing; got {:?}\njsonl head:\n{}",
            summary.families,
            jsonl.lines().take(4).collect::<Vec<_>>().join("\n")
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each job's simulated events sit on the lane of the worker that ran it,
/// and each lane's walker slots get tracks of their own.
#[test]
fn traced_events_land_on_their_jobs_lanes() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    mask_obs::reset_collected();
    mask_obs::set_runtime(Some(true));
    let pool = JobPool::with_workers(2).with_cache(BaselineCache::new());
    let _ = pool.run_batch(&[
        job(21, &[("HISTO", 2), ("GUP", 2)], 6_000),
        job(22, &[("CONS", 2), ("LPS", 2)], 6_000),
    ]);
    mask_obs::set_runtime(Some(false));

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp")
        .join(format!("obs_trace_lanes_{}", std::process::id()));
    let summary = mask_obs::export::write_to(&dir).expect("export succeeds");
    let trace = std::fs::read_to_string(&summary.trace_path).expect("trace.json written");
    let _ = std::fs::remove_dir_all(&dir);
    let doc = mask_common::json::parse(&trace).expect("trace.json is well-formed JSON");
    let tids = |pid: u64| -> BTreeSet<u64> {
        doc.get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("event list")
            .iter()
            .filter(|e| e.get("pid").and_then(mask_common::json::Value::as_u64) == Some(pid))
            .filter_map(|e| e.get("tid").and_then(mask_common::json::Value::as_u64))
            .collect()
    };
    let lanes = tids(2);
    // Which worker takes which job is up to the scheduler, so the lanes are
    // compared as sets rather than counted.
    assert!(!lanes.is_empty(), "no job spans recorded");
    let sim = tids(1);
    let sim_lanes: BTreeSet<u64> = sim.iter().copied().filter(|&t| t < 1000).collect();
    assert_eq!(sim_lanes, lanes, "simulated events sit on their job's lane");
    let walker_lanes: BTreeSet<u64> = sim
        .iter()
        .filter(|&&t| t >= 1000)
        .map(|t| t / 1000 - 1)
        .collect();
    assert_eq!(walker_lanes, lanes, "walker tracks are per lane");
}

/// With tracing off, a batch collects nothing, and the export is still a
/// loadable (empty) document rather than an error.
#[test]
fn untraced_batch_collects_nothing() {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    mask_obs::reset_collected();
    mask_obs::set_runtime(Some(false));
    let pool = JobPool::with_workers(2).with_cache(BaselineCache::new());
    let _ = pool.run_batch(&[
        job(31, &[("HISTO", 2), ("GUP", 2)], 4_000),
        job(32, &[("CONS", 2), ("LPS", 2)], 4_000),
    ]);
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp")
        .join(format!("obs_trace_empty_{}", std::process::id()));
    let summary = mask_obs::export::write_to(&dir).expect("export succeeds");
    assert_eq!(
        (summary.events, summary.frames, summary.spans),
        (0, 0, 0),
        "an untraced batch collected trace data"
    );
    let trace = std::fs::read_to_string(&summary.trace_path).expect("written");
    assert!(trace.contains("\"traceEvents\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A span name is free text (job labels); whatever it holds, `trace.json`
/// must stay one well-formed document.
#[test]
fn control_characters_in_span_names_are_escaped() {
    let data = mask_obs::export::TraceData {
        spans: vec![mask_obs::profile::Span {
            name: "line\nbreak\ttab\u{1}ctl \"q\" \\".to_owned(),
            lane: 0,
            start_us: 1,
            dur_us: 2,
        }],
        ..Default::default()
    };
    let (trace, _, _) = mask_obs::export::render(&data);
    let doc = mask_common::json::parse(&trace).expect("trace.json is well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("event list");
    assert_eq!(
        events
            .last()
            .and_then(|e| e.get("name"))
            .and_then(|n| n.as_str()),
        Some("line\nbreak\ttab\u{1}ctl \"q\" \\")
    );
}
