//! Component probes: every call the benchmark makes into a component crate
//! (`mask-tlb`, `mask-cache`, `mask-dram`, `mask-pagetable`,
//! `mask-workloads`) or into `maskd`'s internal modules (`json`, `wire`,
//! `queue`, `store`) lives in this one file. The rest of the benchmark
//! compiles against crate-root re-exports only, so a change that reshapes
//! a component's interface has exactly one benchmark file to follow.
//!
//! Each probe drives one structure alone on a stream seeded from the
//! workload seed, for at least a million operations cut into chunks, and
//! reports the fast decile of the chunks' time per operation. Except for
//! the trace generators, what a probe measures does not depend on the
//! workload, so each runs in the traced run of one workload only: the
//! simulator's components on `serial_2hmr`, the daemon's parts on
//! `maskd_mix`.

use crate::report::Report;
use crate::stats;
use mask_cache::SharedL2Cache;
use mask_common::addr::{LineAddr, Ppn, Vpn, PAGE_SIZE_4K_LOG2};
use mask_common::config::{CacheConfig, DesignKind, DramConfig};
use mask_common::ids::{Asid, CoreId};
use mask_common::req::{MemRequest, ReqId, RequestClass, WalkLevel};
use mask_common::rng::Pcg32;
use mask_common::stats::SimStats;
use mask_dram::Dram;
use mask_pagetable::PageTables;
use mask_tlb::{L1Tlb, SharedL2Tlb};
use mask_workloads::{app_by_name, WarpTrace};
use maskd::queue::{FairQueue, QueuedJob};
use maskd::ResultStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// How much work one probe does.
#[derive(Clone, Copy, Debug)]
pub struct ProbeScale {
    pub chunks: usize,
    pub ops_per_chunk: usize,
    /// Entries of the larger of the two probed result stores.
    pub store_large: usize,
}

impl ProbeScale {
    pub const FULL: ProbeScale = ProbeScale {
        chunks: 8,
        ops_per_chunk: 131_072,
        store_large: STORE_LARGE,
    };
    pub const SMOKE: ProbeScale = ProbeScale {
        chunks: 4,
        ops_per_chunk: 4_096,
        store_large: 96,
    };
}

pub const STORE_SMALL: usize = 64;
pub const STORE_LARGE: usize = 512;

/// Fast-decile nanoseconds per call of `op` over the scale's chunks.
fn ns_per_op(scale: ProbeScale, mut op: impl FnMut()) -> f64 {
    let chunks: Vec<f64> = (0..scale.chunks)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..scale.ops_per_chunk {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e9 / scale.ops_per_chunk as f64
        })
        .collect();
    stats::percentile(&chunks, stats::FAST_PERCENTILE)
}

/// `workloads.next_op_ns`: the trace generators of the workload's two
/// applications, alternating. The one component probe whose stream is the
/// workload's own, so every workload runs it.
pub fn trace_generators(seed: u64, apps: [&str; 2], scale: ProbeScale, report: &mut Report) {
    let mut traces: Vec<WarpTrace> = apps
        .iter()
        .enumerate()
        .filter_map(|(i, name)| {
            app_by_name(name).map(|p| WarpTrace::new(p, seed, i as u64, 0, PAGE_SIZE_4K_LOG2))
        })
        .collect();
    let mut lines = Vec::new();
    let mut i = 0usize;
    let ns = ns_per_op(scale, || {
        i = (i + 1) % traces.len();
        black_box(traces[i].next_op_into(&mut lines));
    });
    report.layer("workloads.next_op_ns", ns);
}

fn pagetable(seed: u64, scale: ProbeScale, report: &mut Report) {
    const PAGES: u64 = 1 << 16;
    let mut rng = Pcg32::new(seed, 1);
    let mut tables = PageTables::new(2, PAGE_SIZE_4K_LOG2);
    // First touches allocate page-table nodes and frames, later ones find
    // them: the stream revisits a 64 Ki-page footprint as the simulator's
    // demand mapping does.
    let map_ns = ns_per_op(scale, || {
        let v = rng.next_u64();
        black_box(tables.ensure_mapped(Asid::new((v & 1) as u16), Vpn((v >> 1) % PAGES)));
    });
    report.layer("pagetable.map_ns", map_ns);
    let translate_ns = ns_per_op(scale, || {
        let v = rng.next_u64();
        black_box(tables.translate(Asid::new((v & 1) as u16), Vpn((v >> 1) % PAGES)));
    });
    report.layer("pagetable.translate_ns", translate_ns);
    let levels = tables.levels();
    let walk_ns = ns_per_op(scale, || {
        let v = rng.next_u64();
        let level = WalkLevel::new(1 + ((v >> 40) % u64::from(levels)) as u8);
        black_box(tables.walk_line(Asid::new((v & 1) as u16), Vpn((v >> 1) % PAGES), level));
    });
    report.layer("pagetable.walk_line_ns", walk_ns);
}

fn tlb(seed: u64, scale: ProbeScale, report: &mut Report) {
    let mut rng = Pcg32::new(seed, 2);
    // Table 1 shapes: 64-entry L1, 512-entry 16-way shared L2 with the
    // 32-entry bypass cache. Footprints of twice the capacity give both
    // hits and misses.
    let mut l1 = L1Tlb::new(64);
    for i in 0..64u64 {
        l1.fill(Asid::new(0), Vpn(i * 2), Ppn(i));
    }
    let l1_ns = ns_per_op(scale, || {
        black_box(l1.probe(Asid::new(0), Vpn(rng.below(128))));
    });
    report.layer("tlb.l1_probe_ns", l1_ns);

    let mut l2 = SharedL2Tlb::new(512, 16, 2, 32);
    for i in 0..512u64 {
        l2.fill(Asid::new((i & 1) as u16), Vpn(i), Ppn(i), true);
    }
    let l2_ns = ns_per_op(scale, || {
        let v = rng.next_u64();
        black_box(l2.probe(Asid::new((v & 1) as u16), Vpn((v >> 1) % 1024)));
    });
    report.layer("tlb.l2_probe_ns", l2_ns);
    let fill_ns = ns_per_op(scale, || {
        let v = rng.next_u64();
        black_box(l2.fill(
            Asid::new((v & 1) as u16),
            Vpn((v >> 1) % 4096),
            Ppn(v >> 20),
            v & 2 == 0,
        ));
    });
    report.layer("tlb.l2_fill_ns", fill_ns);
}

fn request(id: u64, line: u64, class: RequestClass, now: u64) -> MemRequest {
    MemRequest::new(
        ReqId(id),
        LineAddr(line),
        Asid::new((id & 1) as u16),
        CoreId::new((id % 30) as u16),
        class,
        now,
    )
}

fn cache(seed: u64, scale: ProbeScale, report: &mut Report) {
    let mut rng = Pcg32::new(seed, 3);
    let l2_policy = DesignKind::Mask.spec().l2;
    let mut busy = SharedL2Cache::new(&CacheConfig::maxwell_l2(), l2_policy, 2);
    let (mut now, mut id) = (0u64, 0u64);
    let mut to_dram = Vec::new();
    let mut responses = Vec::new();
    // One simulated cycle as `GpuSim::step` drives the L2: four arrivals
    // over a footprint twice the cache's 16 Ki lines, a tick, the misses
    // answered at once, the responses drained.
    let busy_ns = ns_per_op(scale, || {
        for _ in 0..4 {
            busy.enqueue(request(id, rng.below(32_768), RequestClass::Data, now), now);
            id += 1;
        }
        busy.tick(now);
        to_dram.clear();
        busy.drain_dram_requests_into(&mut to_dram);
        for r in &to_dram {
            busy.dram_fill(r.line, now);
        }
        responses.clear();
        busy.drain_responses_into(&mut responses);
        black_box(responses.len());
        now += 1;
    });
    report.layer("cache.l2_busy_cycle_ns", busy_ns);

    let mut idle = SharedL2Cache::new(&CacheConfig::maxwell_l2(), l2_policy, 2);
    let mut inow = 0u64;
    let idle_ns = ns_per_op(scale, || {
        idle.tick(inow);
        inow += 1;
    });
    report.layer("cache.l2_idle_tick_ns", idle_ns);
}

fn dram(seed: u64, scale: ProbeScale, report: &mut Report) {
    let mut rng = Pcg32::new(seed, 4);
    let policy = DesignKind::Mask.spec().dram;
    let mut busy = Dram::new(&DramConfig::default(), 2, policy);
    let (mut now, mut id) = (0u64, 0u64);
    let mut done = Vec::new();
    // One request per cycle, a fifth of them leaf page-walk reads, is about
    // what the 2-HMR workload offers; completions drain every cycle.
    let busy_ns = ns_per_op(scale, || {
        let class = if id % 5 == 0 {
            RequestClass::Translation(WalkLevel::new(4))
        } else {
            RequestClass::Data
        };
        if busy.queued() < 256 {
            busy.enqueue(request(id, rng.below(1 << 22), class, now), now);
            id += 1;
        }
        busy.tick(now);
        done.clear();
        busy.drain_completions_into(now, &mut done);
        black_box(done.len());
        now += 1;
    });
    report.layer("dram.busy_cycle_ns", busy_ns);

    let mut idle = Dram::new(&DramConfig::default(), 2, policy);
    let mut inow = 0u64;
    let idle_ns = ns_per_op(scale, || {
        idle.tick(inow);
        inow += 1;
    });
    report.layer("dram.idle_tick_ns", idle_ns);
}

/// The four memory-path components. Their streams depend on the seed and
/// not on the workload, so one workload's traced run probes them.
pub fn components(seed: u64, scale: ProbeScale, report: &mut Report) {
    pagetable(seed, scale, report);
    tlb(seed, scale, report);
    cache(seed, scale, report);
    dram(seed, scale, report);
}

/// `maskd.json_*` and `maskd.stats_*_value_us`: the wire codec on one
/// result document, which is what a store hit spends its time in.
fn wire_codec(stats: &SimStats, scale: ProbeScale, report: &mut Report) {
    let small = ProbeScale {
        ops_per_chunk: (scale.ops_per_chunk / 64).max(16),
        ..scale
    };
    let value = maskd::wire::stats_to_value(stats);
    let text = value.serialize();
    let mb = text.len() as f64 / 1e6;
    let parse_ns = ns_per_op(small, || {
        black_box(maskd::json::parse(black_box(&text)).is_ok());
    });
    report.layer("maskd.json_parse_mb_s", mb / (parse_ns / 1e9));
    let serialize_ns = ns_per_op(small, || {
        black_box(black_box(&value).serialize().len());
    });
    report.layer("maskd.json_serialize_mb_s", mb / (serialize_ns / 1e9));
    let to_ns = ns_per_op(small, || {
        black_box(maskd::wire::stats_to_value(black_box(stats)));
    });
    report.layer("maskd.stats_to_value_us", to_ns / 1e3);
    let from_ns = ns_per_op(small, || {
        black_box(maskd::wire::stats_from_value(black_box(&value)).is_ok());
    });
    report.layer("maskd.stats_from_value_us", from_ns / 1e3);
    report.check(
        maskd::wire::stats_from_value(&value).as_ref() == Ok(stats),
        || "a result does not survive the wire codec".to_owned(),
    );
}

/// `maskd.queue_cycle_ns`: admit, select and complete one job per call
/// with three tenants taking turns.
fn queue(scale: ProbeScale, report: &mut Report) {
    let mut q = FairQueue::new(256, 32, 300_000);
    let tenants = ["t0", "t1", "t2"];
    let mut id = 0u64;
    let ns = ns_per_op(scale, || {
        let tenant = tenants[(id % 3) as usize];
        let _ = q.admit(tenant, QueuedJob { id, cost: 40_000 });
        id += 1;
        for (t, _) in q.select_batch(2, 2) {
            q.job_done(&t);
        }
    });
    report.layer("maskd.queue_cycle_ns", ns);
}

/// Fills `dir` with `n` sealed results under distinct keys, through the
/// store's own insert path, and returns the keys.
pub fn populate_store(dir: &Path, n: usize, stats: &SimStats, seed: u64) -> Vec<u64> {
    let store = ResultStore::with_dir(dir.to_path_buf(), None);
    let mut rng = Pcg32::new(seed, 5);
    (0..n)
        .map(|_| {
            let key = rng.next_u64();
            store.insert(key, stats);
            key
        })
        .collect()
}

/// `maskd.store_*_<label>`: lookup and insert cost against an on-disk
/// store of `n` results. Every use re-stamps an `.lru` sidecar after
/// listing the whole directory, so the cost grows with `n`; probing two
/// sizes shows the slope.
fn store_at(dir: &Path, n: usize, label: &str, stats: &SimStats, seed: u64, report: &mut Report) {
    const OPS: usize = 48;
    let _ = std::fs::remove_dir_all(dir);
    let keys = populate_store(dir, n, stats, seed);
    let store = ResultStore::with_dir(dir.to_path_buf(), None);
    let mut rng = Pcg32::new(seed, 6);
    let mut get_us = Vec::with_capacity(OPS);
    let mut insert_us = Vec::with_capacity(OPS);
    let mut found = 0usize;
    for key in keys.iter().cycle().step_by(7).take(OPS) {
        let t0 = Instant::now();
        found += usize::from(store.get(*key).is_some());
        get_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        store.insert(rng.next_u64(), stats);
        insert_us.push(t1.elapsed().as_secs_f64() * 1e6);
    }
    report.check(found == OPS, || {
        format!("store of {n}: {found} of {OPS} lookups found their result")
    });
    report.layer(
        &format!("maskd.store_get_us_{label}"),
        stats::median(&get_us),
    );
    report.layer(
        &format!("maskd.store_insert_us_{label}"),
        stats::median(&insert_us),
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The daemon's internal modules, probed without a daemon. `scratch` is a
/// directory the probe may create and delete things under.
pub fn service_parts(
    seed: u64,
    stats: &SimStats,
    scratch: &Path,
    scale: ProbeScale,
    report: &mut Report,
) {
    wire_codec(stats, scale, report);
    queue(scale, report);
    let dir = scratch.join("probe-store");
    store_at(&dir, STORE_SMALL, "n64", stats, seed, report);
    // The name carries the full-scale size; a smoke run probes a smaller
    // store under it.
    store_at(&dir, scale.store_large, "n512", stats, seed, report);
}
