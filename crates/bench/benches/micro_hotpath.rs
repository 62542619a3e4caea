//! Criterion micro-benchmarks for the per-cycle hot path.
//!
//! Complements `throughput.rs` (whole-engine cycles/sec) with component
//! timings: `AssocArray` probe/fill and the shared-L2 enqueue/tick/drain
//! path. Run with:
//!
//! ```text
//! cargo bench -p mask-bench --features bench-harness --bench micro_hotpath
//! ```

#![allow(missing_docs)] // criterion_group! expands to undocumented items

use criterion::{criterion_group, criterion_main, Criterion};
use mask_cache::SharedL2Cache;
use mask_common::addr::LineAddr;
use mask_common::config::CacheConfig;
use mask_common::ids::{Asid, CoreId};
use mask_common::req::{MemRequest, ReqId, RequestClass};
use mask_tlb::AssocArray;

fn bench_assoc_probe(c: &mut Criterion) {
    // Shared-L2-TLB shape: 512 entries, 16-way.
    let mut arr: AssocArray<u64, u64> = AssocArray::new(512, 16);
    for k in 0..512u64 {
        arr.fill(k, k);
    }
    let mut k = 0u64;
    c.bench_function("assoc_probe_hit_512x16", |b| {
        b.iter(|| {
            k = (k + 7) % 512;
            arr.probe(&k)
        });
    });
    let mut miss = 1_000_000u64;
    c.bench_function("assoc_probe_miss_512x16", |b| {
        b.iter(|| {
            miss += 1;
            arr.probe(&miss)
        });
    });
    let mut fk = 0u64;
    c.bench_function("assoc_fill_evict_512x16", |b| {
        b.iter(|| {
            fk += 1;
            arr.fill(fk, fk)
        });
    });
}

fn l2() -> SharedL2Cache {
    let cfg = CacheConfig {
        bytes: 2 * 1024 * 1024,
        assoc: 16,
        latency: 10,
        banks: 16,
        ports_per_bank: 2,
        mshrs: 64,
    };
    SharedL2Cache::new(&cfg, false, 2)
}

fn bench_l2_path(c: &mut Criterion) {
    // Steady-state enqueue + tick + drain: the exact per-cycle sequence
    // `GpuSim::step` drives, with a rotating working set so both hits and
    // misses occur.
    let mut cache = l2();
    let mut now = 0u64;
    let mut id = 0u64;
    let mut dram = Vec::new();
    let mut resps = Vec::new();
    c.bench_function("l2_enqueue_tick_drain", |b| {
        b.iter(|| {
            for i in 0..4u64 {
                let line = LineAddr((id + i * 64) % 4096);
                cache.enqueue(
                    MemRequest::new(
                        ReqId(id),
                        line,
                        Asid::new((id % 2) as u16),
                        CoreId::new(0),
                        RequestClass::Data,
                        now,
                    ),
                    now,
                );
                id += 1;
            }
            cache.tick(now);
            dram.clear();
            cache.drain_dram_requests_into(&mut dram);
            for r in &dram {
                cache.dram_fill(r.line, now);
            }
            resps.clear();
            cache.drain_responses_into(&mut resps);
            now += 1;
        });
    });

    let mut idle = l2();
    let mut inow = 1_000_000u64;
    c.bench_function("l2_idle_tick", |b| {
        b.iter(|| {
            idle.tick(inow);
            inow += 1;
        });
    });
}

criterion_group!(hotpath, bench_assoc_probe, bench_l2_path);
criterion_main!(hotpath);
