//! Determinism under parallelism: the job engine must produce
//! byte-identical results at any worker count, and the process-wide
//! baseline cache must collapse duplicate alone-baseline simulations to
//! exactly one run each.
//!
//! Under `cargo test` the sanitizer is armed (it is on in every debug
//! build), so these tests also prove that its thread-local sessions stay
//! isolated per worker.

use mask_core::experiments::{self, ExpOptions};
use mask_core::prelude::*;
use std::sync::Arc;

fn quick_opts(workers: usize) -> ExpOptions {
    ExpOptions {
        jobs: JobOptions::with_workers(workers),
        ..ExpOptions::quick()
    }
}

fn runner(workers: usize) -> PairRunner {
    let opts = quick_opts(workers).run_options();
    PairRunner::with_pool(
        opts.clone(),
        JobPool::with_options(opts.jobs).with_cache(BaselineCache::new()),
    )
}

#[test]
fn pair_batches_are_identical_at_any_worker_count() {
    let opts = quick_opts(1);
    let pairs = opts.pairs();
    let designs = [DesignKind::SharedTlb, DesignKind::Mask, DesignKind::Ideal];
    let serial = runner(1).run_pairs(&pairs, &designs);
    let wide = runner(8).run_pairs(&pairs, &designs);
    assert_eq!(pairs.len() * designs.len(), serial.len());
    assert_eq!(
        serial, wide,
        "PairOutcome sets must be byte-identical at MASK_JOBS=1 and MASK_JOBS=8"
    );
}

#[test]
fn multi_app_batches_are_identical_at_any_worker_count() {
    let mixes = experiments::scalability::mixes();
    let mixes: Vec<_> = mixes.into_iter().filter(|m| m.len() <= 4).collect();
    let designs = [DesignKind::SharedTlb, DesignKind::Mask];
    let serial = runner(1).run_multi_batch(&mixes, &designs);
    let wide = runner(8).run_multi_batch(&mixes, &designs);
    assert_eq!(serial, wide);
}

#[test]
fn experiment_tables_are_identical_at_any_worker_count() {
    // Whole-harness equivalence: the same experiment at 1 and 8 workers
    // produces the exact same table.
    let t1 = experiments::scalability::run(&quick_opts(1));
    let t8 = experiments::scalability::run(&quick_opts(8));
    assert_eq!(t1, t8);
    let f1 = experiments::interference::run(&quick_opts(1));
    let f8 = experiments::interference::run(&quick_opts(8));
    assert_eq!(f1, f8);
}

#[test]
fn duplicate_alone_baselines_are_simulated_exactly_once() {
    let cache = BaselineCache::new();
    let opts = quick_opts(2).run_options();
    let r = PairRunner::with_pool(
        opts.clone(),
        JobPool::with_options(opts.jobs).with_cache(Arc::clone(&cache)),
    );
    let pairs = ExpOptions::quick().pairs();
    // Every design over every pair: alone baselines repeat heavily across
    // designs sharing the same pair set.
    let _ = r.run_pairs(&pairs, &DesignKind::ALL);
    let first = cache.stats();
    assert_eq!(
        first.entries as u64, first.misses,
        "each unique alone baseline simulated exactly once"
    );
    // Re-running the whole sweep simulates zero new baselines.
    let _ = r.run_pairs(&pairs, &DesignKind::ALL);
    let second = cache.stats();
    assert_eq!(second.misses, first.misses);
    assert_eq!(second.entries, first.entries);
    assert!(second.hits > first.hits);
}

#[test]
fn shared_runs_dedup_within_a_batch() {
    let cache = BaselineCache::new();
    let pool = JobPool::with_workers(4).with_cache(Arc::clone(&cache));
    let r = PairRunner::with_pool(quick_opts(4).run_options(), pool);
    let a = app_by_name("HISTO").expect("known");
    let b = app_by_name("GUP").expect("known");
    let one = r.run_pair(a, b, DesignKind::Mask);
    let two = r.run_pair(a, b, DesignKind::Mask);
    assert_eq!(one, two, "equal jobs must yield equal outcomes");
}
