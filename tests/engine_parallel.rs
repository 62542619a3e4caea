//! Determinism under parallelism: the job engine must produce
//! byte-identical results at any worker count, and the result memo must
//! collapse duplicate simulations, shared or alone, within a batch and
//! across batches, to exactly one run each.
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
    PairRunner::with_pool(
        quick_opts(workers).run_options(),
        JobPool::with_workers(workers).with_cache(ResultMemo::new()),
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
    let names: Vec<Vec<&str>> = mixes
        .iter()
        .filter(|m| m.len() <= 4)
        .map(|m| m.iter().map(|p| p.name).collect())
        .collect();
    let designs = [DesignKind::SharedTlb, DesignKind::Mask];
    let outcomes = |workers| {
        let r = runner(workers);
        let each = names
            .iter()
            .flat_map(|n| designs.map(|d| r.run_named(n, d)));
        each.collect::<Vec<_>>()
    };
    assert_eq!(outcomes(1), outcomes(8));
}

#[test]
fn experiment_tables_are_identical_at_any_worker_count() {
    // Whole-harness equivalence: the same experiment at 1 and 8 workers
    // produces the exact same table. The harnesses run on the process-wide
    // memo, which no other test in this binary uses; emptying it before
    // each pass makes both widths simulate every run.
    let memo = Arc::clone(JobPool::with_workers(1).cache());
    let at = |workers: usize, harness: fn(&ExpOptions) -> Table| {
        memo.clear();
        let before = memo.stats().misses;
        let table = harness(&quick_opts(workers));
        let simulated = memo.stats().misses - before;
        assert_eq!(simulated, memo.stats().entries as u64);
        (table, simulated)
    };
    // Each harness simulates only the runs its table reads: Table 3 one
    // shared run per (mix, design), with no alone baseline (4 mixes fit 4
    // cores, 3 designs); Fig. 7 its 12 placements, of which the two HISTO
    // alone runs are one job.
    for (harness, runs) in [
        (
            experiments::scalability::throughput as fn(&ExpOptions) -> Table,
            4 * 3,
        ),
        (experiments::interference::run, 4 * 3 - 1),
    ] {
        let (serial, simulated) = at(1, harness);
        assert_eq!(simulated, runs, "one simulation per run the table reads");
        assert_eq!(at(8, harness), (serial, simulated));
    }
}

#[test]
fn duplicate_alone_baselines_are_simulated_exactly_once() {
    let memo = ResultMemo::new();
    let r = PairRunner::with_pool(
        quick_opts(2).run_options(),
        JobPool::with_workers(2).with_cache(Arc::clone(&memo)),
    );
    let pairs = ExpOptions::quick().pairs();
    // Every design over every pair: alone baselines repeat heavily across
    // designs sharing the same pair set.
    let _ = r.run_pairs(&pairs, &DesignKind::ALL);
    let first = memo.stats();
    assert_eq!(
        first.entries as u64, first.misses,
        "each unique run simulated exactly once"
    );
    // Re-running the whole sweep simulates nothing new.
    let _ = r.run_pairs(&pairs, &DesignKind::ALL);
    let second = memo.stats();
    assert_eq!(second.misses, first.misses);
    assert_eq!(second.entries, first.entries);
    assert!(second.hits > first.hits);
}

#[test]
fn shared_runs_dedup_within_a_batch() {
    let (a, b) = (app_by_name("HISTO"), app_by_name("GUP"));
    let pair = AppPair {
        a: a.expect("known"),
        b: b.expect("known"),
    };
    for workers in [1, 8] {
        let memo = ResultMemo::new();
        let pool = JobPool::with_workers(workers).with_cache(Arc::clone(&memo));
        let r = PairRunner::with_pool(quick_opts(workers).run_options(), pool);
        // One batch holding the pair twice, then the pair in a batch of its own.
        let twice = r.run_pairs(&[pair, pair], &[DesignKind::Mask]);
        let again = r.run_pairs(&[pair], &[DesignKind::Mask]).remove(0);
        assert_eq!(twice[0], again, "equal jobs must yield equal outcomes");
        assert!(Arc::ptr_eq(&twice[0].stats, &twice[1].stats));
        assert!(
            Arc::ptr_eq(&twice[0].stats, &again.stats),
            "the second batch is answered from the memo ({workers} workers)"
        );
        // The shared run and its two baselines, each simulated once.
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.misses, stats.hits), (3, 3, 3));
        assert_eq!(r.pool().prefix_cache().stats().misses, 3);
    }
}
