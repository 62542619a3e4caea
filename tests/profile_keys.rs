//! A workload is its parameters: two jobs that run applications of the same
//! name but differ in one profile parameter are two jobs everywhere a result
//! is reused — the result memo at any worker count, a held simulator that a
//! longer job would run on, and a disk-backed result store across a reopen.

use mask_core::prelude::*;
use mask_workloads::{AppProfile, Pattern};
use maskd::store::ResultStore;
use std::sync::Arc;

/// A 4-core `SCAN` job on a small GPU.
fn scan_job(profile: AppProfile) -> SimJob {
    let mut gpu = GpuConfig::maxwell();
    gpu.warps_per_core = 16;
    SimJob {
        design: DesignKind::Mask,
        specs: vec![AppSpec {
            profile,
            n_cores: 4,
        }],
        max_cycles: 4_000,
        warmup_cycles: 1_000,
        seed: 3,
        gpu,
    }
}

/// The stock `SCAN` job and a copy whose background stream is shared by
/// warp groups of 16 instead of 1; nothing else differs, the name included.
fn stock_and_variant() -> (SimJob, SimJob) {
    let stock = app_by_name("SCAN").expect("known app");
    let mut variant = stock;
    let Pattern::TiledHot { group, .. } = &mut variant.pattern else {
        unreachable!("SCAN is a TiledHot app")
    };
    assert_eq!(*group, 1);
    *group = 16;
    (scan_job(stock), scan_job(variant))
}

#[test]
fn a_changed_profile_is_its_own_job() {
    let (stock, variant) = stock_and_variant();
    assert_ne!(stock.key(), variant.key());
    let fresh = [Arc::new(stock.run()), Arc::new(variant.run())];
    assert_ne!(
        fresh[0], fresh[1],
        "the swept parameter must move the result"
    );

    // The memo, at 1 and at 4 workers.
    for workers in [1, 4] {
        let pool = JobPool::with_workers(workers).with_cache(ResultMemo::new());
        let got = pool.run_batch(&[stock.clone(), variant.clone()]);
        assert_eq!(got, fresh, "at {workers} worker(s)");
    }

    // A held simulator: the longer variant right after the stock job runs
    // from cycle 0, while a longer variant after that one runs on.
    let pool = JobPool::with_workers(1).with_cache(ResultMemo::new());
    let _ = pool.run_batch(std::slice::from_ref(&stock));
    let mut longer = variant.clone();
    longer.max_cycles += 1_000;
    let got = pool.run_batch(std::slice::from_ref(&longer));
    assert_eq!(*got[0], longer.run());
    assert_eq!(
        pool.prefix_cache().stats().hits,
        0,
        "continued the stock job"
    );
    let mut longest = longer.clone();
    longest.max_cycles += 1_000;
    let got = pool.run_batch(std::slice::from_ref(&longest));
    assert_eq!(*got[0], longest.run());
    assert_eq!(pool.prefix_cache().stats().hits, 1);

    // A disk-backed store, across a reopen.
    let dir = std::env::temp_dir().join(format!("mask-profile-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::with_dir(dir.clone(), None);
    store.persist(&stock, &fresh[0]);
    store.persist(&variant, &fresh[1]);
    drop(store);
    let store = ResultStore::with_dir(dir.clone(), None);
    assert_eq!(store.disk_entries(), 2);
    for (job, want) in [&stock, &variant].into_iter().zip(&fresh) {
        let (got, _) = store.lookup(job).expect("stored");
        assert_eq!(&got, want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
