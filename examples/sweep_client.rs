//! Parameter sweep through the `maskd` daemon, with an in-process oracle.
//!
//! Boots a daemon on an ephemeral loopback port with a temporary on-disk
//! result store, sweeps designs × seeds × an integer TLB-size override
//! through the HTTP client, and byte-compares every served result against
//! the same `SimJob` run directly in this process — the all-integer
//! statistics make `==` an exact check. The sweep is then resubmitted in
//! full to a second daemon booted on the same directory: every job must be
//! answered from the content-addressed store on disk with zero simulation,
//! which exercises the on-disk format across a restart. Between the two
//! passes, a six-link chain of one job, each link longer than the last,
//! must be served from the simulator the daemon's dispatcher thread holds,
//! run on by the added cycles, and still equal fresh in-process runs.
//!
//! ```text
//! cargo run --release --example sweep_client
//! ```

use mask_common::config::DesignKind;
use mask_core::{JobPool, PrefixCache};
use maskd::json::Value;
use maskd::wire::{GpuOverrides, JobSpec};
use maskd::{Client, Daemon, DaemonConfig, DaemonHandle};
use std::sync::Arc;

fn spec(design: DesignKind, seed: u64, l2_tlb_entries: usize) -> JobSpec {
    JobSpec {
        tenant: "sweep".to_owned(),
        design,
        apps: vec![("CONS".to_owned(), 2), ("LPS".to_owned(), 2)],
        max_cycles: 5_000,
        warmup_cycles: 1_000,
        seed,
        gpu: "maxwell".to_owned(),
        overrides: GpuOverrides {
            l2_tlb_entries: Some(l2_tlb_entries),
            ..GpuOverrides::default()
        },
    }
}

fn counter(stats: &Value, section: &str, key: &str) -> u64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// A daemon on `store_dir`, its client, and the counter of jobs its pool
/// ran (`hits`: continued from a held simulator).
fn boot(store_dir: &std::path::Path) -> (DaemonHandle, Client, Arc<PrefixCache>) {
    let cfg = DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: Some(store_dir.to_path_buf()),
        ..DaemonConfig::default()
    };
    let pool = JobPool::with_workers(4);
    let runs = Arc::clone(pool.prefix_cache());
    let daemon = Daemon::spawn_with_pool(cfg, pool).expect("boot daemon");
    let client = Client::new(daemon.addr().to_string());
    (daemon, client, runs)
}

fn main() {
    let store_dir = std::env::temp_dir().join(format!("maskd-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let (daemon, client, runs) = boot(&store_dir);
    println!(
        "daemon listening on {} (store: {})\n",
        daemon.addr(),
        store_dir.display()
    );

    let designs = [DesignKind::SharedTlb, DesignKind::Mask, DesignKind::Ideal];
    let tlb_sizes = [256usize, 512];
    let seeds = [7u64, 8];

    let mut points: Vec<JobSpec> = Vec::new();
    for &design in &designs {
        for &entries in &tlb_sizes {
            for &seed in &seeds {
                points.push(spec(design, seed, entries));
            }
        }
    }

    println!(
        "{:<10} {:>8} {:>6} {:>12} {:>10}",
        "design", "L2 TLB", "seed", "cycles", "oracle"
    );
    let mut ids = Vec::new();
    for point in &points {
        let submitted = client.submit(point).expect("submit");
        ids.push(submitted.id);
    }
    for (point, id) in points.iter().zip(&ids) {
        let reply = client.wait(*id).expect("wait");
        let served = reply.result.expect("done job has a result");
        // The oracle: same job, run directly in this process.
        let local = point.to_sim_job().run();
        assert_eq!(served, local, "served result must be bit-identical");
        println!(
            "{:<10} {:>8} {:>6} {:>12} {:>10}",
            point.design.label(),
            point.overrides.l2_tlb_entries.unwrap_or(0),
            point.seed,
            served.cycles,
            "exact"
        );
    }

    // An extending chain: one job, each link 700 cycles longer than the
    // one before, submitted after it finished. At a 2 000-cycle epoch two
    // of the five extensions cross an epoch boundary.
    let continued_before = runs.stats().hits;
    for link in 0..6u64 {
        let mut point = spec(DesignKind::Mask, 9, 512);
        point.max_cycles += 700 * link;
        point.overrides.epoch_cycles = Some(2_000);
        let submitted = client.submit(&point).expect("submit");
        let served = client.wait(submitted.id).expect("wait").result;
        assert_eq!(
            served,
            Some(point.to_sim_job().run()),
            "served link {link} must be bit-identical"
        );
    }
    let continued = runs.stats().hits - continued_before;
    assert_eq!(continued, 5, "every link after the first continues");
    println!(
        "\nextending chain: 6 links served, {continued} run on from the held simulator, all exact"
    );

    let before = client.store_stats().expect("stats");
    let simulated = counter(&before, "scheduler", "simulated_jobs");
    daemon.shutdown();
    println!(
        "\nfirst pass: {simulated} jobs dispatched to the pool; rebooting on the store and resubmitting the full sweep..."
    );

    // Second pass, on a new daemon: every point is already in the store on
    // disk, and nothing of the first daemon is left in memory.
    let (daemon, client, _) = boot(&store_dir);
    let mut hits = 0;
    for point in &points {
        let submitted = client.submit(point).expect("resubmit");
        assert!(submitted.store_hit, "resubmission must be a store hit");
        assert_eq!(submitted.status, "done");
        hits += 1;
    }
    let after = client.store_stats().expect("stats");
    assert_eq!(
        counter(&after, "scheduler", "simulated_jobs"),
        0,
        "resubmissions must not simulate anything"
    );
    let disk_loads = counter(&after, "store", "disk_loads");
    assert_eq!(
        disk_loads,
        points.len() as u64,
        "every resubmission must be loaded from disk"
    );
    println!(
        "second pass: {hits}/{} store hits, {disk_loads} loaded from disk, 0 new simulations \
         (store: {} results in one log, {} full scan)",
        points.len(),
        counter(&after, "store", "disk_entries"),
        counter(&after, "store", "dir_scans"),
    );

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
    println!("\nall served results byte-identical to in-process runs");
}
