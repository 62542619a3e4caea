//! Walk inspector: profile one application's address-translation pressure.
//!
//! Runs a single benchmark alone on the `SharedTLB` baseline and prints the
//! full translation profile the paper's §4 analysis is built on: TLB miss
//! rates, concurrent page walks (Fig. 5), warps stalled per miss (Fig. 6),
//! per-walk-level L2 cache hit rates (§4.3), and DRAM behaviour by request
//! class (Figs. 8–9).
//!
//! ```text
//! cargo run --release --example walk_inspector -- SCAN
//! ```

use mask_core::prelude::*;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "CONS".to_string());
    let Some(profile) = app_by_name(&name) else {
        eprintln!("unknown benchmark {name:?}; available:");
        for a in all_apps() {
            eprint!(" {}", a.name);
        }
        eprintln!();
        std::process::exit(1);
    };
    let runner = PairRunner::new(RunOptions {
        max_cycles: 250_000,
        ..Default::default()
    });
    let stats = runner.run_apps(
        DesignKind::SharedTlb,
        &[AppSpec {
            profile,
            n_cores: 30,
        }],
    );
    let a = &stats.apps[0];

    println!(
        "=== {} alone on 30 cores (SharedTLB baseline) ===\n",
        profile.name
    );
    println!("IPC                          {:>10.3}", a.ipc());
    println!("memory instructions          {:>10}", a.mem_instructions);
    println!(
        "L1 TLB miss rate             {:>10.3}",
        a.l1_tlb.miss_rate()
    );
    println!(
        "L2 TLB miss rate             {:>10.3}",
        a.l2_tlb.miss_rate()
    );
    println!("page walks completed         {:>10}", a.walks_completed);
    println!(
        "avg page-walk latency        {:>10.0} cycles",
        a.avg_walk_latency()
    );
    println!(
        "avg concurrent walks (Fig.5) {:>10.1}",
        a.avg_concurrent_walks()
    );
    println!(
        "max concurrent walks         {:>10}",
        a.walk_concurrency_max
    );
    println!(
        "warps stalled/miss (Fig.6)   {:>10.1}",
        a.avg_warps_stalled_per_miss()
    );
    println!("max warps stalled on a miss  {:>10}", a.stalled_warps_max);
    println!();
    println!(
        "L2 cache hit rate, data      {:>10.3}",
        a.l2_data.hit_rate()
    );
    for level in 1..=4u8 {
        let l = mask_common::req::WalkLevel::new(level);
        println!(
            "L2 cache hit rate, walk L{}   {:>10.3}  ({} probes)",
            level,
            a.l2_translation[l.index()].hit_rate(),
            a.l2_translation[l.index()].accesses
        );
    }
    println!();
    println!(
        "DRAM latency: data {:.0} cy / translation {:.0} cy;  row-hit rates {:.2} / {:.2}",
        a.dram_data.avg_latency(),
        a.dram_translation.avg_latency(),
        a.dram_data.row_hit_rate(),
        a.dram_translation.row_hit_rate()
    );
    println!(
        "DRAM bandwidth share: translation {:.1}% of utilized",
        stats.translation_bandwidth_share() * 100.0
    );
}
