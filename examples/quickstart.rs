//! Quickstart: share a GPU between two applications and compare designs.
//!
//! Runs the `CONS_LPS` workload (a TLB-thrashing scatter kernel next to a
//! TLB-friendly stencil kernel) under the `SharedTLB` baseline, full MASK,
//! and the Ideal TLB, then prints weighted speedup, per-app IPC, and
//! unfairness for each.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mask_core::prelude::*;

fn main() {
    // 30-core Maxwell-like GPU (Table 1), 150K measured cycles after a
    // 100K-cycle warm-up. Raise max_cycles for higher fidelity.
    let opts = RunOptions {
        max_cycles: 250_000,
        ..Default::default()
    };
    let runner = PairRunner::new(opts);
    let pair = AppPair {
        a: app_by_name("CONS").expect("benchmark exists"),
        b: app_by_name("LPS").expect("benchmark exists"),
    };
    let designs = [DesignKind::SharedTlb, DesignKind::Mask, DesignKind::Ideal];

    println!("CONS + LPS sharing a 30-core GPU (15 cores each)\n");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "design", "WS", "IPC(sum)", "unfair", "IPC(CONS)", "IPC(LPS)"
    );
    for (design, o) in designs.iter().zip(runner.run_pairs(&[pair], &designs)) {
        println!(
            "{:<10} {:>9.3} {:>9.2} {:>9.2} {:>10.2} {:>10.2}",
            design.label(),
            o.weighted_speedup,
            o.ipc_throughput,
            o.unfairness,
            o.shared_ipc[0],
            o.shared_ipc[1],
        );
    }
    println!("\nMASK recovers translation throughput lost to shared-TLB");
    println!("contention; Ideal shows the no-translation upper bound.");
}
