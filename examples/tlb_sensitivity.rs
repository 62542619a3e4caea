//! TLB capacity planning: how large must a shared L2 TLB be before
//! hardware thrashing control stops mattering?
//!
//! Sweeps the shared L2 TLB from 64 to 8192 entries for the `CONS_LPS`
//! workload and prints `SharedTLB` vs MASK weighted speedup at each size —
//! the §7.3 sensitivity study. The crossover (MASK's advantage vanishing
//! once the combined working set fits) is the paper's 8192-entry result.
//!
//! ```text
//! cargo run --release --example tlb_sensitivity
//! ```

use mask_core::prelude::*;

fn main() {
    let pair = AppPair {
        a: app_by_name("CONS").expect("known"),
        b: app_by_name("LPS").expect("known"),
    };
    println!("Shared L2 TLB size sweep, CONS_LPS on 30 cores\n");
    println!(
        "{:>8} {:>12} {:>9} {:>12}",
        "entries", "SharedTLB WS", "MASK WS", "MASK gain"
    );
    for entries in [64usize, 256, 512, 1024, 4096, 8192] {
        let mut gpu = GpuConfig::maxwell();
        gpu.tlb.l2_entries = entries;
        let runner = PairRunner::new(RunOptions {
            max_cycles: 250_000,
            gpu,
            ..Default::default()
        });
        let o = runner.run_pairs(&[pair], &[DesignKind::SharedTlb, DesignKind::Mask]);
        let (base, mask) = (&o[0], &o[1]);
        println!(
            "{:>8} {:>12.3} {:>9.3} {:>11.1}%",
            entries,
            base.weighted_speedup,
            mask.weighted_speedup,
            (mask.weighted_speedup / base.weighted_speedup - 1.0) * 100.0
        );
    }
}
