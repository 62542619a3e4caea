//! Cloud multi-tenancy scenario: four tenants with heterogeneous demands
//! spatially share one GPU (the paper's motivating large-scale-computing
//! use case, §1).
//!
//! Tenants: a graph-analytics job (MUM), a reduction kernel (RED), a
//! physics stencil (HS), and a streaming histogram (HISTO). Compares
//! static hardware partitioning (NVIDIA GRID / AMD `FirePro` style) against
//! the `SharedTLB` baseline and MASK, reporting both throughput and
//! fairness — the two properties a cloud operator has to balance.
//!
//! ```text
//! cargo run --release --example cloud_multitenant
//! ```

use mask_core::prelude::*;

fn main() {
    let tenants = ["MUM", "RED", "HS", "HISTO"];
    let mut gpu = GpuConfig::maxwell();
    gpu.n_cores = 28;
    let opts = RunOptions {
        max_cycles: 250_000,
        gpu,
        ..Default::default()
    };
    let runner = PairRunner::new(opts);

    println!("Four tenants sharing a 28-core GPU (7 cores each)\n");
    println!(
        "{:<10} {:>8} {:>9} {:>9}   per-tenant slowdown vs alone",
        "design", "WS", "IPC(sum)", "unfair"
    );
    let designs = [
        DesignKind::Static,
        DesignKind::SharedTlb,
        DesignKind::Mask,
        DesignKind::Ideal,
    ];
    for design in designs {
        let o = runner
            .run_named(&tenants, design)
            .expect("known benchmarks");
        let slowdowns: Vec<String> = o
            .shared_ipc
            .iter()
            .zip(&o.alone_ipc)
            .zip(&tenants)
            .map(|((s, a), n)| format!("{n}:{:.2}x", if *s > 0.0 { a / s } else { f64::INFINITY }))
            .collect();
        println!(
            "{:<10} {:>8.3} {:>9.2} {:>9.2}   {}",
            design.label(),
            o.weighted_speedup,
            o.ipc_throughput,
            o.unfairness,
            slowdowns.join("  ")
        );
    }
    println!("\nStatic partitioning wastes resources tenants are not using;");
    println!("MASK shares everything while keeping slowdowns balanced.");
}
