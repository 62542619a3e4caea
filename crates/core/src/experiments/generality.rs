//! Table 4: generality across GPU architectures (§7.3).
//!
//! "we evaluate our two baseline variants (`PWCache` and `SharedTLB`) and MASK
//! on two additional GPU architectures: the GTX480 (Fermi architecture),
//! and an integrated GPU architecture" — average performance normalized to
//! Ideal.

use super::ExpOptions;
use crate::metrics::mean;
use crate::table::Table;
use mask_common::config::{DesignKind, GpuConfig};

/// The architectures of Table 4 plus the main (Maxwell) configuration.
pub fn architectures() -> Vec<(&'static str, GpuConfig)> {
    vec![
        ("Maxwell", GpuConfig::maxwell()),
        ("Fermi", GpuConfig::fermi()),
        ("Integrated", GpuConfig::integrated()),
    ]
}

/// Runs Table 4: every architecture's pair × design grid goes out as one
/// job batch.
pub fn run(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Table 4: average performance normalized to Ideal, per architecture",
        &["architecture", "PWCache", "SharedTLB", "MASK"],
    );
    let designs = [
        DesignKind::Ideal,
        DesignKind::PwCache,
        DesignKind::SharedTlb,
        DesignKind::Mask,
    ];
    let (names, machines): (Vec<_>, Vec<_>) = architectures()
        .into_iter()
        .map(|(name, mut gpu)| {
            gpu.warps_per_core = gpu.warps_per_core.min(opts.warps_per_core.max(8));
            gpu.n_cores = gpu.n_cores.min(opts.n_cores.max(2));
            (name, gpu)
        })
        .unzip();
    let mixes: Vec<_> = opts
        .pressured_pairs()
        .iter()
        .map(|p| vec![p.a, p.b])
        .collect();
    let outcomes = opts.runner().run_grid(&machines, &mixes, &designs);
    for (name, arch) in names
        .into_iter()
        .zip(outcomes.chunks(mixes.len() * designs.len()))
    {
        let mut norm = [Vec::new(), Vec::new(), Vec::new()];
        for chunk in arch.chunks(designs.len()) {
            let ideal = chunk[0].weighted_speedup;
            if ideal <= 0.0 {
                continue;
            }
            for i in 0..3 {
                norm[i].push(chunk[i + 1].weighted_speedup / ideal);
            }
        }
        t.row_f64(name, &norm.map(mean));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_presets_differ() {
        let archs = architectures();
        assert_eq!(archs.len(), 3);
        assert!(
            archs[1].1.n_cores < archs[0].1.n_cores,
            "Fermi has fewer cores"
        );
        assert!(
            archs[2].1.dram.channels < archs[0].1.dram.channels,
            "integrated is narrower"
        );
    }
}
