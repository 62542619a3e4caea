//! Job identity: what one simulation is ([`SimJob`]), when two are the same
//! ([`JobKey`]), how to run one.

use mask_common::config::{DesignKind, DesignSpec, GpuConfig, SimConfig};
use mask_common::snapshot::{Fnv1a, PrefixKey};
use mask_common::stats::SimStats;
use mask_gpu::{AppSpec, GpuSim};

/// One self-contained simulation: a design, an application placement, and
/// a cycle budget. Jobs with equal [`JobKey`]s produce bit-identical
/// statistics and are simulated at most once per batch (alone-baseline
/// jobs: at most once per *process*, via the
/// [`BaselineCache`](super::BaselineCache)).
#[derive(Clone, Debug)]
pub struct SimJob {
    /// The design to simulate.
    pub design: DesignKind,
    /// Application placement; core counts determine the GPU size.
    pub specs: Vec<AppSpec>,
    /// Total cycles to simulate.
    pub max_cycles: u64,
    /// Warm-up cycles excluded from measurement (clamped to at most half
    /// of `max_cycles`, exactly as the serial runner always did).
    pub warmup_cycles: u64,
    /// Base PRNG seed.
    pub seed: u64,
    /// Machine template (its `n_cores` is overridden by the placement).
    pub gpu: GpuConfig,
}

/// Canonical deduplication key of a [`SimJob`].
///
/// Two jobs compare equal exactly when they would simulate the same
/// machine on the same placement for the same cycles — the machine
/// configuration is folded in via its complete `Debug` rendering, so a
/// sensitivity sweep that tweaks any `GpuConfig` knob gets distinct keys.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct JobKey {
    /// The *spec*, not the preset name: two named presets with identical
    /// policy axes would dedup to one simulation, and distinct specs
    /// (e.g. `NoIsolation` vs `SharedTlb`, which differ only in compute
    /// partitioning) never collapse.
    design: DesignSpec,
    apps: Vec<(&'static str, usize)>,
    max_cycles: u64,
    warmup_cycles: u64,
    seed: u64,
    gpu: String,
}

impl SimJob {
    /// The job's canonical deduplication key.
    #[must_use]
    pub fn key(&self) -> JobKey {
        self.key_with(self.max_cycles, self.warmup_cycles, &self.gpu)
    }

    /// The key of this design, placement and seed under the given cycle
    /// budgets and machine ([`SimJob::key`], or a view of it).
    fn key_with(&self, max_cycles: u64, warmup_cycles: u64, gpu: &GpuConfig) -> JobKey {
        JobKey {
            design: self.design.spec(),
            apps: self
                .specs
                .iter()
                .map(|s| (s.profile.name, s.n_cores))
                .collect(),
            max_cycles,
            warmup_cycles,
            seed: self.seed,
            gpu: format!("{gpu:?}"),
        }
    }

    /// Whether this is an alone-baseline run (a single application), the
    /// class of jobs memoized process-wide.
    #[must_use]
    pub fn is_alone(&self) -> bool {
        self.specs.len() == 1
    }

    /// Runs the simulation to completion and snapshots its statistics,
    /// measured after the warm-up window.
    #[must_use]
    pub fn run(&self) -> SimStats {
        let cfg = SimConfig {
            gpu: self.sized_gpu(),
            design: self.design.spec(),
            max_cycles: self.max_cycles,
            seed: self.seed,
        };
        let mut sim = GpuSim::new(&cfg, &self.specs);
        let warmup = self.warmup_eff();
        sim.run(warmup);
        sim.reset_stats();
        sim.run(self.max_cycles - warmup);
        sim.sync_stats();
        sim.stats().clone()
    }

    /// The warm-up prefix key: FNV-1a over the `Debug` rendering of the
    /// *warm-up view* of [`SimJob::key`] — the same canonical description
    /// of the job, with everything that provably cannot influence the first
    /// `warmup` cycles normalised away: `max_cycles` is dropped, the warm-up
    /// length is the effective one, the machine is sized by the placement
    /// as the simulator is, and, when the warm-up ends before the first
    /// epoch boundary, the epoch-end-only MASK knobs are reset
    /// ([`MaskParams::reset_epoch_end_only`](mask_common::config::MaskParams::reset_epoch_end_only)).
    /// Everything else — any field `GpuConfig` has or gains — is in the key
    /// by construction. Jobs with equal keys reach bit-identical machine
    /// state at the end of warm-up.
    ///
    /// The engine no longer reads it: `benchmark/src/engine.rs` times it
    /// as `core.prefix_key_us`, and ROADMAP item 5 deletes it with that row.
    #[must_use]
    pub fn prefix_key(&self) -> PrefixKey {
        let warmup = self.warmup_eff();
        let mut gpu = self.sized_gpu();
        if gpu.mask.epoch_cycles == 0 || warmup < gpu.mask.epoch_cycles {
            gpu.mask.reset_epoch_end_only();
        }
        let view = self.key_with(0, warmup, &gpu);
        let mut h = Fnv1a::new();
        h.write(format!("{view:?}").as_bytes());
        PrefixKey(h.finish())
    }

    /// The effective warm-up length: clamped to at most half of
    /// `max_cycles`, exactly as the serial runner always did.
    fn warmup_eff(&self) -> u64 {
        self.warmup_cycles.min(self.max_cycles / 2)
    }

    /// The machine this job simulates: the template with `n_cores`
    /// overridden by the placement's total.
    fn sized_gpu(&self) -> GpuConfig {
        let mut gpu = self.gpu.clone();
        gpu.n_cores = self.specs.iter().map(|s| s.n_cores).sum();
        gpu
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use mask_workloads::app_by_name;

    pub(in crate::engine) fn job(design: DesignKind, apps: &[(&str, usize)], seed: u64) -> SimJob {
        let mut gpu = GpuConfig::maxwell();
        gpu.warps_per_core = 16;
        SimJob {
            design,
            specs: apps
                .iter()
                .map(|&(name, n_cores)| AppSpec {
                    profile: app_by_name(name).expect("known app"),
                    n_cores,
                })
                .collect(),
            max_cycles: 4_000,
            warmup_cycles: 1_000,
            seed,
            gpu,
        }
    }

    /// An `n`-job single-axis sweep sharing one warm-up prefix (the varied
    /// knob is epoch-end-only and the warm-up ends before the first
    /// epoch boundary).
    pub(in crate::engine) fn token_sweep(n: usize) -> Vec<SimJob> {
        (0..n)
            .map(|i| {
                let mut j = job(DesignKind::Mask, &[("HISTO", 2), ("GUP", 2)], 9);
                j.gpu.mask.initial_tokens_frac = 0.3 + 0.05 * i as f64;
                j
            })
            .collect()
    }

    #[test]
    fn keys_separate_every_ingredient() {
        let base = job(DesignKind::SharedTlb, &[("GUP", 2)], 1);
        assert_eq!(base.key(), base.clone().key());
        let design = job(DesignKind::Mask, &[("GUP", 2)], 1);
        let apps = job(DesignKind::SharedTlb, &[("GUP", 2), ("HS", 2)], 1);
        let seed = job(DesignKind::SharedTlb, &[("GUP", 2)], 2);
        let mut gpu = base.clone();
        gpu.gpu.tlb.l2_entries /= 2;
        for other in [&design, &apps, &seed, &gpu] {
            assert_ne!(base.key(), other.key());
        }
    }

    #[test]
    fn prefix_keys_share_across_epoch_end_only_knobs() {
        let jobs = token_sweep(3);
        assert_eq!(jobs[0].prefix_key(), jobs[1].prefix_key());
        assert_eq!(jobs[0].prefix_key(), jobs[2].prefix_key());
        // ... but every JobKey stays distinct: no result deduplication.
        assert_ne!(jobs[0].key(), jobs[1].key());
        // Prefix-shaping ingredients split the key.
        let mut seed = jobs[0].clone();
        seed.seed += 1;
        let mut warm = jobs[0].clone();
        warm.warmup_cycles += 500;
        let mut machine = jobs[0].clone();
        machine.gpu.tlb.l2_entries /= 2;
        let mut epoch = jobs[0].clone();
        epoch.gpu.mask.epoch_cycles = 1; // warm-up now crosses boundaries
        for other in [&seed, &warm, &machine, &epoch] {
            assert_ne!(jobs[0].prefix_key(), other.prefix_key());
        }
        // Once the warm-up crosses an epoch boundary, epoch-end-only
        // knobs shape the prefix and must split the key.
        let mut a = jobs[0].clone();
        a.warmup_cycles = 2_000;
        a.max_cycles = 4_000;
        a.gpu.mask.epoch_cycles = 1_000;
        let mut b = a.clone();
        b.gpu.mask.initial_tokens_frac = 0.9;
        assert_ne!(a.prefix_key(), b.prefix_key());
    }

    #[test]
    fn prefix_keys_split_on_any_machine_leaf_but_not_the_template_core_count() {
        let base = token_sweep(1).remove(0);
        // One leaf per `GpuConfig` sub-struct.
        let tweaks: [fn(&mut GpuConfig); 6] = [
            |g| g.tlb.l2_ports += 1,
            |g| g.pwc.latency += 1,
            |g| g.l1_cache.mshrs += 1,
            |g| g.dram.t_rp += 1,
            |g| g.dram.sched = mask_common::config::MemSchedKind::GpuBatch,
            |g| g.page_fault_latency += 1,
        ];
        for (i, tweak) in tweaks.into_iter().enumerate() {
            let mut other = base.clone();
            tweak(&mut other.gpu);
            assert_ne!(base.prefix_key(), other.prefix_key(), "tweak {i}");
        }
        // The placement sizes the machine: the template's own `n_cores`
        // never reaches the simulator, so it is not in the prefix key.
        let mut resized = base.clone();
        resized.gpu.n_cores += 7;
        assert_eq!(base.prefix_key(), resized.prefix_key());
        assert_ne!(base.key(), resized.key());
    }
}
