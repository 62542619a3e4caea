//! Job identity: what one simulation is ([`SimJob`]), when two are the same
//! ([`JobKey`], the key every result is memoised under), how to run one.

use mask_common::config::{DesignKind, DesignSpec, GpuConfig, SimConfig};
use mask_common::snapshot::{Fnv1a, PrefixKey};
use mask_common::stats::SimStats;
use mask_gpu::{AppSpec, GpuSim};
use std::sync::Arc;

/// One self-contained simulation: a design, an application placement, and
/// a cycle budget. Jobs with equal [`JobKey`]s produce bit-identical
/// statistics and are simulated at most once per
/// [`ResultMemo`](super::ResultMemo): once per process for every pool that
/// shares the process-wide memo.
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
    /// The machine. The placement sizes it: the simulator and the
    /// [`JobKey`] read the placement's core total, not this `n_cores`.
    pub gpu: GpuConfig,
}

/// Canonical deduplication key of a [`SimJob`]: the job that runs.
///
/// Two jobs compare equal exactly when they would simulate the same
/// machine on the same placement for the same cycles. The key holds what
/// the simulator is given, not what the job states: the machine sized by
/// the placement, as its complete `Debug` rendering (so a sensitivity
/// sweep that tweaks any `GpuConfig` knob gets distinct keys), the
/// effective warm-up, and each workload by its parameters (its profile's
/// `Debug`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct JobKey {
    /// The *spec*, not the preset name: two named presets with identical
    /// policy axes would dedup to one simulation, and distinct specs
    /// (e.g. `NoIsolation` vs `SharedTlb`, which differ only in compute
    /// partitioning) never collapse.
    design: DesignSpec,
    apps: Vec<(String, usize)>,
    max_cycles: u64,
    /// The effective warm-up, `min(warmup_cycles, max_cycles / 2)`.
    warmup_cycles: u64,
    seed: u64,
    /// Shared, so a clone of the key (e.g. an index beside the memo) does
    /// not copy the kilobyte rendering.
    gpu: Arc<str>,
}

impl JobKey {
    /// Whether a simulator that ran the job of `held` to its end can run on
    /// to this key's end and give this job's result: the same job in every
    /// ingredient but a larger `max_cycles`, so that both zeroed their
    /// statistics at the same cycle. Compares in place; allocates nothing.
    pub(super) fn extends(&self, held: &JobKey) -> bool {
        self.max_cycles > held.max_cycles
            && self.warmup_cycles == held.warmup_cycles
            && self.seed == held.seed
            && self.design == held.design
            && self.apps == held.apps
            && self.gpu == held.gpu
    }
}

impl SimJob {
    /// The job's canonical deduplication key.
    #[must_use]
    pub fn key(&self) -> JobKey {
        self.key_with(self.max_cycles, self.warmup(), &self.sized_gpu())
    }

    /// The key of this design, placement and seed under the given cycle
    /// budgets and machine ([`SimJob::key`], or a view of it).
    fn key_with(&self, max_cycles: u64, warmup_cycles: u64, gpu: &GpuConfig) -> JobKey {
        JobKey {
            design: self.design.spec(),
            apps: self
                .specs
                .iter()
                .map(|s| (format!("{:?}", s.profile), s.n_cores))
                .collect(),
            max_cycles,
            warmup_cycles,
            seed: self.seed,
            gpu: format!("{gpu:?}").into(),
        }
    }

    /// Runs the simulation to completion and snapshots its statistics,
    /// measured after the warm-up window: the fresh run every other way of
    /// running a job must match.
    #[must_use]
    pub fn run(&self) -> SimStats {
        let mut sim = self.warmed_up();
        self.run_on(&mut sim)
    }

    /// Builds the simulator, runs the warm-up and zeroes the statistics.
    pub(crate) fn warmed_up(&self) -> GpuSim {
        let cfg = SimConfig {
            gpu: self.sized_gpu(),
            design: self.design.spec(),
            max_cycles: self.max_cycles,
            seed: self.seed,
        };
        let mut sim = GpuSim::new(&cfg, &self.specs);
        sim.run(self.warmup());
        sim.reset_stats();
        sim
    }

    /// Runs `sim` on to `max_cycles` and snapshots its statistics. `sim` is
    /// this job's own warmed-up simulator, or the one a job that this job's
    /// key [extends](JobKey::extends) left at that job's end.
    pub(super) fn run_on(&self, sim: &mut GpuSim) -> SimStats {
        sim.run(self.max_cycles - sim.now());
        sim.sync_stats();
        sim.stats().clone()
    }

    /// The warm-up prefix key: FNV-1a over the `Debug` rendering of the
    /// *warm-up view* of [`SimJob::key`] — the same canonical description
    /// of the job, with everything that provably cannot influence the
    /// warm-up normalised away: `max_cycles` is dropped and, when the
    /// warm-up ends before the first epoch boundary, the epoch-end-only
    /// MASK knobs are reset
    /// ([`MaskParams::reset_epoch_end_only`](mask_common::config::MaskParams::reset_epoch_end_only)).
    /// Everything else — any field `GpuConfig` has or gains — is in the key
    /// by construction. Jobs with equal keys reach bit-identical machine
    /// state at the end of warm-up.
    ///
    /// The engine no longer reads it: `benchmark/src/engine.rs` times it
    /// as `core.prefix_key_us`, and ROADMAP item 5 deletes it with that row.
    #[must_use]
    pub fn prefix_key(&self) -> PrefixKey {
        let mut gpu = self.sized_gpu();
        if gpu.mask.epoch_cycles == 0 || self.warmup() < gpu.mask.epoch_cycles {
            gpu.mask.reset_epoch_end_only();
        }
        let view = self.key_with(0, self.warmup(), &gpu);
        let mut h = Fnv1a::new();
        h.write(format!("{view:?}").as_bytes());
        PrefixKey(h.finish())
    }

    /// The effective warm-up this job simulates before it zeroes its
    /// statistics: `warmup_cycles` clamped to at most half of `max_cycles`.
    fn warmup(&self) -> u64 {
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
        // A copy of the stock profile, same name, one parameter changed.
        let mut profile = base.clone();
        profile.specs[0].profile.compute_per_mem += 1;
        for other in [&design, &apps, &seed, &gpu, &profile] {
            assert_ne!(base.key(), other.key());
        }
        // ... and a longer run of the variant never continues the stock
        // job's simulator.
        profile.max_cycles *= 2;
        assert!(!profile.key().extends(&base.key()));
        let mut longer = base.clone();
        longer.max_cycles *= 2;
        assert!(longer.key().extends(&base.key()));
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
        // never reaches the simulator, so it is in neither key.
        let mut resized = base.clone();
        resized.gpu.n_cores += 7;
        assert_eq!(base.prefix_key(), resized.prefix_key());
        assert_eq!(base.key(), resized.key());
    }
}
