//! The `core.` probes: the job engine driven on one pair at the workload's
//! operating point, with private caches so that every pass does the same
//! work. Nothing here reaches below `mask_core`'s crate-root re-exports.

use crate::report::Report;
use crate::trace::Tracer;
use mask_common::config::{DesignKind, JobOptions};
use mask_core::experiments::ExpOptions;
use mask_core::{BaselineCache, JobPool, PairRunner, PrefixCache, SimJob};
use mask_gpu::AppSpec;
use mask_workloads::{app_by_name, paper_pairs};
use std::hint::black_box;
use std::time::Instant;

/// The three designs the headline compares.
pub const DESIGNS: [DesignKind; 3] = [DesignKind::SharedTlb, DesignKind::Mask, DesignKind::Ideal];

/// Experiment options on `workers` engine workers.
pub fn exp_options(
    (cycles, n_cores, warps_per_core): (u64, usize, usize),
    pair_limit: usize,
    seed: u64,
    workers: usize,
) -> ExpOptions {
    ExpOptions {
        cycles,
        n_cores,
        warps_per_core,
        pair_limit,
        seed,
        jobs: JobOptions::with_workers(workers),
    }
}

/// A pool that shares nothing with the process-wide caches.
pub fn private_pool(workers: usize) -> JobPool {
    JobPool::with_workers(workers)
        .with_cache(BaselineCache::new())
        .with_prefix_cache(PrefixCache::in_memory())
}

/// Where the engine is probed: one paper pair on a machine of the
/// workload's size, for `cycles` cycles per job.
#[derive(Clone, Debug)]
pub struct EnginePoint {
    pub apps: [&'static str; 2],
    pub n_cores: usize,
    pub warps_per_core: usize,
    pub cycles: u64,
    pub seed: u64,
}

impl EnginePoint {
    fn options(&self, workers: usize) -> ExpOptions {
        exp_options(
            (self.cycles, self.n_cores, self.warps_per_core),
            1,
            self.seed,
            workers,
        )
    }

    /// The shared run of the pair under MASK, as the engine would plan it.
    pub fn job(&self, max_cycles: u64, warmup_cycles: u64) -> SimJob {
        let run = self.options(1).run_options();
        let half = self.n_cores / 2;
        SimJob {
            design: DesignKind::Mask,
            specs: self
                .apps
                .iter()
                .zip([half, self.n_cores - half])
                .map(|(name, n_cores)| AppSpec {
                    profile: app_by_name(name)
                        .unwrap_or_else(|| panic!("unknown application {name}")),
                    n_cores,
                })
                .collect(),
            max_cycles,
            warmup_cycles,
            seed: self.seed,
            gpu: run.gpu,
        }
    }
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    tracer.scope(name, None, 0, f)
}

/// Runs the engine on the point's pair and emits the `core.` ratios that
/// depend on where it is probed.
pub fn probe(point: &EnginePoint, tracer: &mut Tracer, report: &mut Report) {
    let pair = paper_pairs()
        .into_iter()
        .find(|p| [p.a.name, p.b.name] == point.apps)
        .unwrap_or_else(|| panic!("{:?} is not a paper pair", point.apps));
    // The pair under three designs: 3 shared runs and 6 alone baselines.
    let subset = |workers: usize, reuse: bool| {
        let pool = private_pool(workers).with_prefix_reuse(reuse);
        PairRunner::with_pool(point.options(workers).run_options(), pool)
            .run_pairs(std::slice::from_ref(&pair), &DESIGNS)
    };
    let (w1, w1_s) = timed(tracer, "core.subset.w1", || subset(1, true));
    let (w2, w2_s) = timed(tracer, "core.subset.w2", || subset(2, true));
    let (off, off_s) = timed(tracer, "core.subset.prefix_off", || subset(1, false));
    report.check(w1 == w2, || {
        "pair outcomes differ between 1 and 2 workers".to_owned()
    });
    report.check(w1 == off, || {
        "pair outcomes differ with prefix reuse off".to_owned()
    });
    report.layer("core.subset_wall_w1_s", w1_s);
    report.layer("core.subset_wall_w2_s", w2_s);
    report.layer("core.worker_scaling_2w", w1_s / w2_s);
    // Nothing in this batch shares a warm-up, so this ratio is the price
    // of the prefix machinery (one snapshot encode per job) when it
    // cannot pay off: below 1.0 means switching it off is faster.
    report.layer("core.prefix_off_ratio", off_s / w1_s);

    // Six jobs that differ only in length share one warm-up prefix: the
    // case the prefix cache exists for, and the shape of the daemon
    // workload's warm phase.
    let sweep: Vec<SimJob> = (1..=6)
        .map(|i| point.job(point.cycles + 16 * i, point.cycles / 2))
        .collect();
    let (cold, cold_s) = timed(tracer, "core.prefix_sweep.off", || {
        private_pool(1).with_prefix_reuse(false).run_batch(&sweep)
    });
    let (warm, warm_s) = timed(tracer, "core.prefix_sweep.on", || {
        private_pool(1).run_batch(&sweep)
    });
    report.check(cold == warm, || {
        "prefix reuse changes simulated results".to_owned()
    });
    report.layer("core.prefix_sweep_speedup", cold_s / warm_s);
}

/// The costs of planning a batch, which do not depend on what the jobs
/// simulate: `core.dedup_us_per_job`, `core.job_key_us`,
/// `core.prefix_key_us`.
pub fn planning_probe(point: &EnginePoint, report: &mut Report) {
    // 256 submissions of one short job cost one simulation plus 255 trips
    // through planning and scatter; a batch of one isolates the former.
    let tiny = point.job(1_000, 0);
    let clones = vec![tiny.clone(); 256];
    let t0 = Instant::now();
    let one = private_pool(1).run_batch(std::slice::from_ref(&tiny));
    let one_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let many = private_pool(1).run_batch(&clones);
    let many_s = t1.elapsed().as_secs_f64();
    report.check(many.iter().all(|s| *s == one[0]), || {
        "deduplicated submissions returned different results".to_owned()
    });
    report.layer(
        "core.dedup_us_per_job",
        (many_s - one_s).max(0.0) * 1e6 / 255.0,
    );

    const KEY_CALLS: u32 = 2_000;
    let job = point.job(point.cycles, point.cycles / 2);
    let t2 = Instant::now();
    for _ in 0..KEY_CALLS {
        black_box(black_box(&job).key());
    }
    report.layer(
        "core.job_key_us",
        t2.elapsed().as_secs_f64() * 1e6 / f64::from(KEY_CALLS),
    );
    let t3 = Instant::now();
    for _ in 0..KEY_CALLS {
        black_box(black_box(&job).prefix_key());
    }
    report.layer(
        "core.prefix_key_us",
        t3.elapsed().as_secs_f64() * 1e6 / f64::from(KEY_CALLS),
    );
}

/// The two intra-run parallelism axes on the case they exist for: one
/// long run that `MASK_JOBS` cannot split. They are reached only through
/// their environment variables on a `JobPool::from_env()` batch, set here
/// and nowhere else, and removed again before returning. Must be called
/// while no other thread of the process is running.
pub fn axis_speedups(job: &SimJob, tracer: &mut Tracer, report: &mut Report) {
    let mut run = |name: &'static str, axis: Option<&str>| {
        std::env::set_var("MASK_JOBS", "1");
        if let Some(var) = axis {
            std::env::set_var(var, "2");
        }
        let out = timed(tracer, name, || {
            JobPool::from_env()
                .with_cache(BaselineCache::new())
                .with_prefix_cache(PrefixCache::in_memory())
                .run_batch(std::slice::from_ref(job))
        });
        if let Some(var) = axis {
            std::env::remove_var(var);
        }
        std::env::remove_var("MASK_JOBS");
        out
    };
    let (serial, serial_s) = run("core.axis.serial", None);
    let (sharded, shards_s) = run("core.axis.shards2", Some("MASK_SM_SHARDS"));
    let (speculated, spec_s) = run("core.axis.spec2", Some("MASK_SPEC_SEGMENTS"));
    report.check(serial == sharded, || {
        "MASK_SM_SHARDS=2 changes simulated results".to_owned()
    });
    report.check(serial == speculated, || {
        "MASK_SPEC_SEGMENTS=2 changes simulated results".to_owned()
    });
    report.layer("core.shards2_speedup", serial_s / shards_s);
    report.layer("core.spec2_speedup", serial_s / spec_s);
}
