//! Driving `GpuSim` directly: the repetition the serial workloads time,
//! and the `gpu.` probes every workload runs on its characteristic
//! simulation in a traced run.

use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use mask_common::config::{DesignKind, SimConfig};
use mask_common::snapshot::PrefixKey;
use mask_common::stats::SimStats;
use mask_gpu::{AppSpec, GpuSim};
use mask_workloads::app_by_name;
use std::time::Instant;

/// One simulation: machine, placement and length.
#[derive(Clone, Debug)]
pub struct SimCase {
    pub cfg: SimConfig,
    pub specs: Vec<AppSpec>,
    pub apps: [&'static str; 2],
    pub cycles: u64,
}

impl SimCase {
    /// Two applications on `cores_each` SMs apiece under MASK.
    ///
    /// # Panics
    ///
    /// Panics on an application name the workload crate does not know.
    pub fn pair(
        apps: [&'static str; 2],
        cores_each: usize,
        warps_per_core: usize,
        cycles: u64,
        seed: u64,
    ) -> SimCase {
        let mut cfg = SimConfig::new(DesignKind::Mask)
            .with_max_cycles(cycles)
            .with_seed(seed);
        cfg.gpu.n_cores = 2 * cores_each;
        cfg.gpu.warps_per_core = warps_per_core;
        let specs = apps
            .iter()
            .map(|name| AppSpec {
                profile: app_by_name(name).unwrap_or_else(|| panic!("unknown application {name}")),
                n_cores: cores_each,
            })
            .collect();
        SimCase {
            cfg,
            specs,
            apps,
            cycles,
        }
    }

    /// Where the snapshot probe cuts the run: the first epoch boundary, or
    /// the midpoint of a run too short to reach it. Both are epoch-safe.
    pub fn snapshot_cycle(&self) -> u64 {
        100_000.min(self.cycles / 2)
    }
}

/// Repetitions with cycle-skipping off, and as many with it on, behind
/// `gpu.skip_off_ratio`.
const SKIP_PROBE_PAIRS: usize = 3;

/// Number of `run` calls a traced repetition is cut into.
pub const SLICES: u64 = 10;

/// One untraced repetition: build, run, synchronise statistics.
pub fn rep(case: &SimCase) -> (f64, SimStats) {
    rep_with_skip(case, true)
}

/// [`rep`] with idle cycle-skipping as given (on is the simulator's default).
fn rep_with_skip(case: &SimCase, cycle_skip: bool) -> (f64, SimStats) {
    let t0 = Instant::now();
    let mut sim = GpuSim::new(&case.cfg, &case.specs);
    sim.set_cycle_skip(cycle_skip);
    sim.run(case.cycles);
    sim.sync_stats();
    let secs = t0.elapsed().as_secs_f64();
    (secs, sim.stats().clone())
}

/// Host times of the parts of one traced repetition.
#[derive(Clone, Debug)]
pub struct TracedRep {
    pub secs: f64,
    pub new_s: f64,
    pub sync_s: f64,
    pub slice_s: Vec<f64>,
    pub stats: SimStats,
}

/// The same repetition with a span around every call into the simulator.
pub fn traced_rep(case: &SimCase, tracer: &mut Tracer, group: u64) -> TracedRep {
    let rep = tracer.begin("rep", None, group);
    let (mut sim, new_s) = tracer.scope("gpu.new", Some(rep), group, || {
        GpuSim::new(&case.cfg, &case.specs)
    });
    let per_slice = case.cycles / SLICES;
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    for i in 0..SLICES {
        // The last slice takes the remainder so every repetition simulates
        // exactly `cycles`, traced or not.
        let n = if i == SLICES - 1 {
            case.cycles - per_slice * (SLICES - 1)
        } else {
            per_slice
        };
        let ((), s) = tracer.scope("gpu.run.slice", Some(rep), group, || sim.run(n));
        slice_s.push(s);
    }
    let ((), sync_s) = tracer.scope("gpu.sync_stats", Some(rep), group, || sim.sync_stats());
    let secs = tracer.end(rep);
    TracedRep {
        secs,
        new_s,
        sync_s,
        slice_s,
        stats: sim.stats().clone(),
    }
}

/// Encodes a snapshot at [`SimCase::snapshot_cycle`], restores it into a
/// fresh simulator, runs both to the end and checks that the restored run
/// equals the straight-through one. Emits the `gpu.snapshot_*` metrics.
pub fn snapshot_probe(
    case: &SimCase,
    straight: &SimStats,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    report: &mut Report,
) {
    let cut = case.snapshot_cycle();
    let key = PrefixKey(case.cfg.seed);
    let mut sim = GpuSim::new(&case.cfg, &case.specs);
    sim.run(cut);
    let (bytes, encode_s) = tracer.scope("gpu.encode_snapshot", parent, 0, || {
        sim.encode_snapshot(key)
    });
    let mut restored = GpuSim::new(&case.cfg, &case.specs);
    let (outcome, restore_s) = tracer.scope("gpu.restore_snapshot", parent, 0, || {
        restored.restore_snapshot(&bytes, key)
    });
    report.check(outcome.is_ok(), || {
        format!("snapshot at cycle {cut} failed to restore: {outcome:?}")
    });
    if outcome.is_ok() {
        restored.run(case.cycles - cut);
        restored.sync_stats();
        report.check(restored.stats() == straight, || {
            format!("restore at cycle {cut} then run differs from the straight-through run")
        });
    }
    report.layer("gpu.snapshot_bytes", bytes.len() as f64);
    report.layer("gpu.snapshot_encode_ms", encode_s * 1e3);
    report.layer("gpu.snapshot_restore_ms", restore_s * 1e3);
}

/// Sums a per-application counter over the applications of a run.
pub fn sum<A>(apps: &[A], f: impl Fn(&A) -> u64) -> u64 {
    apps.iter().map(f).sum()
}

/// Simulated events of a run: issued instructions plus every access the
/// memory hierarchy counted. Host time per event is the figure that stays
/// comparable when a model change moves the event count.
pub fn events(stats: &SimStats) -> u64 {
    sum(&stats.apps, |a| {
        a.instructions
            + a.l1_tlb.accesses
            + a.l2_tlb.accesses
            + a.walks_completed
            + a.l2_data.accesses
            + a.l2_translation.iter().map(|h| h.accesses).sum::<u64>()
            + a.dram_data.requests
            + a.dram_translation.requests
    })
}

/// FNV-1a of the all-integer statistics block rendered with `{:?}`, cut to
/// 48 bits so that it survives a trip through a JSON double exactly.
pub fn stats_fnv48(stats: &SimStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{stats:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & ((1 << 48) - 1)
}

/// The exact simulated counts of one run of the characteristic case.
pub fn exact_counts(stats: &SimStats, cycles: u64, report: &mut Report) {
    let l2_accesses = sum(&stats.apps, |a| {
        a.l2_data.accesses + a.l2_translation.iter().map(|h| h.accesses).sum::<u64>()
    });
    report.layer(
        "gpu.instructions",
        sum(&stats.apps, |a| a.instructions) as f64,
    );
    report.layer(
        "gpu.stall_cycles",
        sum(&stats.apps, |a| a.stall_cycles) as f64,
    );
    report.layer(
        "gpu.l1_tlb_misses",
        sum(&stats.apps, |a| a.l1_tlb.misses()) as f64,
    );
    report.layer(
        "gpu.l2_tlb_misses",
        sum(&stats.apps, |a| a.l2_tlb.misses()) as f64,
    );
    report.layer(
        "gpu.walks_completed",
        sum(&stats.apps, |a| a.walks_completed) as f64,
    );
    report.layer(
        "gpu.walk_latency_sum",
        sum(&stats.apps, |a| a.walk_latency_sum) as f64,
    );
    report.layer("gpu.l2_accesses", l2_accesses as f64);
    report.layer(
        "gpu.dram_requests",
        sum(&stats.apps, |a| {
            a.dram_data.requests + a.dram_translation.requests
        }) as f64,
    );
    report.layer(
        "gpu.dram_row_hits",
        sum(&stats.apps, |a| {
            a.dram_data.row_hits + a.dram_translation.row_hits
        }) as f64,
    );
    report.layer(
        "gpu.events_per_cycle",
        (events(stats) / cycles.max(1)) as f64,
    );
    report.layer("gpu.stats_fnv", stats_fnv48(stats) as f64);
}

/// The `gpu.` host-time metrics from a set of traced repetitions plus the
/// skip-off and snapshot probes. `reps` must not be empty.
pub fn host_time_metrics(
    case: &SimCase,
    reps: &[TracedRep],
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let stats = &reps[0].stats;
    let rep_s = stats::percentile(
        &reps.iter().map(|r| r.secs).collect::<Vec<_>>(),
        stats::FAST_PERCENTILE,
    );
    let instr = sum(&stats.apps, |a| a.instructions).max(1);
    report.layer("gpu.ns_per_cycle", rep_s * 1e9 / case.cycles as f64);
    report.layer("gpu.ns_per_instr", rep_s * 1e9 / instr as f64);
    report.layer(
        "gpu.ns_per_event",
        rep_s * 1e9 / events(stats).max(1) as f64,
    );
    let med =
        |f: &dyn Fn(&TracedRep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    report.layer("gpu.new_ms", med(&|r| r.new_s) * 1e3);
    report.layer("gpu.sync_stats_us", med(&|r| r.sync_s) * 1e6);
    // Per slice position, the fast decile over repetitions; then the
    // cheapest and dearest position. Their gap is how far the cost of a
    // cycle moves along the simulated timeline.
    let per_slice = case.cycles as f64 / SLICES as f64;
    let by_position: Vec<f64> = (0..SLICES as usize)
        .map(|i| {
            let at_i: Vec<f64> = reps.iter().map(|r| r.slice_s[i]).collect();
            stats::percentile(&at_i, stats::FAST_PERCENTILE) * 1e9 / per_slice
        })
        .collect();
    report.layer(
        "gpu.slice_ns_per_cycle_min",
        by_position.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.layer(
        "gpu.slice_ns_per_cycle_max",
        by_position.iter().copied().fold(0.0, f64::max),
    );

    // Skipping off and on alternate so that both see the same host; the
    // ratio is of each side's fastest repetition.
    let (mut off_s, mut on_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SKIP_PROBE_PAIRS {
        let (secs, s) = rep_with_skip(case, false);
        off_s = off_s.min(secs);
        report.check(&s == stats, || {
            "cycle-skip off changes the simulated statistics".to_owned()
        });
        on_s = on_s.min(rep(case).0);
    }
    report.layer("gpu.skip_off_ratio", off_s / on_s);

    let probe = tracer.begin("snapshot_probe", None, 0);
    snapshot_probe(case, stats, tracer, Some(probe), report);
    tracer.end(probe);
}

/// The two historical instruction checksums (CONS x30, and CONS x15 +
/// LPS x15; MASK, 200 000 cycles, the default seed), which every
/// speed-only change since PR 3 has had to leave alone.
pub fn reference_checksums(report: &mut Report) {
    let run = |specs: &[AppSpec]| {
        let cfg = SimConfig::new(DesignKind::Mask).with_max_cycles(200_000);
        let mut sim = GpuSim::new(&cfg, specs);
        sim.run(200_000);
        sim.sync_stats();
        sum(&sim.stats().apps, |a| a.instructions)
    };
    let app = |name: &str, n_cores| AppSpec {
        profile: app_by_name(name).unwrap_or_else(|| panic!("unknown application {name}")),
        n_cores,
    };
    report.layer("gpu.ref_single_instr", run(&[app("CONS", 30)]) as f64);
    report.layer(
        "gpu.ref_two_app_instr",
        run(&[app("CONS", 15), app("LPS", 15)]) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn traced_and_untraced_repetitions_simulate_the_same_thing() {
        let case = SimCase::pair(["SCAN", "CONS"], 2, 8, 3_007, 11);
        let (_, plain) = rep(&case);
        let mut tracer = Tracer::new(true);
        let traced = traced_rep(&case, &mut tracer, 1);
        assert_eq!(traced.stats, plain);
        assert_eq!(traced.slice_s.len(), SLICES as usize);
        // rep + new + ten slices + sync_stats
        assert_eq!(tracer.len(), 13);
        assert_eq!(stats_fnv48(&plain), stats_fnv48(&traced.stats));
        assert!(stats_fnv48(&plain) < 1 << 48);
        assert!(events(&plain) > 0);

        let mut report = Report::new("serial_2hmr", 11, 1, true, Json::Null);
        host_time_metrics(&case, &[traced], &mut tracer, &mut report);
        exact_counts(&plain, case.cycles, &mut report);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert!(report
            .get("gpu.snapshot_bytes")
            .is_some_and(|m| m.value > 0.0));
    }
}
