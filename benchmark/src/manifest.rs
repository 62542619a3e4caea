//! The benchmark's fixed vocabulary: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` is generated from
//! these tables (`maskbench manifest`), so the file the driver reads and
//! the names the workloads emit cannot drift apart.
//!
//! A metric is *portable* when it is measured, and means something, on
//! every workload. The driver's contract has no per-workload metric lists,
//! so `BENCHMARK.json` carries exactly the portable ones; the others are
//! reported by the one workload that measures them, appear only in the
//! result files, and are gated by `maskbench compare`.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn from_label(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SERIAL_2HMR: &str = "serial_2hmr";
pub const SERIAL_0HMR: &str = "serial_0hmr";
pub const HEADLINE_SWEEP: &str = "headline_sweep";
pub const MASKD_MIX: &str = "maskd_mix";

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: SERIAL_2HMR,
        why: "GpuSim driven directly on SCAN+CONS, the translation-bound case: TLBs, walker, L2 and DRAM do most of the work, so a memory-path change must show here",
    },
    WorkloadDef {
        name: SERIAL_0HMR,
        why: "Same harness on NW+HS, the issue-bound case: memory structures are ticked but idle, so an issue-stage win shows here and a translation-path win must not",
    },
    WorkloadDef {
        name: HEADLINE_SWEEP,
        why: "The Fig. 11 pair x design sweep through the job engine on 2 workers: planning, dedup, baseline cache and prefix snapshots that nothing shares; source of the paper-error figure",
    },
    WorkloadDef {
        name: MASKD_MIX,
        why: "Closed-loop clients against an in-process maskd: cold jobs, prefix-warm jobs and store hits use the same store and codec three ways, so a read gain that costs writes shows",
    },
];

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
    pub portable: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    portable: bool,
) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        better,
        bound,
        portable,
    }
}

/// Bound of every host-time metric: the contract's cap. The reference host
/// slows for minutes at a time, so runs 20 seconds long differ by a tenth
/// and more with nothing changed (see RESULTS.md); no tighter bound holds.
const HOST_TIME_BOUND: f64 = 0.25;

pub const END_TO_END: [EndToEndDef; 8] = [
    e2e("setup_s", "s", Better::Lower, HOST_TIME_BOUND, true),
    e2e(
        "sim_cycles_per_s",
        "cycles/s",
        Better::Higher,
        HOST_TIME_BOUND,
        true,
    ),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, true),
    e2e(
        "cold_latency_ms_p50",
        "ms",
        Better::Lower,
        HOST_TIME_BOUND,
        false,
    ),
    e2e(
        "warm_latency_ms_p50",
        "ms",
        Better::Lower,
        HOST_TIME_BOUND,
        false,
    ),
    e2e(
        "hit_latency_ms_p50",
        "ms",
        Better::Lower,
        HOST_TIME_BOUND,
        false,
    ),
    e2e("failed_ops_pct", "%", Better::Lower, 0.0, false),
    e2e("paper_headline_err_pp", "pp", Better::Lower, 0.0, false),
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub portable: bool,
    /// Simulated or counted, so two runs of one commit agree to the digit.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        portable: true,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        portable: true,
        exact: true,
    }
}

/// A metric only the workload named above it in the table measures.
const fn local(mut def: LayerDef) -> LayerDef {
    def.portable = false;
    def
}

use Better::{Higher, Lower};

pub const PER_LAYER: [LayerDef; 102] = [
    // gpu: the workload's characteristic simulation driven directly.
    timed("gpu.ns_per_cycle", "ns", Lower),
    timed("gpu.ns_per_instr", "ns", Lower),
    timed("gpu.ns_per_event", "ns", Lower),
    timed("gpu.new_ms", "ms", Lower),
    timed("gpu.sync_stats_us", "us", Lower),
    timed("gpu.slice_ns_per_cycle_min", "ns", Lower),
    timed("gpu.slice_ns_per_cycle_max", "ns", Lower),
    timed("gpu.skip_off_ratio", "ratio", Lower),
    exact("gpu.snapshot_bytes", "bytes", Lower),
    timed("gpu.snapshot_encode_ms", "ms", Lower),
    timed("gpu.snapshot_restore_ms", "ms", Lower),
    exact("gpu.instructions", "count", Higher),
    exact("gpu.stall_cycles", "count", Lower),
    exact("gpu.l1_tlb_misses", "count", Lower),
    exact("gpu.l2_tlb_misses", "count", Lower),
    exact("gpu.walks_completed", "count", Lower),
    exact("gpu.walk_latency_sum", "cycles", Lower),
    exact("gpu.l2_accesses", "count", Lower),
    exact("gpu.dram_requests", "count", Lower),
    exact("gpu.dram_row_hits", "count", Higher),
    exact("gpu.events_per_cycle", "count", Lower),
    exact("gpu.stats_fnv", "hash48", Lower),
    // serial_2hmr: the historical instruction checksums.
    local(exact("gpu.ref_single_instr", "count", Higher)),
    local(exact("gpu.ref_two_app_instr", "count", Higher)),
    // The trace generators of the workload's two applications.
    timed("workloads.next_op_ns", "ns", Lower),
    // serial_2hmr: the components, each probed alone on seeded streams
    // that do not depend on the workload.
    local(timed("pagetable.map_ns", "ns", Lower)),
    local(timed("pagetable.translate_ns", "ns", Lower)),
    local(timed("pagetable.walk_line_ns", "ns", Lower)),
    local(timed("tlb.l1_probe_ns", "ns", Lower)),
    local(timed("tlb.l2_probe_ns", "ns", Lower)),
    local(timed("tlb.l2_fill_ns", "ns", Lower)),
    local(timed("cache.l2_busy_cycle_ns", "ns", Lower)),
    local(timed("cache.l2_idle_tick_ns", "ns", Lower)),
    local(timed("dram.busy_cycle_ns", "ns", Lower)),
    local(timed("dram.idle_tick_ns", "ns", Lower)),
    // core: the engine probed on the workload's characteristic pair.
    timed("core.subset_wall_w1_s", "s", Lower),
    timed("core.subset_wall_w2_s", "s", Lower),
    timed("core.worker_scaling_2w", "ratio", Higher),
    timed("core.prefix_off_ratio", "ratio", Higher),
    timed("core.prefix_sweep_speedup", "ratio", Higher),
    // headline_sweep: engine counts of a pass, read from its pool
    // (`core.prefix_snapshots` also on maskd_mix, from the daemon's pool).
    local(exact("core.jobs_submitted", "count", Lower)),
    local(exact("core.jobs_simulated", "count", Lower)),
    local(exact("core.baseline_hits", "count", Higher)),
    local(exact("core.baseline_misses", "count", Lower)),
    local(exact("core.prefix_snapshots", "count", Lower)),
    local(exact("core.prefix_reused", "count", Higher)),
    local(exact("core.sim_cycles_total", "cycles", Lower)),
    // headline_sweep: planning costs, and the simulated headline.
    local(timed("core.dedup_us_per_job", "us", Lower)),
    local(timed("core.job_key_us", "us", Lower)),
    local(timed("core.prefix_key_us", "us", Lower)),
    local(exact("core.paper_ws_gain_pct", "%", Higher)),
    local(exact("core.paper_ideal_shortfall_pct", "%", Lower)),
    local(exact("core.paper_ipc_gain_pct", "%", Higher)),
    local(exact("core.paper_unfairness_red_pct", "%", Higher)),
    local(exact("core.ws_gain_pct_0hmr", "%", Higher)),
    local(exact("core.ws_gain_pct_1hmr", "%", Higher)),
    local(exact("core.ws_gain_pct_2hmr", "%", Higher)),
    // serial_2hmr: the two intra-run parallelism axes.
    local(timed("core.shards2_speedup", "ratio", Higher)),
    local(timed("core.spec2_speedup", "ratio", Higher)),
    // maskd_mix: daemon counts and client-side spans of the main run, and
    // the daemon's parts probed alone.
    local(exact("maskd.simulated_jobs", "count", Lower)),
    local(exact("maskd.store_hits", "count", Higher)),
    local(exact("maskd.disk_loads", "count", Lower)),
    local(exact("maskd.prefix_reused", "count", Higher)),
    local(exact("maskd.store_disk_entries", "count", Lower)),
    local(timed("maskd.cold_submit_ms_p50", "ms", Lower)),
    local(timed("maskd.cold_wait_ms_p50", "ms", Lower)),
    local(timed("maskd.cold_fetch_ms_p50", "ms", Lower)),
    local(timed("maskd.warm_submit_ms_p50", "ms", Lower)),
    local(timed("maskd.warm_wait_ms_p50", "ms", Lower)),
    local(timed("maskd.warm_fetch_ms_p50", "ms", Lower)),
    local(timed("maskd.hit_submit_ms_p50", "ms", Lower)),
    local(timed("maskd.hit_fetch_ms_p50", "ms", Lower)),
    local(timed("maskd.cold_latency_ms_p90", "ms", Lower)),
    local(timed("maskd.warm_latency_ms_p90", "ms", Lower)),
    local(timed("maskd.hit_latency_ms_tail", "ms", Lower)),
    local(timed("maskd.overhead_ms_p50", "ms", Lower)),
    local(timed("maskd.boot_ms_n512", "ms", Lower)),
    local(timed("maskd.healthz_rtt_us_p50", "us", Lower)),
    local(timed("maskd.json_parse_mb_s", "MB/s", Higher)),
    local(timed("maskd.json_serialize_mb_s", "MB/s", Higher)),
    local(timed("maskd.stats_to_value_us", "us", Lower)),
    local(timed("maskd.stats_from_value_us", "us", Lower)),
    local(timed("maskd.store_insert_us_n64", "us", Lower)),
    local(timed("maskd.store_insert_us_n512", "us", Lower)),
    local(timed("maskd.store_get_us_n64", "us", Lower)),
    local(timed("maskd.store_get_us_n512", "us", Lower)),
    local(timed("maskd.queue_cycle_ns", "ns", Lower)),
    // bench: the cost of measuring, and the sample counts.
    timed("bench.trace_overhead_pct", "%", Lower),
    // Counts, but of what fitted into the time budget: not exact.
    timed("bench.spans", "count", Lower),
    timed("bench.timer_ns", "ns", Lower),
    timed("bench.samples", "count", Higher),
    local(exact("bench.cold_jobs", "count", Higher)),
    local(exact("bench.warm_jobs", "count", Higher)),
    local(exact("bench.hit_requests", "count", Higher)),
    local(exact("bench.sweep_pairs", "count", Higher)),
    local(exact("bench.cycles_per_rep", "cycles", Higher)),
    // The median beside the fast-decile figure `sim_cycles_per_s` is read
    // at: host time of one repetition or one pass.
    local(timed("bench.unit_ms_p50", "ms", Lower)),
    local(timed("bench.cpu_s", "s", Lower)),
    local(timed("bench.timed_wall_s", "s", Lower)),
    local(timed("bench.setup_min_s", "s", Lower)),
    local(timed("bench.setup_max_s", "s", Lower)),
    local(timed("bench.checks_s", "s", Lower)),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Seconds one driver run measures; also the default of `maskbench run`.
pub const RUN_SECONDS: u64 = 20;

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.portable)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .filter(|m| m.portable)
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64, "_.-") && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(well_formed(m.name, 64, "_.-") && seen.insert(m.name));
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for m in &PER_LAYER {
            assert!(
                well_formed(m.name, 64, "_.-") && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(well_formed(m.unit, 16, "_/%.-"), "{}", m.unit);
        }
        assert!(PER_LAYER.iter().filter(|m| m.portable).count() <= 128);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Better::Lower
            && m.portable));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&text).expect("valid JSON"),
            benchmark_json(),
            "regenerate with `maskbench manifest > BENCHMARK.json`"
        );
    }
}
