//! Wire representation of jobs and results.
//!
//! This module is the daemon's single source of truth for how a [`SimJob`]
//! and a [`SimStats`] cross the network. Two properties carry the
//! determinism contract (DESIGN.md §15):
//!
//! * **Exactness.** Every statistic the engine produces is an integer
//!   (`u64`/`usize`/nested counter structs), and the [`crate::json`] layer
//!   only ships integers — so `stats_from_value(stats_to_value(s)) == s`
//!   holds bit for bit, and a served result can be compared with `==`
//!   against a local [`JobPool`](mask_core::JobPool) run.
//! * **Closed job vocabulary.** A job spec names a design by its preset
//!   label, applications by their workload names, and the machine by a
//!   preset (`maxwell`/`fermi`/`integrated`) plus a small set of *integer*
//!   overrides. Knobs that are floats in [`GpuConfig`] (e.g.
//!   `initial_tokens_frac`) are deliberately not wire-addressable: they
//!   cannot ride an integer-only format exactly, and an inexact knob would
//!   silently break content addressing in the result store.
//!
//! A job spec document looks like:
//!
//! ```json
//! {"tenant":"alice","design":"MASK",
//!  "apps":[{"app":"HS","cores":8},{"app":"MUM","cores":8}],
//!  "max_cycles":4000,"warmup_cycles":1000,"seed":7,"gpu":"maxwell",
//!  "overrides":{"epoch_cycles":500}}
//! ```

use crate::json::Value;
use mask_common::config::{DesignKind, GpuConfig};
use mask_common::stats::{fields_to_value, AppStats, Field, FieldMut, SimStats};
use mask_core::SimJob;
use mask_workloads::app_by_name;
use std::fmt;

/// Upper bound on applications in one job (the engine takes arbitrary
/// placements, but the daemon refuses absurd requests at admission).
pub const MAX_APPS: usize = 16;

/// Upper bound on cores one application may request.
pub const MAX_CORES: usize = 1024;

/// Upper bound on the `l2_tlb_entries` override: 128× Table 1's 512. The
/// L2 TLB allocates every entry when it is built, on the dispatcher thread,
/// so an unbounded request could ask for more memory than the host has and
/// abort the daemon.
pub const MAX_L2_TLB_ENTRIES: usize = 65_536;

/// A malformed or out-of-vocabulary wire document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description, echoed in the 400 response body.
    pub msg: String,
}

impl WireError {
    fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for WireError {}

fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing field `{key}`")))
}

fn req_u64(v: &Value, key: &str) -> Result<u64, WireError> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("field `{key}` must be an unsigned integer")))
}

fn req_usize(v: &Value, key: &str) -> Result<usize, WireError> {
    usize::try_from(req_u64(v, key)?)
        .map_err(|_| WireError::new(format!("field `{key}` out of range")))
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, WireError> {
    req(v, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field `{key}` must be a string")))
}

/// Resolves a design preset by its display label (`"MASK"`, `"Static"`,
/// ...), the same names `DesignKind::label` prints in reports.
#[must_use]
pub fn design_by_label(label: &str) -> Option<DesignKind> {
    DesignKind::ALL.into_iter().find(|d| d.label() == label)
}

/// Resolves a machine preset by name.
#[must_use]
pub fn gpu_by_name(name: &str) -> Option<GpuConfig> {
    match name {
        "maxwell" => Some(GpuConfig::maxwell()),
        "fermi" => Some(GpuConfig::fermi()),
        "integrated" => Some(GpuConfig::integrated()),
        _ => None,
    }
}

/// Integer `GpuConfig` overrides addressable from the wire. Each one feeds
/// a knob that is exactly representable as a `u64`, keeping content
/// addressing exact (see the module docs for why floats are excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GpuOverrides {
    /// `gpu.mask.epoch_cycles` — MASK token-redistribution epoch length.
    pub epoch_cycles: Option<u64>,
    /// `gpu.warps_per_core` — warps per SM.
    pub warps_per_core: Option<usize>,
    /// `gpu.tlb.l2_entries` — shared L2 TLB capacity.
    pub l2_tlb_entries: Option<usize>,
}

impl GpuOverrides {
    fn apply(self, gpu: &mut GpuConfig) {
        if let Some(v) = self.epoch_cycles {
            gpu.mask.epoch_cycles = v;
        }
        if let Some(v) = self.warps_per_core {
            gpu.warps_per_core = v;
        }
        if let Some(v) = self.l2_tlb_entries {
            gpu.tlb.l2_entries = v;
        }
    }

    fn is_empty(self) -> bool {
        self == GpuOverrides::default()
    }
}

/// A validated job submission: everything needed to build the [`SimJob`],
/// plus the tenant id used for fair queueing (the tenant is *not* part of
/// the job's content address — two tenants submitting the same job share
/// one stored result).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Fair-queueing principal; non-empty.
    pub tenant: String,
    /// Design preset label.
    pub design: DesignKind,
    /// `(workload name, cores)` placement, in submission order.
    pub apps: Vec<(String, usize)>,
    /// Total cycles to simulate.
    pub max_cycles: u64,
    /// Warm-up cycles excluded from measurement.
    pub warmup_cycles: u64,
    /// Base PRNG seed.
    pub seed: u64,
    /// Machine preset name (`maxwell`/`fermi`/`integrated`).
    pub gpu: String,
    /// Integer machine overrides.
    pub overrides: GpuOverrides,
}

impl JobSpec {
    /// Parses and validates a submission document.
    pub fn from_value(v: &Value) -> Result<JobSpec, WireError> {
        let tenant = req_str(v, "tenant")?;
        if tenant.is_empty() || tenant.len() > 64 {
            return Err(WireError::new("field `tenant` must be 1..=64 characters"));
        }
        let design_label = req_str(v, "design")?;
        let design = design_by_label(design_label).ok_or_else(|| {
            WireError::new(format!(
                "unknown design `{design_label}` (use a preset label)"
            ))
        })?;
        let apps_v = req(v, "apps")?
            .as_array()
            .ok_or_else(|| WireError::new("field `apps` must be an array"))?;
        if apps_v.is_empty() || apps_v.len() > MAX_APPS {
            return Err(WireError::new(format!(
                "field `apps` must list 1..={MAX_APPS} applications"
            )));
        }
        let mut apps = Vec::with_capacity(apps_v.len());
        for entry in apps_v {
            let name = req_str(entry, "app")?;
            if app_by_name(name).is_none() {
                return Err(WireError::new(format!("unknown application `{name}`")));
            }
            let cores = req_usize(entry, "cores")?;
            if cores == 0 || cores > MAX_CORES {
                return Err(WireError::new(format!(
                    "field `cores` must be 1..={MAX_CORES}"
                )));
            }
            apps.push((name.to_owned(), cores));
        }
        let max_cycles = req_u64(v, "max_cycles")?;
        if max_cycles == 0 {
            return Err(WireError::new("field `max_cycles` must be positive"));
        }
        let warmup_cycles = req_u64(v, "warmup_cycles")?;
        let seed = req_u64(v, "seed")?;
        let gpu = req_str(v, "gpu")?;
        let Some(mut machine) = gpu_by_name(gpu) else {
            return Err(WireError::new(format!(
                "unknown gpu preset `{gpu}` (maxwell, fermi, integrated)"
            )));
        };
        let mut overrides = GpuOverrides::default();
        if let Some(o) = v.get("overrides") {
            let map = match o {
                Value::Object(m) => m,
                _ => return Err(WireError::new("field `overrides` must be an object")),
            };
            for (key, val) in map {
                let n = val.as_u64().ok_or_else(|| {
                    WireError::new(format!("override `{key}` must be an unsigned integer"))
                })?;
                match key.as_str() {
                    "epoch_cycles" => overrides.epoch_cycles = Some(n.max(1)),
                    "warps_per_core" => {
                        let w = usize::try_from(n).map_err(|_| {
                            WireError::new("override `warps_per_core` out of range")
                        })?;
                        overrides.warps_per_core = Some(w);
                    }
                    "l2_tlb_entries" => {
                        let e = usize::try_from(n).map_err(|_| {
                            WireError::new("override `l2_tlb_entries` out of range")
                        })?;
                        if e == 0 || e > MAX_L2_TLB_ENTRIES {
                            return Err(WireError::new(format!(
                                "override `l2_tlb_entries` must be 1..={MAX_L2_TLB_ENTRIES}"
                            )));
                        }
                        overrides.l2_tlb_entries = Some(e);
                    }
                    other => {
                        return Err(WireError::new(format!("unknown override `{other}`")));
                    }
                }
            }
        }
        overrides.apply(&mut machine);
        mask_gpu::check_machine(&machine, design.spec(), apps.len()).map_err(WireError::new)?;
        Ok(JobSpec {
            tenant: tenant.to_owned(),
            design,
            apps,
            max_cycles,
            warmup_cycles,
            seed,
            gpu: gpu.to_owned(),
            overrides,
        })
    }

    /// Serializes the spec back into its submission document (inverse of
    /// [`JobSpec::from_value`]; used by the client and the proptests).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let apps = Value::Array(
            self.apps
                .iter()
                .map(|(name, cores)| {
                    Value::obj([
                        ("app", Value::Str(name.clone())),
                        ("cores", Value::Num(*cores as u64)),
                    ])
                })
                .collect(),
        );
        let mut doc = Value::obj([
            ("tenant", Value::Str(self.tenant.clone())),
            ("design", Value::Str(self.design.label().to_owned())),
            ("apps", apps),
            ("max_cycles", Value::Num(self.max_cycles)),
            ("warmup_cycles", Value::Num(self.warmup_cycles)),
            ("seed", Value::Num(self.seed)),
            ("gpu", Value::Str(self.gpu.clone())),
        ]);
        if !self.overrides.is_empty() {
            let mut o = std::collections::BTreeMap::new();
            if let Some(v) = self.overrides.epoch_cycles {
                o.insert("epoch_cycles".to_owned(), Value::Num(v));
            }
            if let Some(v) = self.overrides.warps_per_core {
                o.insert("warps_per_core".to_owned(), Value::Num(v as u64));
            }
            if let Some(v) = self.overrides.l2_tlb_entries {
                o.insert("l2_tlb_entries".to_owned(), Value::Num(v as u64));
            }
            if let Value::Object(m) = &mut doc {
                m.insert("overrides".to_owned(), Value::Object(o));
            }
        }
        doc
    }

    /// Builds the engine job this spec describes. The daemon and the
    /// client's local oracle both go through this one function, so the
    /// byte-identity comparison in `examples/sweep_client.rs` exercises
    /// the wire codec, not a second interpretation of it.
    /// Panics on an app name [`JobSpec::from_value`] would reject, rather
    /// than run a smaller placement than the spec names.
    #[must_use]
    pub fn to_sim_job(&self) -> SimJob {
        let mut gpu = gpu_by_name(&self.gpu).unwrap_or_else(GpuConfig::maxwell);
        self.overrides.apply(&mut gpu);
        let specs = self
            .apps
            .iter()
            .map(|(name, cores)| mask_gpu::AppSpec {
                profile: app_by_name(name).expect("a JobSpec names only known applications"),
                n_cores: *cores,
            })
            .collect();
        SimJob {
            design: self.design,
            specs,
            max_cycles: self.max_cycles,
            warmup_cycles: self.warmup_cycles,
            seed: self.seed,
            gpu,
        }
    }
}

/// Inverse of [`fields_to_value`]: fills every field of the table from `v`.
fn fields_from_value<'a>(
    fields: impl Iterator<Item = (&'static str, FieldMut<'a>)>,
    v: &Value,
) -> Result<(), WireError> {
    for (name, field) in fields {
        match field {
            Field::Counter(x) | Field::Level(x) => *x = req_u64(v, name)?,
            Field::Hit(h) => fields_from_value(h.fields_mut(), req(v, name)?)?,
            Field::Dram(d) => fields_from_value(d.fields_mut(), req(v, name)?)?,
            Field::HitLevels(levels) => {
                let docs = req(v, name)?
                    .as_array()
                    .ok_or_else(|| WireError::new(format!("field `{name}` must be an array")))?;
                if docs.len() != levels.len() {
                    return Err(WireError::new(format!(
                        "field `{name}` must have {} levels",
                        levels.len()
                    )));
                }
                for (h, doc) in levels.iter_mut().zip(docs) {
                    fields_from_value(h.fields_mut(), doc)?;
                }
            }
        }
    }
    Ok(())
}

/// Serializes a complete result. Exact: every counter is an integer.
#[must_use]
pub fn stats_to_value(s: &SimStats) -> Value {
    Value::obj([
        (
            "apps",
            Value::Array(s.apps.iter().map(|a| fields_to_value(a.fields())).collect()),
        ),
        ("cycles", Value::Num(s.cycles)),
        ("dram_bus_busy", Value::Num(s.dram_bus_busy)),
        ("dram_channels", Value::Num(s.dram_channels as u64)),
    ])
}

/// Parses a complete result (inverse of [`stats_to_value`]).
pub fn stats_from_value(v: &Value) -> Result<SimStats, WireError> {
    let apps_v = req(v, "apps")?
        .as_array()
        .ok_or_else(|| WireError::new("field `apps` must be an array"))?;
    let mut apps = Vec::with_capacity(apps_v.len());
    for doc in apps_v {
        let mut app = AppStats::default();
        fields_from_value(app.fields_mut(), doc)?;
        apps.push(app);
    }
    Ok(SimStats {
        apps,
        cycles: req_u64(v, "cycles")?,
        dram_bus_busy: req_u64(v, "dram_bus_busy")?,
        dram_channels: req_usize(v, "dram_channels")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "t0".to_owned(),
            design: DesignKind::Mask,
            apps: vec![("HS".to_owned(), 4), ("MUM".to_owned(), 4)],
            max_cycles: 4000,
            warmup_cycles: 1000,
            seed: 7,
            gpu: "maxwell".to_owned(),
            overrides: GpuOverrides {
                epoch_cycles: Some(500),
                warps_per_core: None,
                l2_tlb_entries: Some(256),
            },
        }
    }

    #[test]
    fn job_spec_round_trips_through_json() {
        let s = spec();
        let doc = s.to_value().serialize();
        let parsed = JobSpec::from_value(&json::parse(&doc).expect("valid json")).expect("valid");
        assert_eq!(parsed, s);
        // And the document itself is canonical.
        assert_eq!(parsed.to_value().serialize(), doc);
    }

    #[test]
    fn to_sim_job_applies_overrides() {
        let job = spec().to_sim_job();
        assert_eq!(job.gpu.mask.epoch_cycles, 500);
        assert_eq!(job.gpu.tlb.l2_entries, 256);
        assert_eq!(job.specs.len(), 2);
        assert_eq!(job.specs[0].n_cores, 4);
        // Same spec → same dedup key; tenant is not part of it.
        let mut other = spec();
        other.tenant = "t1".to_owned();
        assert_eq!(other.to_sim_job().key(), job.key());
    }

    #[test]
    #[should_panic(expected = "a JobSpec names only known applications")]
    fn to_sim_job_rejects_an_unknown_app_built_in_code() {
        let mut s = spec();
        s.apps[1].0 = "nope".to_owned();
        let _ = s.to_sim_job();
    }

    #[test]
    fn rejects_out_of_vocabulary_specs() {
        type Mutator = fn(&mut Value);
        let cases: [(&str, Mutator); 5] = [
            ("design", |v| {
                if let Value::Object(m) = v {
                    m.insert("design".into(), Value::Str("Warp9".into()));
                }
            }),
            ("app", |v| {
                if let Value::Object(m) = v {
                    m.insert(
                        "apps".into(),
                        Value::Array(vec![Value::obj([
                            ("app", Value::Str("nope".into())),
                            ("cores", Value::Num(1)),
                        ])]),
                    );
                }
            }),
            ("gpu", |v| {
                if let Value::Object(m) = v {
                    m.insert("gpu".into(), Value::Str("cray".into()));
                }
            }),
            ("override", |v| {
                if let Value::Object(m) = v {
                    m.insert(
                        "overrides".into(),
                        Value::obj([("clock_ghz", Value::Num(3))]),
                    );
                }
            }),
            ("tenant", |v| {
                if let Value::Object(m) = v {
                    m.insert("tenant".into(), Value::Str(String::new()));
                }
            }),
        ];
        for (what, mutate) in cases {
            let mut doc = spec().to_value();
            mutate(&mut doc);
            assert!(
                JobSpec::from_value(&doc).is_err(),
                "bad `{what}` must be rejected"
            );
        }
    }

    #[test]
    fn l2_tlb_entries_is_bounded() {
        let with = |n: u64| {
            let mut doc = spec().to_value();
            if let Value::Object(m) = &mut doc {
                m.insert(
                    "overrides".into(),
                    Value::obj([("l2_tlb_entries", Value::Num(n))]),
                );
            }
            JobSpec::from_value(&doc)
        };
        for ok in [1, 512, MAX_L2_TLB_ENTRIES as u64] {
            assert!(with(ok).is_ok(), "{ok} entries must be accepted");
        }
        // 2^36 entries would ask the dispatcher for hundreds of GiB.
        for bad in [0, MAX_L2_TLB_ENTRIES as u64 + 1, 1 << 36] {
            assert!(with(bad).is_err(), "{bad} entries must be rejected");
        }
    }

    /// A spec the simulator would refuse by panicking on the dispatcher
    /// thread is refused at admission; the largest machine of each kind is
    /// admitted and runs.
    #[test]
    fn admits_only_machines_the_simulator_runs() {
        let with = |design, gpu: &str, n_apps, warps| {
            let mut s = spec();
            s.design = design;
            s.gpu = gpu.to_owned();
            s.apps = vec![("HS".to_owned(), 1); n_apps];
            s.max_cycles = 2;
            s.overrides = GpuOverrides {
                warps_per_core: Some(warps),
                ..GpuOverrides::default()
            };
            JobSpec::from_value(&s.to_value())
        };
        use DesignKind::{Mask, Partitioned, Static};
        let admitted = [
            (Mask, "maxwell", 2, 128),
            (Static, "maxwell", 8, 64),
            (Static, "fermi", 6, 48),
            (Static, "integrated", 2, 48),
            (Partitioned, "maxwell", 8, 64),
        ];
        for (design, gpu, apps, warps) in admitted {
            let spec = with(design, gpu, apps, warps).expect("admitted");
            let _ = spec.to_sim_job().run();
        }
        let refused = [
            (Mask, "maxwell", 2, 129, "warps"),
            (Mask, "maxwell", 2, 0, "warps"),
            (Static, "maxwell", 9, 64, "DRAM channels"),
            (Static, "fermi", 7, 48, "DRAM channels"),
            (Static, "integrated", 3, 48, "DRAM channels"),
            (Partitioned, "maxwell", 9, 64, "DRAM banks"),
        ];
        for (design, gpu, apps, warps, what) in refused {
            let err = with(design, gpu, apps, warps).expect_err("refused").msg;
            assert!(err.contains(what), "{design} on {gpu}: {err}");
        }
    }

    #[test]
    fn stats_round_trip_is_exact() {
        let mut s = SimStats::new(2, 8);
        s.cycles = 123_456;
        s.dram_bus_busy = 987;
        s.apps[0].instructions = u64::MAX;
        s.apps[0].l1_tlb.record(true);
        s.apps[0].l2_translation[2].record(false);
        s.apps[1].dram_translation.row_conflicts = 42;
        s.apps[1].tokens_final = 17;
        let doc = stats_to_value(&s).serialize();
        let back = stats_from_value(&json::parse(&doc).expect("valid json")).expect("valid stats");
        assert_eq!(back, s);
    }
}
