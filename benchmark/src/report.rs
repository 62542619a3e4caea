//! One run's result: what was measured, on what, and whether the outputs
//! were correct. Written as a result file, parsed back by `compare`, and
//! condensed into the one-line summary the driver reads.

use crate::json::Json;
use crate::manifest::{self, Better};
use crate::stats::Quartiles;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
    /// Quartiles of the samples behind `value`, in the metric's own unit,
    /// when it summarises more than one sample.
    pub quartiles: Option<(f64, f64)>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub host: Json,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for a human; `failed` counts every entry.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool, host: Json) -> Report {
        Report {
            workload: workload.to_owned(),
            seed,
            seconds,
            traced,
            host,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    /// Counts one checked operation; `problem` describes it when it failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(problem());
            }
        }
    }

    /// Records an end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`manifest::END_TO_END`]: the tables
    /// are the vocabulary, and a typo must not create a new metric.
    pub fn e2e(&mut self, name: &str, value: f64, quartiles: Option<Quartiles>) {
        let def = manifest::end_to_end(name)
            .unwrap_or_else(|| panic!("`{name}` is not in the end-to-end table"));
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit: def.unit.to_owned(),
            better: def.better,
            quartiles: quartiles.map(|q| (q.q1, q.q3)),
        });
    }

    /// Records a per-layer metric (same vocabulary rule as [`Report::e2e`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        let def = manifest::per_layer(name)
            .unwrap_or_else(|| panic!("`{name}` is not in the per-layer table"));
        self.per_layer.push(Metric {
            name: name.to_owned(),
            value,
            unit: def.unit.to_owned(),
            better: def.better,
            quartiles: None,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    pub fn failed_ops_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of standard output: the portable end-to-end metrics
    /// of an untraced run, the portable per-layer metrics of a traced one.
    pub fn driver_line(&self) -> Result<String, String> {
        let (names, pool): (Vec<&str>, &[Metric]) = if self.traced {
            (
                manifest::PER_LAYER
                    .iter()
                    .filter(|m| m.portable)
                    .map(|m| m.name)
                    .collect(),
                &self.per_layer,
            )
        } else {
            (
                manifest::END_TO_END
                    .iter()
                    .filter(|m| m.portable)
                    .map(|m| m.name)
                    .collect(),
                &self.end_to_end,
            )
        };
        let mut metrics = Vec::with_capacity(names.len());
        for name in names {
            let m = pool
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("{}: metric `{name}` was not measured", self.workload))?;
            if !m.value.is_finite() {
                return Err(format!("{}: metric `{name}` is not finite", self.workload));
            }
            metrics.push((
                name.to_owned(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit.as_str())),
                ]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact())
    }

    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Arr(
                list.iter()
                    .map(|m| {
                        let mut fields = vec![
                            ("name".to_owned(), Json::str(m.name.as_str())),
                            ("value".to_owned(), Json::Num(m.value)),
                            ("unit".to_owned(), Json::str(m.unit.as_str())),
                            ("better".to_owned(), Json::str(m.better.label())),
                        ];
                        if let Some((q1, q3)) = m.quartiles {
                            fields.push(("q1".to_owned(), Json::Num(q1)));
                            fields.push(("q3".to_owned(), Json::Num(q3)));
                        }
                        Json::Obj(fields)
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("host", self.host.clone()),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Report, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result file lacks number `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("result file lacks list `{key}`"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .ok_or_else(|| format!("metric in `{key}` lacks `{k}`"))
                    };
                    Ok(Metric {
                        name: field("name")?.to_owned(),
                        value: m
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("metric in `{key}` lacks `value`"))?,
                        unit: field("unit")?.to_owned(),
                        better: Better::from_label(field("better")?)
                            .ok_or_else(|| format!("metric in `{key}` has a bad `better`"))?,
                        quartiles: m
                            .get("q1")
                            .and_then(Json::as_f64)
                            .zip(m.get("q3").and_then(Json::as_f64)),
                    })
                })
                .collect()
        };
        Ok(Report {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result file lacks `workload`")?
                .to_owned(),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            traced: doc.get("traced").and_then(Json::as_bool).unwrap_or(false),
            host: doc.get("host").cloned().unwrap_or(Json::Null),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: doc
                .get("failures")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|f| f.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} s, {}) ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        for (title, list) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if list.is_empty() {
                continue;
            }
            println!("-- {title}");
            for m in list {
                let quart = m
                    .quartiles
                    .map(|(q1, q3)| format!("  [q1 {q1:.6}, q3 {q3:.6}]"))
                    .unwrap_or_default();
                println!(
                    "{:<32} {:>20} {}{quart}",
                    m.name,
                    format_value(m.value),
                    m.unit
                );
            }
        }
        println!(
            "-- outputs: {} checked, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            println!("   FAILED: {f}");
        }
    }
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    pub(crate) fn sample(traced: bool) -> Report {
        let mut r = Report::new("serial_2hmr", 7, 20, traced, Json::obj([]));
        r.attempted = 10;
        r.check(true, String::new);
        let q = Quartiles {
            fast: 0.85,
            q1: 0.9,
            q2: 1.0,
            q3: 1.2,
            n: 11,
        };
        r.e2e("setup_s", 0.731_234_5, None);
        r.e2e("sim_cycles_per_s", 281_234.567_891, Some(q));
        r.e2e("peak_rss_mb", 37.75, None);
        r.layer("gpu.stats_fnv", 281_474_976_710_655.0);
        r.layer("gpu.ns_per_cycle", 3555.25);
        r
    }

    #[test]
    fn result_files_parse_back_unchanged() {
        let r = sample(false);
        let text = r.to_json().pretty();
        let back = Report::from_json(&json::parse(&text).expect("valid JSON")).expect("a report");
        assert_eq!(back, r);
        assert_eq!(
            back.get("gpu.stats_fnv").map(|m| m.value),
            Some(281_474_976_710_655.0)
        );
    }

    #[test]
    fn driver_line_has_exactly_the_portable_metrics() {
        let r = sample(false);
        let line = r.driver_line().expect("all three present");
        let doc = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::Num(11.0)));
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(names, ["setup_s", "sim_cycles_per_s", "peak_rss_mb"]);
        assert!(!line.contains('\n'));
        // A traced run owes the per-layer list, which this one lacks.
        assert!(sample(true).driver_line().is_err());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = sample(false);
        r.check(false, || "rep 3 differs from rep 0".to_owned());
        assert_eq!(r.failed, 1);
        assert!(r.failed_ops_pct() > 0.0);
        let doc = json::parse(&r.driver_line().expect("line")).expect("json");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
}
