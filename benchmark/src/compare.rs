//! `maskbench compare A B`: two sets of result files, one verdict per
//! (workload, end-to-end metric), and every exact count that moved.
//!
//! `A` is the base and `B` the candidate; each is a result file or a
//! directory of them. End-to-end metrics are taken from untraced runs
//! only. Exact metrics (simulated counts, checksums, the paper-error
//! figure) must be identical; a difference is *drift* and fails the
//! comparison unless it was announced with `--allow-drift`. A report of
//! either set without a counterpart that did the same work fails it too:
//! a crashed or partial set must not read as "nothing got worse".

use crate::json;
use crate::manifest::{self, Better};
use crate::report::{Metric, Report};
use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The samples behind the metric spread wider than its bound and the
    /// difference lies inside that spread: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub candidate: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub rows: Vec<Row>,
    /// Exact metrics whose values differ: `(workload, metric, base, candidate)`.
    pub drift: Vec<(String, String, f64, f64)>,
    pub notes: Vec<String>,
    /// A workload whose candidate run failed more operations than its base.
    pub more_failures: Vec<String>,
    /// Reports that were compared with nothing: the other set lacks the
    /// workload, or ran it with another seed or for another time.
    pub unmatched: Vec<String>,
}

fn spread(m: &Metric) -> f64 {
    match m.quartiles {
        Some((q1, q3)) if m.value != 0.0 => (q3 - q1).abs() / m.value.abs(),
        _ => 0.0,
    }
}

/// The verdict for one metric. `bound` is the share of the base by which
/// the candidate may be worse; a bound of zero marks an exact metric.
pub fn verdict(base: &Metric, candidate: &Metric, bound: f64) -> Verdict {
    let (a, b) = (base.value, candidate.value);
    if a == b {
        return Verdict::Same;
    }
    // Positive when the candidate is worse, as a share of the base.
    let worse_by = match base.better {
        Better::Lower => (b - a) / a.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (a - b) / a.abs().max(f64::MIN_POSITIVE),
    };
    if bound == 0.0 {
        return if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    let noise = spread(base).max(spread(candidate));
    let blurred = noise > bound && worse_by.abs() <= noise;
    match (worse_by > bound, worse_by < -bound, blurred) {
        (_, _, true) => Verdict::Unresolved,
        (true, _, false) => Verdict::Worse,
        (_, true, false) => Verdict::Better,
        _ => Verdict::Same,
    }
}

fn is_exact(name: &str) -> bool {
    manifest::per_layer(name).is_some_and(|m| m.exact)
        || manifest::end_to_end(name).is_some_and(|m| m.bound == 0.0)
}

fn run_label(r: &Report) -> String {
    format!(
        "{} ({})",
        r.workload,
        if r.traced { "traced" } else { "untraced" }
    )
}

/// Compares two sets of reports.
pub fn compare(base: &[Report], candidate: &[Report]) -> Outcome {
    let mut out = Outcome::default();
    let same_run = |a: &Report, b: &Report| a.workload == b.workload && a.traced == b.traced;
    for b in candidate {
        if !base.iter().any(|a| same_run(a, b)) {
            out.unmatched
                .push(format!("{}: only in the candidate set", run_label(b)));
        }
    }
    for a in base {
        let Some(b) = candidate.iter().find(|b| same_run(a, b)) else {
            out.unmatched
                .push(format!("{}: only in the base set", run_label(a)));
            continue;
        };
        if a.seconds != b.seconds || a.seed != b.seed {
            out.unmatched.push(format!(
                "{}: seed/seconds differ ({}/{} s against {}/{} s): not the same work",
                run_label(a),
                a.seed,
                a.seconds,
                b.seed,
                b.seconds
            ));
            continue;
        }
        for (side, r) in [("base", a), ("candidate", b)] {
            if r.host.get("undersized").and_then(json::Json::as_bool) == Some(true) {
                out.notes.push(format!(
                    "{}: {side} ran on fewer than 2 hardware threads (undersized)",
                    r.workload
                ));
            }
        }
        if !a.traced {
            for m in &a.end_to_end {
                let Some(n) = b.end_to_end.iter().find(|n| n.name == m.name) else {
                    continue;
                };
                let bound = manifest::end_to_end(&m.name).map_or(0.10, |d| d.bound);
                out.rows.push(Row {
                    workload: a.workload.clone(),
                    metric: m.name.clone(),
                    unit: m.unit.clone(),
                    base: m.value,
                    candidate: n.value,
                    bound,
                    verdict: verdict(m, n, bound),
                });
            }
            if b.failed_ops_pct() > a.failed_ops_pct() {
                out.more_failures.push(a.workload.clone());
            }
        }
        for m in a.end_to_end.iter().chain(&a.per_layer) {
            if !is_exact(&m.name) {
                continue;
            }
            if let Some(n) = b.get(&m.name) {
                let seen = out
                    .drift
                    .iter()
                    .any(|(w, name, _, _)| *w == a.workload && *name == m.name);
                if n.value != m.value && !seen {
                    out.drift
                        .push((a.workload.clone(), m.name.clone(), m.value, n.value));
                }
            }
        }
    }
    out
}

impl Outcome {
    pub fn passes(&self, allow_drift: bool) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Worse)
            && self.more_failures.is_empty()
            && self.unmatched.is_empty()
            && (allow_drift || self.drift.is_empty())
    }

    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<15} {:<22} {:>16} {:>16} {:>9} {:>6}  verdict",
            "workload", "metric", "base (A)", "candidate (B)", "B/A", "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:<15} {:<22} {:>16.4} {:>16.4} {:>9.4} {:>5.0}%  {} [{}]",
                r.workload,
                r.metric,
                r.base,
                r.candidate,
                if r.base == 0.0 {
                    1.0
                } else {
                    r.candidate / r.base
                },
                r.bound * 100.0,
                r.verdict.label(),
                r.unit
            );
        }
        for (w, name, a, b) in &self.drift {
            let _ = writeln!(s, "drift: {w} {name}: {a} -> {b}");
        }
        for w in &self.more_failures {
            let _ = writeln!(s, "failed_ops_pct rose on {w}");
        }
        for u in &self.unmatched {
            let _ = writeln!(s, "not compared: {u}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            s,
            "{} better, {} same, {} worse, {} unresolved, {} drifted, {} not compared",
            count(Verdict::Better),
            count(Verdict::Same),
            count(Verdict::Worse),
            count(Verdict::Unresolved),
            self.drift.len(),
            self.unmatched.len()
        );
        s
    }
}

/// Loads the result files at `path`: the file itself, or every `*.json`
/// of a directory that is not a span trace.
pub fn load(path: &Path) -> Result<Vec<Report>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries.flatten() {
            let p = entry.path();
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.is_some_and(|n| n.ends_with(".json") && !n.ends_with(".trace.json")) {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
            Report::from_json(&doc).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

pub fn compare_paths(a: &Path, b: &Path) -> Result<Outcome, String> {
    Ok(compare(&load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::Quartiles;

    fn report(cycles_per_s: f64, spread: f64, fnv: f64) -> Report {
        let mut r = Report::new("serial_2hmr", 1, 20, false, Json::obj([]));
        r.attempted = 10;
        let q = Quartiles {
            fast: cycles_per_s,
            q1: cycles_per_s * (1.0 - spread / 2.0),
            q2: cycles_per_s,
            q3: cycles_per_s * (1.0 + spread / 2.0),
            n: 20,
        };
        r.e2e("sim_cycles_per_s", cycles_per_s, Some(q));
        r.e2e("peak_rss_mb", 40.0, None);
        r.e2e("failed_ops_pct", 0.0, None);
        r.layer("gpu.stats_fnv", fnv);
        r.layer("gpu.ns_per_cycle", 1e9 / cycles_per_s);
        r
    }

    fn cmp(base: &Report, candidate: Report) -> Outcome {
        compare(std::slice::from_ref(base), &[candidate])
    }

    fn verdict_of(out: &Outcome, metric: &str) -> Verdict {
        out.rows
            .iter()
            .find(|r| r.metric == metric)
            .map(|r| r.verdict)
            .expect("row present")
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let bound = manifest::end_to_end("sim_cycles_per_s")
            .expect("in the table")
            .bound;
        let base = report(100_000.0, 0.02, 7.0);
        // A rate `k` bounds below the base's, from samples spread `spread`.
        let slower = |k: f64, spread: f64| report(100_000.0 * (1.0 - k * bound), spread, 7.0);
        let out = cmp(&base, slower(0.4, 0.02));
        assert_eq!(verdict_of(&out, "sim_cycles_per_s"), Verdict::Same);
        assert!(out.passes(false));
        let out = cmp(&base, slower(2.0, 0.02));
        assert_eq!(verdict_of(&out, "sim_cycles_per_s"), Verdict::Worse);
        assert!(!out.passes(true));
        // Higher is better for a rate.
        let out = cmp(&base, slower(-2.0, 0.02));
        assert_eq!(verdict_of(&out, "sim_cycles_per_s"), Verdict::Better);
        // Two bounds slower, but the samples spread three: cannot tell.
        let out = cmp(&base, slower(2.0, 3.0 * bound));
        assert_eq!(verdict_of(&out, "sim_cycles_per_s"), Verdict::Unresolved);
        assert!(out.passes(false));
        // Slower by more than even that spread.
        let out = cmp(&base, slower(3.5, 3.0 * bound));
        assert_eq!(verdict_of(&out, "sim_cycles_per_s"), Verdict::Worse);
    }

    #[test]
    fn drift_and_failures_fail_the_comparison() {
        let base = report(100_000.0, 0.02, 7.0);
        let drifted = report(100_000.0, 0.02, 8.0);
        let out = cmp(&base, drifted);
        assert_eq!(out.drift.len(), 1);
        assert_eq!(out.drift[0].1, "gpu.stats_fnv");
        assert!(!out.passes(false));
        assert!(out.passes(true), "announced drift is allowed");
        // Host-time layer metrics never count as drift.
        assert!(out.drift.iter().all(|d| d.1 != "gpu.ns_per_cycle"));

        let mut failing = report(100_000.0, 0.02, 7.0);
        failing.check(false, || "a wrong output".to_owned());
        let out = cmp(&base, failing);
        assert_eq!(out.more_failures, ["serial_2hmr"]);
        assert!(!out.passes(true));
    }

    #[test]
    fn a_report_compared_with_nothing_fails_the_comparison() {
        let base = report(100_000.0, 0.02, 7.0);
        let mut other_seed = base.clone();
        other_seed.seed = 2;
        let out = cmp(&base, other_seed);
        assert!(out.rows.is_empty() && out.unmatched.len() == 1);
        assert!(!out.passes(true));

        // A candidate set that lost a workload, say to a crash.
        let mut second = base.clone();
        second.workload = "serial_0hmr".to_owned();
        let both = [base.clone(), second];
        let out = compare(&both, std::slice::from_ref(&base));
        assert_eq!(out.rows.len(), 3, "the workload both sets have is compared");
        assert_eq!(out.unmatched.len(), 1);
        assert!(!out.passes(true));
        assert!(out
            .render()
            .contains("not compared: serial_0hmr (untraced)"));
        // And one that gained a workload the base never ran.
        let out = compare(std::slice::from_ref(&base), &both);
        assert_eq!(out.unmatched.len(), 1);
        assert!(!out.passes(true));
    }

    #[test]
    fn written_files_load_back_for_comparison() {
        let dir = std::env::temp_dir().join(format!("maskbench-compare-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for (d, rate) in [(&a, 100_000.0), (&b, 40_000.0)] {
            std::fs::create_dir_all(d).expect("mkdir");
            std::fs::write(
                d.join("serial_2hmr.json"),
                report(rate, 0.01, 7.0).to_json().pretty(),
            )
            .expect("write");
            std::fs::write(d.join("serial_2hmr.trace.json"), "{\"traceEvents\":[]}")
                .expect("write");
        }
        let out = compare_paths(&a, &b).expect("both sets load");
        assert_eq!(verdict_of(&out, "sim_cycles_per_s"), Verdict::Worse);
        assert!(out.render().contains("worse"));
        assert!(compare_paths(&a, &dir.join("missing")).is_err());
        // A result file missing from the candidate directory.
        std::fs::write(
            a.join("serial_0hmr.json"),
            Report {
                workload: "serial_0hmr".to_owned(),
                ..report(300_000.0, 0.01, 9.0)
            }
            .to_json()
            .pretty(),
        )
        .expect("write");
        let out = compare_paths(&a, &b).expect("both sets load");
        assert_eq!(out.unmatched.len(), 1);
        assert!(!out.passes(true));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
