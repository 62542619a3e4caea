//! End-to-end smoke of every experiment harness at miniature scale: each
//! must produce a structurally-complete table.

use mask_common::config::DesignKind;
use mask_common::json::{self, Value};
use mask_core::experiments::{self, fidelity, multiprog, ExpOptions, REGISTRY};
use mask_core::table::Table;

fn tiny() -> ExpOptions {
    ExpOptions {
        cycles: 4_000,
        pair_limit: 1,
        ..ExpOptions::quick()
    }
}

/// Rows per table, in emission order, of each registry artefact at
/// `tiny()` scale: one pair (a 1-HMR one), four cores (Table 3 stops at
/// four apps), and too few cycles for any epoch length the ablation sweeps.
const ROWS: [(&str, &[usize]); 13] = [
    ("fig01", &[9]),
    ("fig03", &[2]),
    ("fig05_06", &[30, 30]),
    ("fig07", &[8]),
    ("fig08_09", &[2, 2]),
    ("fig11_15", &[2, 2, 0, 1, 0, 2, 4]),
    ("tab02", &[30]),
    ("tab03", &[4]),
    ("tab04", &[3]),
    ("sec72", &[15]),
    ("sec73", &[8, 2, 3, 3, 4]),
    ("sec74", &[7, 6]),
    ("ablations", &[2, 3, 3, 0]),
];

/// The artefacts a test of their own below runs; `every_registry_artefact_runs`
/// runs the rest.
const OWN_TEST: [&str; 9] = [
    "fig01", "fig03", "fig05_06", "fig07", "fig08_09", "sec72", "sec73", "tab03", "tab04",
];

/// Runs registry artefact `id` at `tiny()` scale and checks that it emits
/// the tables [`ROWS`] lists, that every weighted speedup is positive, and
/// that none normalized to Ideal beats it. Only the demand-paging sweep may
/// read 0: a fault longer than the run retires nothing.
fn run(id: &str) -> Vec<Table> {
    let (_, _, run) = experiments::artefact(id).expect("registered artefact");
    let tables = run(&tiny());
    let rows = ROWS.iter().find(|r| r.0 == id).expect("listed in ROWS").1;
    let got: Vec<usize> = tables.iter().map(Table::len).collect();
    assert_eq!(got, rows, "{id}");
    for t in &tables {
        let normalized = t.title.contains("normalized");
        let zero_ok = t.title.contains("demand-paging");
        if normalized || t.title.contains("weighted speedup") {
            for v in t.rows.iter().flat_map(|(_, c)| c).map(|c| c.parse::<f64>()) {
                let v = v.expect("numeric cell");
                let positive = v > 0.0 || (zero_ok && v == 0.0);
                assert!(positive && (!normalized || v <= 1.05), "{}: {v}", t.title);
            }
        }
    }
    tables
}

#[test]
fn fig01_runs() {
    run("fig01");
}

#[test]
fn fig03_runs() {
    run("fig03");
}

#[test]
fn fig05_06_run() {
    run("fig05_06");
}

#[test]
fn fig07_runs() {
    run("fig07");
}

#[test]
fn fig08_09_run() {
    let fig08 = &run("fig08_09")[0];
    let share = |class| fig08.value("Average", class).expect("Fig. 8 average");
    assert!(share("translation") < share("data"), "Fig. 8 shape");
}

#[test]
fn fig11_15_run() {
    let s = multiprog::sweep(&tiny(), &[DesignKind::SharedTlb, DesignKind::Ideal]);
    assert!(!s.fig11_weighted_speedup().is_empty());
    assert!(!s.fig15_unfairness().is_empty());
}

/// The presets PR 7 introduced go through the full multiprog harness —
/// under the runtime sanitizer, which every debug build arms, so their
/// coloring invariants are audited on every fill and enqueue.
#[test]
fn new_presets_run_through_multiprog() {
    let s = multiprog::sweep(&tiny(), &[DesignKind::Partitioned, DesignKind::NoIsolation]);
    assert!(!s.fig11_weighted_speedup().is_empty());
    assert!(!s.fig15_unfairness().is_empty());
}

#[test]
fn sec72_runs() {
    let t = &run("sec72")[0];
    let walk_levels = (1..=4).map(|l| format!("SharedTLB L2 hit rate, walk level {l}"));
    let named = [
        "TLB bypass cache hit rate",
        "L2 TLB hit-rate improvement (%)",
    ];
    for row in walk_levels.chain(named.map(String::from)) {
        assert!(t.value(&row, "value").is_some(), "{row}");
    }
}

#[test]
fn sec73_runs() {
    let t = run("sec73");
    assert!(t[0].value("8192", "MASK").is_some());
    assert!(t[1].value("4KB", "Ideal").is_some());
}

#[test]
fn tab03_tab04_run() {
    run("tab03");
    run("tab04");
}

/// Every registry artefact is listed in [`ROWS`] and runs, here or in a
/// test of its own, so one added to the registry cannot go unexercised.
#[test]
fn every_registry_artefact_runs() {
    let ids = REGISTRY.map(|a| a.0);
    assert_eq!(ids, ROWS.map(|r| r.0));
    for id in ids.into_iter().filter(|id| !OWN_TEST.contains(id)) {
        run(id);
    }
}

/// Every claim `repro fidelity` scores finds its cells: a renamed row or
/// table would score `NaN`. Five cores fit Table 3's five-app mix.
#[test]
fn every_claim_reads_a_measured_cell() {
    let tables = fidelity::measure(|_| ExpOptions {
        n_cores: 5,
        ..tiny()
    });
    let doc = json::parse(&fidelity::document(&[tables], 0, "", 1)).expect("parses");
    for row in doc.get("rows").and_then(Value::as_array).expect("rows") {
        let median = row.get("median").and_then(Value::as_str).expect("median");
        assert!(median.parse::<f64>().is_ok_and(f64::is_finite), "{row:?}");
    }
}
