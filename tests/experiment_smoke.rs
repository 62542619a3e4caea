//! End-to-end smoke of every experiment harness at miniature scale: each
//! must produce a structurally-complete table.

use mask_common::config::DesignKind;
use mask_core::experiments::{
    baseline, components, dram_char, generality, interference, multiprog, scalability, sensitivity,
    single_app, timemux, ExpOptions,
};

fn tiny() -> ExpOptions {
    ExpOptions {
        cycles: 4_000,
        pair_limit: 1,
        ..ExpOptions::quick()
    }
}

#[test]
fn fig01_runs() {
    assert_eq!(timemux::run(&tiny()).len(), 9);
}

#[test]
fn fig03_runs() {
    let t = baseline::run(&tiny());
    assert_eq!(t.len(), 2); // 1 pair + average
}

#[test]
fn fig05_06_run() {
    let rows = single_app::measure(&tiny());
    assert_eq!(single_app::fig05(&rows).len(), 30);
    assert_eq!(single_app::fig06(&rows).len(), 30);
}

#[test]
fn fig07_runs() {
    assert_eq!(interference::run(&tiny()).len(), 8);
}

#[test]
fn fig08_09_run() {
    let rows = dram_char::measure(&tiny());
    assert_eq!(dram_char::fig08(&rows).len(), 2);
    assert_eq!(dram_char::fig09(&rows).len(), 2);
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
    assert!(components::run(&tiny()).len() >= 10);
}

#[test]
fn sec73_runs() {
    assert_eq!(sensitivity::large_pages(&tiny()).len(), 2);
}

#[test]
fn tab03_tab04_run() {
    assert!(!scalability::run(&tiny()).is_empty());
    assert_eq!(generality::run(&tiny()).len(), 3);
}
