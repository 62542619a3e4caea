//! Fault-injection tests for the runtime invariant sanitizer.
//!
//! Each test plants one specific accounting bug through the public hook API
//! and asserts the sanitizer kills the process with the right diagnostic —
//! proving the checks actually detect the failure modes they claim to.
//! Sanitizer state is thread-local and every `#[test]` runs on its own
//! thread, so the injected corruption cannot leak between tests.
//!
//! The sanitizer is armed exactly when `debug_assertions` is on, so this
//! file runs under plain `cargo test`; in a release build the hooks are
//! no-ops and none of these panics would fire.
#![cfg(debug_assertions)]

use mask_core::prelude::*;
use mask_obs::hooks as san;
use mask_obs::{Domain, MshrOutcome};

// ---- request conservation -------------------------------------------------

#[test]
fn balanced_traffic_is_quiescent() {
    for id in 0..8 {
        san::issue(Domain::Dram, id);
    }
    for id in (0..8).rev() {
        san::retire(Domain::Dram, id);
    }
    san::assert_quiescent();
}

#[test]
#[should_panic(expected = "issued but never retired")]
fn leaked_request_detected_at_quiescence() {
    san::issue(Domain::Dram, 7);
    san::retire(Domain::Dram, 7);
    san::issue(Domain::Dram, 8); // dropped response: never retires
    san::assert_quiescent();
}

#[test]
#[should_panic(expected = "duplicate issue")]
fn duplicated_request_detected() {
    san::issue(Domain::Dram, 7);
    san::issue(Domain::Dram, 7); // same request sent twice
}

#[test]
#[should_panic(expected = "without a matching issue")]
fn duplicated_response_detected() {
    san::issue(Domain::Dram, 3);
    san::retire(Domain::Dram, 3);
    san::retire(Domain::Dram, 3); // response consumed twice
}

// ---- sessions -------------------------------------------------------------

#[test]
fn sessions_isolate_request_ids() {
    let (one, two) = (san::new_session(), san::new_session());
    san::enter_session(one);
    san::issue(Domain::Dram, 7);
    san::enter_session(two);
    san::issue(Domain::Dram, 7); // same id, other session: no duplicate
    san::retire(Domain::Dram, 7);
    san::assert_quiescent(); // session one's leak is not session two's
}

#[test]
fn sessions_isolate_mshr_mirrors() {
    let (one, two) = (san::new_session(), san::new_session());
    san::enter_session(one);
    let table = san::register_table("fi-mshr", 4);
    san::mshr_alloc(table, 0x40, MshrOutcome::Primary, 1, 4);
    san::enter_session(two);
    san::assert_quiescent(); // session one's pending entry is not ours
}

#[test]
fn ended_session_forgets_everything_it_recorded() {
    let a = san::new_session();
    san::enter_session(a);
    san::issue(Domain::Dram, 1); // leaked request
    let table = san::register_table("fi-mshr", 4);
    san::mshr_alloc(table, 0x40, MshrOutcome::Primary, 1, 4); // pending entry
    san::walker_acquire(0, 1); // active walk
    let clock = san::register_component("fi-clock");
    san::cycle(clock, 10);
    san::end_session(a);
    san::enter_session(a);
    san::cycle(clock, 0); // its clock is forgotten too
    san::assert_quiescent();
}

#[test]
#[should_panic(expected = "issued but never retired")]
fn ending_one_session_keeps_another_sessions_state() {
    let (a, b) = (san::new_session(), san::new_session());
    san::enter_session(b);
    san::issue(Domain::Dram, 1);
    san::enter_session(a);
    san::end_session(a);
    san::enter_session(b);
    san::assert_quiescent();
}

/// Dropping a simulator mid-run frees its session: the requests it still
/// had in flight are gone from this thread's checker.
#[test]
fn dropping_a_simulator_ends_its_session() {
    let mut cfg = SimConfig::new(DesignKind::Mask).with_max_cycles(1_000);
    cfg.gpu.n_cores = 2;
    cfg.gpu.warps_per_core = 8;
    let specs = [AppSpec {
        profile: app_by_name("CONS").expect("known app"),
        n_cores: 2,
    }];
    let mut sim = GpuSim::new(&cfg, &specs);
    sim.run(200);
    // Stepping left the simulator's session current.
    let in_flight = std::panic::catch_unwind(san::assert_quiescent).is_err();
    assert!(in_flight, "the run must stop with requests in flight");
    drop(sim);
    san::assert_quiescent();
}

// ---- MSHR accounting ------------------------------------------------------

#[test]
#[should_panic(expected = "outlived its fill")]
fn leaked_mshr_waiter_detected() {
    let table = san::register_table("fi-mshr", 4);
    san::mshr_alloc(table, 0x80, MshrOutcome::Primary, 1, 4);
    // The table claims the fill found no entry, yet the mirror still holds
    // the waiter registered above — a leaked waiter.
    san::mshr_fill(table, 0x80, 0);
}

#[test]
#[should_panic(expected = "not genuinely full")]
fn premature_full_detected() {
    let table = san::register_table("fi-mshr", 4);
    san::mshr_alloc(table, 0x40, MshrOutcome::Primary, 1, 4);
    // Rejecting a miss while 3 of 4 entries are free is a lost request.
    san::mshr_alloc(table, 0xC0, MshrOutcome::Full, 1, 4);
}

#[test]
#[should_panic(expected = "misses were not merged")]
fn unmerged_secondary_miss_detected() {
    let table = san::register_table("fi-mshr", 4);
    san::mshr_alloc(table, 0x40, MshrOutcome::Primary, 1, 4);
    // A second Primary for the same line means the table failed to merge.
    san::mshr_alloc(table, 0x40, MshrOutcome::Primary, 2, 4);
}

#[test]
#[should_panic(expected = "still holds entries")]
fn pending_mshr_entry_detected_at_quiescence() {
    let table = san::register_table("fi-mshr", 4);
    san::mshr_alloc(table, 0x40, MshrOutcome::Primary, 1, 4);
    san::assert_quiescent(); // the fill never came
}

#[test]
fn merged_miss_fills_once_and_is_quiescent() {
    let table = san::register_table("fi-mshr", 4);
    san::mshr_alloc(table, 0x40, MshrOutcome::Primary, 1, 4);
    san::mshr_alloc(table, 0x40, MshrOutcome::Secondary, 1, 4);
    san::mshr_fill(table, 0x40, 2);
    san::assert_quiescent();
}

// ---- walker-slot lifecycle ------------------------------------------------

#[test]
fn full_walk_lifecycle_is_clean() {
    san::walker_acquire(5, 1);
    for level in 2..=4 {
        san::walker_level(5, level);
    }
    san::walker_release(5);
    san::assert_quiescent();
}

#[test]
#[should_panic(expected = "double free")]
fn double_freed_walker_slot_detected() {
    san::walker_acquire(0, 1);
    san::walker_release(0);
    san::walker_release(0); // slot freed twice
}

#[test]
#[should_panic(expected = "single-use until freed")]
fn reused_active_walker_slot_detected() {
    san::walker_acquire(9, 1);
    san::walker_acquire(9, 1); // slot handed out twice without a free
}

#[test]
#[should_panic(expected = "strictly increase")]
fn skipped_walk_level_detected() {
    san::walker_acquire(2, 1);
    san::walker_level(2, 3); // level 2 skipped
}

// ---- cycle monotonicity ---------------------------------------------------

#[test]
#[should_panic(expected = "ticked with cycle 9 after observing 10")]
fn backwards_clock_detected() {
    let clock = san::register_component("fi-clock");
    san::cycle(clock, 10);
    san::cycle(clock, 9);
}

#[test]
fn component_instances_keep_independent_clocks() {
    let (a, b) = (
        san::register_component("fi-clock"),
        san::register_component("fi-clock"),
    );
    san::cycle(a, 10);
    san::cycle(b, 0);
}

// ---- token conservation and structural checks -----------------------------

#[test]
#[should_panic(expected = "token conservation violated")]
fn token_overgrant_detected() {
    san::token_epoch(0, 65, 64); // more tokens than warps
}

#[test]
#[should_panic(expected = "structure overflow in `fi-tlb`")]
fn array_overflow_detected() {
    san::array_fill("fi-tlb", 65, 64);
}

#[test]
#[should_panic(expected = "structural invariant violated in `fi-cache`: bank heads out of order")]
fn failed_check_detected() {
    san::check(true, "fi-cache", "bank heads out of order");
    san::check(false, "fi-cache", "bank heads out of order");
}

// ---- diagnostics ----------------------------------------------------------

#[test]
fn violation_replays_only_the_failing_sessions_events() {
    let (one, two) = (san::new_session(), san::new_session());
    for id in 0..3 {
        san::enter_session(one);
        san::issue(Domain::Dram, id);
        san::enter_session(two);
        san::issue(Domain::XlatMem, 100 + id);
    }
    san::enter_session(one);
    let panic = std::panic::catch_unwind(|| san::issue(Domain::Dram, 2))
        .expect_err("a duplicate issue must fail");
    let msg = panic
        .downcast_ref::<String>()
        .expect("a formatted diagnostic");
    assert!(msg.contains("duplicate issue"), "{msg}");
    let at = |id: u64| msg.find(&format!("Issue {{ domain: Dram, id: {id} }}"));
    let listed = at(0).is_some() && at(0) < at(1) && at(1) < at(2);
    assert!(listed, "session one's events, oldest first:\n{msg}");
    assert!(!msg.contains("XlatMem"), "session two's are not:\n{msg}");
}
