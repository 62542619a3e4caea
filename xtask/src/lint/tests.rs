//! Engine and rule tests: one red-fixture test per rule (proving each
//! rule fires), one clean fixture per rule, the v1 regression cases
//! (`//` inside strings, brace-in-string `#[cfg(test)]` spans), and a
//! self-check that the repository itself is lint-clean under all 5 rules.

use super::*;

fn lint(path: &str, src: &str) -> Vec<Violation> {
    lint_source(Path::new(path), src)
}

fn rules(v: &[Violation]) -> Vec<&'static str> {
    v.iter().map(|x| x.rule).collect()
}

// One red test per rule: each proves the rule actually fires.

#[test]
fn red_parallelism_flags_thread_primitives_outside_engine() {
    let v = lint(
        "crates/gpu/src/sim.rs",
        "let h = std::thread::spawn(f);\nlet m = std::sync::Mutex::new(0);\n",
    );
    assert_eq!(rules(&v), ["parallelism", "parallelism"]);
    let v = lint(
        "crates/core/src/runner.rs",
        "use std::sync::atomic::AtomicUsize;\n",
    );
    assert_eq!(rules(&v), ["parallelism"]);
}

#[test]
fn red_hotpath_flags_allocation_in_cycle_code() {
    let src = "\
pub fn tick(&mut self) {
    let xs = vec![1, 2];
    let mut out = Vec::new();
    let c = self.reqs.clone();
    let v: Vec<u32> = self.reqs.iter().map(f).collect();
}
";
    for file in HOTPATH_FILES {
        let v = lint(&format!("/repo/{file}"), src);
        assert_eq!(
            rules(&v),
            ["hotpath", "hotpath", "hotpath", "hotpath"],
            "in {file}: {v:?}"
        );
    }
}

#[test]
fn red_hotpath_catches_turbofish_collect() {
    let v = lint(
        "crates/cache/src/l2.rs",
        "pub fn tick(&mut self) {\n    let v = xs.iter().collect::<Vec<_>>();\n}\n",
    );
    assert_eq!(rules(&v), ["hotpath"]);
}

#[test]
fn red_stale_allow_flags_suppressing_nothing() {
    let v = lint(
        "crates/cache/src/mshr.rs",
        "let x = well_behaved(); // lint: allow(unwrap)\n",
    );
    assert_eq!(rules(&v), ["stale-allow"]);
    assert_eq!(v[0].col, 25);
    // An annotation alone on its line rots the same way.
    let v = lint(
        "crates/cache/src/mshr.rs",
        "// lint: allow(hotpath) -- obsolete\nlet x = well_behaved();\n",
    );
    assert_eq!(rules(&v), ["stale-allow"]);
}

#[test]
fn clean_stale_allow_used_annotations_survive() {
    let v = lint(
        "crates/cache/src/mshr.rs",
        "let x = self.xs.clone(); // lint: allow(hotpath) -- debug API, off-cycle\n",
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn stale_allow_catches_misspelled_rule_names() {
    // A typo'd rule id suppresses nothing, so it rots immediately instead
    // of silently masking the author's intent.
    let v = lint(
        "crates/cache/src/mshr.rs",
        "let x = self.xs.clone(); // lint: allow(hotpth)\n",
    );
    assert_eq!(rules(&v), ["hotpath", "stale-allow"]);
}

#[test]
fn red_design_predicates_flags_preset_checks_in_sim_layers() {
    let v = lint(
        "crates/gpu/src/sim.rs",
        "if design == DesignKind::Mask { enable_tokens(); }\n",
    );
    assert_eq!(rules(&v), ["design-predicates"]);
    // Any mention counts, not just comparisons: imports rot into use sites.
    let v = lint(
        "crates/dram/src/device.rs",
        "use mask_common::config::DesignKind;\n",
    );
    assert_eq!(rules(&v), ["design-predicates"]);
}

#[test]
fn clean_design_predicates_config_harnesses_and_tests_are_exempt() {
    let src = "let d = DesignKind::Mask.spec();\n";
    // The preset table itself.
    assert!(lint("crates/common/src/config.rs", src).is_empty());
    // Experiment harnesses and the job vocabulary.
    assert!(lint("crates/core/src/experiments/multiprog.rs", src).is_empty());
    assert!(lint("crates/core/src/engine/job.rs", src).is_empty());
    assert!(lint("crates/bench/src/lib.rs", src).is_empty());
    // Test code is masked like every other rule.
    let guarded = "#[cfg(test)]\nmod tests {\n    use mask_common::DesignKind;\n}\n";
    assert!(lint("crates/gpu/src/sim.rs", guarded).is_empty());
    // A word-boundary hit only: identifiers merely containing the token
    // are someone else's business.
    let v = lint("crates/gpu/src/sim.rs", "let my_design_kind = 3;\n");
    assert!(v.is_empty());
}

#[test]
fn red_env_determinism_flags_env_reads_outside_entry_points() {
    let v = lint(
        "crates/gpu/src/sim.rs",
        "let n = std::env::var(\"MASK_FANCY\").ok();\n",
    );
    assert_eq!(rules(&v), ["env-determinism"]);
    let v = lint(
        "crates/core/src/experiments/mod.rs",
        "let n = std::env::var_os(\"MASK_PAIR_LIMIT\");\n",
    );
    assert_eq!(rules(&v), ["env-determinism"]);
}

#[test]
fn clean_env_determinism_entry_points_may_read() {
    let src = "let n = std::env::var(\"MASK_JOBS\").ok();\n";
    assert!(lint("crates/common/src/config.rs", src).is_empty());
    assert!(lint("crates/obs/src/ring.rs", src).is_empty());
    assert!(lint("crates/obs/src/export.rs", src).is_empty());
}

#[test]
fn maskd_is_a_parallelism_island_but_not_an_env_free_for_all() {
    // The daemon crate is a declared island: its server/queue/store
    // layers are threaded by design.
    let threads = "let h = std::thread::spawn(f);\nlet m = std::sync::Mutex::new(0);\n";
    assert!(lint("crates/maskd/src/server.rs", threads).is_empty());
    // Island status does not exempt it from env-determinism: only the
    // daemon's config module may read MASKD_* knobs...
    let env = "let a = std::env::var(\"MASKD_ADDR\").ok();\n";
    assert!(lint("crates/maskd/src/config.rs", env).is_empty());
    // ...and an env read anywhere else in the crate is a violation.
    assert_eq!(
        rules(&lint("crates/maskd/src/server.rs", env)),
        ["env-determinism"]
    );
}

#[test]
fn red_env_determinism_engine_takes_snapshot_dir_from_config() {
    // MASK_SNAPSHOT_DIR is resolved in the shared config module; the job
    // engine, like the rest of mask-core, never reads the environment.
    let src = "let d = std::env::var_os(\"MASK_SNAPSHOT_DIR\");\n";
    assert!(lint("crates/common/src/config.rs", src).is_empty());
    for file in [
        "crates/core/src/engine/pool.rs",
        "crates/core/src/runner.rs",
    ] {
        assert_eq!(rules(&lint(file, src)), ["env-determinism"]);
    }
}

#[test]
fn clean_hotpath_snapshot_codec_may_allocate() {
    // The snapshot codec is registered as a cold file: it runs at
    // epoch-boundary checkpoint points, never inside the cycle loop.
    let src = "let mut buf: Vec<u8> = Vec::new();\nlet c = self.sections.clone();\n";
    assert!(lint("crates/common/src/snapshot.rs", src).is_empty());
}

#[test]
fn red_hotpath_snapshot_style_code_in_hot_files_still_fires() {
    // The same allocation pattern inside a per-cycle hot file stays red —
    // the codec exemption is per-file, not per-pattern.
    let v = lint(
        "crates/gpu/src/translation.rs",
        "let mut buf: Vec<u8> = Vec::new();\n",
    );
    assert_eq!(rules(&v), ["hotpath"]);
}

// v1 regression cases the token-aware engine fixes.

#[test]
fn regression_comment_slashes_inside_string_do_not_truncate_the_line() {
    // v1's `code_of` cut this line at the `//` inside the string literal,
    // so the Mutex after it was never scanned. v2 lexes the string and
    // sees the whole line.
    let v = lint(
        "crates/tlb/src/l1.rs",
        "let note = \"// not a comment\"; let m = std::sync::Mutex::new(0);\n",
    );
    assert_eq!(rules(&v), ["parallelism"]);
    assert!(
        v[0].col > 20,
        "flagged after the string, not inside it: {v:?}"
    );
}

#[test]
fn forbidden_tokens_inside_strings_and_chars_do_not_fire() {
    let v = lint(
        "crates/tlb/src/l1.rs",
        "let s = \"HashMap::new() Instant::now Mutex\";\nlet c = '{';\n",
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn cfg_test_span_survives_braces_inside_strings() {
    // v1 counted the `"}"` string brace and closed the test span early,
    // leaking the rest of the module into linted code.
    let src = "\
pub fn lib() {}

#[cfg(test)]
mod tests {
    fn fixture() -> &'static str { \"}\" }

    #[test]
    fn t() {
        use std::sync::Mutex;
        let m = Mutex::new(0u8);
    }
}
";
    assert!(lint("crates/tlb/src/l1.rs", src).is_empty());
}

#[test]
fn nested_cfg_test_items_are_masked() {
    let src = "\
#[cfg(test)]
mod tests {
    #[cfg(test)]
    mod inner {
        use std::sync::Mutex;
    }

    fn t() { let m = Mutex::new(0); }
}
";
    assert!(lint("crates/tlb/src/l1.rs", src).is_empty());
}

#[test]
fn cfg_test_on_use_statements_is_masked() {
    let src = "\
#[cfg(test)]
use std::sync::Mutex;

#[cfg(test)]
use std::sync::{Condvar, RwLock};

pub fn f() {
    let m = std::sync::Mutex::new(0);
}
";
    let v = lint("crates/tlb/src/l1.rs", src);
    assert_eq!(rules(&v), ["parallelism"]);
    assert_eq!(v[0].line, 8);
}

#[test]
fn cfg_test_conjunctions_are_masked_but_not_test_is_not() {
    let masked = "\
#[cfg(all(test, feature = \"slow\"))]
mod tests {
    use std::sync::Mutex;
}
";
    assert!(lint("crates/tlb/src/l1.rs", masked).is_empty());
    let not_test = "\
#[cfg(not(test))]
pub fn f() {
    let m = std::sync::Mutex::new(0);
}
";
    assert_eq!(
        rules(&lint("crates/tlb/src/l1.rs", not_test)),
        ["parallelism"]
    );
}

// Exemptions and scoping (ported from v1).

#[test]
fn hotpath_constructors_may_allocate() {
    let src = "\
pub fn new(n: usize) -> Self {
    Self { banks: vec![Bank::new(); n], scratch: Vec::new() }
}

pub fn with_bypass(n: usize) -> Self {
    let banks: Vec<Bank> = (0..n).map(|_| Bank::new()).collect();
    Self { banks, scratch: Vec::new() }
}
";
    assert!(lint("crates/cache/src/l2.rs", src).is_empty());
}

#[test]
fn hotpath_rule_is_scoped_to_hot_files() {
    let src = "pub fn tick(&mut self) {\n    let v = Vec::new();\n}\n";
    assert!(lint("crates/cache/src/bypass.rs", src).is_empty());
    assert!(lint("crates/workloads/src/profile.rs", src).is_empty());
}

#[test]
fn red_hotpath_covers_the_front_end() {
    // The issue stage and the trace generator behind it run once per
    // memory instruction: `GpuCore::issue` reuses per-core scratch and
    // `next_op_into` writes into the warp's own line buffer.
    let issue = "fn issue_memory(&mut self, w: usize) {\n    \
         let vpns: Vec<Vpn> = self.warps[w].lines.iter().map(vpn_of).collect();\n}\n";
    assert_eq!(
        rules(&lint("crates/gpu/src/core_model.rs", issue)),
        ["hotpath"]
    );
    let next_op = "pub fn next_op_into(&mut self, lines: &mut Vec<VirtAddr>) -> u32 {\n    \
         let recent = self.recent.clone();\n    0\n}\n";
    assert_eq!(
        rules(&lint("crates/workloads/src/trace.rs", next_op)),
        ["hotpath"]
    );
    // Construction is cold in both.
    let ctor = "pub fn new(cfg: &GpuConfig) -> Self {\n    \
         let warps = (0..cfg.warps_per_core).map(WarpCtx::fresh).collect::<Vec<_>>();\n    \
         GpuCore { warps }\n}\n";
    assert!(lint("crates/gpu/src/core_model.rs", ctor).is_empty());
}

#[test]
fn red_hotpath_covers_the_per_cycle_memory_structures() {
    // The DRAM device, the MSHRs, the data and TLB arrays, the walker and
    // the page tables it maps into are scanned or probed every cycle: a
    // per-call allocation in any of them is as hot as one in `GpuSim::step`.
    let src = "pub fn complete_into(&mut self) {\n    let mut out = Vec::new();\n}\n";
    for file in [
        "crates/dram/src/device.rs",
        "crates/cache/src/mshr.rs",
        "crates/cache/src/data.rs",
        "crates/tlb/src/assoc.rs",
        "crates/pagetable/src/walker.rs",
        "crates/pagetable/src/table.rs",
    ] {
        assert_eq!(rules(&lint(file, src)), ["hotpath"], "in {file}");
    }
    // Their cold allocating wrappers carry an annotation instead.
    let wrapper = "pub fn complete(&mut self) -> Vec<u32> {\n    \
         // lint: allow(hotpath) -- allocating wrapper for tests/cold paths.\n    \
         let mut out = Vec::new();\n    out\n}\n";
    assert!(lint("crates/cache/src/mshr.rs", wrapper).is_empty());
}

#[test]
fn hotpath_allow_annotation_works() {
    let v = lint(
        "crates/gpu/src/sim.rs",
        "pub fn snapshot(&self) -> Vec<u32> {\n    \
         self.xs.clone() // lint: allow(hotpath) -- debug API, off-cycle\n}\n",
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn allow_annotation_suppresses_same_line_and_next_line() {
    let v = lint(
        "crates/cache/src/l2.rs",
        "let x = self.xs.clone(); // lint: allow(hotpath)\n\
         // lint: allow(hotpath) -- off-cycle\n\
         let y = self.ys.clone();\n",
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn consecutive_same_line_allows_each_cover_their_own_line() {
    // The first annotation also *covers* the second line, but the second
    // line's own annotation must be the one consumed — otherwise it would
    // be reported stale.
    let v = lint(
        "crates/cache/src/l2.rs",
        "let x = self.xs.clone(); // lint: allow(hotpath)\n\
         let y = self.ys.clone(); // lint: allow(hotpath)\n",
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn allow_annotation_is_rule_specific_and_rots_when_mismatched() {
    // The mismatched annotation does not suppress the clone — and, being
    // useless, is itself flagged as stale.
    let v = lint(
        "crates/cache/src/l2.rs",
        "let x = self.xs.clone(); // lint: allow(parallelism)\n",
    );
    assert_eq!(rules(&v), ["hotpath", "stale-allow"]);
}

#[test]
fn cfg_test_module_is_exempt() {
    let src = "\
pub fn lib() {}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn t() {
        let m = Mutex::new(vec![0u8]);
        assert!(m.lock().is_ok());
    }
}
";
    assert!(lint("crates/tlb/src/l1.rs", src).is_empty());
}

#[test]
fn cfg_test_single_item_is_exempt_but_rest_is_not() {
    let src = "\
#[cfg(test)]
use std::sync::Mutex;

pub fn f() {
    let m = std::sync::Mutex::new(0);
}
";
    let v = lint("crates/tlb/src/l1.rs", src);
    assert_eq!(rules(&v), ["parallelism"]);
    assert_eq!(v[0].line, 5);
}

#[test]
fn commented_out_code_is_exempt() {
    let v = lint("crates/tlb/src/l1.rs", "// let m = Mutex::new(0);\n");
    assert!(v.is_empty());
    let v = lint("crates/tlb/src/l1.rs", "/* let m = Mutex::new(0); */\n");
    assert!(v.is_empty());
}

#[test]
fn engine_may_use_thread_primitives() {
    let src = "use std::sync::Mutex;\nstd::thread::scope(|s| {});\n";
    assert!(lint("crates/core/src/engine/pool.rs", src).is_empty());
    assert!(lint("crates/core/src/engine/cache.rs", src).is_empty());
    // The exemption is for engine files only, not all of mask-core.
    assert!(!lint("crates/core/src/metrics.rs", src).is_empty());
}

#[test]
fn red_parallelism_job_identity_stays_single_threaded() {
    // Of the engine's files only the pool and the caches are islands.
    let v = lint("crates/core/src/engine/job.rs", "use std::sync::Mutex;\n");
    assert_eq!(rules(&v), ["parallelism"]);
    assert!(!lint("crates/core/src/engine/mod.rs", "use std::sync::Mutex;\n").is_empty());
}

#[test]
fn red_parallelism_store_index_takes_no_lock() {
    // The envelope store's recency index is shared by ownership: whoever
    // holds the store puts it behind the lock they already have.
    let v = lint(
        "crates/common/src/store.rs",
        "pub struct EnvelopeStore {\n    index: std::sync::Mutex<Index>,\n}\n",
    );
    assert_eq!(rules(&v), ["parallelism"]);
    assert_eq!(v[0].line, 2);
}

#[test]
fn obs_ring_may_use_thread_primitives_but_hooks_stay_hotpath_clean() {
    // The tracer's ring-buffer module is a parallelism island…
    let threads = "use std::sync::Mutex;\nstatic GATE: AtomicU8 = AtomicU8::new(0);\n";
    assert!(lint("crates/obs/src/ring.rs", threads).is_empty());
    // …and only ring.rs: the rest of mask-obs stays primitive-free.
    assert_eq!(
        rules(&lint("crates/obs/src/metrics.rs", threads)),
        ["parallelism", "parallelism"]
    );
    assert!(!lint("crates/obs/src/hooks.rs", threads).is_empty());
    // The hooks the cycle loop calls unconditionally are a hot file:
    // the disabled-tracing path must not allocate.
    let alloc = "pub fn tlb_probe(level: TlbLevel) {\n    let v = Vec::new();\n}\n";
    assert_eq!(rules(&lint("crates/obs/src/hooks.rs", alloc)), ["hotpath"]);
    // The hotpath rule is scoped to hooks.rs, not the whole crate —
    // the exporter may allocate freely.
    assert!(lint("crates/obs/src/export.rs", alloc).is_empty());
}

// Self-check: the repository itself must be clean under all 5 rules.

#[test]
fn repo_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the workspace root");
    let violations = lint_workspace(root).expect("scan the workspace");
    assert!(
        violations.is_empty(),
        "the repo must hold its own lint rules:\n{}",
        violations
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
