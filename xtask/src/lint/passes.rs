//! The analysis passes of mask-lint v2.
//!
//! Each pass is a plain function over a [`FileCtx`] reporting into a
//! [`Sink`]; the engine in [`super`] runs every pass over every file and
//! layers the allow/test-mask machinery (plus the engine-implemented
//! `stale-allow` rule) on top. Passes search the lexer's code view, so a
//! token inside a string literal or comment can never fire a rule, and
//! consult the comment view for justification comments (ordering
//! rationales).

use super::lexer::Line;
use super::{find_word, FileCtx, Fix, Sink, HOTPATH_FILES};

/// Static description of one rule, for `--format sarif|json` output.
pub(crate) struct RuleInfo {
    /// Stable rule id, usable in `// lint: allow(<id>)`.
    pub id: &'static str,
    /// One-line summary (SARIF `shortDescription`).
    pub short: &'static str,
    /// Longer rationale (SARIF `fullDescription`).
    pub help: &'static str,
}

/// Every rule the engine knows, in stable order (SARIF `ruleIndex`).
pub(crate) const RULES: [RuleInfo; 11] = [
    RuleInfo {
        id: "collections",
        short: "HashMap/HashSet in a simulator crate",
        help: "HashMap/HashSet iteration order is seeded per process by \
               RandomState, which breaks run-to-run determinism of anything \
               that iterates; use BTreeMap/BTreeSet.",
    },
    RuleInfo {
        id: "nondeterminism",
        short: "wall clock or OS entropy",
        help: "Instant::now/SystemTime/thread_rng inject wall-clock or OS \
               state into the simulation; real time is measured outside the \
               workspace, in benchmark/.",
    },
    RuleInfo {
        id: "float-accum",
        short: "naive float accumulation in statistics code",
        help: "Float sums in stats.rs must go through CompensatedSum (or be \
               integer sums annotated with their type) so figures do not \
               drift with summation order.",
    },
    RuleInfo {
        id: "debug-derive",
        short: "pub struct in mask-common::req without #[derive(Debug)]",
        help: "Sanitizer and test diagnostics format requests; every pub \
               struct in the request vocabulary must derive Debug. \
               Mechanically fixable with --fix.",
    },
    RuleInfo {
        id: "unwrap",
        short: ".unwrap()/panic! in library code",
        help: "Use expect with an invariant message, return a typed error, \
               or annotate why the panic cannot fire.",
    },
    RuleInfo {
        id: "parallelism",
        short: "thread primitive outside the parallelism islands",
        help: "std::thread/Mutex/RwLock/Condvar/mpsc/atomics stay inside \
               crates/core/src/engine/{pool,cache}.rs, crates/obs/src/ring.rs, \
               and crates/maskd (a threaded network daemon) so the rest of \
               the simulator remains single-threaded.",
    },
    RuleInfo {
        id: "hotpath",
        short: "heap traffic in a per-cycle hot file",
        help: "vec!/Vec::new()/.clone()/.collect outside constructors in \
               the per-cycle hot files; the cycle loop must stay \
               allocation-free in steady state.",
    },
    RuleInfo {
        id: "atomic-ordering",
        short: "atomic memory ordering without a justification comment",
        help: "Every Ordering::Relaxed/Acquire/Release/AcqRel/SeqCst use \
               needs a same-statement or preceding comment justifying the \
               ordering; SeqCst in a per-cycle hot file must additionally \
               be justified by name (it is the costliest ordering).",
    },
    RuleInfo {
        id: "stale-allow",
        short: "lint: allow annotation that suppresses nothing",
        help: "A `// lint: allow(R)` that no longer masks any violation is \
               dead and hides future regressions; remove it (--fix does) or \
               correct its rule name.",
    },
    RuleInfo {
        id: "design-predicates",
        short: "DesignKind consulted outside the config/experiment layers",
        help: "Simulator layers must consume their own DesignSpec policy \
               axis (translation, tokens, l2, dram, compute, alloc) instead \
               of matching on named presets; DesignKind stays in \
               crates/common/src/config.rs (where the presets are defined), \
               crates/core (the experiment harnesses and job vocabulary), \
               crates/maskd (which names presets in wire documents), and \
               crates/bench.",
    },
    RuleInfo {
        id: "env-determinism",
        short: "environment read outside the config entry points",
        help: "std::env::var reads (MASK_* / MASKD_* or otherwise) are only \
               permitted in crates/common/src/config.rs, \
               crates/obs/src/ring.rs, crates/obs/src/export.rs, and \
               crates/maskd/src/config.rs; \
               anywhere else a stage of the cycle loop could silently fork \
               behavior on the environment.",
    },
];

/// The pass functions, run in order over every file. (`stale-allow` is
/// implemented by the engine itself, from the allow-usage ledger.)
pub(crate) const PASSES: [fn(&FileCtx<'_>, &mut Sink<'_>); 10] = [
    pass_collections,
    pass_nondeterminism,
    pass_parallelism,
    pass_hotpath,
    pass_float_accum,
    pass_unwrap,
    pass_debug_derive,
    pass_atomic_ordering,
    pass_design_predicates,
    pass_env_determinism,
];

/// Allocation/copy tokens forbidden on the hot path. `.collect` (no paren)
/// also catches turbofish `.collect::<T>()`.
const HOTPATH_TOKENS: [&str; 4] = ["vec![", "Vec::new()", ".clone()", ".collect"];

/// Integer type names whose presence marks an accumulation as exact.
const INT_TYPES: [&str; 11] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
];

fn pass_collections(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    for (i, l) in ctx.lines.iter().enumerate() {
        if let Some(c) = l.code.find("HashMap").or_else(|| l.code.find("HashSet")) {
            sink.report(
                i,
                c,
                "collections",
                "HashMap/HashSet iteration order is randomized per process; \
                 use BTreeMap/BTreeSet so simulation results are reproducible"
                    .into(),
                None,
            );
        }
    }
}

fn pass_nondeterminism(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    for (i, l) in ctx.lines.iter().enumerate() {
        for src in ["Instant::now", "SystemTime", "thread_rng"] {
            if let Some(c) = l.code.find(src) {
                sink.report(
                    i,
                    c,
                    "nondeterminism",
                    format!(
                        "`{src}` injects wall-clock/OS state into the simulation; \
                         real time is measured outside the workspace, in benchmark/"
                    ),
                    None,
                );
            }
        }
    }
}

fn pass_parallelism(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if ctx.island {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        for prim in [
            "std::thread",
            "Mutex",
            "RwLock",
            "Condvar",
            "mpsc",
            "Atomic",
        ] {
            if let Some(c) = l.code.find(prim) {
                sink.report(
                    i,
                    c,
                    "parallelism",
                    format!(
                        "`{prim}` outside the job engine; only \
                         crates/core/src/engine/{{pool,cache}}.rs, \
                         crates/obs/src/ring.rs and crates/maskd may spawn \
                         threads or share mutable state across them"
                    ),
                    None,
                );
            }
        }
    }
}

fn pass_hotpath(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if !ctx.hot_file {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        if ctx.ctor_mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        for tok in HOTPATH_TOKENS {
            if let Some(c) = l.code.find(tok) {
                sink.report(
                    i,
                    c,
                    "hotpath",
                    format!(
                        "`{tok}` in a per-cycle hot file; the cycle loop must be \
                         allocation-free — reuse a scratch buffer, drain into an \
                         out-parameter, or move the allocation into a constructor"
                    ),
                    None,
                );
            }
        }
    }
}

fn pass_float_accum(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if ctx.file_name != "stats.rs" {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        let code = &l.code;
        let exact = INT_TYPES
            .iter()
            .any(|t| code.contains(&format!(": {t}")) || code.contains(&format!("::<{t}>")));
        let compensated = code.contains("CompensatedSum") || code.contains("compensation");
        let float_sum = code.contains(".sum()")
            || (code.contains("+=") && (code.contains("f64") || code.contains("f32")));
        if float_sum && !exact && !compensated {
            sink.report(
                i,
                0,
                "float-accum",
                "float accumulation in statistics code must use CompensatedSum \
                 (or annotate an integer sum with its type)"
                    .into(),
                None,
            );
        }
    }
}

fn pass_unwrap(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    for (i, l) in ctx.lines.iter().enumerate() {
        if let Some(c) = l.code.find(".unwrap()").or_else(|| l.code.find("panic!")) {
            sink.report(
                i,
                c,
                "unwrap",
                "library code must not `.unwrap()`/`panic!`; use `expect` with an \
                 invariant message, return an error, or annotate why it cannot fire"
                    .into(),
                None,
            );
        }
    }
}

fn pass_debug_derive(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if ctx.krate != "common" || ctx.file_name != "req.rs" {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        if !l.code.trim_start().starts_with("pub struct ") {
            continue;
        }
        // Walk the contiguous attribute/doc block above the struct.
        let mut has_debug = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let above = &ctx.lines[j];
            let code = above.code.trim_start();
            if code.starts_with("#[") || code.starts_with("#!") {
                if code.contains("derive") && code.contains("Debug") {
                    has_debug = true;
                }
            } else if !above.code_is_blank() {
                break;
            }
        }
        if !has_debug {
            let indent: String = l.raw.chars().take_while(|c| c.is_whitespace()).collect();
            sink.report(
                i,
                0,
                "debug-derive",
                "pub structs in mask-common::req must #[derive(Debug)] so \
                 diagnostics can print requests"
                    .into(),
                Some(Fix::InsertAbove(format!("{indent}#[derive(Debug)]"))),
            );
        }
    }
}

/// The orderings the `atomic-ordering` pass audits.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn pass_atomic_ordering(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    for (i, l) in ctx.lines.iter().enumerate() {
        for ord in ORDERINGS {
            let token = format!("Ordering::{ord}");
            let Some(c) = l.code.find(token.as_str()) else {
                continue;
            };
            let just = justification(ctx.lines, i).unwrap_or_default();
            let justified = just.to_lowercase().contains("ordering") || just.contains(ord);
            if !justified {
                sink.report(
                    i,
                    c,
                    "atomic-ordering",
                    format!(
                        "`{token}` without an ordering-justification comment on \
                         the statement or directly above it; say what this \
                         ordering synchronizes with (or why no ordering is \
                         needed)"
                    ),
                    None,
                );
            } else if ord == "SeqCst" && ctx.hot_file && !just.contains("SeqCst") {
                sink.report(
                    i,
                    c,
                    "atomic-ordering",
                    "`Ordering::SeqCst` in a per-cycle hot file is a smell: \
                     justify by name why the strongest (and costliest) ordering \
                     is required here, or weaken it"
                        .into(),
                    None,
                );
            }
        }
    }
}

fn pass_design_predicates(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    // The preset table itself, the experiment/bench harnesses (which name
    // designs for tables and plots), the job vocabulary in mask-core, and
    // the daemon's wire format (which names presets in job documents)
    // legitimately speak in presets.
    if ctx.krate == "core"
        || ctx.krate == "bench"
        || ctx.krate == "maskd"
        || (ctx.krate == "common" && ctx.file_name == "config.rs")
    {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        if let Some(c) = find_word(&l.code, "DesignKind") {
            sink.report(
                i,
                c,
                "design-predicates",
                "simulator layers must consume their own `DesignSpec` axis \
                 (translation/tokens/l2/dram/compute/alloc), not branch on \
                 named `DesignKind` presets; preset knowledge belongs in \
                 crates/common/src/config.rs and the experiment harnesses"
                    .into(),
                None,
            );
        }
    }
}

fn pass_env_determinism(ctx: &FileCtx<'_>, sink: &mut Sink<'_>) {
    if ctx.env_entry {
        return;
    }
    for (i, l) in ctx.lines.iter().enumerate() {
        if let Some(c) = l.code.find("env::var") {
            sink.report(
                i,
                c,
                "env-determinism",
                "environment read outside the designated config entry points \
                 (crates/common/src/config.rs, crates/obs/src/ring.rs, \
                 crates/obs/src/export.rs, crates/maskd/src/config.rs); \
                 resolve MASK_* settings once at \
                 configuration time so no stage of the cycle loop can fork \
                 behavior on the environment"
                    .into(),
                None,
            );
        }
    }
}

/// First line of the multi-line statement containing line `i`: walks up
/// while the previous line is a code line that does not end a statement
/// (`;`, `{`, or `}`). A heuristic, not a parse — good enough to attach a
/// justification comment above an `if`/`while` head to the atomic loads in
/// its multi-line condition.
fn stmt_start(lines: &[Line], i: usize) -> usize {
    let mut s = i;
    while s > 0 {
        let above = lines[s - 1].code.trim_end();
        let t = above.trim_start();
        if t.is_empty()
            || t.starts_with("#[")
            || above.ends_with(';')
            || above.ends_with('{')
            || above.ends_with('}')
        {
            break;
        }
        s -= 1;
    }
    s
}

/// The justification text visible from line `i`: trailing comments on the
/// statement's own lines plus the contiguous comment/attribute block
/// directly above the statement. `None` when there is no comment at all.
fn justification(lines: &[Line], i: usize) -> Option<String> {
    let s = stmt_start(lines, i);
    let mut text = String::new();
    for l in &lines[s..=i] {
        text.push_str(&l.comment);
        text.push('\n');
    }
    let mut j = s;
    while j > 0 {
        let above = &lines[j - 1];
        let code = above.code.trim();
        let comment_only = code.is_empty() && !above.comment.trim().is_empty();
        if comment_only || code.starts_with("#[") || code.starts_with("#!") {
            text.push_str(&above.comment);
            text.push('\n');
        } else {
            break;
        }
        j -= 1;
    }
    if text.trim().is_empty() {
        None
    } else {
        Some(text)
    }
}

/// True when `path` (normalized) is one of the per-cycle hot files.
pub(crate) fn is_hot_file(norm: &str) -> bool {
    HOTPATH_FILES.iter().any(|f| norm.ends_with(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_table_matches_pass_count() {
        // 10 pass functions + the engine-implemented stale-allow.
        assert_eq!(RULES.len(), PASSES.len() + 1);
        let ids: Vec<&str> = RULES.iter().map(|r| r.id).collect();
        assert!(ids.contains(&"stale-allow"));
        // Ids are unique (ruleIndex in SARIF output relies on this).
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn hot_file_predicate_matches_suffixes() {
        assert!(is_hot_file("/repo/crates/gpu/src/sim.rs"));
        assert!(is_hot_file("/repo/crates/gpu/src/core_model.rs"));
        assert!(is_hot_file("/repo/crates/workloads/src/trace.rs"));
        assert!(!is_hot_file("/repo/crates/workloads/src/profile.rs"));
        // The snapshot codec runs at epoch boundaries, not per cycle.
        assert!(!is_hot_file("/repo/crates/common/src/snapshot.rs"));
    }
}
