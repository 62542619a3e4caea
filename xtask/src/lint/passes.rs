//! The analysis passes of mask-lint v2.
//!
//! Each pass is a plain function over a [`FileCtx`] reporting into a
//! [`Sink`]; the engine in [`super`] runs every pass over every file and
//! layers the allow/test-mask machinery (plus the engine-implemented
//! `stale-allow` rule) on top. Passes search the lexer's code view, so a
//! token inside a string literal or comment can never fire a rule.

use super::{find_word, FileCtx, Sink, HOTPATH_FILES};

/// The pass functions, run in order over every file. (`stale-allow` is
/// implemented by the engine itself, from the allow-usage ledger.)
pub(crate) const PASSES: [fn(&FileCtx<'_>, &mut Sink<'_>); 4] = [
    pass_parallelism,
    pass_hotpath,
    pass_design_predicates,
    pass_env_determinism,
];

/// Allocation/copy tokens forbidden on the hot path. `.collect` (no paren)
/// also catches turbofish `.collect::<T>()`.
const HOTPATH_TOKENS: [&str; 4] = ["vec![", "Vec::new()", ".clone()", ".collect"];

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
            );
        }
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
    fn hot_file_predicate_matches_suffixes() {
        assert!(is_hot_file("/repo/crates/gpu/src/sim.rs"));
        assert!(is_hot_file("/repo/crates/gpu/src/core_model.rs"));
        assert!(is_hot_file("/repo/crates/workloads/src/trace.rs"));
        assert!(!is_hot_file("/repo/crates/workloads/src/profile.rs"));
        // The snapshot codec runs at epoch boundaries, not per cycle.
        assert!(!is_hot_file("/repo/crates/common/src/snapshot.rs"));
    }
}
