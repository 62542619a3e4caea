//! mask-lint v2: the `cargo xtask lint` token-aware static analyzer.
//!
//! A zero-dependency, pass-based analysis engine over every
//! `crates/*/src/**/*.rs` file. Sources are first run through the
//! [`lexer`], which classifies every character as code, comment, or
//! string/char-literal content (the v1 scanner was line-oriented and could
//! be fooled by `//` or braces inside string literals); the passes in
//! [`passes`] then search the code view and consult the comment view, so
//! rules never fire inside strings and never miss code after one.
//!
//! | rule id             | what it enforces                                           |
//! |---------------------|------------------------------------------------------------|
//! | `parallelism`       | thread primitives only in the parallelism islands:         |
//! |                     | `crates/core/src/engine/{pool,cache}.rs`,                  |
//! |                     | `crates/obs/src/ring.rs`, and `crates/maskd` (a threaded   |
//! |                     | network daemon)                                            |
//! | `hotpath`           | no heap traffic (`vec![`, `Vec::new()`, `.clone()`,        |
//! |                     | `.collect`) in per-cycle hot files outside constructors    |
//! | `env-determinism`   | environment reads (`env::var*`) only in the designated     |
//! |                     | config entry points, so no stage of the cycle loop can     |
//! |                     | fork behavior on the environment mid-run                   |
//! | `design-predicates` | `DesignKind` stays out of the simulator layers: presets    |
//! |                     | live in `crates/common/src/config.rs` and the experiment / |
//! |                     | bench harnesses; layers consume `DesignSpec` axes          |
//! | `stale-allow`       | a `// lint: allow(R)` that no longer suppresses anything   |
//! |                     | is itself an error                                         |
//!
//! Hash collections, the wall clock, `unwrap`/`panic!` and missing `Debug`
//! impls are clippy's and rustc's business (`crates/clippy.toml`, the
//! workspace lints, `#![deny(missing_debug_implementations)]` on
//! `mask-common`); see DESIGN.md §11.
//!
//! Test code is exempt: items guarded by `#[cfg(test)]` (including nested
//! guarded items, guarded `use` statements, and spans containing braces
//! inside strings) are masked out. Any line can opt out of rule `R` with
//! `// lint: allow(R)` on the same line or the line directly above — and
//! the `stale-allow` pass guarantees those annotations cannot rot.

pub(crate) mod lexer;
pub(crate) mod passes;

use lexer::Line;
use std::cell::Cell;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Violation {
    /// File the violation is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// 1-based char column of the offending token (1 when unknown).
    pub col: usize,
    /// Rule identifier (usable in `// lint: allow(<rule>)`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.col,
            self.rule,
            self.message
        )
    }
}

/// One `// lint: allow(rule)` annotation, tracked so unused ones rot into
/// `stale-allow` violations instead of lingering silently.
struct Allow {
    rule: String,
    /// 0-based line the annotation is on (covers this line and the next).
    line: usize,
    used: Cell<bool>,
}

/// Per-file context handed to every pass.
pub(crate) struct FileCtx<'a> {
    /// Crate name (the `crates/<name>` component), or empty.
    pub krate: String,
    /// File name (`config.rs` scoping).
    pub file_name: String,
    /// The scanned lines.
    pub lines: &'a [Line],
    /// Lines inside constructor fns (hot files only; empty otherwise).
    pub ctor_mask: &'a [bool],
    /// This file is one of the per-cycle hot files.
    pub hot_file: bool,
    /// This file is a declared parallelism island.
    pub island: bool,
    /// This file is a designated environment-read entry point.
    pub env_entry: bool,
}

/// Collects violations, applying the `#[cfg(test)]` mask and consuming
/// `lint: allow` annotations.
pub(crate) struct Sink<'a> {
    path: &'a Path,
    test_mask: &'a [bool],
    allows: &'a [Allow],
    out: Vec<Violation>,
}

impl Sink<'_> {
    /// Reports one violation at 0-based `line`/`col`, unless the line is
    /// test-masked or an allow annotation covers it.
    pub(crate) fn report(&mut self, line: usize, col: usize, rule: &'static str, message: String) {
        if self.test_mask.get(line).copied().unwrap_or(false) {
            return;
        }
        // Same-line annotations take precedence over line-above ones, so a
        // violation never consumes the annotation of the line above it when
        // it carries its own.
        for dist in [0usize, 1] {
            for a in self.allows {
                if a.rule == rule && a.line + dist == line {
                    a.used.set(true);
                    return;
                }
            }
        }
        self.out.push(Violation {
            path: self.path.to_path_buf(),
            line: line + 1,
            col: col + 1,
            rule,
            message,
        });
    }
}

/// Files whose per-cycle code must stay allocation-free (the `hotpath`
/// rule). Matched as path suffixes.
///
/// The snapshot codec (`crates/common/src/snapshot.rs`) is deliberately
/// *not* registered here: checkpoint encoding/decoding runs only at
/// epoch-boundary snapshot points, never inside the per-cycle loop, so
/// it may allocate freely (the fixture tests pin this decision down).
pub(crate) const HOTPATH_FILES: [&str; 13] = [
    "crates/gpu/src/sim.rs",
    "crates/gpu/src/core_model.rs",
    "crates/gpu/src/translation.rs",
    "crates/workloads/src/trace.rs",
    "crates/cache/src/l2.rs",
    "crates/cache/src/mshr.rs",
    "crates/cache/src/data.rs",
    "crates/dram/src/device.rs",
    "crates/dram/src/queues.rs",
    "crates/tlb/src/assoc.rs",
    "crates/pagetable/src/walker.rs",
    "crates/pagetable/src/table.rs",
    "crates/obs/src/hooks.rs",
];

/// Designated environment-read entry points (the `env-determinism` rule):
/// the shared config module (every `MASK_*` knob of the simulator and the
/// job engine, `MASK_SNAPSHOT_DIR` included), the tracer's gate/exporter,
/// and the daemon's config module (which resolves every `MASKD_*` knob
/// once at boot — the server/queue/store layers must take a
/// `DaemonConfig`, never read the environment themselves).
pub(crate) const ENV_ENTRY_FILES: [&str; 4] = [
    "crates/common/src/config.rs",
    "crates/obs/src/ring.rs",
    "crates/obs/src/export.rs",
    "crates/maskd/src/config.rs",
];

/// Which crate (the `crates/<name>` component) a path belongs to, if any.
fn crate_of(path: &Path) -> Option<String> {
    let mut comps = path.components().map(|c| c.as_os_str().to_string_lossy());
    while let Some(c) = comps.next() {
        if c == "crates" {
            return comps.next().map(std::borrow::Cow::into_owned);
        }
    }
    None
}

/// True when the attribute line guards test-only code: `#[cfg(test)]` or a
/// conjunction containing `test` (but not `not(test)`).
fn is_cfg_test(code: &str) -> bool {
    let t = code.trim();
    t.starts_with("#[cfg(") && contains_word(t, "test") && !t.contains("not(test")
}

/// True when `hay` contains `word` with non-identifier chars on both sides.
pub(crate) fn contains_word(hay: &str, word: &str) -> bool {
    find_word(hay, word).is_some()
}

/// Position of the first identifier-boundary occurrence of `word`.
pub(crate) fn find_word(hay: &str, word: &str) -> Option<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(p) = hay[from..].find(word) {
        let p = from + p;
        let before_ok = !hay[..p].chars().next_back().is_some_and(ident);
        let after_ok = !hay[p + word.len()..].chars().next().is_some_and(ident);
        if before_ok && after_ok {
            return Some(p);
        }
        from = p + word.len();
    }
    None
}

/// Lines of the file that are test-only: anything covered by a
/// `#[cfg(test)]` attribute — the guarded brace span, or the guarded
/// single item (e.g. a `use`) for bodyless items. Brace counting runs on
/// the code view, so braces inside strings cannot corrupt the span, and
/// nested guarded items inside an already-masked span are handled.
fn test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if mask[i] || !is_cfg_test(&lines[i].code) {
            i += 1;
            continue;
        }
        mask[i] = true;
        // Skip any further attributes, then cover the guarded item.
        let mut j = i + 1;
        while j < lines.len() && lines[j].code.trim_start().starts_with("#[") {
            mask[j] = true;
            j += 1;
        }
        let mut depth: i64 = 0;
        let mut saw_open = false;
        while j < lines.len() {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        saw_open = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            mask[j] = true;
            let done = (saw_open && depth <= 0)
                || (!saw_open && depth == 0 && lines[j].code.contains(';'));
            j += 1;
            if done {
                break;
            }
        }
        i = j;
    }
    mask
}

/// Lines inside constructor functions (`fn new*`, `fn with_*`,
/// `fn default`), where one-time allocation is expected and allowed.
fn ctor_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let is_ctor = ["fn new", "fn with_", "fn default"]
            .iter()
            .any(|p| lines[i].code.contains(p));
        if !is_ctor {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut saw_open = false;
        let mut j = i;
        while j < lines.len() {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        saw_open = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            mask[j] = true;
            j += 1;
            if saw_open && depth <= 0 {
                break;
            }
        }
        i = j;
    }
    mask
}

/// Extracts every `lint: allow(rule)` annotation from the comment views.
fn collect_allows(lines: &[Line]) -> Vec<Allow> {
    const TAG: &str = "lint: allow(";
    let mut allows = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let mut rest = l.comment.as_str();
        while let Some(p) = rest.find(TAG) {
            rest = &rest[p + TAG.len()..];
            if let Some(end) = rest.find(')') {
                allows.push(Allow {
                    rule: rest[..end].trim().to_string(),
                    line: i,
                    used: Cell::new(false),
                });
                rest = &rest[end..];
            }
        }
    }
    allows
}

/// Scans one source file and returns every violation in it, sorted by
/// line then column.
pub(crate) fn lint_source(path: &Path, contents: &str) -> Vec<Violation> {
    let lines = lexer::scan(contents);
    let mask = test_mask(&lines);
    let norm = path.to_string_lossy().replace('\\', "/");
    let krate = crate_of(path).unwrap_or_default();
    let hot_file = passes::is_hot_file(&norm);
    let ctors = if hot_file {
        ctor_mask(&lines)
    } else {
        Vec::new()
    };
    // Of the job engine, only the pool (workers, ticket counter) and the
    // caches (shared behind locks) touch threads; job identity does not.
    let engine_file = ["pool.rs", "cache.rs"]
        .iter()
        .any(|f| norm.ends_with(&format!("crates/core/src/engine/{f}")));
    let island = engine_file
        // The daemon is a threaded network server end to end (acceptor,
        // per-connection handlers, dispatcher, condvar-held event
        // streams): the whole crate is a declared island.
        || krate == "maskd"
        || norm.ends_with("crates/obs/src/ring.rs");
    let env_entry = ENV_ENTRY_FILES.iter().any(|f| norm.ends_with(f));
    let ctx = FileCtx {
        krate,
        file_name: path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default(),
        lines: &lines,
        ctor_mask: &ctors,
        hot_file,
        island,
        env_entry,
    };
    let allows = collect_allows(&lines);
    let mut sink = Sink {
        path,
        test_mask: &mask,
        allows: &allows,
        out: Vec::new(),
    };
    for pass in passes::PASSES {
        pass(&ctx, &mut sink);
    }
    // stale-allow runs last, over the engine's own usage ledger. Plain
    // annotations are checked first so that an `allow(stale-allow)` which
    // shields one of them is marked used before its own staleness check.
    let stale_last = |a: &&Allow| usize::from(a.rule == "stale-allow");
    let mut ordered: Vec<&Allow> = allows.iter().collect();
    ordered.sort_by_key(stale_last);
    for a in ordered {
        if a.used.get() || mask[a.line] {
            continue;
        }
        sink.report(
            a.line,
            lines[a.line].comment_start.unwrap_or(0),
            "stale-allow",
            format!(
                "`lint: allow({})` no longer suppresses any violation; remove \
                 the annotation (or fix its rule name)",
                a.rule
            ),
        );
    }
    let mut out = sink.out;
    out.sort_by_key(|v| (v.line, v.col, v.rule));
    out
}

/// Recursively lints every `.rs` file under `crates/*/src` in `root`.
///
/// # Errors
///
/// Returns an error when the workspace layout cannot be read.
pub(crate) fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            lint_tree(&src, &mut out)?;
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(out)
}

fn lint_tree(dir: &Path, out: &mut Vec<Violation>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            lint_tree(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let contents = std::fs::read_to_string(&path)?;
            out.extend(lint_source(&path, &contents));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
