//! Workspace automation tasks (`cargo xtask <task>`).
//!
//! The only task today is `lint`, the mask-lint v2 static-analysis engine
//! described in [`lint`]. It takes no flags, prints violations as text and
//! exits non-zero when any rule fires, so CI can gate on it:
//!
//! ```text
//! cargo xtask lint                   # scan crates/*/src
//! ```

mod lint;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <task>

tasks:
  lint    scan crates/*/src for simulator hygiene violations";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next()) {
        (Some("lint"), None) => run_lint(),
        (Some("--help" | "-h" | "help") | None, _) => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        (Some("lint"), Some(flag)) => {
            eprintln!("xtask lint: unknown flag `{flag}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
        (Some(other), _) => {
            eprintln!("unknown task `{other}` (try `cargo xtask help`)");
            ExitCode::FAILURE
        }
    }
}

/// Locates the workspace root: the manifest dir's parent when run via
/// cargo, else the current directory.
fn workspace_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR").map_or_else(
        || PathBuf::from("."),
        |d| {
            PathBuf::from(d)
                .parent()
                .map_or_else(|| PathBuf::from("."), PathBuf::from)
        },
    )
}

fn run_lint() -> ExitCode {
    let root = workspace_root();
    let violations = match lint::lint_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("xtask lint: cannot scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if violations.is_empty() {
        eprintln!("xtask lint: clean");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("xtask lint: {} violation(s)", violations.len());
    ExitCode::FAILURE
}
