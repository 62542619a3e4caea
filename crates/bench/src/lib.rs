//! Shared helpers for the MASK paper-reproduction bench harnesses.
//!
//! Every `benches/*.rs` target is a plain binary (`harness = false`) that
//! regenerates one of the paper's tables or figures and prints it. Three
//! environment variables scale the whole suite:
//!
//! * `MASK_SIM_CYCLES` — cycles per simulation run (default 300 000:
//!   100 000 warm-up + 200 000 measured, i.e. two full MASK epochs);
//! * `MASK_PAIR_LIMIT` — number of two-application workloads (default 35);
//! * `MASK_JOBS` — worker threads the job engine fans simulations over
//!   (default: available parallelism; `1` = serial). The harnesses submit
//!   whole workload batches, and the engine's process-wide baseline cache
//!   simulates each unique alone baseline once across the entire suite —
//!   results are bit-identical at any worker count.

use mask_core::engine::JobPool;
use mask_core::experiments::ExpOptions;
use mask_core::table::Table;

/// Builds experiment options, applying an experiment-specific cap on the
/// number of pairs (heavy sweeps default to fewer pairs; `MASK_PAIR_LIMIT`
/// always wins when set).
pub fn options(default_pair_cap: usize) -> ExpOptions {
    let mut opts = ExpOptions::default();
    if mask_common::config::pair_limit_override().is_none() {
        opts.pair_limit = opts.pair_limit.min(default_pair_cap);
    }
    opts
}

/// Prints a table and archives it as CSV plus machine-readable JSON under
/// the workspace's `target/mask-results/` (`<slug>.csv` / `<slug>.json`).
pub fn emit(table: &Table) {
    println!("{table}");
    println!();
    // `cargo bench` runs a target with its package directory as cwd; anchor
    // on the manifest so tables land in the workspace `target/` regardless.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/mask-results");
    let slug: String = table
        .title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    // The writers create missing parent directories themselves.
    let _ = table.write_csv(dir.join(format!("{slug}.csv")));
    let _ = table.write_json(dir.join(format!("{slug}.json")));
}

/// Runs one harness body and prints its wall time as `[<name> done in …]`.
pub fn timed(name: &str, body: impl FnOnce()) {
    #[expect(
        clippy::disallowed_methods,
        reason = "a harness reports its own wall time; no simulation reads it"
    )]
    let t0 = std::time::Instant::now();
    body();
    println!("[{name} done in {:?}]", t0.elapsed());
}

/// Prints the standard harness banner, including the engine's resolved
/// worker count (from `MASK_JOBS`, else available parallelism).
pub fn banner(name: &str, opts: &ExpOptions) {
    let pool = JobPool::with_options(opts.jobs);
    println!(
        "=== {name} — cycles/run={} cores={} warps/core={} pairs={} jobs={} ===\n",
        opts.cycles,
        opts.n_cores,
        opts.warps_per_core,
        opts.pair_limit,
        pool.workers()
    );
}
