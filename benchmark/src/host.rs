//! What the process can say about the machine and build it runs on, and
//! the environment scrub that keeps `MASK_*`/`MASKD_*` knobs from leaking
//! into a measurement.

use crate::json::Json;
use std::process::Command;

/// Removes every `MASK_*`/`MASKD_*` variable from the process environment
/// and returns the names that were set, sorted. Must run before any thread
/// is started.
pub fn scrub_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| is_knob(k))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn is_knob(name: &str) -> bool {
    name.starts_with("MASK_") || name.starts_with("MASKD_")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command name
    // (which may itself contain spaces), in clock ticks of 1/100 s.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// The host block written into every result file.
pub fn host_block(scrubbed: &[String]) -> Json {
    let threads = hardware_threads();
    let git_rev = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        ("hardware_threads", Json::Num(threads as f64)),
        // The engine and daemon workloads load two threads; on one, their
        // numbers measure time-slicing and must not be compared silently.
        ("undersized", Json::Bool(threads < 2)),
        (
            "cpu_model",
            Json::str(proc_field("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_default()),
        ),
        ("git_rev", Json::str(git_rev.unwrap_or_default())),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "scrubbed_env",
            Json::Arr(scrubbed.iter().map(Json::str).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_removes_only_the_knobs() {
        std::env::set_var("MASK_BENCH_TEST_KNOB", "1");
        std::env::set_var("MASKD_BENCH_TEST_KNOB", "1");
        std::env::set_var("MASKBENCH_KEEP", "1");
        let removed = scrub_env();
        assert!(removed.contains(&"MASK_BENCH_TEST_KNOB".to_owned()));
        assert!(removed.contains(&"MASKD_BENCH_TEST_KNOB".to_owned()));
        assert!(std::env::var_os("MASK_BENCH_TEST_KNOB").is_none());
        assert!(std::env::var_os("MASKD_BENCH_TEST_KNOB").is_none());
        assert!(std::env::var_os("MASKBENCH_KEEP").is_some());
        assert!(scrub_env().is_empty());
    }

    #[test]
    fn process_gauges_read() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(hardware_threads() >= 1);
    }
}
