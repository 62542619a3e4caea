//! Regenerates the paper's tables and figures: `repro all | fidelity | <id>…`.
//!
//! An id names an entry of `mask_core::experiments::REGISTRY` (DESIGN.md
//! §5); its tables are printed and written to
//! `target/mask-results/<slug>.json`. `fidelity` scores the paper's claims
//! into `FIDELITY.json` and EXPERIMENTS.md's claim table.
//! `MASK_SIM_CYCLES` and `MASK_PAIR_LIMIT` scale every run: this binary
//! reads them, once, into the options it runs each artefact at. `MASK_JOBS`
//! sets the job engine's worker threads.

use mask_core::engine::JobPool;
use mask_core::experiments::{
    artefact, fidelity, Artefact, ExpOptions, DEFAULT_PAIR_LIMIT, REGISTRY,
};
use mask_core::table::Table;
use std::fmt;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::time::Instant;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The options an artefact whose registry pair cap is `pair_cap` runs at,
/// given the values of `MASK_SIM_CYCLES` and `MASK_PAIR_LIMIT`: a number
/// replaces the default cycles per run, or the pair cap (clamped to the
/// `1..=DEFAULT_PAIR_LIMIT` pairs there are); an unset or non-numeric value
/// leaves it.
fn options(sim_cycles: Option<&str>, pair_limit: Option<&str>, pair_cap: usize) -> ExpOptions {
    let defaults = ExpOptions::default();
    ExpOptions {
        cycles: sim_cycles
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.cycles),
        pair_limit: pair_limit
            .and_then(|v| v.parse().ok())
            .map_or(pair_cap.min(defaults.pair_limit), |n: usize| {
                n.clamp(1, DEFAULT_PAIR_LIMIT)
            }),
        ..defaults
    }
}

fn main() {
    let env = |name| std::env::var(name).ok();
    let (sim_cycles, pair_limit) = (env("MASK_SIM_CYCLES"), env("MASK_PAIR_LIMIT"));
    let scaled = |pair_cap| options(sim_cycles.as_deref(), pair_limit.as_deref(), pair_cap);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let picked: Option<Vec<&Artefact>> = match args.as_slice() {
        [] => None,
        [one] if one == "fidelity" => return run_fidelity(scaled),
        [one] if one == "all" => Some(REGISTRY.iter().collect()),
        ids => ids.iter().map(|id| artefact(id)).collect(),
    };
    let Some(picked) = picked else {
        let ids: Vec<&str> = REGISTRY.iter().map(|a| a.0).collect();
        eprintln!(
            "usage: repro all | fidelity | <id>...\nids: {}",
            ids.join(" ")
        );
        std::process::exit(2);
    };
    // Stops at the first write to a closed stdout: nobody reads the rest.
    picked.into_iter().try_for_each(|&(id, pair_cap, run)| {
        let opts = scaled(pair_cap);
        let jobs = JobPool::with_options(opts.jobs).workers();
        let (cycles, pairs) = (opts.cycles, opts.pair_limit);
        say(format_args!(
            "=== {id} — cycles/run={cycles} pairs={pairs} jobs={jobs} ===\n\n"
        ))?;
        let (t0, sims) = (Instant::now(), simulations());
        for table in run(&opts) {
            emit(&table)?;
        }
        let (elapsed, sims) = (t0.elapsed(), simulations() - sims);
        say(format_args!(
            "[{id} done in {elapsed:?}; {sims} simulation(s)]\n"
        ))
    });
}

/// Writes `text` to stdout, the one way this binary prints. `None` means
/// stdout is closed (the reader of a pipe went away, as in `repro all |
/// head -1`): the caller ends the run quietly, with status 0. Any other
/// write error is reported and ends the process with status 1.
fn say(text: fmt::Arguments) -> Option<()> {
    let mut out = std::io::stdout().lock();
    match out.write_fmt(text).and_then(|()| out.flush()) {
        Ok(()) => Some(()),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => None,
        Err(e) => {
            eprintln!("repro: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// Jobs this process has simulated: the process-wide result memo's misses.
fn simulations() -> u64 {
    JobPool::from_env().cache().stats().misses
}

/// Prints `table` and writes it to `target/mask-results/<slug>.json`, the
/// slug being its lower-cased title with each run of other characters
/// replaced by one `_`. `None` once stdout is closed ([`say`]).
fn emit(table: &Table) -> Option<()> {
    let open = say(format_args!("{table}\n\n"));
    let title = table.title.to_ascii_lowercase();
    let words: Vec<&str> = title
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect();
    let dir = Path::new(ROOT).join("target/mask-results");
    let path = dir.join(format!("{}.json", words.join("_")));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, table.to_json()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    open
}

/// Scores the claims over `fidelity::SEEDS` seeds, each artefact at
/// `scaled(its pair cap)`, into `FIDELITY.json` and re-renders
/// EXPERIMENTS.md's claim table from that file. Those files are the
/// product, so a closed stdout does not stop the run.
fn run_fidelity(scaled: impl Fn(usize) -> ExpOptions) {
    let ms = |t: Instant| u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX);
    let t0 = Instant::now();
    let (seeds, seed_wall_ms): (Vec<Vec<Table>>, Vec<u64>) = (0..fidelity::SEEDS)
        .map(|i| {
            let (seed_t0, sims) = (Instant::now(), simulations());
            let tables = fidelity::measure(|pair_cap| {
                let mut opts = scaled(pair_cap);
                opts.seed += i;
                opts
            });
            let (at, sims) = (t0.elapsed(), simulations() - sims);
            say(format_args!(
                "[seed {} done at {at:?}; {sims} simulation(s)]\n",
                i + 1
            ));
            (tables, ms(seed_t0))
        })
        .unzip();
    let wall_ms = ms(t0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown CPU".to_owned());
    let scale = scaled(DEFAULT_PAIR_LIMIT);
    let doc = fidelity::document(&seeds, &scale, wall_ms, &seed_wall_ms, &cpu, threads);
    let parsed = mask_common::json::parse(&doc).expect("FIDELITY.json parses");
    let table = fidelity::render(&parsed);
    let md_path = Path::new(ROOT).join("EXPERIMENTS.md");
    let md = std::fs::read_to_string(&md_path).expect("read EXPERIMENTS.md");
    let [begin, end] = fidelity::MARKERS;
    let (head, rest) = md
        .split_once(begin)
        .expect("EXPERIMENTS.md has the begin marker");
    let (_, tail) = rest
        .split_once(end)
        .expect("EXPERIMENTS.md has the end marker");
    std::fs::write(Path::new(ROOT).join("FIDELITY.json"), &doc).expect("write FIDELITY.json");
    std::fs::write(&md_path, format!("{head}{begin}{table}{end}{tail}"))
        .expect("write EXPERIMENTS.md");
    say(format_args!("{table}"));
}

#[cfg(test)]
mod tests {
    use super::options;

    #[test]
    fn scale_knobs_map_to_options() {
        let unset = options(None, None, 8);
        assert_eq!((unset.cycles, unset.pair_limit), (300_000, 8));
        let set = options(Some("20000"), Some("3"), 8);
        assert_eq!((set.cycles, set.pair_limit), (20_000, 3));
        // A pair count replaces the cap, upwards too.
        assert_eq!(options(None, Some("12"), 8).pair_limit, 12);
        // ... but never past the pairs there are, nor below one: the count
        // printed is the count run.
        assert_eq!(options(None, Some("0"), 8).pair_limit, 1);
        assert_eq!(options(None, Some("100"), 8).pair_limit, 35);
        let junk = options(Some("lots"), Some("3x"), 8);
        assert_eq!((junk.cycles, junk.pair_limit), (300_000, 8));
    }
}
