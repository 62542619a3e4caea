//! Regenerates the paper's tables and figures: `repro all | fidelity | <id>…`.
//!
//! An id names an entry of `mask_core::experiments::REGISTRY` (DESIGN.md
//! §5); its tables are printed and written to
//! `target/mask-results/<slug>.json`. `fidelity` scores the paper's claims
//! into `FIDELITY.json` and EXPERIMENTS.md's claim table.
//! `MASK_SIM_CYCLES`, `MASK_PAIR_LIMIT` and `MASK_JOBS` scale every run.

use mask_core::engine::JobPool;
use mask_core::experiments::{artefact, fidelity, Artefact, ExpOptions, REGISTRY};
use mask_core::table::Table;
use std::path::Path;
use std::time::Instant;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let picked: Option<Vec<&Artefact>> = match args.as_slice() {
        [] => None,
        [one] if one == "fidelity" => return run_fidelity(),
        [one] if one == "all" => Some(REGISTRY.iter().collect()),
        ids => ids.iter().map(|id| artefact(id)).collect(),
    };
    let Some(mut picked) = picked else {
        let ids: Vec<&str> = REGISTRY.iter().map(|a| a.0).collect();
        eprintln!(
            "usage: repro all | fidelity | <id>...\nids: {}",
            ids.join(" ")
        );
        std::process::exit(2);
    };
    // The Fig. 11 sweep emits Fig. 3 too: do not simulate its designs twice.
    if picked.iter().any(|a| a.0 == "fig11_15") {
        picked.retain(|a| a.0 != "fig03");
    }
    for &(id, pair_cap, run) in picked {
        let opts = ExpOptions::with_pair_cap(pair_cap);
        let jobs = JobPool::with_options(opts.jobs).workers();
        let (cycles, pairs) = (opts.cycles, opts.pair_limit);
        println!("=== {id} — cycles/run={cycles} pairs={pairs} jobs={jobs} ===\n");
        let t0 = Instant::now();
        for table in run(&opts) {
            emit(&table);
        }
        println!("[{id} done in {:?}]", t0.elapsed());
    }
}

/// Prints `table` and writes it to `target/mask-results/<slug>.json`, the
/// slug being its lower-cased title with each run of other characters
/// replaced by one `_`.
fn emit(table: &Table) {
    println!("{table}\n");
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
}

/// Scores the claims over `fidelity::SEEDS` seeds into `FIDELITY.json` and
/// re-renders EXPERIMENTS.md's claim table from that file.
fn run_fidelity() {
    let t0 = Instant::now();
    let seeds: Vec<Vec<Table>> = (0..fidelity::SEEDS)
        .map(|i| {
            let tables = fidelity::measure(|pair_cap| {
                let mut opts = ExpOptions::with_pair_cap(pair_cap);
                opts.seed += i;
                opts
            });
            println!("[seed {} done at {:?}]", i + 1, t0.elapsed());
            tables
        })
        .collect();
    let wall_ms = u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown CPU".to_owned());
    let doc = fidelity::document(&seeds, wall_ms, &cpu, threads);
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
    print!("{table}");
}
