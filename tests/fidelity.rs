//! `FIDELITY.json` is what `repro fidelity` writes at the defaults, and
//! EXPERIMENTS.md shows it. No simulation: `repro fidelity` takes the file.

use mask_common::json::{self, Value};
use mask_core::experiments::fidelity::{render, CLAIMS, MARKERS, SEEDS};

fn read(file: &str) -> String {
    std::fs::read_to_string(format!("{}/{file}", env!("CARGO_MANIFEST_DIR"))).expect(file)
}

fn doc() -> Value {
    json::parse(&read("FIDELITY.json")).expect("FIDELITY.json parses")
}

#[test]
fn rows_are_the_claim_list() {
    let d = doc();
    let rows = d.get("rows").and_then(Value::as_array).expect("rows");
    let claims: Vec<(&str, Option<String>)> = rows
        .iter()
        .map(|r| {
            let paper = r.get("paper").and_then(Value::as_str).map(String::from);
            (r.get("id").and_then(Value::as_str).expect("id"), paper)
        })
        .collect();
    let want: Vec<(&str, Option<String>)> = CLAIMS
        .iter()
        .map(|&(id, paper)| (id, paper.map(|p| format!("{p:.1}"))))
        .collect();
    assert_eq!(claims, want, "re-run `repro fidelity`");
}

#[test]
fn records_the_default_scale() {
    let d = doc();
    let num = |k| d.get(k).and_then(Value::as_u64);
    assert_eq!(num("cycles"), Some(300_000), "a smoke-scale run");
    assert_eq!(num("pairs"), Some(35));
    assert_eq!(num("seeds"), Some(SEEDS));
}

#[test]
fn records_each_seeds_wall_time() {
    let d = doc();
    let wall_ms = d.get("wall_ms").and_then(Value::as_u64).expect("wall_ms");
    let per_seed: Vec<u64> = d
        .get("seed_wall_ms")
        .and_then(Value::as_array)
        .expect("seed_wall_ms")
        .iter()
        .map(|ms| ms.as_u64().expect("milliseconds"))
        .collect();
    assert_eq!(per_seed.len() as u64, SEEDS, "one entry per seed");
    assert!(per_seed.iter().sum::<u64>() <= wall_ms);
}

#[test]
fn experiments_md_shows_the_rendering() {
    let md = read("EXPERIMENTS.md");
    let [begin, end] = MARKERS;
    let block = md
        .split_once(begin)
        .and_then(|(_, rest)| rest.split_once(end));
    assert_eq!(
        block.expect("markers").0,
        render(&doc()),
        "re-run `repro fidelity`"
    );
}
