//! How far the reproduction sits from the paper, one row per claim.
//!
//! `repro fidelity` runs the artefacts the claims read at [`SEEDS`] seeds
//! ([`measure`]) and writes the committed `FIDELITY.json` ([`document`]):
//! per claim of [`CLAIMS`], the paper's value, the median, minimum and
//! maximum measured value, the median's relative error, and on how many
//! seeds the claim's *shape* (the direction or ordering the paper argues
//! from) holds. EXPERIMENTS.md's claim table is [`render`] of that file,
//! and says what each claim measures. `mask_common::json` numbers are
//! integers, so every non-integer is a fixed-decimal string.

use super::{artefact, scalability, ExpOptions};
use crate::table::Table;
use mask_common::json::Value;

/// Seeds each claim is measured at: the default seed and the next four.
pub const SEEDS: u64 = 5;

/// The lines around the claim table in EXPERIMENTS.md.
pub const MARKERS: [&str; 2] = ["<!-- fidelity:begin -->\n", "<!-- fidelity:end -->"];

/// The claims ROADMAP item 1 lists, in `FIDELITY.json` order, with the
/// paper's value in percent (warps for `fig06_stalled`); `None` marks a
/// claim the paper states only as a shape.
pub const CLAIMS: [(&str, Option<f64>); 23] = [
    ("sec71_ws", Some(57.8)),
    ("sec71_ideal_gap", Some(23.2)),
    ("sec71_ipc", Some(43.4)),
    ("sec71_unfairness", Some(22.4)),
    ("fig03_pwcache", Some(45.0)),
    ("fig03_sharedtlb", Some(40.6)),
    ("sec43_walk_l1", Some(99.8)),
    ("sec43_walk_l2", Some(98.8)),
    ("sec43_walk_l3", Some(68.7)),
    ("sec43_walk_l4", Some(1.0)),
    ("fig06_stalled", Some(30.0)),
    ("fig08_of_peak", Some(2.4)),
    ("fig08_of_used", Some(13.8)),
    ("tab03_sharedtlb_1app", Some(47.0)),
    ("tab03_sharedtlb_5app", Some(33.0)),
    ("tab03_mask_1app", Some(69.0)),
    ("tab03_mask_5app", Some(53.0)),
    ("tab04_mask_best", None),
    ("sec72_l2_tlb_hit", Some(49.9)),
    ("sec72_bypass_hit", Some(66.5)),
    ("fig11_mask_tlb", None),
    ("fig11_mask_cache", None),
    ("fig11_mask_dram", None),
];

/// The tables the claims read, each artefact run at `opts(pair cap)` for
/// its registry pair cap. The Table 3 claims read
/// [`scalability::throughput`] in place of `tab03`'s table, whose 1-app
/// row is 1 by construction.
pub fn measure(opts: impl Fn(usize) -> ExpOptions) -> Vec<Table> {
    [
        "fig05_06", "fig08_09", "fig11_15", "sec72", "tab03", "tab04",
    ]
    .iter()
    .flat_map(|id| {
        let (_, pair_cap, run) = artefact(id).expect("registered artefact");
        let opts = opts(*pair_cap);
        match *id {
            "tab03" => vec![scalability::throughput(&opts)],
            _ => run(&opts),
        }
    })
    .collect()
}

/// Claim `id`'s measured value in `t` and whether its shape holds. A cell
/// missing from `t` reads as `NaN`, which fails every shape.
fn score(id: &str, t: &[Table]) -> (f64, bool) {
    let get = |title: &str, row: &str, col: &str| {
        t.iter()
            .find(|x| x.title.starts_with(title))
            .and_then(|x| x.value(row, col))
            .unwrap_or(f64::NAN)
    };
    let pct = |title: &str, row: &str, col: &str| 100.0 * get(title, row, col);
    let positive = |v: f64| (v, v > 0.0);
    let head = |row: &str| get("Headline", row, "value");
    let below_ideal = |design: &str| 100.0 - pct("Figure 3:", "Average", design);
    let walk = |l: usize| {
        pct(
            "Sec. 7.2:",
            &format!("SharedTLB L2 hit rate, walk level {l}"),
            "value",
        )
    };
    let tab03 = |col: &str| -> Vec<f64> {
        (1..=5)
            .map(|n| pct("Table 3: IPC throughput", &n.to_string(), col))
            .collect()
    };
    let (shared, mask) = (tab03("SharedTLB/Ideal"), tab03("MASK/Ideal"));
    let ws = |design: &str| get("Figure 11:", "Average", design);
    let fig11 = |design: &str| positive(100.0 * (ws(design) / ws("SharedTLB") - 1.0));
    let (xlat, data) = (
        pct("Figure 8:", "Average", "translation"),
        pct("Figure 8:", "Average", "data"),
    );
    match id {
        "sec71_ws" => positive(head("WS improvement over SharedTLB (%)")),
        "sec71_ideal_gap" => {
            let v = head("WS shortfall vs Ideal (%)");
            (v, (0.0..=23.2).contains(&v))
        }
        "sec71_ipc" => positive(head("IPC throughput improvement over SharedTLB (%)")),
        "sec71_unfairness" => positive(head("Unfairness reduction vs SharedTLB (%)")),
        "fig03_pwcache" => positive(below_ideal("PWCache")),
        "fig03_sharedtlb" => {
            let v = below_ideal("SharedTLB");
            (v, v > 0.0 && v <= below_ideal("PWCache"))
        }
        "sec43_walk_l1" => (walk(1), (2..=4).all(|l| walk(l) <= walk(1))),
        "sec43_walk_l2" => (walk(2), walk(2) <= walk(1)),
        "sec43_walk_l3" => (walk(3), walk(3) <= walk(2)),
        "sec43_walk_l4" => (walk(4), walk(4) <= walk(3)),
        "fig06_stalled" => {
            let fig06 = t.iter().find(|x| x.title.starts_with("Figure 6:"));
            let stalled = fig06.into_iter().flat_map(|x| &x.rows);
            let v = stalled
                .filter_map(|(_, c)| c[0].parse().ok())
                .fold(f64::NAN, f64::max);
            (v, v > 30.0)
        }
        "fig08_of_peak" => (xlat, xlat < data),
        "fig08_of_used" => {
            let v = 100.0 * xlat / (xlat + data);
            (v, v < 50.0)
        }
        "tab03_sharedtlb_1app" => (shared[0], shared[4] < shared[0]),
        "tab03_sharedtlb_5app" => (shared[4], shared.windows(2).all(|w| w[1] <= w[0])),
        "tab03_mask_1app" => (mask[0], mask[4] < mask[0]),
        "tab03_mask_5app" => (mask[4], mask.iter().zip(&shared).all(|(m, s)| m >= s)),
        "tab04_mask_best" => {
            let lead = |arch| {
                let v = |design| pct("Table 4:", arch, design);
                v("MASK") - v("PWCache").max(v("SharedTLB"))
            };
            let worst = ["Maxwell", "Fermi", "Integrated"].map(lead);
            positive(worst.into_iter().fold(f64::INFINITY, f64::min))
        }
        "sec72_l2_tlb_hit" => {
            positive(get("Sec. 7.2:", "L2 TLB hit-rate improvement (%)", "value"))
        }
        "sec72_bypass_hit" => {
            let v = pct("Sec. 7.2:", "TLB bypass cache hit rate", "value");
            (v, v > 50.0)
        }
        "fig11_mask_tlb" => fig11("MASK-TLB"),
        "fig11_mask_cache" => fig11("MASK-Cache"),
        "fig11_mask_dram" => fig11("MASK-DRAM"),
        _ => (f64::NAN, false),
    }
}

/// `FIDELITY.json` for one table set per seed: the run's scale, wall-clock
/// and host, then one row per claim, each on a line of its own.
pub fn document(seeds: &[Vec<Table>], wall_ms: u64, cpu: &str, parallelism: u64) -> String {
    let fixed = |v: f64, places: usize| Value::Str(format!("{v:.places$}"));
    let rows: Vec<String> = CLAIMS
        .iter()
        .map(|&(id, paper)| {
            let mut runs: Vec<(f64, bool)> = seeds.iter().map(|t| score(id, t)).collect();
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let median = runs[runs.len() / 2].0;
            let row = Value::obj([
                ("id", Value::Str(id.to_owned())),
                ("paper", paper.map_or(Value::Null, |p| fixed(p, 1))),
                ("median", fixed(median, 1)),
                ("min", fixed(runs[0].0, 1)),
                ("max", fixed(runs[runs.len() - 1].0, 1)),
                (
                    "rel_err",
                    paper.map_or(Value::Null, |p| fixed((median - p).abs() / p, 3)),
                ),
                (
                    "shape_passes",
                    Value::Num(runs.iter().filter(|r| r.1).count() as u64),
                ),
            ]);
            format!("    {}", row.serialize())
        })
        .collect();
    let opts = ExpOptions::default();
    let host = Value::obj([
        ("cpu", Value::Str(cpu.to_owned())),
        ("parallelism", Value::Num(parallelism)),
    ]);
    format!(
        "{{\n  \"cycles\": {},\n  \"pairs\": {},\n  \"seeds\": {},\n  \"wall_ms\": {wall_ms},\n  \
         \"host\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        opts.cycles,
        opts.pair_limit,
        seeds.len(),
        host.serialize(),
        rows.join(",\n")
    )
}

/// EXPERIMENTS.md's claim table for a parsed `FIDELITY.json`; a field the
/// document lacks renders as `?`.
pub fn render(doc: &Value) -> String {
    let field = |v: &Value, key: &str| match v.get(key) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(n)) => n.to_string(),
        Some(Value::Null) => "—".to_owned(),
        _ => "?".to_owned(),
    };
    let host = doc.get("host").unwrap_or(&Value::Null);
    let seeds = field(doc, "seeds");
    let wall_s = doc.get("wall_ms").and_then(Value::as_u64).unwrap_or(0) / 1000;
    let mut out = format!(
        "{} cycles per run, {} pairs, {seeds} seeds; `repro fidelity` took {wall_s} s on {} \
         ({} threads).\n\n| Claim | Paper | Measured: median [min, max] | Rel. error | Shape \
         holds |\n|---|---|---|---|---|\n",
        field(doc, "cycles"),
        field(doc, "pairs"),
        field(host, "cpu"),
        field(host, "parallelism")
    );
    let rows = doc.get("rows").and_then(Value::as_array);
    for row in rows.unwrap_or_default() {
        let f = |key| field(row, key);
        let (id, paper, rel_err, passes) = (f("id"), f("paper"), f("rel_err"), f("shape_passes"));
        let (median, min, max) = (f("median"), f("min"), f("max"));
        out += &format!(
            "| `{id}` | {paper} | {median} [{min}, {max}] | {rel_err} | {passes}/{seeds} |\n"
        );
    }
    out
}
