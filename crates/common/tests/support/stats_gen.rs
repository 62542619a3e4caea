//! Test support: builds `SimStats` values by walking the field table of
//! `mask_common::stats`, so a counter added there is exercised by every
//! round-trip test without another edit. Included with `#[path]` by
//! `crates/common/tests/field_table.rs` and by `crates/maskd/tests/`.

use mask_common::stats::{Field, FieldMut, HitStats, SimStats};

/// Sets every `u64` leaf under `fields`, in table order, to the next value
/// `next` yields. With `legal`, each hit/access pair is clamped to
/// `hits <= accesses`, the one condition restore enforces.
pub(crate) fn fill<'a>(
    fields: impl Iterator<Item = (&'static str, FieldMut<'a>)>,
    next: &mut dyn FnMut() -> u64,
    legal: bool,
) {
    let fill_hit = |h: &mut HitStats, next: &mut dyn FnMut() -> u64| {
        fill(h.fields_mut(), next, legal);
        if legal {
            h.hits = h.hits.min(h.accesses);
        }
    };
    for (_, field) in fields {
        match field {
            Field::Counter(v) | Field::Level(v) => *v = next(),
            Field::Hit(h) => fill_hit(h, next),
            Field::Dram(d) => fill(d.fields_mut(), next, legal),
            Field::HitLevels(levels) => levels.iter_mut().for_each(|h| fill_hit(h, next)),
        }
    }
}

/// An `n_apps`-application result with every leaf, in struct order, drawn
/// from `next`.
pub(crate) fn fill_stats(n_apps: usize, next: &mut dyn FnMut() -> u64, legal: bool) -> SimStats {
    let mut stats = SimStats::new(n_apps, 0);
    for app in &mut stats.apps {
        fill(app.fields_mut(), next, legal);
    }
    stats.cycles = next();
    stats.dram_bus_busy = next();
    stats.dram_channels = next() as usize;
    stats
}
