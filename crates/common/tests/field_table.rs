//! The field table of `mask_common::stats` is the only list of the
//! counters; these tests make it load-bearing.

#[path = "support/stats_gen.rs"]
mod stats_gen;

use mask_common::rng::Pcg32;
use mask_common::snapshot::{PrefixKey, Snapshot, SnapshotReader, SnapshotWriter};
use mask_common::stats::{AppStats, DramClassStats, FieldMut, HitStats, SimStats};
use proptest::prelude::*;
use stats_gen::{fill, fill_stats};

/// Every byte of each counter struct is a `u64` leaf the table visits, so a
/// field added to a struct outside its `counters!` list cannot exist, and
/// one of a new type must be given a `Field` kind before this passes.
#[test]
fn the_table_visits_every_byte_of_each_struct() {
    fn leaves<'a>(fields: impl Iterator<Item = (&'static str, FieldMut<'a>)>) -> usize {
        let mut n = 0;
        let mut count = || {
            n += 1;
            0
        };
        fill(fields, &mut count, false);
        n
    }
    assert_eq!(
        leaves(HitStats::default().fields_mut()) * 8,
        size_of::<HitStats>()
    );
    assert_eq!(
        leaves(DramClassStats::default().fields_mut()) * 8,
        size_of::<DramClassStats>()
    );
    assert_eq!(
        leaves(AppStats::default().fields_mut()) * 8,
        size_of::<AppStats>()
    );
}

proptest! {
    /// A result with *every* leaf set survives seal → open → decode.
    #[test]
    fn msnp_round_trip_is_exact_on_every_leaf(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed, 15);
        let n_apps = 1 + rng.below(4) as usize;
        let stats = fill_stats(n_apps, &mut || rng.next_u64(), true);
        let mut w = SnapshotWriter::new();
        stats.snapshot(&mut w);
        let bytes = w.seal(PrefixKey(seed));
        let mut r = SnapshotReader::open_keyed(&bytes, PrefixKey(seed)).expect("own envelope opens");
        let back = SimStats::decode(&mut r).expect("own payload decodes");
        r.finish().expect("fully consumed");
        prop_assert_eq!(&back, &stats);
        // Deltas walk the same table: against a zero baseline every field,
        // counter or level, is the value itself.
        prop_assert_eq!(stats.apps[0].delta_since(&AppStats::default()), stats.apps[0].clone());
    }
}
