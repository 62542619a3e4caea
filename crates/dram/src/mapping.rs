//! Physical-address to (channel, bank, row, column) mapping.
//!
//! Bit layout (from least significant): line offset (7 b) | column within
//! row | channel | bank | row. Mapping the channel/bank bits *above* the
//! column bits keeps every line of a 2 KB row in the same bank, so
//! streaming accesses produce row hits; the row bits are XOR-folded into
//! the bank index to spread pathological strides across banks.

use mask_common::addr::LineAddr;
use mask_common::config::DramConfig;
use mask_common::ids::{split_ranges, Asid};

/// A decoded DRAM coordinate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decoded {
    /// Memory channel index.
    pub channel: usize,
    /// Bank index within the channel.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
}

/// Restricts address spaces to channel subsets (the `Static` baseline
/// partitions "memory channels ... equally across applications", §7) or to
/// bank subsets within every channel (the FGPU-style `Partitioned` design,
/// which colors DRAM banks instead of reserving whole channels).
#[derive(Clone, Debug, Default)]
pub struct ChannelPartition {
    /// `ranges[asid] = (first_channel, n_channels)`; empty = no partition.
    ranges: Vec<(usize, usize)>,
    /// `bank_ranges[asid] = (first_bank, n_banks)` within every channel;
    /// empty = banks shared.
    bank_ranges: Vec<(usize, usize)>,
}

impl ChannelPartition {
    /// No partitioning: all apps use all channels and banks.
    pub fn shared() -> Self {
        ChannelPartition::default()
    }

    /// Splits `channels` equally among `n_apps` (remainder to the last app).
    ///
    /// # Panics
    ///
    /// Panics if `n_apps` is 0 or exceeds the channel count.
    pub fn split(channels: usize, n_apps: usize) -> Self {
        ChannelPartition {
            ranges: split_ranges(channels, n_apps),
            bank_ranges: Vec::new(),
        }
    }

    /// Colors the `banks` of every channel among `n_apps` (remainder to the
    /// last app); channels stay fully shared so per-app bus bandwidth is
    /// not reserved, only bank conflicts are isolated.
    ///
    /// # Panics
    ///
    /// Panics if `n_apps` is 0 or exceeds the per-channel bank count.
    pub fn bank_colored(banks: usize, n_apps: usize) -> Self {
        ChannelPartition {
            ranges: Vec::new(),
            bank_ranges: split_ranges(banks, n_apps),
        }
    }

    /// Maps a nominal channel index to the app's allowed subset.
    pub fn restrict(&self, nominal: usize, asid: Asid) -> usize {
        match self.ranges.get(asid.index()) {
            Some(&(start, n)) if n > 0 => start + nominal % n,
            _ => nominal,
        }
    }

    /// Maps a nominal bank index to the app's allowed subset.
    pub fn restrict_bank(&self, nominal: usize, asid: Asid) -> usize {
        match self.bank_ranges.get(asid.index()) {
            Some(&(start, n)) if n > 0 => start + nominal % n,
            _ => nominal,
        }
    }

    /// The `(first_bank, n_banks)` range `asid` is colored into, if bank
    /// coloring is active (sanitizer hooks and tests).
    pub fn bank_range(&self, asid: Asid) -> Option<(usize, usize)> {
        self.bank_ranges.get(asid.index()).copied()
    }
}

/// Decodes `line` for the given geometry, honoring the partition.
pub fn decode(line: LineAddr, cfg: &DramConfig, part: &ChannelPartition, asid: Asid) -> Decoded {
    let lines_per_row = 1u64 << (cfg.row_size_log2 - mask_common::addr::LINE_SIZE_LOG2);
    let col_bits = lines_per_row.trailing_zeros();
    let after_col = line.0 >> col_bits;
    let nominal_channel = (after_col % cfg.channels as u64) as usize;
    let after_chan = after_col / cfg.channels as u64;
    let bank_raw = after_chan % cfg.banks_per_channel as u64;
    let row = after_chan / cfg.banks_per_channel as u64;
    // XOR-fold the row into the bank index to spread strided streams.
    let bank = ((bank_raw ^ (row & (cfg.banks_per_channel as u64 - 1)))
        % cfg.banks_per_channel as u64) as usize;
    Decoded {
        channel: part.restrict(nominal_channel, asid),
        bank: part.restrict_bank(bank, asid),
        row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::config::DramConfig;

    fn cfg() -> DramConfig {
        DramConfig::default()
    }

    #[test]
    fn lines_within_a_row_share_coordinates() {
        let cfg = cfg();
        let part = ChannelPartition::shared();
        // 2 KB row / 128 B line = 16 lines per row.
        let base = 0x123u64 * 16;
        let d0 = decode(LineAddr(base), &cfg, &part, Asid::new(0));
        for i in 1..16 {
            let d = decode(LineAddr(base + i), &cfg, &part, Asid::new(0));
            assert_eq!(d, d0, "line {i} of a row must stay in one bank/row");
        }
        // The next row moves somewhere else.
        let d16 = decode(LineAddr(base + 16), &cfg, &part, Asid::new(0));
        assert_ne!(d16, d0);
    }

    #[test]
    fn streams_cover_all_channels() {
        let cfg = cfg();
        let part = ChannelPartition::shared();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..(16 * 64) {
            seen.insert(decode(LineAddr(i), &cfg, &part, Asid::new(0)).channel);
        }
        assert_eq!(seen.len(), cfg.channels);
    }

    #[test]
    fn partition_confines_apps_to_their_channels() {
        let cfg = cfg();
        let part = ChannelPartition::split(8, 2);
        for i in 0..4096u64 {
            let d0 = decode(LineAddr(i * 17), &cfg, &part, Asid::new(0));
            let d1 = decode(LineAddr(i * 17), &cfg, &part, Asid::new(1));
            assert!(d0.channel < 4, "app 0 confined to channels 0-3");
            assert!(
                (4..8).contains(&d1.channel),
                "app 1 confined to channels 4-7"
            );
        }
    }

    #[test]
    fn uneven_split_gives_remainder_to_last_app() {
        let part = ChannelPartition::split(8, 3);
        // Apps get 2, 2, and 4 channels.
        assert_eq!(part.restrict(0, Asid::new(0)), 0);
        assert_eq!(part.restrict(5, Asid::new(0)), 1);
        assert_eq!(part.restrict(0, Asid::new(2)), 4);
        assert_eq!(part.restrict(3, Asid::new(2)), 7);
    }

    #[test]
    fn bank_coloring_confines_apps_to_their_banks() {
        let cfg = cfg();
        let part = ChannelPartition::bank_colored(cfg.banks_per_channel, 2);
        let mut ch0 = std::collections::BTreeSet::new();
        for i in 0..4096u64 {
            let d0 = decode(LineAddr(i * 17), &cfg, &part, Asid::new(0));
            let d1 = decode(LineAddr(i * 17), &cfg, &part, Asid::new(1));
            assert!(d0.bank < 4, "app 0 confined to banks 0-3");
            assert!((4..8).contains(&d1.bank), "app 1 confined to banks 4-7");
            ch0.insert(d0.channel);
        }
        // Channels are *not* reserved under bank coloring.
        assert_eq!(ch0.len(), cfg.channels);
    }

    #[test]
    fn uneven_bank_coloring_gives_remainder_to_last_app() {
        // 8 banks ÷ 3 apps: 2, 2, 4.
        let part = ChannelPartition::bank_colored(8, 3);
        assert_eq!(part.bank_range(Asid::new(0)), Some((0, 2)));
        assert_eq!(part.bank_range(Asid::new(1)), Some((2, 2)));
        assert_eq!(part.bank_range(Asid::new(2)), Some((4, 4)));
        assert_eq!(part.restrict_bank(0, Asid::new(2)), 4);
        assert_eq!(part.restrict_bank(5, Asid::new(2)), 5);
        assert_eq!(part.restrict_bank(5, Asid::new(0)), 1);
        // Channel splits obey the same rule: 8 ÷ 3 → 2, 2, 4.
        let chans = ChannelPartition::split(8, 3);
        assert_eq!(chans.restrict(0, Asid::new(1)), 2);
        assert_eq!(chans.restrict(3, Asid::new(2)), 7);
    }

    #[test]
    fn banks_spread_strided_rows() {
        let cfg = cfg();
        let part = ChannelPartition::shared();
        let mut banks = std::collections::BTreeSet::new();
        // Stride of exactly one row within one channel.
        for r in 0..64u64 {
            let line = r * 16 * cfg.channels as u64;
            banks.insert(decode(LineAddr(line), &cfg, &part, Asid::new(0)).bank);
        }
        assert!(
            banks.len() >= 4,
            "row-strided stream should touch many banks"
        );
    }
}
