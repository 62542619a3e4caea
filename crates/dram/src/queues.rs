//! Request queues and scheduling policies.
//!
//! Contains the FR-FCFS candidate selection shared by all schedulers, the
//! batch-based alternative GPU scheduler (§7.3 sensitivity), and MASK's
//! three-queue structure with the Eq. 1 Silver-queue quota:
//!
//! ```text
//! thresh_i = thresh_max * ConPTW_i * WarpsStalled_i
//!            / sum_j ConPTW_j * WarpsStalled_j          (Eq. 1)
//! ```

use crate::mapping::Decoded;
use mask_common::req::MemRequest;
use mask_common::Cycle;
use std::collections::VecDeque;

/// A queued DRAM request with its decoded coordinates.
#[derive(Clone, Copy, Debug)]
pub struct QueueEntry {
    /// The memory request.
    pub req: MemRequest,
    /// Decoded channel/bank/row.
    pub decoded: Decoded,
    /// Cycle the request arrived at the memory controller.
    pub arrival: Cycle,
}

/// Bits of a scan key below the row: the bank (a channel has at most 64).
const BANK_BITS: u32 = 6;

/// What an FR-FCFS scan reads of a queued entry, `row << 6 | bank`: eight
/// bytes per entry where a [`QueueEntry`] is 64. `None` when the bank or the
/// row does not fit, which no decoded line address does — a restored entry
/// may.
fn scan_key(decoded: &Decoded) -> Option<u64> {
    let fits = decoded.bank < 1 << BANK_BITS && decoded.row >> (u64::BITS - BANK_BITS) == 0;
    fits.then_some(decoded.row << BANK_BITS | decoded.bank as u64)
}

/// A push-ordered request buffer and, in lock-step with its entries, the
/// keys the FR-FCFS scans read in their place.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScanQueue {
    entries: Vec<QueueEntry>,
    /// [`scan_key`] of the entry at the same index. Derived state.
    keys: Vec<u64>,
}

impl ScanQueue {
    pub(crate) fn push(&mut self, entry: QueueEntry) {
        self.try_push(entry)
            .expect("a decoded line address fits a scan key");
    }

    fn try_push(&mut self, entry: QueueEntry) -> Result<(), mask_common::snapshot::SnapshotError> {
        let key =
            scan_key(&entry.decoded).ok_or(mask_common::snapshot::SnapshotError::Malformed(
                "queued request's bank or row does not fit a scan key",
            ))?;
        self.keys.push(key);
        self.entries.push(entry);
        Ok(())
    }

    pub(crate) fn remove(&mut self, i: usize) -> QueueEntry {
        self.keys.remove(i);
        self.entries.remove(i)
    }

    pub(crate) fn entries(&self) -> &[QueueEntry] {
        &self.entries
    }

    /// Replaces the contents with `n` entries read from `r`.
    pub(crate) fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
        n: usize,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        use mask_common::snapshot::SnapField;
        self.entries.clear();
        self.keys.clear();
        for _ in 0..n {
            self.try_push(QueueEntry::read(r)?)?;
        }
        Ok(())
    }

    /// Selects the FR-FCFS candidate among the entries whose bank is free.
    ///
    /// First-ready: among ready requests, a row-buffer hit wins; ties break
    /// by arrival order (index order, queues are push-ordered).
    pub(crate) fn pick(
        &self,
        bank_free: impl Fn(usize) -> bool,
        open_row: impl Fn(usize) -> Option<u64>,
    ) -> Option<usize> {
        self.pick_where(bank_free, open_row, |_| true)
    }

    /// FR-FCFS restricted to entries satisfying `accept` — lets the batch
    /// scheduler run per-application passes over the shared queue without
    /// materializing filtered copies on the per-cycle path. Bank and row
    /// come from the keys; an entry is read only to ask `accept` about one
    /// whose bank is free.
    fn pick_where(
        &self,
        bank_free: impl Fn(usize) -> bool,
        open_row: impl Fn(usize) -> Option<u64>,
        accept: impl Fn(&QueueEntry) -> bool,
    ) -> Option<usize> {
        if cfg!(debug_assertions) {
            let keys = self.entries.iter().map(|e| scan_key(&e.decoded));
            mask_obs::hooks::check(
                keys.eq(self.keys.iter().map(|&key| Some(key))),
                "dram-queue-keys",
                "every scan key must be its entry's decoded row and bank",
            );
        }
        let mut oldest_ready: Option<usize> = None;
        for (i, &key) in self.keys.iter().enumerate() {
            let bank = (key & ((1 << BANK_BITS) - 1)) as usize;
            if !bank_free(bank) || !accept(&self.entries[i]) {
                continue;
            }
            if open_row(bank) == Some(key >> BANK_BITS) {
                return Some(i); // first ready row hit
            }
            if oldest_ready.is_none() {
                oldest_ready = Some(i);
            }
        }
        oldest_ready
    }
}

/// Batch-based application-aware scheduler state (the "state-of-the-art GPU
/// memory scheduler \[60\]" alternative of §7.3).
///
/// Serves one application's requests at a time (row hits first within the
/// application), switching after `BATCH` consecutive grants or when the
/// current application has no ready requests.
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchState {
    current_app: usize,
    served: u32,
}

/// Consecutive grants before the batch scheduler rotates applications.
const BATCH: u32 = 8;

impl BatchState {
    /// Picks the next request under the batch policy.
    pub(crate) fn pick(
        &mut self,
        queue: &ScanQueue,
        n_apps: usize,
        bank_free: impl Fn(usize) -> bool + Copy,
        open_row: impl Fn(usize) -> Option<u64> + Copy,
    ) -> Option<usize> {
        if n_apps == 0 {
            return queue.pick(bank_free, open_row);
        }
        for offset in 0..n_apps {
            let app = (self.current_app + offset) % n_apps;
            let hit = queue.pick_where(bank_free, open_row, |e| e.req.asid.index() == app);
            if let Some(picked) = hit {
                if offset != 0 {
                    self.current_app = app;
                    self.served = 0;
                }
                self.served += 1;
                if self.served >= BATCH {
                    self.current_app = (app + 1) % n_apps;
                    self.served = 0;
                }
                return Some(picked);
            }
        }
        None
    }
}

/// MASK's three-queue request buffer for one channel (§5.4).
#[derive(Clone, Debug)]
pub struct MaskQueues {
    golden: VecDeque<QueueEntry>,
    silver: ScanQueue,
    normal: ScanQueue,
    golden_cap: usize,
    silver_cap: usize,
    /// Current Silver-queue application and its remaining quota.
    silver_app: usize,
    silver_left: u64,
    /// Per-app quotas from Eq. 1.
    quotas: Vec<u64>,
    thresh_max: u64,
}

impl MaskQueues {
    /// Creates the queue structure for `n_apps` applications.
    pub fn new(golden_cap: usize, silver_cap: usize, thresh_max: u64, n_apps: usize) -> Self {
        let n_apps = n_apps.max(1);
        MaskQueues {
            golden: VecDeque::new(),
            silver: ScanQueue::default(),
            normal: ScanQueue::default(),
            golden_cap,
            silver_cap,
            silver_app: 0,
            silver_left: thresh_max / n_apps as u64,
            quotas: vec![thresh_max / n_apps as u64; n_apps],
            thresh_max,
        }
    }

    /// Recomputes per-app Silver quotas from the pressure products
    /// `ConPTW_i * WarpsStalled_i` (Eq. 1). Called every epoch; the paper
    /// "resets all of these counters every epoch".
    pub fn update_pressure(&mut self, pressure: &[u64]) {
        let n = self.quotas.len();
        let total: u64 = pressure.iter().take(n).sum();
        for (i, q) in self.quotas.iter_mut().enumerate() {
            let p = pressure.get(i).copied().unwrap_or(0);
            *q = if total == 0 {
                self.thresh_max / n as u64
            } else {
                (u128::from(self.thresh_max) * u128::from(p) / u128::from(total)) as u64
            };
        }
        if self.silver_left == 0 {
            self.advance_silver_turn();
        }
    }

    fn advance_silver_turn(&mut self) {
        let n = self.quotas.len();
        for step in 1..=n {
            let app = (self.silver_app + step) % n;
            if self.quotas[app] > 0 {
                self.silver_app = app;
                self.silver_left = self.quotas[app];
                return;
            }
        }
        self.silver_left = 0;
    }

    /// Routes an arriving request into the appropriate queue.
    ///
    /// "Address translation requests always go to the Golden Queue, while
    /// data demand requests go to one of the two other queues" (§5.4). The
    /// Golden queue has bounded capacity; overflow translation requests
    /// degrade gracefully into the Normal queue.
    pub fn enqueue(&mut self, entry: QueueEntry) {
        // Conservation: everything routed into the three queues must come
        // back out through `pick` — no queue may silently drop a request.
        mask_obs::hooks::issue(mask_obs::Domain::DramQueues, entry.req.id.0);
        if entry.req.class.is_translation() {
            if self.golden.len() < self.golden_cap {
                self.golden.push_back(entry);
            } else {
                self.normal.push(entry);
            }
            return;
        }
        let app = entry.req.asid.index();
        if app == self.silver_app
            && self.silver_left > 0
            && self.silver.entries().len() < self.silver_cap
        {
            self.silver.push(entry);
            self.silver_left -= 1;
            if self.silver_left == 0 {
                self.advance_silver_turn();
            }
        } else {
            self.normal.push(entry);
        }
    }

    /// Picks and removes the next request to issue.
    ///
    /// Priority: Golden (FIFO across ready banks) > Silver (FR-FCFS) >
    /// Normal (FR-FCFS).
    pub fn pick(
        &mut self,
        bank_free: impl Fn(usize) -> bool + Copy,
        open_row: impl Fn(usize) -> Option<u64> + Copy,
    ) -> Option<QueueEntry> {
        let picked = if let Some(i) = self.golden.iter().position(|e| bank_free(e.decoded.bank)) {
            self.golden.remove(i)
        } else if let Some(i) = self.silver.pick(bank_free, open_row) {
            Some(self.silver.remove(i))
        } else {
            let picked = self.normal.pick(bank_free, open_row);
            picked.map(|i| self.normal.remove(i))
        };
        if let Some(e) = &picked {
            mask_obs::hooks::retire(mask_obs::Domain::DramQueues, e.req.id.0);
        }
        picked
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.golden.len() + self.silver.entries().len() + self.normal.entries().len()
    }

    /// Whether all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current Silver-queue application (for tests/telemetry).
    pub fn silver_app(&self) -> usize {
        self.silver_app
    }

    /// Current quota table (for tests/telemetry).
    pub fn quotas(&self) -> &[u64] {
        &self.quotas
    }

    /// Visits every queued entry across the three queues.
    pub fn for_each_entry(&self, f: impl FnMut(&QueueEntry)) {
        let (silver, normal) = (self.silver.entries(), self.normal.entries());
        self.golden.iter().chain(silver).chain(normal).for_each(f);
    }
}

impl mask_common::snapshot::SnapField for QueueEntry {
    fn write(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        self.req.write(w);
        w.usize(self.decoded.channel);
        w.usize(self.decoded.bank);
        w.u64(self.decoded.row);
        w.u64(self.arrival);
    }

    fn read(
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, mask_common::snapshot::SnapshotError> {
        Ok(QueueEntry {
            req: MemRequest::read(r)?,
            decoded: Decoded {
                channel: r.usize()?,
                bank: r.usize()?,
                row: r.u64()?,
            },
            arrival: r.u64()?,
        })
    }
}

impl mask_common::snapshot::Snapshot for BatchState {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.usize(self.current_app);
        w.u32(self.served);
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        self.current_app = r.usize()?;
        self.served = r.u32()?;
        Ok(())
    }
}

impl mask_common::snapshot::Snapshot for MaskQueues {
    /// Serializes queue contents and the Silver rotation state; capacities
    /// and `thresh_max` are config-derived. Restore re-opens the
    /// `dram-queues` conservation domain for every queued entry.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        use mask_common::snapshot::SnapField;
        let (silver, normal) = (self.silver.entries(), self.normal.entries());
        for queue_len in [self.golden.len(), silver.len(), normal.len()] {
            w.seq(queue_len);
        }
        self.for_each_entry(|e| e.write(w));
        w.usize(self.silver_app);
        w.u64(self.silver_left);
        w.seq(self.quotas.len());
        for &q in &self.quotas {
            w.u64(q);
        }
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        use mask_common::snapshot::SnapField;
        let n_golden = r.seq()?;
        let n_silver = r.seq()?;
        let n_normal = r.seq()?;
        self.golden.clear();
        for _ in 0..n_golden {
            self.golden.push_back(QueueEntry::read(r)?);
        }
        self.silver.restore(r, n_silver)?;
        self.normal.restore(r, n_normal)?;
        self.silver_app = r.usize()?;
        self.silver_left = r.u64()?;
        r.seq_exact(self.quotas.len())?;
        for q in &mut self.quotas {
            *q = r.u64()?;
        }
        if self.silver_app >= self.quotas.len() {
            return Err(mask_common::snapshot::SnapshotError::Malformed(
                "silver app index out of range",
            ));
        }
        if cfg!(debug_assertions) {
            self.for_each_entry(|e| {
                mask_obs::hooks::issue(mask_obs::Domain::DramQueues, e.req.id.0);
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::addr::LineAddr;
    use mask_common::ids::{Asid, CoreId};
    use mask_common::req::{ReqId, RequestClass, WalkLevel};

    fn entry(
        id: u64,
        asid: u16,
        bank: usize,
        row: u64,
        class: RequestClass,
        arrival: Cycle,
    ) -> QueueEntry {
        QueueEntry {
            req: MemRequest::new(
                ReqId(id),
                LineAddr(id),
                Asid::new(asid),
                CoreId::new(0),
                class,
                arrival,
            ),
            decoded: Decoded {
                channel: 0,
                bank,
                row,
            },
            arrival,
        }
    }

    fn scan_queue(entries: impl IntoIterator<Item = QueueEntry>) -> ScanQueue {
        let mut q = ScanQueue::default();
        entries.into_iter().for_each(|e| q.push(e));
        q
    }

    #[test]
    fn frfcfs_prefers_row_hits_over_older_requests() {
        let q = scan_queue([
            entry(1, 0, 0, 10, RequestClass::Data, 0), // older, row miss
            entry(2, 0, 1, 20, RequestClass::Data, 1), // younger, row hit
        ]);
        let pick = q.pick(|_| true, |b| if b == 1 { Some(20) } else { Some(99) });
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn frfcfs_falls_back_to_oldest_ready() {
        let q = scan_queue([
            entry(1, 0, 0, 10, RequestClass::Data, 0),
            entry(2, 0, 1, 20, RequestClass::Data, 1),
        ]);
        // No open rows match; bank 0 busy -> entry 2 is the oldest ready.
        let pick = q.pick(|b| b == 1, |_| None);
        assert_eq!(pick, Some(1));
        // All banks free -> the oldest wins.
        let pick = q.pick(|_| true, |_| None);
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn keys_follow_their_entries_through_removal_and_restore() {
        use mask_common::snapshot::{PrefixKey, SnapField, SnapshotReader, SnapshotWriter};
        let key = |e: &QueueEntry| scan_key(&e.decoded).expect("fits");
        // Bank 63 and a 58-bit row are the largest a key holds.
        let top_row = (1 << 58) - 1;
        let mut q = scan_queue([
            entry(1, 0, 63, top_row, RequestClass::Data, 0),
            entry(2, 1, 0, 0, RequestClass::Data, 1),
            entry(3, 0, 5, 77, RequestClass::Data, 2),
        ]);
        assert_eq!(q.keys, [top_row << 6 | 63, 0, 77 << 6 | 5]);
        assert_eq!(q.pick(|b| b == 63, |_| Some(top_row)), Some(0));
        assert_eq!(q.remove(1).req.id, ReqId(2));
        assert!(q.keys.iter().copied().eq(q.entries.iter().map(key)));
        // The batch pass reads the application off the entry.
        let mut batch = BatchState::default();
        q.push(entry(4, 1, 5, 77, RequestClass::Data, 3));
        batch.current_app = 1;
        assert_eq!(batch.pick(&q, 2, |_| true, |_| Some(77)), Some(2));

        let mut w = SnapshotWriter::new();
        q.entries().iter().for_each(|e| e.write(&mut w));
        // A row or a bank a key cannot hold is not a queue this device wrote.
        let wide_row = entry(5, 0, 0, 1 << 58, RequestClass::Data, 4);
        let wide_bank = entry(6, 0, 64, 0, RequestClass::Data, 5);
        assert_eq!(
            (scan_key(&wide_row.decoded), scan_key(&wide_bank.decoded)),
            (None, None)
        );
        wide_row.write(&mut w);
        let bytes = w.seal(PrefixKey(0));
        let mut back = ScanQueue::default();
        let (mut r, _) = SnapshotReader::open(&bytes).expect("sealed above");
        back.restore(&mut r, 3).expect("three well-formed entries");
        assert_eq!(back.keys, q.keys);
        let (mut r, _) = SnapshotReader::open(&bytes).expect("sealed above");
        assert!(matches!(
            back.restore(&mut r, 4),
            Err(mask_common::snapshot::SnapshotError::Malformed(_))
        ));
    }

    /// Red test for the `dram-queue-keys` premise check: a key that names
    /// another bank would let the scan issue to a busy one.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "every scan key must be its entry's decoded row and bank")]
    fn a_key_that_left_its_entry_trips_the_sanitizer() {
        mask_obs::hooks::enter_session(mask_obs::hooks::new_session());
        let mut q = scan_queue([entry(1, 0, 0, 10, RequestClass::Data, 0)]);
        q.keys[0] = 10 << 6 | 1;
        q.pick(|_| true, |_| None);
    }

    fn mq() -> MaskQueues {
        MaskQueues::new(16, 64, 500, 2)
    }

    #[test]
    fn translation_routes_to_golden_and_wins_priority() {
        let mut q = mq();
        q.enqueue(entry(1, 0, 0, 5, RequestClass::Data, 0));
        q.enqueue(entry(
            2,
            1,
            0,
            6,
            RequestClass::Translation(WalkLevel::new(4)),
            1,
        ));
        let picked = q.pick(|_| true, |_| Some(5)).expect("non-empty");
        assert!(
            picked.req.class.is_translation(),
            "golden beats a data row hit"
        );
    }

    #[test]
    fn golden_overflow_degrades_to_normal() {
        let mut q = MaskQueues::new(2, 64, 500, 2);
        for i in 0..4u64 {
            q.enqueue(entry(
                i,
                0,
                0,
                0,
                RequestClass::Translation(WalkLevel::new(1)),
                i,
            ));
        }
        assert_eq!(q.len(), 4, "overflow requests are not dropped");
    }

    #[test]
    fn silver_quota_rotates_between_apps() {
        let mut q = MaskQueues::new(16, 64, 100, 2);
        // Pressure 3:1 -> quotas 75 and 25.
        q.update_pressure(&[3, 1]);
        assert_eq!(q.quotas(), &[75, 25]);
        let start_app = q.silver_app();
        // Exhaust the current app's quota.
        let quota = q.quotas()[start_app];
        for i in 0..quota {
            q.enqueue(entry(i, start_app as u16, 0, 0, RequestClass::Data, i));
        }
        assert_ne!(q.silver_app(), start_app, "turn advances after quota used");
    }

    #[test]
    fn non_silver_app_goes_to_normal() {
        let mut q = mq();
        q.update_pressure(&[1, 1]);
        let other = 1 - q.silver_app();
        q.enqueue(entry(7, other as u16, 0, 0, RequestClass::Data, 0));
        // Pick ignores open rows; the only entry must come from normal.
        let picked = q.pick(|_| true, |_| None).expect("entry present");
        assert_eq!(picked.req.asid.index(), other);
    }

    #[test]
    fn silver_beats_normal() {
        let mut q = mq();
        q.update_pressure(&[1, 1]);
        let silver_app = q.silver_app() as u16;
        let normal_app = 1 - silver_app;
        q.enqueue(entry(1, normal_app, 0, 5, RequestClass::Data, 0));
        q.enqueue(entry(2, silver_app, 1, 6, RequestClass::Data, 1));
        let picked = q
            .pick(|_| true, |b| if b == 0 { Some(5) } else { None })
            .expect("non-empty");
        assert_eq!(
            picked.req.asid.index(),
            silver_app as usize,
            "silver beats a normal row hit"
        );
    }

    #[test]
    fn zero_pressure_splits_quota_evenly() {
        let mut q = MaskQueues::new(16, 64, 500, 2);
        q.update_pressure(&[0, 0]);
        assert_eq!(q.quotas(), &[250, 250]);
    }

    #[test]
    fn golden_fifo_skips_busy_banks() {
        let mut q = mq();
        q.enqueue(entry(
            1,
            0,
            0,
            0,
            RequestClass::Translation(WalkLevel::new(1)),
            0,
        ));
        q.enqueue(entry(
            2,
            0,
            1,
            0,
            RequestClass::Translation(WalkLevel::new(2)),
            1,
        ));
        // Bank 0 busy: the second golden entry issues first.
        let picked = q.pick(|b| b == 1, |_| None).expect("bank 1 ready");
        assert_eq!(picked.req.id, ReqId(2));
        assert_eq!(q.len(), 1);
    }
}
