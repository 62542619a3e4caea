//! The timed DRAM device: channels, banks, row buffers, and scheduling.

use crate::mapping::{decode, ChannelPartition, Decoded};
use crate::queues::{BatchState, MaskQueues, QueueEntry, ScanQueue};
use mask_common::config::{DramConfig, DramPolicy, MemSchedKind, RowPolicy};
use mask_common::req::MemRequest;
use mask_common::Cycle;
use std::collections::VecDeque;

/// How an access interacted with its bank's row buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowOutcome {
    /// The row was already open (CAS only).
    Hit,
    /// The bank was precharged (RCD + CAS).
    Miss,
    /// A different row was open (RP + RCD + CAS).
    Conflict,
}

/// A finished DRAM access.
#[derive(Clone, Copy, Debug)]
pub struct DramCompletion {
    /// The serviced request.
    pub req: MemRequest,
    /// Row-buffer interaction.
    pub outcome: RowOutcome,
    /// Cycle the request arrived at the controller.
    pub arrival: Cycle,
    /// Cycle the data transfer finished.
    pub finish: Cycle,
    /// Channel data-bus cycles consumed (burst length).
    pub bus_cycles: u64,
}

#[derive(Debug)]
struct BankState {
    open_row: Option<u64>,
    busy_until: Cycle,
}

#[derive(Debug)]
enum ChannelQueue {
    /// Single request buffer with FR-FCFS or batch scheduling.
    Baseline(ScanQueue, Option<BatchState>),
    /// MASK's Golden/Silver/Normal queues.
    Mask(MaskQueues),
}

#[derive(Debug)]
struct Channel {
    banks: Vec<BankState>,
    queue: ChannelQueue,
    /// Queued requests per bank, whichever queue holds them.
    queued_per_bank: Vec<u32>,
    /// Bit `b` set iff `queued_per_bank[b] > 0`.
    banks_queued: u64,
    bus_free_at: Cycle,
    /// Issued accesses in issue order, which is finish order: each `finish`
    /// is the previous one (`bus_free_at`) plus at least a burst.
    in_flight: VecDeque<DramCompletion>,
}

impl Channel {
    fn queue_len(&self) -> usize {
        match &self.queue {
            ChannelQueue::Baseline(q, _) => q.entries().len(),
            ChannelQueue::Mask(m) => m.len(),
        }
    }

    fn note_queued(&mut self, bank: usize) {
        self.queued_per_bank[bank] += 1;
        self.banks_queued |= 1 << bank;
    }

    fn note_issued(&mut self, bank: usize) {
        self.queued_per_bank[bank] -= 1;
        if self.queued_per_bank[bank] == 0 {
            self.banks_queued &= !(1 << bank);
        }
    }
}

/// The DRAM device.
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    channels: Vec<Channel>,
    partition: ChannelPartition,
    n_apps: usize,
    /// Requests queued in any channel. At zero `tick` has nothing to
    /// schedule and touches no channel.
    n_queued: usize,
    /// Earliest `finish` among all channels' in-flight accesses
    /// (`Cycle::MAX` when none): before it `drain_completions_into` has
    /// nothing to pop. Both gates are derived state, not encoded, and under
    /// the sanitizer checked against the channels every cycle
    /// (`dram-idle-gate`).
    next_finish: Cycle,
    /// Checker instance id for cycle-monotonicity tracking.
    san_id: u32,
}

impl Dram {
    /// Creates the device under `policy` — the one
    /// [`DesignSpec`](mask_common::config::DesignSpec) axis this layer
    /// consumes. [`DramPolicy::MaskQueues`] selects the Address-Space-Aware
    /// scheduler; [`DramPolicy::ChannelPartitioned`] confines applications
    /// to channel subsets (Static baseline);
    /// [`DramPolicy::BankColored`] colors banks within shared channels
    /// (Partitioned baseline). Partitioning is a no-op for a single app.
    pub fn new(cfg: &DramConfig, n_apps: usize, policy: DramPolicy) -> Self {
        assert!(
            cfg.banks_per_channel <= u64::BITS as usize,
            "a channel's banks must fit one 64-bit mask"
        );
        let mask_sched = policy == DramPolicy::MaskQueues;
        let partition = match policy {
            DramPolicy::ChannelPartitioned if n_apps > 1 => {
                ChannelPartition::split(cfg.channels, n_apps)
            }
            DramPolicy::BankColored if n_apps > 1 => {
                ChannelPartition::bank_colored(cfg.banks_per_channel, n_apps)
            }
            _ => ChannelPartition::shared(),
        };
        let make_queue = || {
            if mask_sched {
                ChannelQueue::Mask(MaskQueues::new(
                    cfg.golden_capacity,
                    cfg.silver_capacity,
                    cfg.thresh_max,
                    n_apps,
                ))
            } else {
                let batch = matches!(cfg.sched, MemSchedKind::GpuBatch).then(BatchState::default);
                ChannelQueue::Baseline(ScanQueue::default(), batch)
            }
        };
        Dram {
            cfg: cfg.clone(),
            channels: (0..cfg.channels)
                .map(|_| Channel {
                    banks: (0..cfg.banks_per_channel)
                        .map(|_| BankState {
                            open_row: None,
                            busy_until: 0,
                        })
                        .collect(),
                    queue: make_queue(),
                    queued_per_bank: vec![0; cfg.banks_per_channel],
                    banks_queued: 0,
                    bus_free_at: 0,
                    in_flight: VecDeque::new(),
                })
                .collect(),
            partition,
            n_apps: n_apps.max(1),
            n_queued: 0,
            next_finish: Cycle::MAX,
            san_id: mask_obs::hooks::register_component("dram"),
        }
    }

    /// Accepts a request at cycle `now`.
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) {
        // Conservation: every accepted request must surface again through
        // `drain_completions_into`.
        mask_obs::hooks::issue(mask_obs::Domain::Dram, req.id.0);
        let decoded = decode(req.line, &self.cfg, &self.partition, req.asid);
        if cfg!(debug_assertions) {
            if let Some((start, n)) = self.partition.bank_range(req.asid) {
                mask_obs::hooks::check(
                    decoded.bank >= start && decoded.bank < start + n,
                    "dram-bank-color",
                    "a bank-colored request must stay inside its application's bank range",
                );
            }
        }
        let entry = QueueEntry {
            req,
            decoded,
            arrival: now,
        };
        self.n_queued += 1;
        let ch = &mut self.channels[decoded.channel];
        ch.note_queued(decoded.bank);
        match &mut ch.queue {
            ChannelQueue::Baseline(q, _) => q.push(entry),
            ChannelQueue::Mask(m) => m.enqueue(entry),
        }
    }

    /// Advances one cycle: each channel may issue one request to a free
    /// bank according to its scheduling policy.
    ///
    /// A channel none of whose free banks has a queued request is skipped
    /// without consulting its scheduler: every policy picks only among
    /// entries whose bank is free, and changes no state when it finds none.
    pub fn tick(&mut self, now: Cycle) {
        mask_obs::hooks::cycle(self.san_id, now);
        if cfg!(debug_assertions) {
            mask_obs::hooks::check(
                self.n_queued == self.queued() && self.next_finish == self.earliest_finish(),
                "dram-idle-gate",
                "the queued count and the earliest finish must match the channels",
            );
        }
        if self.n_queued == 0 {
            return;
        }
        for ch in &mut self.channels {
            if ch.banks_queued == 0 {
                continue;
            }
            let banks = &ch.banks;
            // Only a bank with a queued request is ever asked about.
            let mut free = 0u64;
            let mut queued = ch.banks_queued;
            while queued != 0 {
                let b = queued.trailing_zeros();
                queued &= queued - 1;
                free |= u64::from(banks[b as usize].busy_until <= now) << b;
            }
            if free == 0 {
                continue;
            }
            let bank_free = |b: usize| free >> b & 1 != 0;
            let open_row = |b: usize| banks[b].open_row;
            let picked: Option<QueueEntry> = match &mut ch.queue {
                ChannelQueue::Baseline(q, batch) => {
                    let idx = match batch {
                        Some(state) => state.pick(q, self.n_apps, bank_free, open_row),
                        None => q.pick(bank_free, open_row),
                    };
                    idx.map(|i| q.remove(i))
                }
                ChannelQueue::Mask(m) => m.pick(bank_free, open_row),
            };
            let Some(entry) = picked else { continue };
            let Decoded { bank, row, .. } = entry.decoded;
            ch.note_issued(bank);
            self.n_queued -= 1;
            let bank_state = &mut ch.banks[bank];
            let (outcome, access_lat) = match (self.cfg.row_policy, bank_state.open_row) {
                (RowPolicy::Open, Some(open)) if open == row => (RowOutcome::Hit, self.cfg.t_cas),
                (RowPolicy::Open, Some(_)) => (
                    RowOutcome::Conflict,
                    self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
                ),
                (RowPolicy::Open, None) | (RowPolicy::Closed, None) => {
                    (RowOutcome::Miss, self.cfg.t_rcd + self.cfg.t_cas)
                }
                (RowPolicy::Closed, Some(_)) => {
                    // Closed policy never leaves rows open; defensive arm.
                    (RowOutcome::Miss, self.cfg.t_rcd + self.cfg.t_cas)
                }
            };
            bank_state.open_row = match self.cfg.row_policy {
                RowPolicy::Open => Some(row),
                RowPolicy::Closed => None,
            };
            let data_ready = now + access_lat;
            let start = data_ready.max(ch.bus_free_at);
            let finish = start + self.cfg.burst_cycles;
            ch.bus_free_at = finish;
            // The bank is occupied until its data is ready to transfer;
            // subsequent CAS commands to the open row pipeline behind the
            // shared data bus (which `bus_free_at` serializes).
            bank_state.busy_until = data_ready;
            if cfg!(debug_assertions) {
                mask_obs::hooks::check(
                    ch.in_flight.back().is_none_or(|c| c.finish < finish),
                    "dram-in-flight-order",
                    "a channel's accesses must finish in the order they issue",
                );
            }
            self.next_finish = self.next_finish.min(finish);
            ch.in_flight.push_back(DramCompletion {
                req: entry.req,
                outcome,
                arrival: entry.arrival,
                finish,
                bus_cycles: self.cfg.burst_cycles,
            });
        }
    }

    /// Earliest `finish` among the channels' in-flight fronts.
    fn earliest_finish(&self) -> Cycle {
        self.channels
            .iter()
            .filter_map(|ch| ch.in_flight.front().map(|c| c.finish))
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Moves accesses whose data transfer has finished by `now` into `out`
    /// (not cleared).
    pub fn drain_completions_into(&mut self, now: Cycle, out: &mut Vec<DramCompletion>) {
        if now < self.next_finish {
            return;
        }
        for ch in &mut self.channels {
            while let Some(done) = ch.in_flight.pop_front_if(|c| c.finish <= now) {
                mask_obs::hooks::retire(mask_obs::Domain::Dram, done.req.id.0);
                out.push(done);
            }
        }
        self.next_finish = self.earliest_finish();
    }

    /// Pushes fresh per-app pressure products (`ConPTW_i * WarpsStalled_i`)
    /// into every channel's MASK queues (no-op for baseline scheduling).
    pub fn update_pressure(&mut self, pressure: &[u64]) {
        for ch in &mut self.channels {
            if let ChannelQueue::Mask(m) = &mut ch.queue {
                m.update_pressure(pressure);
            }
        }
    }

    /// Total requests queued across channels.
    pub fn queued(&self) -> usize {
        self.channels.iter().map(Channel::queue_len).sum()
    }

    /// Requests issued to banks but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.channels.iter().map(|c| c.in_flight.len()).sum()
    }
}

fn row_outcome_tag(outcome: RowOutcome) -> u8 {
    match outcome {
        RowOutcome::Hit => 0,
        RowOutcome::Miss => 1,
        RowOutcome::Conflict => 2,
    }
}

impl mask_common::snapshot::Snapshot for Dram {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("dram");
        w.seq(self.channels.len());
        for ch in &self.channels {
            w.seq(ch.banks.len());
            for bank in &ch.banks {
                w.bool(bank.open_row.is_some());
                w.u64(bank.open_row.unwrap_or(0));
                w.u64(bank.busy_until);
            }
            // The queue *variant* is config-derived; only contents are state.
            match &ch.queue {
                ChannelQueue::Baseline(q, batch) => {
                    w.seq(q.entries().len());
                    for e in q.entries() {
                        e.snapshot(w);
                    }
                    if let Some(b) = batch {
                        b.snapshot(w);
                    }
                }
                ChannelQueue::Mask(m) => m.snapshot(w),
            }
            w.u64(ch.bus_free_at);
            w.seq(ch.in_flight.len());
            for c in &ch.in_flight {
                c.req.snapshot(w);
                w.u8(row_outcome_tag(c.outcome));
                w.u64(c.arrival);
                w.u64(c.finish);
                w.u64(c.bus_cycles);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::addr::LineAddr;
    use mask_common::ids::{Asid, CoreId};
    use mask_common::req::{ReqId, RequestClass, WalkLevel};

    fn cfg() -> DramConfig {
        DramConfig::default()
    }

    fn req(id: u64, line: u64, class: RequestClass) -> MemRequest {
        MemRequest::new(
            ReqId(id),
            LineAddr(line),
            Asid::new(0),
            CoreId::new(0),
            class,
            0,
        )
    }

    /// Where `line` of address space 0 lands in a shared (unpartitioned)
    /// device, as every device these tests build is.
    fn at(line: LineAddr) -> Decoded {
        decode(line, &cfg(), &ChannelPartition::shared(), Asid::new(0))
    }

    fn run(dram: &mut Dram, from: Cycle, to: Cycle) -> Vec<DramCompletion> {
        let mut out = Vec::new();
        for now in from..to {
            dram.tick(now);
            dram.drain_completions_into(now, &mut out);
        }
        out
    }

    #[test]
    fn single_access_latency_is_miss_plus_burst() {
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        d.enqueue(req(1, 100, RequestClass::Data), 0);
        let done = run(&mut d, 0, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outcome, RowOutcome::Miss);
        // t_rcd + t_cas + burst = 12 + 12 + 4 = 28.
        assert_eq!(done[0].finish, 28);
    }

    #[test]
    fn same_row_second_access_is_a_hit() {
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        d.enqueue(req(1, 100, RequestClass::Data), 0);
        d.enqueue(req(2, 101, RequestClass::Data), 0); // same 16-line row
        let done = run(&mut d, 0, 200);
        assert_eq!(done.len(), 2);
        let hit = done
            .iter()
            .find(|c| c.req.id == ReqId(2))
            .expect("second completes");
        assert_eq!(hit.outcome, RowOutcome::Hit);
    }

    #[test]
    fn conflict_costs_more_than_hit() {
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        // Two rows in the same bank: line +16 moves one row but the bank
        // XOR-fold may move banks; pick rows far apart mapping to the same
        // channel+bank by brute force.
        let base = 0u64;
        let a = at(LineAddr(base));
        let other = (1..4096u64).map(|k| base + k * 16).find(|&line| {
            let b = at(LineAddr(line));
            b.channel == a.channel && b.bank == a.bank && b.row != a.row
        });
        let other = other.expect("found a conflicting row");
        d.enqueue(req(1, base, RequestClass::Data), 0);
        d.enqueue(req(2, other, RequestClass::Data), 0);
        let done = run(&mut d, 0, 300);
        let c = done
            .iter()
            .find(|c| c.req.id == ReqId(2))
            .expect("completes");
        assert_eq!(c.outcome, RowOutcome::Conflict);
    }

    #[test]
    fn closed_row_policy_never_hits_or_conflicts() {
        let mut c = cfg();
        c.row_policy = RowPolicy::Closed;
        let mut d = Dram::new(&c, 1, DramPolicy::Shared);
        for i in 0..8u64 {
            d.enqueue(req(i, 100 + i, RequestClass::Data), 0);
        }
        let done = run(&mut d, 0, 500);
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|x| x.outcome == RowOutcome::Miss));
    }

    #[test]
    fn frfcfs_starves_scattered_translations_behind_streams() {
        // The Fig. 9 phenomenon: once a data stream has its row open,
        // FR-FCFS keeps serving its row hits and an isolated translation
        // request (different row, no hit) waits even though it is older
        // than most of the stream.
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        // Find a line in the same channel and bank as line 0 but another
        // row: the translation then row-conflicts with the stream.
        let part = ChannelPartition::shared();
        let d0 = decode(LineAddr(0), &cfg(), &part, Asid::new(0));
        let xlat_line = (1..65536u64)
            .map(|k| k * 16)
            .find(|&l| {
                let dd = decode(LineAddr(l), &cfg(), &part, Asid::new(0));
                dd.channel == d0.channel && dd.bank == d0.bank && dd.row != d0.row
            })
            .expect("same-bank different-row line exists");
        // Open the stream's row first.
        d.enqueue(req(0, 0, RequestClass::Data), 0);
        for now in 0..30 {
            d.tick(now);
        }
        d.drain_completions_into(30, &mut Vec::new());
        // Translation arrives, then a burst of row-hitting data behind it.
        d.enqueue(
            req(999, xlat_line, RequestClass::Translation(WalkLevel::new(4))),
            30,
        );
        for i in 1..16u64 {
            d.enqueue(req(i, i, RequestClass::Data), 31);
        }
        let done = run(&mut d, 31, 2000);
        let xlat_done = done
            .iter()
            .find(|c| c.req.id == ReqId(999))
            .expect("completes");
        let data_before = done
            .iter()
            .filter(|c| c.req.id != ReqId(999) && c.finish < xlat_done.finish)
            .count();
        assert!(
            data_before >= 10,
            "row-hit stream should be served before the older scattered \
             translation, only {data_before} data requests finished first"
        );
    }

    #[test]
    fn mask_scheduler_prioritizes_translations() {
        let mut d = Dram::new(&cfg(), 2, DramPolicy::MaskQueues);
        // Flood with data row hits, then one translation.
        for i in 0..32u64 {
            d.enqueue(req(i, i % 16, RequestClass::Data), 0);
        }
        d.enqueue(
            req(
                999,
                16 * 8 * 8 * 4,
                RequestClass::Translation(WalkLevel::new(4)),
            ),
            0,
        );
        let done = run(&mut d, 0, 3000);
        let xlat = done
            .iter()
            .find(|c| c.req.id == ReqId(999))
            .expect("completes");
        let same_ch: Vec<_> = done
            .iter()
            .filter(|c| c.req.id != ReqId(999))
            .filter(|c| at(c.req.line).channel == at(xlat.req.line).channel)
            .collect();
        if same_ch.len() >= 4 {
            let served_before = same_ch.iter().filter(|c| c.finish < xlat.finish).count();
            assert!(
                served_before <= 2,
                "golden queue should jump ahead of the data backlog, {served_before} served first"
            );
        }
    }

    #[test]
    fn bus_serializes_transfers_on_one_channel() {
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        // 4 accesses to the same row: one miss + three hits, but the bus
        // only moves one burst at a time.
        for i in 0..4u64 {
            d.enqueue(req(i, i, RequestClass::Data), 0);
        }
        let done = run(&mut d, 0, 200);
        let mut finishes: Vec<Cycle> = done.iter().map(|c| c.finish).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            assert!(w[1] >= w[0] + cfg().burst_cycles, "bursts must not overlap");
        }
    }

    #[test]
    fn channels_operate_in_parallel() {
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        // One access per channel: all finish at the same cycle.
        for ch_target in 0..8u64 {
            d.enqueue(req(ch_target, ch_target * 16, RequestClass::Data), 0);
        }
        let done = run(&mut d, 0, 100);
        assert_eq!(done.len(), 8);
        let first = done[0].finish;
        assert!(
            done.iter().all(|c| c.finish == first),
            "independent channels don't serialize"
        );
    }

    #[test]
    fn idle_gates_follow_the_channels() {
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        assert_eq!((d.n_queued, d.next_finish), (0, Cycle::MAX));
        d.enqueue(req(1, 0, RequestClass::Data), 0);
        d.enqueue(req(2, 1, RequestClass::Data), 0);
        assert_eq!(d.n_queued, 2);
        let mut done = Vec::new();
        let mut now = 0;
        while done.len() < 2 {
            d.tick(now);
            assert_eq!(d.n_queued, d.queued());
            assert_eq!(d.next_finish, d.earliest_finish());
            d.drain_completions_into(now, &mut done);
            assert_eq!(d.next_finish, d.earliest_finish());
            now += 1;
        }
        assert_eq!((d.n_queued, d.next_finish), (0, Cycle::MAX));
    }

    /// Red test for the `dram-idle-gate` premise check: a queued count
    /// stuck at zero would leave a request unscheduled forever.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the queued count and the earliest finish must match the channels")]
    fn stale_idle_gate_trips_the_sanitizer() {
        mask_obs::hooks::enter_session(mask_obs::hooks::new_session());
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        d.enqueue(req(1, 0, RequestClass::Data), 0);
        d.n_queued = 0;
        d.tick(0);
    }

    #[test]
    fn queue_occupancy_tracks_enqueues() {
        let mut d = Dram::new(&cfg(), 1, DramPolicy::Shared);
        for i in 0..10u64 {
            d.enqueue(req(i, i * 1000, RequestClass::Data), 0);
        }
        assert_eq!(d.queued(), 10);
        d.tick(0);
        assert!(d.queued() < 10);
        assert!(d.in_flight() > 0);
    }
}
