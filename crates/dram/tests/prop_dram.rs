//! Property tests for the DRAM device and schedulers.

use mask_common::addr::LineAddr;
use mask_common::config::{DramConfig, DramPolicy, MemSchedKind, RowPolicy};
use mask_common::ids::{Asid, CoreId};
use mask_common::req::{MemRequest, ReqId, RequestClass, WalkLevel};
use mask_dram::mapping::decode;
use mask_dram::{ChannelPartition, Dram};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn request(i: usize, line: u64, asid: u16) -> MemRequest {
    let class = if i.is_multiple_of(4) {
        RequestClass::Translation(WalkLevel::new((i % 4 + 1) as u8))
    } else {
        RequestClass::Data
    };
    MemRequest::new(
        ReqId(i as u64),
        LineAddr(line),
        Asid::new(asid),
        CoreId::new(0),
        class,
        0,
    )
}

fn drain(dram: &mut Dram, expected: usize) -> Vec<mask_dram::DramCompletion> {
    let mut done = Vec::new();
    for now in 0..200_000u64 {
        dram.tick(now);
        dram.drain_completions_into(now, &mut done);
        if done.len() == expected {
            break;
        }
    }
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every enqueued request completes exactly once, under every
    /// scheduler and row policy.
    #[test]
    fn conservation(
        lines in proptest::collection::vec((0u64..100_000, 0u16..2), 1..120),
        mask_sched: bool,
        closed_row: bool,
        batch: bool,
    ) {
        let cfg = DramConfig {
            row_policy: if closed_row { RowPolicy::Closed } else { RowPolicy::Open },
            sched: if batch { MemSchedKind::GpuBatch } else { MemSchedKind::FrFcfs },
            ..DramConfig::default()
        };
        let mut dram = Dram::new(&cfg, 2, if mask_sched { DramPolicy::MaskQueues } else { DramPolicy::Shared });
        for (i, &(l, a)) in lines.iter().enumerate() {
            dram.enqueue(request(i, l, a), 0);
        }
        let done = drain(&mut dram, lines.len());
        prop_assert_eq!(done.len(), lines.len(), "requests lost");
        let ids: BTreeSet<u64> = done.iter().map(|c| c.req.id.0).collect();
        prop_assert_eq!(ids.len(), lines.len(), "duplicate completions");
        prop_assert_eq!(dram.queued(), 0);
        prop_assert_eq!(dram.in_flight(), 0);
    }

    /// Channel data-bus transfers never overlap (bandwidth conservation).
    #[test]
    fn bus_transfers_serialize(lines in proptest::collection::vec(0u64..4096, 1..60)) {
        let cfg = DramConfig::default();
        let mut dram = Dram::new(&cfg, 1, DramPolicy::Shared);
        for (i, &l) in lines.iter().enumerate() {
            dram.enqueue(request(i, l, 0), 0);
        }
        let done = drain(&mut dram, lines.len());
        // Group completions per channel and check bursts do not overlap.
        for ch in 0..cfg.channels {
            let mut finishes: Vec<u64> = done
                .iter()
                .filter(|c| decode(c.req.line, &cfg, &ChannelPartition::shared(), c.req.asid).channel == ch)
                .map(|c| c.finish)
                .collect();
            finishes.sort_unstable();
            for w in finishes.windows(2) {
                prop_assert!(w[1] >= w[0] + cfg.burst_cycles, "overlapping bursts on channel {ch}");
            }
        }
    }

    /// Static channel partitioning (the split `Dram::new` builds for
    /// `DramPolicy::ChannelPartitioned` and two apps) confines each ASID to
    /// its channels.
    #[test]
    fn partition_isolation(lines in proptest::collection::vec(0u64..100_000, 1..60)) {
        let cfg = DramConfig::default();
        let split = ChannelPartition::split(cfg.channels, 2);
        let channel = |l, asid| decode(LineAddr(l), &cfg, &split, Asid::new(asid)).channel;
        for &l in &lines {
            prop_assert!(channel(l, 0) < 4);
            prop_assert!(channel(l, 1) >= 4);
        }
    }

    /// Closed-row policy never produces row hits or conflicts.
    #[test]
    fn closed_row_uniform_latency(lines in proptest::collection::vec(0u64..10_000, 1..60)) {
        let cfg = DramConfig { row_policy: RowPolicy::Closed, ..DramConfig::default() };
        let mut dram = Dram::new(&cfg, 1, DramPolicy::Shared);
        for (i, &l) in lines.iter().enumerate() {
            dram.enqueue(request(i, l, 0), 0);
        }
        let done = drain(&mut dram, lines.len());
        prop_assert!(done.iter().all(|c| c.outcome == mask_dram::RowOutcome::Miss));
    }
}

// Differential test of the device's gating, FIFOs and scan keys.
// `ScanEverything` is the device the obvious way: every cycle it asks every
// channel's scheduler for a pick, reading each bank's `busy_until` and each
// entry's decoded bank and row per queue entry, and looks at every in-flight
// access for one that has finished. It shares `MaskQueues` and the address
// mapping with the real device; the baseline FR-FCFS and batch schedulers
// are written out here over the entries themselves, as the device had them
// before it kept a key array beside its queues.
mod scan_everything {
    use mask_common::config::{DramConfig, DramPolicy, MemSchedKind, RowPolicy};
    use mask_common::req::MemRequest;
    use mask_dram::mapping::{decode, ChannelPartition};
    use mask_dram::queues::{MaskQueues, QueueEntry};
    use mask_dram::RowOutcome;

    /// `(request id, outcome, arrival, finish)` of a completed access.
    pub(crate) type Done = (u64, RowOutcome, u64, u64);

    /// FR-FCFS over the entries `accept` admits: the first row hit among
    /// those whose bank is free, else the oldest of them.
    fn frfcfs_pick(
        queue: &[QueueEntry],
        bank_free: impl Fn(usize) -> bool,
        open_row: impl Fn(usize) -> Option<u64>,
        accept: impl Fn(&QueueEntry) -> bool,
    ) -> Option<usize> {
        let ready = |e: &&QueueEntry| accept(e) && bank_free(e.decoded.bank);
        let hit = |e: &QueueEntry| ready(&e) && open_row(e.decoded.bank) == Some(e.decoded.row);
        let first_hit = queue.iter().position(hit);
        first_hit.or_else(|| queue.iter().position(|e| ready(&e)))
    }

    /// The batch scheduler: one application at a time, eight grants a turn.
    #[derive(Default)]
    struct BatchState {
        current_app: usize,
        served: u32,
    }

    impl BatchState {
        fn pick(
            &mut self,
            queue: &[QueueEntry],
            n_apps: usize,
            bank_free: impl Fn(usize) -> bool + Copy,
            open_row: impl Fn(usize) -> Option<u64> + Copy,
        ) -> Option<usize> {
            for offset in 0..n_apps {
                let app = (self.current_app + offset) % n_apps;
                let of_app = |e: &QueueEntry| e.req.asid.index() == app;
                let Some(picked) = frfcfs_pick(queue, bank_free, open_row, of_app) else {
                    continue;
                };
                if offset != 0 {
                    (self.current_app, self.served) = (app, 0);
                }
                self.served += 1;
                if self.served >= 8 {
                    (self.current_app, self.served) = ((app + 1) % n_apps, 0);
                }
                return Some(picked);
            }
            None
        }
    }

    enum Queue {
        Baseline(Vec<QueueEntry>, Option<BatchState>),
        Mask(MaskQueues),
    }

    struct Channel {
        /// `(open row, busy until)` per bank.
        banks: Vec<(Option<u64>, u64)>,
        queue: Queue,
        bus_free_at: u64,
        in_flight: Vec<Done>,
    }

    pub(crate) struct ScanEverything {
        cfg: DramConfig,
        partition: ChannelPartition,
        n_apps: usize,
        channels: Vec<Channel>,
    }

    impl ScanEverything {
        pub(crate) fn new(cfg: &DramConfig, n_apps: usize, policy: DramPolicy) -> Self {
            let partition = match policy {
                DramPolicy::ChannelPartitioned => ChannelPartition::split(cfg.channels, n_apps),
                DramPolicy::BankColored => {
                    ChannelPartition::bank_colored(cfg.banks_per_channel, n_apps)
                }
                _ => ChannelPartition::shared(),
            };
            let queue = || {
                if policy == DramPolicy::MaskQueues {
                    Queue::Mask(MaskQueues::new(
                        cfg.golden_capacity,
                        cfg.silver_capacity,
                        cfg.thresh_max,
                        n_apps,
                    ))
                } else {
                    let batch = (cfg.sched == MemSchedKind::GpuBatch).then(BatchState::default);
                    Queue::Baseline(Vec::new(), batch)
                }
            };
            ScanEverything {
                cfg: cfg.clone(),
                channels: (0..cfg.channels)
                    .map(|_| Channel {
                        banks: vec![(None, 0); cfg.banks_per_channel],
                        queue: queue(),
                        bus_free_at: 0,
                        in_flight: Vec::new(),
                    })
                    .collect(),
                partition,
                n_apps,
            }
        }

        pub(crate) fn enqueue(&mut self, req: MemRequest, now: u64) {
            let decoded = decode(req.line, &self.cfg, &self.partition, req.asid);
            let entry = QueueEntry {
                req,
                decoded,
                arrival: now,
            };
            match &mut self.channels[decoded.channel].queue {
                Queue::Baseline(q, _) => q.push(entry),
                Queue::Mask(m) => m.enqueue(entry),
            }
        }

        pub(crate) fn update_pressure(&mut self, pressure: &[u64]) {
            for ch in &mut self.channels {
                if let Queue::Mask(m) = &mut ch.queue {
                    m.update_pressure(pressure);
                }
            }
        }

        pub(crate) fn queued(&self) -> usize {
            let len = |ch: &Channel| match &ch.queue {
                Queue::Baseline(q, _) => q.len(),
                Queue::Mask(m) => m.len(),
            };
            self.channels.iter().map(len).sum()
        }

        pub(crate) fn in_flight(&self) -> usize {
            self.channels.iter().map(|ch| ch.in_flight.len()).sum()
        }

        /// One cycle: schedule on every channel, then collect what finished.
        pub(crate) fn tick_and_drain(&mut self, now: u64) -> Vec<Done> {
            let cfg = &self.cfg;
            let mut done = Vec::new();
            for ch in &mut self.channels {
                let banks = &ch.banks;
                let bank_free = |b: usize| banks[b].1 <= now;
                let open_row = |b: usize| banks[b].0;
                let picked = match &mut ch.queue {
                    Queue::Baseline(q, batch) => {
                        let idx = match batch {
                            Some(state) => state.pick(q, self.n_apps, bank_free, open_row),
                            None => frfcfs_pick(q, bank_free, open_row, |_| true),
                        };
                        idx.map(|i| q.remove(i))
                    }
                    Queue::Mask(m) => m.pick(bank_free, open_row),
                };
                if let Some(entry) = picked {
                    let bank = &mut ch.banks[entry.decoded.bank];
                    let (outcome, latency) = match (cfg.row_policy, bank.0) {
                        (RowPolicy::Open, Some(open)) if open == entry.decoded.row => {
                            (RowOutcome::Hit, cfg.t_cas)
                        }
                        (RowPolicy::Open, Some(_)) => {
                            (RowOutcome::Conflict, cfg.t_rp + cfg.t_rcd + cfg.t_cas)
                        }
                        _ => (RowOutcome::Miss, cfg.t_rcd + cfg.t_cas),
                    };
                    bank.0 = (cfg.row_policy == RowPolicy::Open).then_some(entry.decoded.row);
                    bank.1 = now + latency;
                    let finish = (now + latency).max(ch.bus_free_at) + cfg.burst_cycles;
                    ch.bus_free_at = finish;
                    ch.in_flight
                        .push((entry.req.id.0, outcome, entry.arrival, finish));
                }
                let mut finished: Vec<Done> = Vec::new();
                ch.in_flight.retain(|&access| {
                    let ready = access.3 <= now;
                    if ready {
                        finished.push(access);
                    }
                    !ready
                });
                finished.sort_by_key(|&(.., finish)| finish);
                done.extend(finished);
            }
            done
        }
    }
}

/// One step of a request stream: idle cycles before it, then the request.
type Arrival = (u64, u64, u16, bool);

fn arrivals() -> impl Strategy<Value = Vec<Arrival>> {
    proptest::collection::vec(
        (
            // Mostly bursts (deep queues, busy banks), sometimes a pause
            // long enough to drain a channel.
            prop_oneof![0u64..2, 0u64..2, 0u64..2, 0u64..40, 100u64..300],
            // A few rows of every bank, or anywhere.
            prop_oneof![0u64..2048, 0u64..2048, 0u64..1_000_000],
            0u16..2,
            any::<bool>(),
        ),
        1..250,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Same completions, in the same order, on the same cycle — and the
    /// same occupancy on every cycle — as the device that
    /// scans everything, under every scheduler and partitioning, through
    /// quota updates.
    #[test]
    fn gated_device_equals_scanning_every_queue_every_cycle(
        stream in arrivals(),
        variant in 0usize..6,
        closed_row: bool,
    ) {
        let (policy, sched) = [
            (DramPolicy::Shared, MemSchedKind::FrFcfs),
            (DramPolicy::Shared, MemSchedKind::GpuBatch),
            (DramPolicy::MaskQueues, MemSchedKind::FrFcfs),
            (DramPolicy::ChannelPartitioned, MemSchedKind::FrFcfs),
            (DramPolicy::BankColored, MemSchedKind::GpuBatch),
            (DramPolicy::MaskQueues, MemSchedKind::FrFcfs),
        ][variant];
        let cfg = DramConfig {
            row_policy: if closed_row { RowPolicy::Closed } else { RowPolicy::Open },
            sched,
            // Variant 5: queues small enough to overflow into Normal.
            golden_capacity: if variant == 5 { 2 } else { 16 },
            silver_capacity: if variant == 5 { 3 } else { 64 },
            ..DramConfig::default()
        };
        // Device and model queue the same request ids: each keeps its own
        // sanitizer session.
        let model_session = mask_obs::hooks::new_session();
        let dram_session = mask_obs::hooks::new_session();
        mask_obs::hooks::enter_session(dram_session);
        let mut dram = Dram::new(&cfg, 2, policy);
        let mut model = scan_everything::ScanEverything::new(&cfg, 2, policy);
        let mut pending = stream.iter().enumerate().peekable();
        let mut next_arrival = stream[0].0;
        let mut completed = 0;
        let mut out = Vec::new();
        let mut now = 0u64;
        while completed < stream.len() {
            prop_assert!(now < 200_000, "requests lost");
            while let Some(&(i, &(_, line, asid, xlat))) = pending.peek() {
                if next_arrival > now {
                    break;
                }
                let class = if xlat {
                    RequestClass::Translation(WalkLevel::new((i % 4 + 1) as u8))
                } else {
                    RequestClass::Data
                };
                let req = MemRequest::new(
                    ReqId(i as u64), LineAddr(line), Asid::new(asid), CoreId::new(0), class, now,
                );
                dram.enqueue(req, now);
                mask_obs::hooks::enter_session(model_session);
                model.enqueue(req, now);
                mask_obs::hooks::enter_session(dram_session);
                pending.next();
                if let Some(&(_, &(gap, ..))) = pending.peek() {
                    next_arrival = now + gap;
                }
            }
            if now.is_multiple_of(97) {
                let pressure = [now % 5, (now / 97) % 3];
                dram.update_pressure(&pressure);
                mask_obs::hooks::enter_session(model_session);
                model.update_pressure(&pressure);
                mask_obs::hooks::enter_session(dram_session);
            }
            dram.tick(now);
            out.clear();
            dram.drain_completions_into(now, &mut out);
            let got: Vec<scan_everything::Done> =
                out.iter().map(|c| (c.req.id.0, c.outcome, c.arrival, c.finish)).collect();
            mask_obs::hooks::enter_session(model_session);
            let want = model.tick_and_drain(now);
            mask_obs::hooks::enter_session(dram_session);
            prop_assert_eq!(&got, &want, "cycle {}", now);
            prop_assert_eq!(dram.queued(), model.queued(), "cycle {}", now);
            prop_assert_eq!(dram.in_flight(), model.in_flight(), "cycle {}", now);
            completed += got.len();
            now += 1;
        }
    }
}
