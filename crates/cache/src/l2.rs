//! The banked, timed shared L2 cache.
//!
//! Table 1: "2MB total, 16-way associative, LRU, 16 cache banks, 2 ports
//! per cache bank, 10-cycle latency". Requests queue per bank; each bank
//! services at most `ports_per_bank` requests per cycle once they have been
//! queued for at least the pipeline latency, so *queueing latency emerges*
//! — the effect §4.3/§5.3 identify as a major cost for page-table walks.
//!
//! With Address-Translation-Aware L2 Bypass enabled, translation requests
//! whose walk level is currently bypassing skip the bank queue entirely
//! (no probe, no fill) and go straight to DRAM, "minimiz\[ing\] the impact of
//! long L2 cache queuing latency" (§7.2).

use crate::bypass::BypassMonitor;
use crate::data::DataCache;
use crate::mshr::{MshrAlloc, MshrTable};
use mask_common::addr::LineAddr;
use mask_common::config::{CacheConfig, L2Policy};
use mask_common::req::{MemRequest, RequestClass};
use mask_common::Cycle;
use std::collections::VecDeque;

/// How an L2 access was ultimately serviced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L2Outcome {
    /// Hit in the L2 array.
    Hit,
    /// Missed; serviced by DRAM and filled into the array.
    Miss,
    /// Bypassed the L2 entirely (MASK translation bypass).
    Bypassed,
}

/// A completed L2 access returned to the requester.
#[derive(Clone, Copy, Debug)]
pub struct L2Response {
    /// The original request.
    pub req: MemRequest,
    /// How it was serviced.
    pub outcome: L2Outcome,
}

#[derive(Clone, Debug)]
struct Bank {
    /// FIFO of (request, earliest service cycle).
    queue: VecDeque<(MemRequest, Cycle)>,
    mshr: MshrTable<MemRequest>,
    /// The queue head missed the array and found `mshr` full without its
    /// line. Neither can change before a fill completes an entry of `mshr`
    /// (the line is absent from the table, so only a banked fill can bring
    /// it into the array or free a slot), so until then `tick` replays the
    /// retry's side effects instead of re-probing. Not snapshot state: a
    /// restored bank takes the full path once and stalls again.
    head_stalled: bool,
}

impl Bank {
    /// The cycle the queue head becomes serviceable; `Cycle::MAX` when the
    /// queue is empty.
    fn head_ready(&self) -> Cycle {
        self.queue.front().map_or(Cycle::MAX, |&(_, ready)| ready)
    }
}

/// The shared L2 cache.
#[derive(Clone, Debug)]
pub struct SharedL2Cache {
    array: DataCache,
    banks: Vec<Bank>,
    /// Per bank, dense beside `banks`: the cycle its queue head becomes
    /// serviceable, `Cycle::MAX` when the queue is empty. Queues are FIFO
    /// with a constant latency, so the head is each bank's earliest entry
    /// and `tick` skips a bank whose value lies in the future. A stalled
    /// head keeps its value (≤ `now`), so it is still visited every cycle.
    /// Derived state: maintained where a queue is pushed or popped,
    /// re-derived by `restore`, not encoded.
    head_ready: Vec<Cycle>,
    monitor: BypassMonitor,
    bypass_enabled: bool,
    latency: u64,
    ports: usize,
    /// MSHRs for requests that bypassed the banks.
    bypass_mshr: MshrTable<MemRequest>,
    to_dram: Vec<MemRequest>,
    responses: Vec<L2Response>,
    /// Scratch for `dram_fill`: waiters gathered from the banked and bypass
    /// MSHRs before being turned into responses. Reused across fills.
    scratch_fill: Vec<MemRequest>,
    /// Checker instance id for cycle-monotonicity tracking.
    san_id: u32,
}

impl SharedL2Cache {
    /// Builds the L2 from its configuration under `policy` — the one
    /// [`DesignSpec`](mask_common::config::DesignSpec) axis this layer
    /// consumes. [`L2Policy::SharedBypass`] activates MASK's
    /// translation-aware bypass (mechanism ❷);
    /// [`L2Policy::WayPartitioned`] / [`L2Policy::SetColored`] split the
    /// array between address spaces (no-ops for a single app).
    pub fn new(cfg: &CacheConfig, policy: L2Policy, n_asids: usize) -> Self {
        Self::with_bypass_margin(cfg, policy, n_asids, crate::bypass::BYPASS_MARGIN)
    }

    /// Like [`SharedL2Cache::new`] with an explicit bypass hysteresis
    /// margin (ablation studies).
    pub fn with_bypass_margin(
        cfg: &CacheConfig,
        policy: L2Policy,
        n_asids: usize,
        margin: f64,
    ) -> Self {
        let mut array = DataCache::new(cfg.bytes, cfg.assoc);
        if n_asids > 1 {
            match policy {
                L2Policy::WayPartitioned => array.partition_ways(n_asids),
                L2Policy::SetColored => array.partition_sets(n_asids),
                L2Policy::Shared | L2Policy::SharedBypass => {}
            }
        }
        SharedL2Cache {
            array,
            banks: (0..cfg.banks)
                .map(|_| Bank {
                    queue: VecDeque::new(),
                    mshr: MshrTable::labelled("l2-bank-mshr", cfg.mshrs),
                    head_stalled: false,
                })
                .collect(),
            head_ready: vec![Cycle::MAX; cfg.banks],
            monitor: BypassMonitor::with_margin(n_asids, margin),
            bypass_enabled: matches!(policy, L2Policy::SharedBypass),
            latency: cfg.latency,
            ports: cfg.ports_per_bank,
            bypass_mshr: MshrTable::labelled("l2-bypass-mshr", cfg.mshrs * cfg.banks),
            to_dram: Vec::new(),
            responses: Vec::new(),
            scratch_fill: Vec::new(),
            san_id: mask_obs::hooks::register_component("l2-cache"),
        }
    }

    /// Statically partitions the array's ways among `n_apps` (the `Static`
    /// baseline design).
    pub fn partition_ways(&mut self, n_apps: usize) {
        self.array.partition_ways(n_apps);
    }

    fn bank_index(&self, line: LineAddr) -> usize {
        // Bank counts are powers of two in every shipped geometry; the mask
        // is the same residue as `%` without a per-request 64-bit divide.
        let n = self.banks.len() as u64;
        let folded = line.0 ^ (line.0 >> 8);
        if n.is_power_of_two() {
            (folded & (n - 1)) as usize
        } else {
            (folded % n) as usize
        }
    }

    /// Accepts a request into the L2 at cycle `now`.
    ///
    /// Translation requests at a bypassing walk level skip the banks and go
    /// straight toward DRAM (merged through the bypass MSHRs).
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) {
        // Conservation: every request accepted here leaves exactly once via
        // `take_responses`.
        mask_obs::hooks::issue(mask_obs::Domain::L2Cache, req.id.0);
        if self.bypass_enabled {
            if let RequestClass::Translation(level) = req.class {
                let bypass = self.monitor.should_bypass(req.asid, level);
                mask_obs::hooks::bypass_decision(req.asid.index() as u16, level.raw(), bypass);
                if bypass {
                    match self.bypass_mshr.allocate(req.line, req) {
                        MshrAlloc::Primary => {
                            let mut fwd = req;
                            fwd.issued_at = now;
                            self.to_dram.push(fwd);
                        }
                        MshrAlloc::Secondary => {}
                        MshrAlloc::Full => {
                            // Fall back to the banked path under extreme
                            // pressure rather than dropping the request.
                            self.push_banked(req, now);
                            return;
                        }
                    }
                    return;
                }
            }
        }
        self.push_banked(req, now);
    }

    /// Queues `req` at its bank, serviceable after the pipeline latency.
    fn push_banked(&mut self, req: MemRequest, now: Cycle) {
        let bank = self.bank_index(req.line);
        let ready = now + self.latency;
        if self.banks[bank].queue.is_empty() {
            self.head_ready[bank] = ready;
        }
        self.banks[bank].queue.push_back((req, ready));
    }

    /// Pops bank `b`'s head and re-reads the new head's ready cycle.
    fn pop_head(&mut self, b: usize) {
        self.banks[b].queue.pop_front();
        self.head_ready[b] = self.banks[b].head_ready();
    }

    /// Advances one cycle: each bank whose head is serviceable services up
    /// to `ports` ready requests, in ascending bank order (the order the
    /// LRU stamps, `responses` and `to_dram` depend on).
    pub fn tick(&mut self, now: Cycle) {
        mask_obs::hooks::cycle(self.san_id, now);
        if cfg!(debug_assertions) {
            mask_obs::hooks::check(
                self.head_ready
                    .iter()
                    .copied()
                    .eq(self.banks.iter().map(Bank::head_ready)),
                "l2-head-ready",
                "a bank's head-ready cycle must be its queue head's (MAX when empty)",
            );
        }
        for b in 0..self.banks.len() {
            if self.head_ready[b] > now {
                continue;
            }
            if self.banks[b].head_stalled {
                // A stalled head's retry is a probe that misses (one LRU
                // clock step, one recorded miss) and an allocation that
                // finds the table full (nothing).
                let &(req, _) = self.banks[b].queue.front().expect("stalled head");
                if cfg!(debug_assertions) {
                    let bank = &self.banks[b];
                    mask_obs::hooks::check(
                        !self.array.peek(req.line, req.asid)
                            && bank.mshr.is_full()
                            && !bank.mshr.contains(req.line),
                        "l2-head-stall",
                        "a stalled bank head must still miss the array and a full MSHR table",
                    );
                }
                self.array.advance_clock();
                self.monitor.record(req.asid, req.class, false);
                continue;
            }
            for _ in 0..self.ports {
                if self.head_ready[b] > now {
                    break;
                }
                let &(req, _) = self.banks[b].queue.front().expect("ready head");
                // Probe the array.
                let hit = self.array.probe(req.line, req.asid);
                self.monitor.record(req.asid, req.class, hit);
                if hit {
                    self.pop_head(b);
                    self.responses.push(L2Response {
                        req,
                        outcome: L2Outcome::Hit,
                    });
                } else {
                    match self.banks[b].mshr.allocate(req.line, req) {
                        MshrAlloc::Primary => {
                            self.pop_head(b);
                            let mut fwd = req;
                            fwd.issued_at = now;
                            self.to_dram.push(fwd);
                        }
                        MshrAlloc::Secondary => self.pop_head(b),
                        MshrAlloc::Full => {
                            // Head-of-line stall until a banked fill.
                            self.banks[b].head_stalled = true;
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Delivers a DRAM fill for `line`: wakes all waiters and fills the
    /// array (unless only bypassed requests wanted the line).
    pub fn dram_fill(&mut self, line: LineAddr, _now: Cycle) {
        let bank = self.bank_index(line);
        let mut gathered = std::mem::take(&mut self.scratch_fill);
        gathered.clear();
        let n_banked = self.banks[bank].mshr.complete_into(line, &mut gathered);
        self.bypass_mshr.complete_into(line, &mut gathered);
        if n_banked > 0 {
            self.banks[bank].head_stalled = false;
            // Fill on behalf of the first demander's address space (only
            // relevant under way partitioning / set coloring; every
            // physical line belongs to exactly one application, so all
            // gathered demanders share an ASID).
            self.array.fill(line, gathered[0].asid);
        }
        for (i, req) in gathered.drain(..).enumerate() {
            let outcome = if i < n_banked {
                L2Outcome::Miss
            } else {
                L2Outcome::Bypassed
            };
            self.responses.push(L2Response { req, outcome });
        }
        self.scratch_fill = gathered;
    }

    /// Drains requests destined for DRAM (call every cycle).
    ///
    /// Allocating wrapper around [`SharedL2Cache::drain_dram_requests_into`]
    /// for tests and cold paths.
    pub fn take_dram_requests(&mut self) -> Vec<MemRequest> {
        let mut out = Vec::new();
        self.drain_dram_requests_into(&mut out);
        out
    }

    /// Moves all pending DRAM-bound requests into `out` (not cleared).
    pub fn drain_dram_requests_into(&mut self, out: &mut Vec<MemRequest>) {
        out.append(&mut self.to_dram);
    }

    /// Drains completed responses (call every cycle).
    ///
    /// Allocating wrapper around [`SharedL2Cache::drain_responses_into`]
    /// for tests and cold paths.
    pub fn take_responses(&mut self) -> Vec<L2Response> {
        let mut out = Vec::new();
        self.drain_responses_into(&mut out);
        out
    }

    /// Moves all completed responses into `out` (not cleared), retiring
    /// each from the `l2-cache` conservation domain.
    pub fn drain_responses_into(&mut self, out: &mut Vec<L2Response>) {
        for r in &self.responses {
            mask_obs::hooks::retire(mask_obs::Domain::L2Cache, r.req.id.0);
        }
        out.append(&mut self.responses);
    }

    /// Ends a monitoring epoch (latches new bypass decisions).
    pub fn end_epoch(&mut self) {
        self.monitor.end_epoch();
    }

    /// Read access to the bypass monitor (for experiment reporting).
    pub fn monitor(&self) -> &BypassMonitor {
        &self.monitor
    }

    /// Total queued requests across banks (queueing-pressure metric).
    pub fn queued(&self) -> usize {
        self.banks.iter().map(|b| b.queue.len()).sum()
    }

    /// Flushes the data array (context-switch experiments).
    pub fn flush(&mut self) {
        self.array.flush();
    }

    /// Visits every request currently held inside the L2 — bank queues,
    /// banked MSHR waiters, bypass MSHR waiters, and undelivered responses.
    ///
    /// This set is exactly the requests accepted by [`SharedL2Cache::enqueue`]
    /// and not yet drained by [`SharedL2Cache::drain_responses_into`], with
    /// each request visited once (`to_dram` copies are duplicates of MSHR
    /// primaries and are skipped). [`GpuSim::restore`] uses it to re-open
    /// client-side conservation domains after restoring into a fresh
    /// sanitizer session.
    ///
    /// [`GpuSim::restore`]: mask_common::snapshot::Snapshot::restore
    pub fn for_each_in_flight(&self, mut f: impl FnMut(&MemRequest)) {
        for bank in &self.banks {
            for (req, _) in &bank.queue {
                f(req);
            }
            for entry in bank.mshr.entries() {
                for req in &entry.waiters {
                    f(req);
                }
            }
        }
        for entry in self.bypass_mshr.entries() {
            for req in &entry.waiters {
                f(req);
            }
        }
        for resp in &self.responses {
            f(&resp.req);
        }
    }
}

impl mask_common::snapshot::Snapshot for SharedL2Cache {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        use mask_common::snapshot::SnapField;
        w.section("l2cache");
        self.array.snapshot(w);
        w.seq(self.banks.len());
        for bank in &self.banks {
            w.seq(bank.queue.len());
            for (req, ready) in &bank.queue {
                req.write(w);
                w.u64(*ready);
            }
            bank.mshr.snapshot(w);
        }
        self.monitor.snapshot(w);
        self.bypass_mshr.snapshot(w);
        w.seq(self.to_dram.len());
        for req in &self.to_dram {
            req.write(w);
        }
        w.seq(self.responses.len());
        for resp in &self.responses {
            resp.req.write(w);
            w.u8(match resp.outcome {
                L2Outcome::Hit => 0,
                L2Outcome::Miss => 1,
                L2Outcome::Bypassed => 2,
            });
        }
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        use mask_common::snapshot::{SnapField, SnapshotError};
        r.section("l2cache")?;
        self.array.restore(r)?;
        r.seq_exact(self.banks.len())?;
        for b in 0..self.banks.len() {
            let n = r.seq()?;
            self.banks[b].queue.clear();
            for _ in 0..n {
                let req = MemRequest::read(r)?;
                let ready = r.u64()?;
                self.banks[b].queue.push_back((req, ready));
            }
            self.head_ready[b] = self.banks[b].head_ready();
            self.banks[b].mshr.restore(r)?;
            self.banks[b].head_stalled = false;
        }
        self.monitor.restore(r)?;
        self.bypass_mshr.restore(r)?;
        let n = r.seq()?;
        self.to_dram.clear();
        for _ in 0..n {
            self.to_dram.push(MemRequest::read(r)?);
        }
        let n = r.seq()?;
        self.responses.clear();
        for _ in 0..n {
            let req = MemRequest::read(r)?;
            let outcome = match r.u8()? {
                0 => L2Outcome::Hit,
                1 => L2Outcome::Miss,
                2 => L2Outcome::Bypassed,
                _ => return Err(SnapshotError::Malformed("unknown L2 outcome")),
            };
            self.responses.push(L2Response { req, outcome });
        }
        // Re-open the L2's own conservation domain in the current sanitizer
        // session: every request inside the restored structures was issued
        // before the snapshot and has yet to retire.
        if cfg!(debug_assertions) {
            self.for_each_in_flight(|req| {
                mask_obs::hooks::issue(mask_obs::Domain::L2Cache, req.id.0);
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::ids::{Asid, CoreId};
    use mask_common::req::{ReqId, WalkLevel};

    fn cfg() -> CacheConfig {
        CacheConfig {
            bytes: 64 * 1024,
            assoc: 8,
            latency: 10,
            banks: 4,
            ports_per_bank: 2,
            mshrs: 8,
        }
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

    fn run_until_responses(
        l2: &mut SharedL2Cache,
        start: Cycle,
        max: u64,
    ) -> (Vec<L2Response>, Cycle) {
        let mut out = Vec::new();
        for now in start..start + max {
            l2.tick(now);
            // Simulate a 20-cycle DRAM for any outgoing requests.
            for r in l2.take_dram_requests() {
                // Immediate fill for test simplicity (latency covered elsewhere).
                let _ = r;
            }
            out.extend(l2.take_responses());
            if !out.is_empty() {
                return (out, now);
            }
        }
        (out, start + max)
    }

    #[test]
    fn miss_goes_to_dram_then_fill_hits() {
        let mut l2 = SharedL2Cache::new(&cfg(), L2Policy::Shared, 1);
        l2.enqueue(req(1, 42, RequestClass::Data), 0);
        // Nothing served before the pipeline latency elapses.
        for now in 0..10 {
            l2.tick(now);
            assert!(l2.take_responses().is_empty(), "no response before latency");
        }
        l2.tick(10);
        let dram = l2.take_dram_requests();
        assert_eq!(dram.len(), 1);
        assert_eq!(dram[0].line, LineAddr(42));
        l2.dram_fill(LineAddr(42), 50);
        let resp = l2.take_responses();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].outcome, L2Outcome::Miss);
        // Second access to the same line now hits.
        l2.enqueue(req(2, 42, RequestClass::Data), 51);
        let (resp, _) = run_until_responses(&mut l2, 51, 30);
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].outcome, L2Outcome::Hit);
    }

    #[test]
    fn concurrent_misses_merge_in_mshr() {
        let mut l2 = SharedL2Cache::new(&cfg(), L2Policy::Shared, 1);
        l2.enqueue(req(1, 7, RequestClass::Data), 0);
        l2.enqueue(req(2, 7, RequestClass::Data), 0);
        l2.enqueue(req(3, 7, RequestClass::Data), 0);
        for now in 0..=12 {
            l2.tick(now);
        }
        assert_eq!(l2.take_dram_requests().len(), 1, "one primary miss only");
        l2.dram_fill(LineAddr(7), 100);
        assert_eq!(l2.take_responses().len(), 3, "all three waiters wake");
    }

    #[test]
    fn ports_limit_throughput_creates_queueing() {
        let mut l2 = SharedL2Cache::new(&cfg(), L2Policy::Shared, 1);
        // 40 requests to distinct lines all at cycle 0.
        for i in 0..40u64 {
            l2.enqueue(req(i, i * 64, RequestClass::Data), 0);
        }
        l2.tick(10);
        let first_wave = l2.take_dram_requests().len();
        // 4 banks x 2 ports = at most 8 per cycle.
        assert!(first_wave <= 8, "served {first_wave} in one cycle");
        assert!(l2.queued() >= 32);
    }

    #[test]
    fn bypassed_translation_skips_queue_and_array() {
        let mut l2 = SharedL2Cache::new(&cfg(), L2Policy::SharedBypass, 1);
        // Train the monitor: leaf translations always miss, data often hits.
        let leaf = RequestClass::Translation(WalkLevel::new(4));
        for i in 0..32u64 {
            l2.enqueue(req(100 + i, 1000 + i * 64, leaf), 0);
            l2.enqueue(req(200 + i, 3, RequestClass::Data), 0);
        }
        for now in 0..200 {
            l2.tick(now);
            for r in l2.take_dram_requests() {
                l2.dram_fill(r.line, now);
            }
            l2.take_responses();
        }
        l2.end_epoch();
        assert!(l2.monitor().is_bypassing(Asid::new(0), WalkLevel::new(4)));
        // A bypassing leaf translation is forwarded to DRAM immediately,
        // without waiting the 10-cycle pipeline.
        l2.enqueue(req(999, 555_000, leaf), 1000);
        let dram = l2.take_dram_requests();
        assert_eq!(dram.len(), 1, "bypass forwards without tick");
        l2.dram_fill(dram[0].line, 1001);
        let resp = l2.take_responses();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].outcome, L2Outcome::Bypassed);
    }

    #[test]
    fn data_requests_never_bypass() {
        let mut l2 = SharedL2Cache::new(&cfg(), L2Policy::SharedBypass, 1);
        l2.enqueue(req(1, 42, RequestClass::Data), 0);
        assert!(
            l2.take_dram_requests().is_empty(),
            "data goes through banks"
        );
        assert_eq!(l2.queued(), 1);
    }

    /// What happens to the cache in the middle of a head-of-line stall.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum MidStall {
        Nothing,
        Flush,
        SnapshotRestore,
    }

    fn sealed(l2: &SharedL2Cache) -> Vec<u8> {
        use mask_common::snapshot::{PrefixKey, Snapshot, SnapshotWriter};
        let mut w = SnapshotWriter::new();
        l2.snapshot(&mut w);
        w.seal(PrefixKey(0))
    }

    /// One bank, two MSHRs, a single 4-way set: lines 1 and 2 take the
    /// MSHRs, the walk access to line 3 stalls at the head for `stall`
    /// cycles, then the fills come back one by one and five lines fight
    /// over four ways. With `reprobe` the stall flag is cleared before
    /// every tick, so the head takes the full probe-and-allocate path each
    /// cycle: the behaviour the replay stands in for. Returns the encoded
    /// state after every cycle, the responses in order, and the cache one
    /// `end_epoch` later.
    fn stall_run(
        stall: u64,
        mid: MidStall,
        reprobe: bool,
    ) -> (Vec<Vec<u8>>, Vec<(u64, L2Outcome)>, SharedL2Cache) {
        use mask_common::snapshot::{Snapshot, SnapshotReader};
        let small = CacheConfig {
            bytes: 512,
            assoc: 4,
            latency: 1,
            banks: 1,
            ports_per_bank: 2,
            mshrs: 2,
        };
        // A restored cache re-issues what it holds: as in `GpuSim`, every
        // cache gets a sanitizer session of its own.
        let fresh = || {
            mask_obs::hooks::enter_session(mask_obs::hooks::new_session());
            SharedL2Cache::new(&small, L2Policy::Shared, 1)
        };
        let mut l2 = fresh();
        for line in 1..=5u64 {
            let class = if line == 3 {
                RequestClass::Translation(WalkLevel::new(2))
            } else {
                RequestClass::Data
            };
            l2.enqueue(req(line, line, class), 0);
        }
        let mut states = Vec::new();
        let mut responses = Vec::new();
        let mut to_fill: VecDeque<LineAddr> = VecDeque::new();
        for now in 1..stall + 40 {
            if reprobe {
                l2.banks[0].head_stalled = false;
            }
            l2.tick(now);
            to_fill.extend(l2.take_dram_requests().iter().map(|r| r.line));
            if now == 2 + stall / 2 {
                assert!(reprobe || l2.banks[0].head_stalled, "line 3 is stalled");
                match mid {
                    MidStall::Nothing => {}
                    MidStall::Flush => l2.flush(),
                    MidStall::SnapshotRestore if reprobe => {}
                    MidStall::SnapshotRestore => {
                        let bytes = sealed(&l2);
                        l2 = fresh();
                        let (mut r, _) = SnapshotReader::open(&bytes).expect("sealed");
                        l2.restore(&mut r).expect("restores");
                        r.finish().expect("whole payload");
                        assert!(!l2.banks[0].head_stalled, "restore clears the flag");
                    }
                }
            }
            // Memory answers one line every fourth cycle once the stall
            // has lasted `stall` cycles.
            if now >= 2 + stall && now % 4 == 0 {
                if let Some(line) = to_fill.pop_front() {
                    l2.dram_fill(line, now);
                }
            }
            responses.extend(l2.take_responses().iter().map(|r| (r.req.id.0, r.outcome)));
            states.push(sealed(&l2));
        }
        assert_eq!(responses.len(), 5, "every request answered");
        l2.end_epoch();
        (states, responses, l2)
    }

    #[test]
    fn stalled_head_replay_equals_reprobing_every_cycle() {
        for mid in [
            MidStall::Nothing,
            MidStall::Flush,
            MidStall::SnapshotRestore,
        ] {
            for stall in [1, 2, 7, 40] {
                let (want_states, want_responses, _) = stall_run(stall, mid, true);
                let (states, responses, _) = stall_run(stall, mid, false);
                assert_eq!(responses, want_responses, "{mid:?}, stall {stall}");
                // The encoding holds the array's LRU clock and stamps (so
                // the eviction order of the later fills) and the bypass
                // monitor's epoch counters.
                for (cycle, (got, want)) in states.iter().zip(&want_states).enumerate() {
                    assert!(
                        got == want,
                        "{mid:?}, stall {stall}: state differs after cycle {cycle}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_stalled_cycle_is_recorded_as_a_miss() {
        // The monitor latches a level's rate from 16 samples on. One walk
        // access to level 2, stalled for 40 cycles, is 41 recorded misses:
        // the level reads 0 % on the strength of a single request. (Kept,
        // not fixed: see the fidelity notes in DESIGN.md.)
        let level = WalkLevel::new(2);
        let (.., long) = stall_run(40, MidStall::Nothing, false);
        assert_eq!(long.monitor().level_hit_rate(Asid::new(0), level), 0.0);
        let (.., short) = stall_run(2, MidStall::Nothing, false);
        assert_eq!(short.monitor().level_hit_rate(Asid::new(0), level), 1.0);
    }

    #[test]
    fn tick_visits_only_banks_whose_head_is_ready() {
        let mut l2 = SharedL2Cache::new(&cfg(), L2Policy::Shared, 1);
        assert!(l2.head_ready.iter().all(|&ready| ready == Cycle::MAX));
        // Lines 0 and 4 share bank 0 of 4; line 1 goes to bank 1.
        l2.enqueue(req(1, 0, RequestClass::Data), 3);
        l2.enqueue(req(2, 4, RequestClass::Data), 5);
        l2.enqueue(req(3, 1, RequestClass::Data), 7);
        assert_eq!(l2.head_ready, [13, 17, Cycle::MAX, Cycle::MAX]);
        l2.tick(12);
        assert_eq!(l2.queued(), 3, "nothing is ready at cycle 12");
        l2.tick(13);
        // The popped head hands over to the request queued behind it.
        assert_eq!(l2.head_ready, [15, 17, Cycle::MAX, Cycle::MAX]);
        l2.tick(15);
        assert_eq!(l2.head_ready, [Cycle::MAX, 17, Cycle::MAX, Cycle::MAX]);
        l2.tick(17);
        assert_eq!(l2.take_dram_requests().len(), 3, "three misses go to DRAM");
        assert_eq!(l2.queued(), 0);
    }

    /// Red test for the `l2-head-ready` premise check: a bank whose
    /// head-ready cycle went stale would be skipped with work queued.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a bank's head-ready cycle must be its queue head's")]
    fn stale_head_ready_cycle_trips_the_sanitizer() {
        mask_obs::hooks::enter_session(mask_obs::hooks::new_session());
        let mut l2 = SharedL2Cache::new(&cfg(), L2Policy::Shared, 1);
        l2.enqueue(req(1, 0, RequestClass::Data), 0);
        l2.head_ready[0] = Cycle::MAX;
        l2.tick(10);
    }

    #[test]
    fn mshr_full_stalls_bank() {
        let mut small = CacheConfig { mshrs: 2, ..cfg() };
        small.banks = 1;
        let mut l2 = SharedL2Cache::new(&small, L2Policy::Shared, 1);
        for i in 0..6u64 {
            l2.enqueue(req(i, i * 64, RequestClass::Data), 0);
        }
        for now in 0..30 {
            l2.tick(now);
        }
        // Only 2 primaries can be outstanding.
        assert_eq!(l2.take_dram_requests().len(), 2);
        assert!(l2.queued() >= 4);
        // Draining the MSHRs lets the rest proceed.
        l2.dram_fill(LineAddr(0), 31);
        l2.dram_fill(LineAddr(64), 31);
        for now in 31..60 {
            l2.tick(now);
        }
        assert_eq!(l2.take_dram_requests().len(), 2);
    }
}
