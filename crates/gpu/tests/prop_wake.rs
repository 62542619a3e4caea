//! The wake schedule against stepping.
//!
//! `GpuCore::issue` returns the next cycle at which it has anything to
//! decide, and `GpuSim` visits a core only then, crediting the cycles in
//! between in bulk. These properties pin the contract that makes that
//! exact:
//!
//! * **Core level.** Two identical cores, each behind its own copy of one
//!   fake memory that answers data misses and walker accesses after
//!   latencies drawn from the request id. One core's `issue` is called on
//!   every cycle, the other's only when due — with the bulk credits and the
//!   two rousing rules of `GpuSim::rouse`. Their statistics, the requests
//!   they emit (id, line, cycle) and their snapshot bytes at a random cut
//!   are equal, with MSHR tables small enough to fill the retry queue.
//! * **Simulator level.** `run(a); run(b)` equals `run(a + b)` in
//!   statistics and snapshot bytes for cuts that land mid-burst, for all
//!   ten design presets.

use mask_common::config::{DesignKind, GpuConfig, SimConfig, TranslationPath};
use mask_common::ids::{Asid, CoreId, WarpId};
use mask_common::req::{MemRequest, RequestClass};
use mask_common::snapshot::{PrefixKey, SnapshotWriter};
use mask_common::stats::AppStats;
use mask_common::Cycle;
use mask_gpu::{AppSpec, DirectIssue, GpuCore, GpuSim, TranslationUnit};
use mask_workloads::{all_apps, app_by_name};
use proptest::prelude::*;

/// One core, its translation unit and a memory that answers after
/// `1 + mix(id) % max_latency` cycles.
struct World {
    core: GpuCore,
    xlat: TranslationUnit,
    stats: AppStats,
    next_req_id: u64,
    /// Requests on their way through the fake memory, in emission order.
    in_memory: Vec<(Cycle, MemRequest)>,
    /// Every request emitted: (id, line, cycle).
    emitted: Vec<(u64, u64, Cycle)>,
    /// `None`: `issue` is called on every cycle. `Some(due)`: only when
    /// due, as `GpuSim` does.
    schedule: Option<Cycle>,
    max_latency: u64,
    session: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl World {
    fn new(cfg: &GpuConfig, design: DesignKind, app: usize, seed: u64, scheduled: bool) -> Self {
        // Both worlds emit the same request ids: each accounts for them in
        // a sanitizer session of its own.
        let session = mask_obs::hooks::new_session();
        mask_obs::hooks::enter_session(session);
        let spec = design.spec();
        World {
            core: GpuCore::new(
                cfg,
                CoreId::new(0),
                Asid::new(0),
                0,
                all_apps()[app],
                seed,
                spec.translation == TranslationPath::Ideal,
            ),
            xlat: TranslationUnit::new(cfg, spec, &[1]),
            stats: AppStats::default(),
            next_req_id: 0,
            in_memory: Vec::new(),
            emitted: Vec::new(),
            schedule: scheduled.then_some(0),
            max_latency: 1 + seed % 60,
            session,
        }
    }

    /// `GpuSim::rouse`: what a delivery after the issue stage does to the
    /// schedule.
    fn rouse(&mut self, now: Cycle) {
        if let Some(due) = &mut self.schedule {
            if self.core.has_retries() || (*due == Cycle::MAX && !self.core.is_idle()) {
                *due = now + 1;
            }
        }
    }

    fn send(&mut self, out: &mut Vec<MemRequest>, now: Cycle) {
        for req in out.drain(..) {
            self.emitted.push((req.id.0, req.line.0, now));
            let latency = 1 + mix(req.id.0 ^ self.max_latency) % self.max_latency;
            self.in_memory.push((now + latency, req));
        }
    }

    fn deliver(&mut self, r: mask_gpu::translation::ResolvedTranslation, now: Cycle) {
        let warps: Vec<WarpId> = r.waiters.iter().map(|gw| gw.warp).collect();
        let mut out = Vec::new();
        let mut sink = DirectIssue {
            xlat: &mut self.xlat,
            out_l2: &mut out,
            next_req_id: &mut self.next_req_id,
        };
        self.core
            .translation_done(r.vpn, r.ppn, &warps, now, &mut sink, &mut self.stats);
        self.xlat.recycle_waiters(r.waiters);
        self.rouse(now);
        self.send(&mut out, now);
    }

    /// One cycle, in `GpuSim::step`'s stage order.
    fn step(&mut self, now: Cycle) {
        mask_obs::hooks::enter_session(self.session);
        let mut out = Vec::new();
        // 1. Issue: every cycle, or when due with the bulk credit otherwise.
        let due = self.schedule.unwrap_or(now);
        if due <= now {
            let mut sink = DirectIssue {
                xlat: &mut self.xlat,
                out_l2: &mut out,
                next_req_id: &mut self.next_req_id,
            };
            let next = self.core.issue(now, &mut sink, &mut self.stats);
            assert!(next > now, "issue asks for a later cycle");
            if let Some(due) = &mut self.schedule {
                *due = next;
            }
        } else if due == Cycle::MAX {
            assert!(self.core.is_idle(), "a parked core is idle");
            self.stats.stall_cycles += 1;
        } else {
            assert!(self.core.burst_sleeps(now), "a skipped burst still sleeps");
            self.stats.instructions += 1;
        }
        self.send(&mut out, now);
        // 2. Translation unit.
        let mut resolved = Vec::new();
        self.xlat.tick(
            now,
            &mut self.next_req_id,
            &mut out,
            std::slice::from_mut(&mut self.stats),
            &mut resolved,
        );
        self.send(&mut out, now);
        for r in resolved {
            self.deliver(r, now);
        }
        // 6. Responses, in emission order.
        let mut i = 0;
        while i < self.in_memory.len() {
            if self.in_memory[i].0 > now {
                i += 1;
                continue;
            }
            let (_, req) = self.in_memory.remove(i);
            match req.class {
                RequestClass::Data => {
                    mask_obs::hooks::retire(mask_obs::Domain::CoreData, req.id.0);
                    self.core.line_done(req.line);
                    self.rouse(now);
                }
                RequestClass::Translation(_) => {
                    let done = self.xlat.memory_response(
                        &req,
                        now,
                        &mut self.next_req_id,
                        &mut out,
                        std::slice::from_mut(&mut self.stats),
                    );
                    self.send(&mut out, now);
                    if let Some(r) = done {
                        self.deliver(r, now);
                    }
                }
            }
        }
    }

    fn snapshot(&self, now: Cycle) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.core.snapshot_at(now, &mut w);
        w.seal(PrefixKey(0))
    }
}

fn small_sim(design: DesignKind, apps: [&str; 2], seed: u64) -> GpuSim {
    let mut cfg = SimConfig::new(design).with_seed(seed);
    cfg.gpu.n_cores = 4;
    cfg.gpu.warps_per_core = 16;
    let specs: Vec<AppSpec> = apps
        .iter()
        .map(|name| AppSpec {
            profile: app_by_name(name).expect("known app"),
            n_cores: 2,
        })
        .collect();
    GpuSim::new(&cfg, &specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_core_visited_when_due_equals_one_stepped_every_cycle(
        app in 0usize..30,
        seed in 0u64..10_000,
        warps in 1usize..65,
        mshrs in 1usize..5,
        cycles in 200u64..2_500,
        design in 0usize..3,
    ) {
        let design = [DesignKind::SharedTlb, DesignKind::PwCache, DesignKind::Mask][design];
        let mut cfg = GpuConfig::maxwell();
        cfg.warps_per_core = warps;
        cfg.l1_cache.mshrs = mshrs;
        let mut stepped = World::new(&cfg, design, app, seed, false);
        let mut scheduled = World::new(&cfg, design, app, seed, true);
        let cut = 1 + mix(seed) % cycles;
        let (mut slept, mut parked) = (0u64, 0u64);
        for now in 0..cycles {
            if now == cut {
                prop_assert!(
                    stepped.snapshot(now) == scheduled.snapshot(now),
                    "snapshots differ at cycle {}", now
                );
            }
            stepped.step(now);
            scheduled.step(now);
            match scheduled.schedule {
                Some(Cycle::MAX) => parked += 1,
                Some(due) if due > now + 1 => slept += 1,
                _ => {}
            }
            prop_assert_eq!(&stepped.stats, &scheduled.stats, "after cycle {}", now);
        }
        prop_assert_eq!(&stepped.emitted, &scheduled.emitted);
        prop_assert!(stepped.snapshot(cycles) == scheduled.snapshot(cycles));
        prop_assert!(slept + parked > 0, "the schedule never skipped a cycle");
    }

    #[test]
    fn a_run_cut_mid_burst_equals_the_uncut_run(seed in 0u64..1_000, a in 1u64..1_500, b in 1u64..1_500) {
        let key = PrefixKey(seed);
        for (i, design) in DesignKind::ALL.into_iter().enumerate() {
            let apps = if i % 2 == 0 { ["NW", "HS"] } else { ["SCAN", "CONS"] };
            let mut whole = small_sim(design, apps, seed);
            whole.run(a + b);
            let mut cut = small_sim(design, apps, seed);
            cut.run(a);
            cut.run(b);
            prop_assert_eq!(whole.stats(), cut.stats(), "{} cut at {}", design, a);
            prop_assert!(
                whole.encode_snapshot(key) == cut.encode_snapshot(key),
                "{} cut at {}: snapshots differ", design, a
            );
        }
    }
}
