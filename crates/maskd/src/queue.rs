//! Admission control and deficit-round-robin fair queueing.
//!
//! MASK's TLB-Fill Tokens ration a shared TLB across address spaces so no
//! application can starve the others (§5.1 of the paper); `maskd` applies
//! the same discipline one level up, rationing the shared
//! [`JobPool`](mask_core::JobPool) across tenants. The mechanism is
//! classic deficit round robin: tenants sit in a rotation, each visit
//! grants the tenant a `quantum` of simulated cycles, and the tenant
//! dequeues jobs while its accumulated deficit covers their cost (a job's
//! cost is its `max_cycles` — the engine's unit of work). Heavy jobs
//! simply take more visits to afford, so a tenant submitting
//! million-cycle sweeps cannot crowd out one submitting smoke tests.
//!
//! Admission is bounded twice: a global queue depth (overflow answers
//! `503`, try again later) and a per-tenant depth (overflow answers
//! `429`, *you* are the noisy one). Dispatch additionally respects a
//! per-tenant in-flight cap so one tenant cannot occupy every pool worker
//! at once even when alone.
//!
//! The queue is plain data — no clocks, no randomness, no threads. Given
//! the same admission sequence it produces the same dispatch order, which
//! is what lets `tests/daemon_e2e.rs` assert fair-share ordering exactly.

use std::collections::{BTreeMap, VecDeque};

/// Why an admission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The global queue is full → `503 Service Unavailable`.
    QueueFull,
    /// This tenant's queue is full → `429 Too Many Requests`.
    TenantFull,
}

/// One queued unit of work: an opaque job id plus its cost in simulated
/// cycles (the job's `max_cycles`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedJob {
    /// Daemon-assigned job id.
    pub id: u64,
    /// DRR cost: `max_cycles`.
    pub cost: u64,
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<QueuedJob>,
    deficit: u64,
    inflight: usize,
}

/// Deficit-round-robin queue across tenant ids. See the module docs.
pub struct FairQueue {
    tenants: BTreeMap<String, TenantState>,
    /// Round-robin rotation of tenants with queued work.
    rotation: VecDeque<String>,
    queued: usize,
    queue_depth: usize,
    tenant_depth: usize,
    quantum: u64,
}

impl FairQueue {
    /// A queue admitting at most `queue_depth` jobs globally and
    /// `tenant_depth` per tenant, granting `quantum` cycles per visit.
    #[must_use]
    pub fn new(queue_depth: usize, tenant_depth: usize, quantum: u64) -> Self {
        FairQueue {
            tenants: BTreeMap::new(),
            rotation: VecDeque::new(),
            queued: 0,
            queue_depth: queue_depth.max(1),
            tenant_depth: tenant_depth.max(1),
            quantum: quantum.max(1),
        }
    }

    /// Jobs currently queued across all tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Admits one job for `tenant`, or reports the backpressure class the
    /// submitter should see.
    pub fn admit(&mut self, tenant: &str, job: QueuedJob) -> Result<(), Rejection> {
        if self.queued >= self.queue_depth {
            return Err(Rejection::QueueFull);
        }
        let state = self.tenants.entry(tenant.to_owned()).or_default();
        if state.queue.len() >= self.tenant_depth {
            return Err(Rejection::TenantFull);
        }
        let was_idle = state.queue.is_empty();
        state.queue.push_back(job);
        self.queued += 1;
        if was_idle {
            self.rotation.push_back(tenant.to_owned());
        }
        Ok(())
    }

    /// Selects up to `max_jobs` jobs for the next dispatch batch, in DRR
    /// order, honoring the per-tenant in-flight cap. Selected jobs are
    /// counted as in flight until [`FairQueue::job_done`]. The batch is
    /// empty only when every tenant with work is at its in-flight cap:
    /// sweeps that would select nothing are granted at once.
    pub fn select_batch(&mut self, max_jobs: usize, inflight_cap: usize) -> Vec<(String, u64)> {
        let mut batch = Vec::new();
        let inflight_cap = inflight_cap.max(1);
        if max_jobs == 0 {
            return batch;
        }
        // The fewest sweeps after which some tenant below its cap affords
        // its head job. The sweeps before that one select nothing and
        // leave the rotation as it was, so all they do is add a quantum to
        // every tenant's deficit.
        let Some(sweeps) = self
            .rotation
            .iter()
            .filter_map(|tenant| self.tenants.get(tenant))
            .filter(|state| state.inflight < inflight_cap)
            .filter_map(|state| {
                let short = state.queue.front()?.cost.saturating_sub(state.deficit);
                Some(short.div_ceil(self.quantum).max(1))
            })
            .min()
        else {
            return batch;
        };
        for tenant in &self.rotation {
            if let Some(state) = self.tenants.get_mut(tenant) {
                state.deficit = state.deficit.saturating_add((sweeps - 1) * self.quantum);
            }
        }
        // Then one full sweep of the rotation: every tenant with work gets
        // at most one quantum grant, and a tenant that cannot afford its
        // head job (or is at its in-flight cap) keeps its deficit for the
        // next call.
        for _ in 0..self.rotation.len() {
            if batch.len() >= max_jobs {
                break;
            }
            let Some(tenant) = self.rotation.pop_front() else {
                break;
            };
            let Some(state) = self.tenants.get_mut(&tenant) else {
                continue;
            };
            state.deficit = state.deficit.saturating_add(self.quantum);
            while batch.len() < max_jobs
                && state.inflight < inflight_cap
                && state
                    .queue
                    .front()
                    .is_some_and(|job| job.cost <= state.deficit)
            {
                let job = state.queue.pop_front().expect("front() was Some");
                state.deficit -= job.cost;
                state.inflight += 1;
                self.queued -= 1;
                batch.push((tenant.clone(), job.id));
            }
            if state.queue.is_empty() {
                // Standard DRR: an emptied tenant forfeits its deficit,
                // so idling never banks future bandwidth.
                state.deficit = 0;
            } else {
                self.rotation.push_back(tenant);
            }
        }
        batch
    }

    /// Marks one of `tenant`'s in-flight jobs complete. A tenant left with
    /// nothing queued and nothing in flight is forgotten: clients choose
    /// tenant names, so keeping idle ones would grow the map without
    /// bound. Its deficit is already 0 (an emptied queue forfeits it), so
    /// a later admission starts where this one would have.
    pub fn job_done(&mut self, tenant: &str) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.inflight = state.inflight.saturating_sub(1);
            if state.inflight == 0 && state.queue.is_empty() {
                self.tenants.remove(tenant);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, cost: u64) -> QueuedJob {
        QueuedJob { id, cost }
    }

    #[test]
    fn admission_enforces_both_depths() {
        let mut q = FairQueue::new(3, 2, 100);
        assert_eq!(q.admit("a", job(1, 10)), Ok(()));
        assert_eq!(q.admit("a", job(2, 10)), Ok(()));
        assert_eq!(q.admit("a", job(3, 10)), Err(Rejection::TenantFull));
        assert_eq!(q.admit("b", job(4, 10)), Ok(()));
        assert_eq!(q.admit("c", job(5, 10)), Err(Rejection::QueueFull));
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn round_robin_across_tenants() {
        let mut q = FairQueue::new(64, 8, 100);
        for i in 0..3u64 {
            q.admit("a", job(i, 100)).expect("admit");
            q.admit("b", job(10 + i, 100)).expect("admit");
            q.admit("c", job(20 + i, 100)).expect("admit");
        }
        // One sweep with room for three: one job per tenant, admission
        // order of tenants preserved.
        let batch = q.select_batch(3, 8);
        let tenants: Vec<&str> = batch.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(tenants, ["a", "b", "c"]);
        assert_eq!(
            batch.iter().map(|(_, id)| *id).collect::<Vec<_>>(),
            [0, 10, 20]
        );
    }

    #[test]
    fn heavy_jobs_need_more_visits() {
        let mut q = FairQueue::new(64, 8, 100);
        q.admit("heavy", job(1, 250)).expect("admit");
        q.admit("light", job(2, 50)).expect("admit");
        q.admit("light", job(3, 50)).expect("admit");
        // Sweep 1: heavy can't afford 250 yet (deficit 100); light runs
        // both its cheap jobs (deficit 100 covers 50 + 50).
        assert_eq!(
            q.select_batch(8, 8),
            [("light".to_owned(), 2), ("light".to_owned(), 3)]
        );
        // Sweeps 2-3: heavy accumulates 200, then 300 — affordable. The
        // empty sweep 2 is granted within the same call.
        assert_eq!(q.select_batch(8, 8), [("heavy".to_owned(), 1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_job_of_any_cost_is_selected_on_the_first_call() {
        let mut q = FairQueue::new(64, 8, 300_000);
        q.admit("a", job(1, 1_000_000_000_000_000_000))
            .expect("admit");
        assert_eq!(q.select_batch(8, 8), [("a".to_owned(), 1)]);
    }

    #[test]
    fn inflight_cap_limits_one_tenant() {
        let mut q = FairQueue::new(64, 8, 1000);
        for i in 0..4u64 {
            q.admit("a", job(i, 10)).expect("admit");
        }
        let batch = q.select_batch(8, 2);
        assert_eq!(batch.len(), 2, "cap of 2 in flight");
        // Nothing more until a completion frees a slot.
        assert_eq!(q.select_batch(8, 2), []);
        q.job_done("a");
        assert_eq!(q.select_batch(8, 2).len(), 1);
    }

    #[test]
    fn emptied_tenant_forfeits_deficit() {
        let mut q = FairQueue::new(64, 8, 100);
        q.admit("a", job(1, 10)).expect("admit");
        assert_eq!(q.select_batch(8, 8), [("a".to_owned(), 1)]);
        // Re-admitting later starts from zero deficit: a 150-cost job
        // needs two fresh quanta, not one plus banked credit (90 + 100
        // would afford it a sweep before b's 200-cost job).
        q.admit("a", job(2, 150)).expect("admit");
        q.admit("b", job(3, 200)).expect("admit");
        assert_eq!(
            q.select_batch(8, 8),
            [("a".to_owned(), 2), ("b".to_owned(), 3)]
        );
    }

    #[test]
    fn idle_tenants_are_forgotten() {
        let mut q = FairQueue::new(64, 8, 100);
        for i in 0..1_000u64 {
            let tenant = format!("tenant-{i}");
            q.admit(&tenant, job(i, 10)).expect("admit");
            assert_eq!(q.select_batch(8, 8), [(tenant.clone(), i)]);
            q.job_done(&tenant);
        }
        assert!(
            q.tenants.is_empty(),
            "{} idle tenants kept",
            q.tenants.len()
        );
        assert!(q.rotation.is_empty());
    }

    /// Differential test of [`FairQueue::select_batch`] against the
    /// textbook loop it shortcuts: a dispatcher that sweeps the rotation,
    /// one quantum per tenant per sweep, until a sweep selects something.
    mod against_one_sweep_at_a_time {
        use super::*;
        use proptest::prelude::*;

        const QUANTUM: u64 = 100;

        /// The reference: [`FairQueue`] without admission limits, one
        /// quantum grant per sweep.
        #[derive(Default)]
        struct Reference {
            tenants: BTreeMap<String, TenantState>,
            rotation: VecDeque<String>,
        }

        impl Reference {
            fn admit(&mut self, tenant: &str, job: QueuedJob) {
                let state = self.tenants.entry(tenant.to_owned()).or_default();
                if state.queue.is_empty() {
                    self.rotation.push_back(tenant.to_owned());
                }
                state.queue.push_back(job);
            }

            fn select(&mut self, max_jobs: usize, cap: usize) -> Vec<(String, u64)> {
                loop {
                    let ready = self.rotation.iter().any(|t| self.tenants[t].inflight < cap);
                    if !ready {
                        return Vec::new();
                    }
                    let batch = self.sweep(max_jobs, cap);
                    if !batch.is_empty() {
                        return batch;
                    }
                }
            }

            fn sweep(&mut self, max_jobs: usize, cap: usize) -> Vec<(String, u64)> {
                let mut batch = Vec::new();
                for _ in 0..self.rotation.len() {
                    if batch.len() >= max_jobs {
                        break;
                    }
                    let tenant = self.rotation.pop_front().expect("rotation");
                    let state = self.tenants.get_mut(&tenant).expect("tenant");
                    state.deficit += QUANTUM;
                    while batch.len() < max_jobs && state.inflight < cap {
                        match state.queue.front() {
                            Some(job) if job.cost <= state.deficit => {
                                state.deficit -= job.cost;
                                state.inflight += 1;
                                batch.push((tenant.clone(), job.id));
                                state.queue.pop_front();
                            }
                            _ => break,
                        }
                    }
                    if state.queue.is_empty() {
                        state.deficit = 0;
                    } else {
                        self.rotation.push_back(tenant);
                    }
                }
                batch
            }
        }

        #[derive(Clone, Copy, Debug)]
        enum Op {
            Admit(usize, u64),
            Select(usize),
            Done(usize),
        }

        fn op(tenants: usize) -> impl Strategy<Value = Op> {
            (0u8..8, 0..tenants, 1..=4 * QUANTUM, 1usize..4).prop_map(|(kind, t, cost, max)| {
                match kind {
                    0..=3 => Op::Admit(t, cost),
                    4..=5 => Op::Select(max),
                    _ => Op::Done(t),
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any admissions, selections and completions, at in-flight
            /// caps 1 and 2, select the same jobs in the same order.
            #[test]
            fn selects_what_one_sweep_at_a_time_selects(
                tenants in 1usize..5,
                cap in 1usize..3,
                ops in collection::vec(op(tenants), 1..120),
            ) {
                let names = ["t0", "t1", "t2", "t3"];
                let mut q = FairQueue::new(1024, 1024, QUANTUM);
                let mut reference = Reference::default();
                for (id, step) in ops.into_iter().enumerate() {
                    match step {
                        Op::Admit(t, cost) => {
                            let job = QueuedJob { id: id as u64, cost };
                            prop_assert_eq!(q.admit(names[t], job), Ok(()));
                            reference.admit(names[t], job);
                        }
                        Op::Select(max) => prop_assert_eq!(
                            q.select_batch(max, cap),
                            reference.select(max, cap),
                            "step {id} {step:?}"
                        ),
                        Op::Done(t) => {
                            q.job_done(names[t]);
                            if let Some(state) = reference.tenants.get_mut(names[t]) {
                                state.inflight = state.inflight.saturating_sub(1);
                            }
                        }
                    }
                }
            }
        }
    }
}
