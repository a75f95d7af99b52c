//! The million-student semester replay — Figure 1, scaled up and made
//! a load test.
//!
//! The paper's §V trace covers 67 days of one MOOC offering peaking at
//! 112 concurrently active students. This module replays that trace
//! through the **full production stack** — `WebGpuServer` auth /
//! rate-limit / revisions → `ShardedScheduler` admission →
//! `ShardedBroker` lanes → the worker fleet → `wb-cache` — at a
//! configurable multiple of the 2012 load (`scale: 100.0` ≈ a
//! million-student semester by offered-job volume), under a virtual
//! clock where one pump round is a scheduling tick and one hour is
//! `3_600_000` virtual ms.
//!
//! Three properties make it a *test* rather than a demo:
//!
//! 1. **Seeded determinism.** Every stochastic choice — Poisson
//!    arrivals, course/student/lab selection, Zipf source variants —
//!    comes from one `SplitMix64`. Two runs with the same
//!    [`SemesterParams`] produce the same
//!    [`SemesterOutcome::deterministic_digest`]. (The replay pumps from
//!    one thread and a round runs on the pumping thread, so no lookup
//!    waits on another and `coalesced` stays 0. The digest still folds
//!    hits and coalesced waits together, so it holds for a caller that
//!    pumps from several threads too; misses are deterministic either
//!    way, because a cache tier decides hit, coalesce or lead under one
//!    lock, so each distinct key computes exactly once while its entry
//!    stays resident.)
//! 2. **Exactly-once books.** Every offered submission is accounted
//!    for exactly once: admitted + shed + rate-limited = offered, and
//!    every admitted job is reaped exactly once
//!    ([`SemesterOutcome::books_balance`] reconciles the harness's
//!    counts against the recorder's).
//! 3. **Deliberate scarcity.** Hourly capacity is `fleet ×
//!    pumps_per_hour`, sized *below* the Wednesday-deadline peak, so
//!    the run exercises admission sheds, brown-out downgrades, and the
//!    reactive autoscaler — the same machinery §V argues for.

use std::sync::Arc;

use libwb::rng::SplitMix64;
use wb_cache::CacheMetrics;
use wb_labs::LabScale;
use wb_obs::{HistogramSnapshot, Recorder};
use wb_server::{DeviceKind, SubmitRequest, WbError, WebGpuServer};
use wb_worker::WorkerConfig;
use webgpu::cost::{CostMeter, CostModel, CostReport};
use webgpu::{AutoscalePolicy, ClusterBuilder, LoadModel, SchedConfig};

/// Virtual milliseconds per simulated hour.
const HOUR_MS: u64 = 3_600_000;
/// Hours per week (the trace's seasonality period).
const WEEK_HOURS: u64 = 168;

/// Everything that shapes one replay. Same params + same seed ⇒ same
/// [`SemesterOutcome::deterministic_digest`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SemesterParams {
    /// Load multiplier over the 2012 trace (1.0 ≈ 112 peak-active
    /// students; 100.0 ≈ 11 200).
    pub scale: f64,
    /// Days to replay (the paper's trace is 67).
    pub days: u32,
    /// RNG seed for arrivals and all sampling.
    pub seed: u64,
    /// Submissions per active-student-hour (§V's trace shows roughly
    /// one submission per ~20 active hours).
    pub submit_prob: f64,
    /// Autoscaler ceiling — GPU workers the fleet may grow to.
    pub fleet_max: usize,
    /// Scheduler rounds per virtual hour. `fleet_max × pumps_per_hour`
    /// is the hourly job capacity; size it *below* the Wednesday peak
    /// so sheds and brown-outs actually happen.
    pub pumps_per_hour: u32,
    /// Catalog labs deployed per course (in Table II order).
    pub labs_per_course: usize,
    /// Distinct source variants per (course, lab); students sample
    /// them Zipf(1.1), so the head is shared and cacheable.
    pub variants_per_lab: usize,
    /// Admission-control backlog budget (jobs queued per course before
    /// the scheduler sheds).
    pub backlog_budget: usize,
}

impl SemesterParams {
    /// A small replay: one week at 3× the 2012 trace, a 2-worker
    /// ceiling, and a tight backlog budget so the shed path still runs.
    pub(crate) fn smoke() -> SemesterParams {
        SemesterParams {
            scale: 3.0,
            days: 7,
            seed: 0x5e3e57e4,
            submit_prob: 0.05,
            fleet_max: 2,
            pumps_per_hour: 6,
            labs_per_course: 2,
            variants_per_lab: 8,
            backlog_budget: 16,
        }
    }
}

/// Everything the replay measured.
#[derive(Debug, Clone)]
pub(crate) struct SemesterOutcome {
    /// Hours replayed.
    pub hours: u32,
    /// Submissions offered to the server.
    pub offered: u64,
    /// Admitted into the cluster.
    pub admitted: u64,
    /// Shed by admission control ([`WbError::Overloaded`]).
    pub shed: u64,
    /// Refused by the per-user token bucket.
    pub rate_limited: u64,
    /// Results reaped (success or typed failure) — exactly-once
    /// requires this to equal `admitted` after the final drain.
    pub completed: u64,
    /// Reaped as [`WbError::CompileError`].
    pub compile_failed: u64,
    /// Reaped as [`WbError::RuntimeError`].
    pub runtime_failed: u64,
    /// Full grades recorded (outcome carried a score).
    pub graded: u64,
    /// Full grades downgraded to compile-only in the brown-out band.
    pub brown_outs: u64,
    /// Reaped as [`WbError::Infra`] — any is a platform bug.
    pub infra_errors: u64,
    /// Reaped outcomes carrying static-verifier findings (the catalog
    /// deploys warn-mode labs, so flagged work still grades).
    pub flagged: u64,
    /// Recorder's `analysis_flagged` (reconciles with `flagged`).
    pub analysis_flagged: u64,
    /// Recorder's `analysis_denied` — the replay deploys warn-mode
    /// labs only, so any deny is a policy-plumbing bug.
    pub analysis_denied: u64,
    /// Extra rounds the final drain needed after the last hour.
    pub drain_rounds: u64,
    /// Queue wait in pump rounds (p50/p95/p99), from the recorder.
    pub queue_wait: HistogramSnapshot,
    /// Per-tier cache counters.
    pub cache: Option<CacheMetrics>,
    /// Modeled dollars for the fleet the autoscaler actually ran.
    pub cost: CostReport,
    /// Recorder's `sched_admitted` (reconciles with `admitted`).
    pub sched_admitted: u64,
    /// Recorder's `sched_shed` (reconciles with `shed`).
    pub sched_shed: u64,
    /// Recorder's `rate_limited` (reconciles with `rate_limited`).
    pub rate_limited_counter: u64,
}

impl SemesterOutcome {
    /// Exactly-once reconciliation: the harness's books against the
    /// recorder's, with no job lost, duplicated, or invented.
    pub(crate) fn books_balance(&self) -> bool {
        self.offered == self.admitted + self.shed + self.rate_limited
            && self.completed == self.admitted
            && self.infra_errors == 0
            && self.sched_shed == self.shed
            && self.sched_admitted == self.admitted
            && self.rate_limited_counter == self.rate_limited
            && self.analysis_flagged == self.flagged
            && self.analysis_denied == 0
    }

    /// Cache lookups served without re-executing, as a fraction of all
    /// lookups. Hits and coalesced waits count together — under
    /// concurrent pumps, whether a duplicate landed before or during
    /// the first compute is a thread race; that it did not recompute is
    /// not.
    pub(crate) fn cache_reuse_rate(&self) -> f64 {
        let Some(c) = &self.cache else { return 0.0 };
        let t = c.total();
        if t.lookups() == 0 {
            return 0.0;
        }
        (t.hits + t.coalesced) as f64 / t.lookups() as f64
    }

    /// A string of every replay quantity that must be identical
    /// between two runs with the same [`SemesterParams`]. Excludes
    /// the cache's hit/coalesced split (racy under concurrent pumps);
    /// includes
    /// everything else, so a determinism regression
    /// anywhere in the stack shows up as a digest mismatch.
    pub(crate) fn deterministic_digest(&self) -> String {
        let (misses, reused, evictions) = match &self.cache {
            Some(c) => {
                let t = c.total();
                (t.misses, t.hits + t.coalesced, t.evictions)
            }
            None => (0, 0, 0),
        };
        format!(
            "hours={} offered={} admitted={} shed={} rate_limited={} \
             completed={} compile_failed={} runtime_failed={} graded={} \
             brown_outs={} flagged={} analysis_denied={} drain_rounds={} \
             wait[n={} sum={} p50={} p95={} p99={}] \
             cache[miss={} reused={} evict={}] cost[gpu_h={:.0} busy_h={:.2} \
             dollars={:.2} peak={}]",
            self.hours,
            self.offered,
            self.admitted,
            self.shed,
            self.rate_limited,
            self.completed,
            self.compile_failed,
            self.runtime_failed,
            self.graded,
            self.brown_outs,
            self.flagged,
            self.analysis_denied,
            self.drain_rounds,
            self.queue_wait.count,
            self.queue_wait.sum,
            self.queue_wait.p50,
            self.queue_wait.p95,
            self.queue_wait.p99,
            misses,
            reused,
            evictions,
            self.cost.gpu_hours,
            self.cost.busy_gpu_hours,
            self.cost.dollars,
            self.cost.peak_fleet,
        )
    }
}

/// One deployed course: its share of the load, its lab forks, and its
/// logged-in student pool.
struct CourseRuntime {
    /// Arrival share (proportional to Table II enrollment).
    weight: f64,
    /// Per lab: server lab id, dataset count, Zipf-ranked source pool.
    labs: Vec<LabRuntime>,
    /// Session tokens, one per simulated student.
    tokens: Vec<u64>,
}

struct LabRuntime {
    lab_id: String,
    datasets: usize,
    variants: Vec<String>,
}

/// Rank `rank` of a lab's Zipf source pool. Rank 0 is the reference
/// solution verbatim; higher ranks are distinct-by-comment forks of
/// it (distinct cache keys, same behaviour); every 13th rank is a
/// broken edit, so the error paths stay hot all semester (~8% of the
/// pool, ~a few % of traffic after Zipf). Broken ranks alternate
/// between two failure classes: half fail to compile (the classic
/// syntax-error resubmission), half compile and grade cleanly but
/// carry a barrier-in-divergent-`if` kernel the static verifier
/// flags — the warn-mode analysis path under real semester load.
fn variant_source(course: &str, lab: &str, rank: usize, solution: &str) -> String {
    if rank > 0 && rank % 13 == 5 {
        if (rank / 13).is_multiple_of(2) {
            return format!(
                "// {course} {lab} flagged variant {rank}\n\
                 __global__ void wbAuditProbe(float* unused) {{\n\
                     if (threadIdx.x < 7) {{ __syncthreads(); }}\n\
                 }}\n{solution}"
            );
        }
        return format!("// {course} {lab} broken variant {rank}\nint oops( {{\n{solution}");
    }
    if rank == 0 {
        return solution.to_string();
    }
    format!("// {course} {lab} variant {rank}\n{solution}")
}

/// Knuth for small λ, normal approximation above — same shape the
/// trace generator uses internally.
fn poisson(rng: &mut SplitMix64, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    let (u1, u2) = (rng.f64().max(1e-12), rng.f64());
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (lambda + lambda.sqrt() * z).round().max(0.0) as u64
}

/// Cumulative Zipf(1.1) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(1.1);
            acc
        })
        .collect()
}

fn sample_cdf(cdf: &[f64], rng: &mut SplitMix64) -> usize {
    let total = *cdf.last().unwrap_or(&1.0);
    let u = rng.f64() * total;
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// Replay one semester. Builds the stack, deploys the catalog, drives
/// the trace hour by hour, drains, and reconciles the books.
pub(crate) fn run_semester(p: &SemesterParams) -> SemesterOutcome {
    let obs = Arc::new(Recorder::traced_with_capacity(4096));
    let cluster = Arc::new(
        ClusterBuilder::new(minicuda::DeviceConfig::test_small())
            .fleet(1)
            .policy(AutoscalePolicy::Reactive {
                jobs_per_worker: 4,
                min: 1,
                max: p.fleet_max,
            })
            .scheduler(SchedConfig {
                backlog_budget: p.backlog_budget,
                ..SchedConfig::default()
            })
            .worker_config(WorkerConfig {
                image: "webgpu/full".to_string(),
                capabilities: ["cuda", "opencl", "openacc", "mpi", "multi-gpu"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                ..WorkerConfig::default()
            })
            .traced(Arc::clone(&obs))
            .build_v2(),
    );
    let server = WebGpuServer::new_traced(Box::new(Arc::clone(&cluster)), Arc::clone(&obs));

    server
        .register_instructor("prof", "hunter2")
        .expect("fresh server accepts the instructor");
    let prof = server
        .login("prof", "hunter2", DeviceKind::Desktop, 0)
        .expect("instructor login");

    // Deploy Table II: each course gets its own fork of its catalog
    // labs (distinct lab id + course tag, so admission control and the
    // lanes see four real courses), and a pool of logged-in students
    // sized to the scale.
    let mut courses = Vec::new();
    let pool_size = ((p.scale * 8.0) as usize).clamp(40, 2000);
    for course in wb_labs::courses() {
        let mut labs = Vec::new();
        for entry in wb_labs::catalog::table()
            .into_iter()
            .filter(|l| l.courses[course.column])
            .take(p.labs_per_course)
        {
            let mut def =
                wb_labs::definition(entry.id, LabScale::Small).expect("catalog ids resolve");
            def.id = format!("{}/{}", course.id, entry.id);
            def.spec.course = course.id.to_string();
            let solution = wb_labs::solution(entry.id).expect("catalog solutions resolve");
            let variants = (0..p.variants_per_lab.max(1))
                .map(|r| variant_source(course.id, entry.id, r, solution))
                .collect();
            labs.push(LabRuntime {
                lab_id: def.id.clone(),
                datasets: def.datasets.len(),
                variants,
            });
            server.deploy_lab(prof, def).expect("deploy");
        }
        let mut tokens = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            let name = format!("{}-s{i}", course.id);
            server.register_student(&name, "pw").expect("register");
            tokens.push(
                server
                    .login(&name, "pw", DeviceKind::Desktop, 0)
                    .expect("student login"),
            );
        }
        courses.push(CourseRuntime {
            weight: course.enrollment as f64,
            labs,
            tokens,
        });
    }
    let course_cdf: Vec<f64> = {
        let mut acc = 0.0;
        courses
            .iter()
            .map(|c| {
                acc += c.weight;
                acc
            })
            .collect()
    };
    let variant_cdf = zipf_cdf(p.variants_per_lab.max(1));

    let mut rng = SplitMix64::new(p.seed);
    let model = LoadModel::default();
    let mut cost = CostMeter::new(CostModel::default());
    let hours = p.days * 24;

    let mut offered = 0u64;
    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut rate_limited = 0u64;
    let mut completed = 0u64;
    let mut compile_failed = 0u64;
    let mut runtime_failed = 0u64;
    let mut graded = 0u64;
    let mut flagged = 0u64;
    let mut infra_errors = 0u64;

    let mut reap = |server: &WebGpuServer| {
        for (_job, res) in server.reap_queued() {
            completed += 1;
            match res {
                Ok(o) => {
                    if o.score.is_some() {
                        graded += 1;
                    }
                    if !o.analysis.is_empty() {
                        flagged += 1;
                    }
                }
                Err(WbError::CompileError { .. }) => compile_failed += 1,
                Err(WbError::RuntimeError { .. }) => runtime_failed += 1,
                Err(_) => infra_errors += 1,
            }
        }
    };

    for h in 0..hours {
        let week_idx = (u64::from(h) / WEEK_HOURS) as u32;
        let hour_ms = u64::from(h) * HOUR_MS;
        let lambda = model.expected_active(h as usize) * p.scale * p.submit_prob;
        let arrivals = poisson(&mut rng, lambda);

        for j in 0..arrivals {
            let at_ms = hour_ms + j * HOUR_MS / arrivals.max(1);
            let ci = sample_cdf(&course_cdf, &mut rng);
            let course = &courses[ci];
            // Students work the lab of the current week, sometimes
            // revisiting an earlier one.
            let mut li = (week_idx as usize).min(course.labs.len() - 1);
            if li > 0 && rng.f64() < 0.3 {
                li = rng.range(0..=li);
            }
            let lab = &course.labs[li];
            let token = course.tokens[rng.range(0..course.tokens.len())];
            let source = lab.variants[sample_cdf(&variant_cdf, &mut rng)].clone();
            let action = rng.f64();
            let req = if action < 0.60 {
                SubmitRequest::run_dataset(token, &lab.lab_id, rng.range(0..lab.datasets))
            } else if action < 0.85 {
                SubmitRequest::compile_only(token, &lab.lab_id)
            } else {
                SubmitRequest::full_grade(token, &lab.lab_id)
            };
            offered += 1;
            match server.submit_queued(&req.at(at_ms).with_source(source)) {
                Ok(_) => admitted += 1,
                Err(WbError::Overloaded { .. }) => shed += 1,
                Err(WbError::RateLimited { .. }) => rate_limited += 1,
                Err(e) => panic!("front door refused a well-formed submission: {e}"),
            }
        }

        // The hour's scheduling rounds: capacity is fleet ×
        // pumps_per_hour. An idle hour still pumps once so the
        // autoscaler can shrink the fleet overnight.
        let step = HOUR_MS / u64::from(p.pumps_per_hour.max(1));
        let mut served_h = 0usize;
        for r in 0..p.pumps_per_hour.max(1) {
            if r > 0 && server.pending_queued() == 0 {
                break;
            }
            served_h += server.advance(hour_ms + u64::from(r) * step);
        }
        reap(&server);

        let fleet = cluster.fleet_size();
        let capacity = (fleet as u64 * u64::from(p.pumps_per_hour.max(1))).max(1);
        cost.record_hour(fleet, served_h as f64 / capacity as f64);
    }

    // Final drain: finish everything still queued past the last hour.
    let end_ms = u64::from(hours) * HOUR_MS;
    let mut drain_rounds = 0u64;
    while server.pending_queued() > 0 && drain_rounds < 1_000_000 {
        server.advance(end_ms + drain_rounds * 60_000);
        drain_rounds += 1;
        reap(&server);
    }
    reap(&server);
    assert_eq!(
        server.pending_queued(),
        0,
        "drain left jobs stranded in the cluster"
    );

    let snapshot = cluster.metrics_snapshot();
    SemesterOutcome {
        hours,
        offered,
        admitted,
        shed,
        rate_limited,
        completed,
        compile_failed,
        runtime_failed,
        graded,
        brown_outs: snapshot.counter("sched_brown_outs"),
        infra_errors,
        flagged,
        analysis_flagged: snapshot.counter("analysis_flagged"),
        analysis_denied: snapshot.counter("analysis_denied"),
        drain_rounds,
        queue_wait: snapshot.queue_wait_rounds,
        cache: cluster.cache_metrics(),
        cost: cost.finish(),
        sched_admitted: snapshot.counter("sched_admitted"),
        sched_shed: snapshot.counter("sched_shed"),
        rate_limited_counter: snapshot.counter("rate_limited"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SemesterParams {
        SemesterParams {
            scale: 2.0,
            days: 2,
            seed: 7,
            submit_prob: 0.05,
            fleet_max: 2,
            pumps_per_hour: 4,
            labs_per_course: 1,
            variants_per_lab: 6,
            backlog_budget: 8,
        }
    }

    #[test]
    fn tiny_semester_balances_its_books() {
        let o = run_semester(&tiny());
        assert!(o.offered > 0, "two days at 2x must offer work");
        assert!(o.books_balance(), "{o:?}");
        assert_eq!(o.completed, o.admitted);
        assert_eq!(o.infra_errors, 0);
        assert!(o.cache_reuse_rate() > 0.0, "Zipf head must repeat");
    }

    #[test]
    fn same_seed_same_digest() {
        let a = run_semester(&tiny());
        let b = run_semester(&tiny());
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    }

    #[test]
    fn different_seed_different_arrivals() {
        let a = run_semester(&tiny());
        let mut p = tiny();
        p.seed = 8;
        let b = run_semester(&p);
        assert_ne!(
            a.deterministic_digest(),
            b.deterministic_digest(),
            "seed must actually steer the trace"
        );
    }

    #[test]
    fn variant_pool_shape() {
        assert_eq!(variant_source("hpp", "vecadd", 0, "X"), "X");
        assert!(variant_source("hpp", "vecadd", 1, "X").contains("variant 1"));
        assert!(variant_source("hpp", "vecadd", 18, "X").contains("broken"));
        // Rank 5 is the statically-detectable half of the broken pool:
        // it still ends in the reference solution (it compiles and
        // grades), prefixed by a kernel the verifier flags.
        let v5 = variant_source("hpp", "vecadd", 5, "X");
        assert!(v5.contains("flagged") && v5.contains("__syncthreads"));
        assert!(v5.ends_with("X"));
        assert!(variant_source("hpp", "vecadd", 31, "X").contains("flagged"));
        assert!(variant_source("hpp", "vecadd", 44, "X").contains("broken"));
        let cdf = zipf_cdf(4);
        assert_eq!(cdf.len(), 4);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
    }
}
