//! The part every workload shares: the stack behind the front door, the
//! three timed calls into it, the books, and the correctness oracle.

use crate::rng::Digest;
use crate::spans::Spans;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use wb_cache::CacheMetrics;
use wb_labs::LabScale;
use wb_obs::{MetricsSnapshot, Recorder};
use wb_server::{
    DeviceKind, LabDefinition, SubmissionOutcome, SubmitAction, SubmitRequest, WbError,
    WebGpuServer,
};
use webgpu::{ClusterV1, ClusterV2};

/// Control-plane lanes. A constant, not the host's core count, so every
/// host runs the same work.
pub const SHARDS: usize = 2;
/// The production recorder configuration the semester replay uses.
const RECORDER_EVENTS: usize = 4096;

pub fn recorder() -> Arc<Recorder> {
    Arc::new(Recorder::traced_with_capacity(RECORDER_EVENTS))
}

/// The cluster behind the server, kept so product snapshots can be read.
pub enum Cluster {
    V1(Arc<ClusterV1>),
    V2(Arc<ClusterV2>),
}

impl Cluster {
    pub fn cache_metrics(&self) -> CacheMetrics {
        match self {
            Cluster::V1(c) => c.cache_metrics(),
            Cluster::V2(c) => c.cache_metrics().unwrap_or_default(),
        }
    }

    pub fn fleet_size(&self) -> usize {
        match self {
            Cluster::V1(c) => c.pool_size(),
            Cluster::V2(c) => c.fleet_size(),
        }
    }

    /// The deepest per-course backlog the scheduler holds right now.
    pub fn max_course_backlog(&self) -> usize {
        let snap = match self {
            Cluster::V1(c) => c.sched_snapshot(),
            Cluster::V2(c) => c.sched_snapshot(),
        };
        snap.courses.iter().map(|c| c.backlog).max().unwrap_or(0)
    }

    /// Deliveries the broker saw time out and redeliver (push has none).
    pub fn redeliveries(&self) -> u64 {
        match self {
            Cluster::V1(_) => 0,
            Cluster::V2(c) => c.broker_metrics().timeouts,
        }
    }
}

/// What the generator knows a submission must come back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Compiles and every dataset it runs passes; `flagged` sources also
    /// carry static-verifier findings, clean ones none.
    Pass { flagged: bool },
    /// The replay's syntax error.
    CompileError,
}

struct Pending {
    submitted: Instant,
    expect: Expect,
    action: SubmitAction,
    lab_datasets: usize,
}

/// Offered = admitted + shed + rate-limited; reaped = admitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Books {
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    pub rate_limited: u64,
    pub reaped: u64,
    /// Refused at the door for any other reason (none is ever provoked).
    pub rejected: u64,
    /// Reaped as `WbError::Infra`.
    pub infra: u64,
    /// Results that differ from the generator's expected verdict.
    pub mismatches: u64,
    /// Full grades that came back compile-only (brown-out downgrade).
    pub brown_outs: u64,
}

impl Books {
    /// Operations that failed: refusals, infrastructure errors, wrong
    /// verdicts, and whatever was admitted but never came back.
    pub fn failed(&self) -> u64 {
        self.shed
            + self.rate_limited
            + self.rejected
            + self.infra
            + self.mismatches
            + self.admitted.saturating_sub(self.reaped)
    }

    pub fn balanced(&self) -> bool {
        self.offered == self.admitted + self.shed + self.rate_limited + self.rejected
            && self.reaped == self.admitted
    }
}

/// Wall time inside the three front-door calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub submit_ns: u64,
    pub advance_ns: u64,
    pub reap_ns: u64,
    pub advances: u64,
    pub reaps: u64,
}

pub struct Driver {
    pub server: WebGpuServer,
    pub cluster: Cluster,
    pub obs: Arc<Recorder>,
    pub spans: Spans,
    pub books: Books,
    pub calls: Calls,
    /// Submit call to the reap call that returned the result, ns.
    pub turnaround_ns: Vec<u64>,
    /// Over every offered submission since the stack was built.
    pub digest: Digest,
    pub peak_fleet: usize,
    /// Deepest per-course scheduler backlog seen, sampled before every
    /// eighth round of traced units.
    pub peak_course_backlog: usize,
    /// Σ fleet size over `advance` calls (rounds a worker was paid for).
    pub fleet_rounds: u64,
    /// Stack construction: cluster build plus server creation.
    pub build_ms: f64,
    /// Σ `wb_labs::definition` time, and how many labs it covers.
    pub definition_ms: f64,
    pub labs_defined: u64,
    /// Admitted and not yet completed by an `advance` round.
    pub outstanding: u64,
    pub labs: Vec<DeployedLab>,
    /// The first measured submissions, kept on traced runs only.
    pub samples: Vec<Sample>,
    /// How many samples the whole-pipeline replay executes (a workload
    /// whose jobs take milliseconds asks for fewer).
    pub replay_jobs: usize,
    keep_samples: bool,
    pending: HashMap<u64, Pending>,
    instructor: u64,
}

/// A lab as deployed: what the generator and the replays need from it.
pub struct DeployedLab {
    pub solution: &'static str,
    /// `def.id` is the server lab id (`course/catalog-id` when forked).
    pub def: LabDefinition,
}

/// One generated submission.
pub struct Offer {
    /// Index into [`Driver::labs`].
    pub lab: usize,
    pub token: u64,
    pub at_ms: u64,
    pub action: SubmitAction,
    pub source: String,
    pub expect: Expect,
}

/// A generated submission kept for the layer replays.
pub struct Sample {
    pub lab: usize,
    pub action: SubmitAction,
    pub source: String,
}

/// Replays run on at most this many of the workload's submissions.
const MAX_SAMPLES: usize = 2048;

impl Driver {
    pub fn new(build: impl FnOnce(Arc<Recorder>) -> Cluster, trace: bool) -> Driver {
        let mut spans = Spans::new(trace);
        spans.enter("setup", 0);
        let started = Instant::now();
        let obs = recorder();
        let cluster = build(Arc::clone(&obs));
        let dispatcher: Box<dyn wb_server::JobDispatcher> = match &cluster {
            Cluster::V1(c) => Box::new(Arc::clone(c)),
            Cluster::V2(c) => Box::new(Arc::clone(c)),
        };
        let server = WebGpuServer::new_traced(dispatcher, Arc::clone(&obs));
        let built = Instant::now();
        spans.record("build_stack", 0, started, built);
        let build_ms = (built - started).as_secs_f64() * 1e3;
        server
            .register_instructor("prof", "hunter2")
            .expect("fresh server accepts the instructor");
        let instructor = server
            .login("prof", "hunter2", DeviceKind::Desktop, 0)
            .expect("instructor login");
        let peak_fleet = cluster.fleet_size();
        Driver {
            server,
            cluster,
            obs,
            spans,
            books: Books::default(),
            calls: Calls::default(),
            turnaround_ns: Vec::new(),
            digest: Digest::default(),
            peak_fleet,
            peak_course_backlog: 0,
            fleet_rounds: 0,
            build_ms,
            definition_ms: 0.0,
            labs_defined: 0,
            outstanding: 0,
            labs: Vec::new(),
            samples: Vec::new(),
            replay_jobs: 512,
            keep_samples: trace,
            pending: HashMap::new(),
            instructor,
        }
    }

    /// Generate a catalog lab's datasets and deploy it, forked under
    /// `course` when given (own lab id and course tag, so admission
    /// control and the lanes see distinct courses).
    /// Returns the lab's index in [`Driver::labs`].
    pub fn deploy(
        &mut self,
        catalog_id: &'static str,
        course: Option<&str>,
        scale: LabScale,
    ) -> usize {
        let started = Instant::now();
        let mut def = wb_labs::definition(catalog_id, scale).expect("catalog ids resolve");
        self.definition_ms += started.elapsed().as_secs_f64() * 1e3;
        self.labs_defined += 1;
        if let Some(course) = course {
            def.id = format!("{course}/{catalog_id}");
            def.spec.course = course.to_string();
        }
        self.server
            .deploy_lab(self.instructor, def.clone())
            .expect("instructor deploys");
        self.spans.record("deploy_lab", 0, started, Instant::now());
        self.labs.push(DeployedLab {
            solution: wb_labs::solution(catalog_id).expect("catalog solutions resolve"),
            def,
        });
        self.labs.len() - 1
    }

    /// Register and log in `n` students named `prefix-s<i>`.
    pub fn enroll(&mut self, prefix: &str, n: usize) -> Vec<u64> {
        let started = Instant::now();
        let tokens = (0..n)
            .map(|i| {
                let name = format!("{prefix}-s{i}");
                self.server.register_student(&name, "pw").expect("register");
                self.server
                    .login(&name, "pw", DeviceKind::Desktop, 0)
                    .expect("student login")
            })
            .collect();
        self.spans.record("enroll", 0, started, Instant::now());
        tokens
    }

    /// The unmeasured warm-up pass starts here…
    pub fn begin_warm_up(&mut self) {
        self.spans.enter("warmup", 0);
    }

    /// …and ends here, and set-up with it: forget what warm-up measured;
    /// the stack keeps its warmed state.
    pub fn end_set_up(&mut self) {
        self.spans.exit(); // "warmup"
        self.start_measuring();
        self.spans.exit(); // "setup"
    }

    /// Offer one submission through the front door.
    pub fn submit(&mut self, offer: Offer) {
        let lab = &self.labs[offer.lab].def;
        let lab_datasets = lab.datasets.len();
        let Offer {
            expect,
            action,
            source,
            ..
        } = offer;
        self.digest.word(offer.token);
        self.digest.word(offer.lab as u64);
        self.digest.word(offer.at_ms);
        self.digest.word(match action {
            SubmitAction::CompileOnly => 1,
            SubmitAction::RunDataset(i) => 2 + (i as u64) * 4,
            SubmitAction::FullGrade => 3,
        });
        // Length plus tail: the unique marker of a fresh edit is a
        // trailing comment, so this separates every generated source
        // without hashing kilobytes per job inside the measured window.
        self.digest.word(source.len() as u64);
        self.digest
            .bytes(&source.as_bytes()[source.len().saturating_sub(24)..]);
        if self.keep_samples && self.samples.len() < MAX_SAMPLES {
            self.samples.push(Sample {
                lab: offer.lab,
                action,
                source: source.clone(),
            });
        }
        let req = &SubmitRequest {
            token: offer.token,
            lab: lab.id.clone(),
            action,
            at_ms: offer.at_ms,
            source: Some(source),
        };

        self.books.offered += 1;
        let started = Instant::now();
        let result = self.server.submit_queued(req);
        let ended = Instant::now();
        self.calls.submit_ns += (ended - started).as_nanos() as u64;
        match result {
            Ok(job) => {
                self.spans.record("submit_queued", job, started, ended);
                self.books.admitted += 1;
                self.outstanding += 1;
                self.pending.insert(
                    job,
                    Pending {
                        submitted: started,
                        expect,
                        action,
                        lab_datasets,
                    },
                );
            }
            Err(e) => {
                self.spans.record("submit_queued", 0, started, ended);
                match e {
                    WbError::Overloaded { .. } => self.books.shed += 1,
                    WbError::RateLimited { .. } => self.books.rate_limited += 1,
                    _ => self.books.rejected += 1,
                }
            }
        }
    }

    /// One scheduling round at virtual time `now_ms`.
    pub fn advance(&mut self, now_ms: u64) -> usize {
        let fleet = self.cluster.fleet_size();
        self.peak_fleet = self.peak_fleet.max(fleet);
        self.fleet_rounds += fleet as u64;
        if self.spans.enabled && self.calls.advances.is_multiple_of(8) {
            self.peak_course_backlog = self
                .peak_course_backlog
                .max(self.cluster.max_course_backlog());
        }
        let started = Instant::now();
        let done = self.server.advance(now_ms);
        let ended = Instant::now();
        self.calls.advance_ns += (ended - started).as_nanos() as u64;
        self.calls.advances += 1;
        self.spans.record("advance", 0, started, ended);
        self.outstanding = self.outstanding.saturating_sub(done as u64);
        done
    }

    /// Collect finished submissions and check each against its verdict.
    pub fn reap(&mut self) -> usize {
        let started = Instant::now();
        let reaped = self.server.reap_queued();
        let ended = Instant::now();
        self.calls.reap_ns += (ended - started).as_nanos() as u64;
        self.calls.reaps += 1;
        self.spans.record("reap_queued", 0, started, ended);
        let n = reaped.len();
        for (job, result) in reaped {
            let Some(p) = self.pending.remove(&job) else {
                self.books.mismatches += 1; // a result nobody submitted
                continue;
            };
            self.books.reaped += 1;
            self.turnaround_ns
                .push((ended - p.submitted).as_nanos() as u64);
            self.judge(&p, &result);
        }
        n
    }

    fn judge(&mut self, p: &Pending, result: &Result<SubmissionOutcome, WbError>) {
        let ok = match (p.expect, result) {
            (_, Err(WbError::Infra { .. })) => {
                self.books.infra += 1;
                return;
            }
            (Expect::CompileError, Ok(o)) => p.action == SubmitAction::FullGrade && !o.compiled,
            (Expect::CompileError, Err(e)) => {
                p.action != SubmitAction::FullGrade && matches!(e, WbError::CompileError { .. })
            }
            (Expect::Pass { flagged }, Ok(o)) => {
                let browned_out =
                    p.action == SubmitAction::FullGrade && o.total == 0 && p.lab_datasets > 0;
                if browned_out {
                    self.books.brown_outs += 1;
                }
                let expected_total = match p.action {
                    SubmitAction::CompileOnly => 0,
                    SubmitAction::RunDataset(_) => 1,
                    SubmitAction::FullGrade if browned_out => 0,
                    SubmitAction::FullGrade => p.lab_datasets,
                };
                o.compiled
                    && o.passed == o.total
                    && o.total == expected_total
                    && o.analysis.is_empty() != flagged
            }
            (Expect::Pass { .. }, Err(_)) => false,
        };
        if !ok {
            self.books.mismatches += 1;
        }
    }

    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Pump, reaping every `reap_every` rounds, until nothing is pending
    /// (bounded, so a stranded job ends the run as a failure rather than a
    /// hang). Only a reap empties `pending`, so the loop ends on one.
    pub fn drain(&mut self, mut now_ms: u64, step_ms: u64, reap_every: u64) {
        let mut rounds = 0u64;
        while self.pending() > 0 && rounds < 2_000_000 {
            self.advance(now_ms);
            now_ms += step_ms;
            rounds += 1;
            if rounds.is_multiple_of(reap_every) {
                self.reap();
            }
        }
    }

    fn start_measuring(&mut self) {
        assert_eq!(self.pending(), 0, "warm-up drains before measuring");
        self.books = Books::default();
        self.calls = Calls::default();
        self.turnaround_ns.clear();
        self.samples.clear();
        self.peak_fleet = self.cluster.fleet_size();
        self.peak_course_backlog = 0;
        self.fleet_rounds = 0;
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }
}
