//! The four workloads. Each builds its own stack, warms it, and then
//! yields *units* — a trace week, a deadline wave, a batch of compiles, a
//! round of the catalog — that are statistically alike, so a run may stop
//! after any whole number of them. Sizes are frozen here; README.md says
//! how they were calibrated.

use crate::drive::{Cluster, Driver, Expect, Offer, SHARDS};
use crate::rng::{cumulative, zipf_cdf, SplitMix64};
use std::collections::BTreeMap;
use std::sync::Arc;
use wb_cache::CacheConfig;
use wb_labs::LabScale;
use wb_server::SubmitAction;
use wb_worker::WorkerConfig;
use webgpu::{AutoscalePolicy, ClusterBuilder, CourseConfig, SchedConfig};

pub const NAMES: [&str; 4] = ["semester_hot", "rush_v1", "cold_compile", "kernel_full"];

/// Virtual milliseconds per simulated hour.
const HOUR_MS: u64 = 3_600_000;

pub trait Workload {
    fn driver(&mut self) -> &mut Driver;
    /// Run one measured unit.
    fn unit(&mut self);
    /// Finish whatever the last unit left queued (closed loops and waves
    /// leave nothing).
    fn drain(&mut self) {}
    /// Units a 20 s window holds on the 2-core reference box; fixed-size
    /// runs (`--trace`, `--smoke`, tests) are fractions of it.
    fn reference_units(&self) -> u64;
}

/// `Tiny` is for the crate's own tests: every per-unit count a sixteenth,
/// test-sized datasets everywhere. Nothing measured at `Tiny` means
/// anything; it exercises the same code on the same kinds of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    fn of(self, n: usize) -> usize {
        match self {
            Size::Full => n,
            Size::Tiny => (n / 16).max(1),
        }
    }
}

pub fn build(name: &str, seed: u64, trace: bool, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "semester_hot" => Box::new(SemesterHot::new(seed, trace, size)),
        "rush_v1" => Box::new(RushV1::new(seed, trace, size)),
        "cold_compile" => Box::new(ColdCompile::new(seed, trace, size)),
        "kernel_full" => Box::new(KernelFull::new(seed, trace, size)),
        _ => return None,
    })
}

fn device() -> minicuda::DeviceConfig {
    minicuda::DeviceConfig::test_small()
}

/// Every toolchain on every node, so the MPI lab routes anywhere.
fn full_image() -> WorkerConfig {
    WorkerConfig {
        image: "webgpu/full".to_string(),
        capabilities: ["cuda", "opencl", "openacc", "mpi", "multi-gpu"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..WorkerConfig::default()
    }
}

/// Rank `rank` of a lab's source pool. Rank 0 is the reference solution;
/// other ranks differ from it by a leading comment (distinct cache keys,
/// same behaviour), except ranks ≡ 5 (mod 13), which alternate between a
/// syntax error and a kernel with a barrier under a divergent branch that
/// the static verifier flags while the lab still grades clean.
fn variant_source(tag: &str, rank: usize, solution: &str) -> (String, Expect) {
    let clean = Expect::Pass { flagged: false };
    if rank == 0 {
        return (solution.to_string(), clean);
    }
    if rank % 13 == 5 {
        if (rank / 13).is_multiple_of(2) {
            return (
                format!(
                    "// {tag} flagged variant {rank}\n\
                     __global__ void wbAuditProbe(float* unused) {{\n\
                         if (threadIdx.x < 7) {{ __syncthreads(); }}\n\
                     }}\n{solution}"
                ),
                Expect::Pass { flagged: true },
            );
        }
        return (
            format!("// {tag} broken variant {rank}\nint oops( {{\n{solution}"),
            Expect::CompileError,
        );
    }
    (format!("// {tag} variant {rank}\n{solution}"), clean)
}

/// A student's fresh edit: the same program, bytes nobody has submitted.
fn fresh_edit(base: &str, serial: u64) -> String {
    format!("{base}\n// edit {serial:016x}\n")
}

struct PoolLab {
    /// Index into the driver's labs.
    lab: usize,
    datasets: usize,
    variants: Vec<(String, Expect)>,
}

impl PoolLab {
    fn new(d: &Driver, lab: usize, variants: usize) -> PoolLab {
        let deployed = &d.labs[lab];
        PoolLab {
            lab,
            datasets: deployed.def.datasets.len(),
            variants: (0..variants)
                .map(|r| variant_source(&deployed.def.id, r, deployed.solution))
                .collect(),
        }
    }
}

/// The mix of what students press: run one dataset, compile, or grade.
fn pick_action(rng: &mut SplitMix64, run: f64, compile: f64, datasets: usize) -> SubmitAction {
    let u = rng.unit();
    if u < run && datasets > 0 {
        SubmitAction::RunDataset(rng.below(datasets))
    } else if u < run + compile {
        SubmitAction::CompileOnly
    } else {
        SubmitAction::FullGrade
    }
}

/// The catalog labs of a Table II course, in table order.
fn course_labs(column: usize) -> Vec<&'static str> {
    wb_labs::catalog::table()
        .into_iter()
        .filter(|l| l.courses[column])
        .map(|l| l.id)
        .collect()
}

// ---- semester_hot -----------------------------------------------------------

/// Submissions per hour at the weekly peak (Wednesday evening): ≈135× the
/// 2012 trace's rate. The mean hour carries a third of it.
const SEMESTER_PEAK_PER_HOUR: usize = 270;
/// Figure 1's weekly rush, Sunday first: Wednesday spike, Thursday
/// deadline, Friday trough.
const DAY_OF_WEEK: [f64; 7] = [0.30, 0.35, 0.55, 1.0, 0.8, 0.18, 0.22];
/// Scheduling rounds per virtual hour; with the autoscaler's ceiling of
/// 4 workers the fleet clears at most 192 jobs an hour, below the peak.
const PUMPS_PER_HOUR: u64 = 48;
const SEMESTER_FLEET_MAX: usize = 4;
/// The Wednesday backlog of the largest course peaks at 700–800 jobs: it
/// touches the brown-out band (from 750) on some weeks and stays five
/// standard deviations of the arrival noise short of the budget, so
/// nothing is shed on any seed.
const SEMESTER_BACKLOG_BUDGET: usize = 1000;
const SEMESTER_VARIANTS: usize = 40;
const SEMESTER_LABS_PER_COURSE: usize = 4;
/// Students per course; assigned round-robin, so a student returns no
/// sooner than 120 submissions later and the rate limiter never trips.
const SEMESTER_STUDENTS: usize = 120;
/// Share of submissions that are fresh edits (cache misses).
const SEMESTER_FRESH: f64 = 0.005;
const WARMUP_HOURS: u64 = 48;
const WEEK_HOURS: u64 = 168;
const SEMESTER_REAP_EVERY: u64 = 16;

struct SemesterCourse {
    labs: Vec<PoolLab>,
    tokens: Vec<u64>,
    next_student: usize,
}

pub struct SemesterHot {
    d: Driver,
    peak_per_hour: f64,
    rng: SplitMix64,
    courses: Vec<SemesterCourse>,
    course_cdf: Vec<f64>,
    lab_cdf: Vec<f64>,
    variant_cdf: Vec<f64>,
    hour: u64,
    serial: u64,
}

fn diurnal(hour_of_day: u64) -> f64 {
    0.35 + 0.65 * (0.5 - 0.5 * (std::f64::consts::TAU * (hour_of_day as f64 - 3.0) / 24.0).cos())
}

impl SemesterHot {
    fn new(seed: u64, trace: bool, size: Size) -> SemesterHot {
        let mut d = Driver::new(
            |obs| {
                Cluster::V2(Arc::new(
                    ClusterBuilder::new(device())
                        .fleet(1)
                        .shards(SHARDS)
                        .policy(AutoscalePolicy::Reactive {
                            jobs_per_worker: 4,
                            min: 1,
                            max: SEMESTER_FLEET_MAX,
                        })
                        .scheduler(SchedConfig {
                            backlog_budget: SEMESTER_BACKLOG_BUDGET,
                            ..SchedConfig::default()
                        })
                        .worker_config(full_image())
                        .traced(obs)
                        .build_v2(),
                ))
            },
            trace,
        );
        let mut courses = Vec::new();
        let mut weights = Vec::new();
        for course in wb_labs::courses() {
            let labs = course_labs(course.column)
                .into_iter()
                .take(SEMESTER_LABS_PER_COURSE)
                .map(|id| {
                    let lab = d.deploy(id, Some(course.id), LabScale::Small);
                    PoolLab::new(&d, lab, SEMESTER_VARIANTS)
                })
                .collect();
            courses.push(SemesterCourse {
                labs,
                tokens: d.enroll(course.id, size.of(SEMESTER_STUDENTS)),
                next_student: 0,
            });
            // Square-root damping: the MOOC still dominates (Table II has
            // it at 99 % of enrollment) but the campus courses see traffic.
            weights.push(f64::from(course.enrollment).sqrt());
        }
        let mut w = SemesterHot {
            d,
            peak_per_hour: size.of(SEMESTER_PEAK_PER_HOUR) as f64,
            rng: SplitMix64::new(seed).fork(1),
            courses,
            course_cdf: cumulative(weights),
            lab_cdf: cumulative([0.4, 0.3, 0.2, 0.1]),
            variant_cdf: zipf_cdf(SEMESTER_VARIANTS, 1.1),
            hour: 0,
            serial: seed << 24,
        };
        // Warm-up: the trace's first two days, unmeasured.
        w.d.begin_warm_up();
        for _ in 0..WARMUP_HOURS {
            w.run_hour();
        }
        w.drain();
        w.d.end_set_up();
        w
    }

    fn run_hour(&mut self) {
        let h = self.hour;
        self.hour += 1;
        let hour_ms = h * HOUR_MS;
        let lambda = self.peak_per_hour * DAY_OF_WEEK[((h / 24) % 7) as usize] * diurnal(h % 24);
        let arrivals = self.rng.poisson(lambda);
        for j in 0..arrivals {
            let course = &mut self.courses[self.rng.pick(&self.course_cdf)];
            let lab = &course.labs[self.rng.pick(&self.lab_cdf).min(course.labs.len() - 1)];
            let token = course.tokens[course.next_student];
            course.next_student = (course.next_student + 1) % course.tokens.len();
            let (base, expect) = &lab.variants[self.rng.pick(&self.variant_cdf)];
            let source = if self.rng.unit() < SEMESTER_FRESH {
                self.serial += 1;
                fresh_edit(base, self.serial)
            } else {
                base.clone()
            };
            let action = pick_action(&mut self.rng, 0.60, 0.25, lab.datasets);
            self.d.submit(Offer {
                lab: lab.lab,
                token,
                at_ms: hour_ms + j * HOUR_MS / arrivals,
                action,
                source,
                expect: *expect,
            });
        }
        // The hour's rounds. An idle hour still pumps once, so the
        // autoscaler can shrink the fleet overnight.
        let step = HOUR_MS / PUMPS_PER_HOUR;
        for r in 0..PUMPS_PER_HOUR {
            if r > 0 && self.d.outstanding == 0 {
                break;
            }
            self.d.advance(hour_ms + r * step);
            if (r + 1) % SEMESTER_REAP_EVERY == 0 {
                self.d.reap();
            }
        }
        self.d.reap();
    }
}

impl Workload for SemesterHot {
    fn driver(&mut self) -> &mut Driver {
        &mut self.d
    }

    /// One trace week.
    fn unit(&mut self) {
        for _ in 0..WEEK_HOURS {
            self.run_hour();
        }
    }

    fn drain(&mut self) {
        let now = self.hour * HOUR_MS;
        self.d
            .drain(now, HOUR_MS / PUMPS_PER_HOUR, SEMESTER_REAP_EVERY);
    }

    fn reference_units(&self) -> u64 {
        13
    }
}

// ---- rush_v1 ---------------------------------------------------------------

const RUSH_POOL: usize = 2;
/// Submissions per wave for a course at base load; the surging course
/// (the MOOC) offers four times as many.
const RUSH_BASE_PER_WAVE: usize = 1150;
const RUSH_SURGE: usize = 4;
const RUSH_VARIANTS: usize = 8;
const RUSH_STUDENTS: usize = 400;
const RUSH_FRESH: f64 = 0.01;
const RUSH_REAP_EVERY: u64 = 100;

struct RushCourse {
    lab: PoolLab,
    tokens: Vec<u64>,
    next_student: usize,
    per_wave: usize,
}

pub struct RushV1 {
    d: Driver,
    seed: SplitMix64,
    courses: Vec<RushCourse>,
    variant_cdf: Vec<f64>,
    wave: u64,
    serial: u64,
}

impl RushV1 {
    fn new(seed: u64, trace: bool, size: Size) -> RushV1 {
        let table = wb_labs::courses();
        // Per-course backlog budgets. A wave is offered whole before any
        // of it drains, so a course's backlog peaks at its wave size: the
        // surging course's budget puts its last sixth in the brown-out
        // band (full grades come back compile-only) and sheds nothing.
        let per_wave = |i: usize| size.of(RUSH_BASE_PER_WAVE) * if i == 0 { RUSH_SURGE } else { 1 };
        let mut per_course = BTreeMap::new();
        for (i, course) in table.iter().enumerate() {
            let budget = if i == 0 {
                per_wave(i) * 10 / 9
            } else {
                per_wave(i) * 2
            };
            per_course.insert(
                course.id.to_string(),
                CourseConfig {
                    weight: 1,
                    deadline_ms: None,
                    backlog_budget: Some(budget),
                },
            );
        }
        let mut d = Driver::new(
            |obs| {
                Cluster::V1(Arc::new(
                    ClusterBuilder::new(device())
                        .fleet(RUSH_POOL)
                        .shards(SHARDS)
                        .scheduler(SchedConfig {
                            courses: per_course,
                            ..SchedConfig::default()
                        })
                        .traced(obs)
                        .build_v1(),
                ))
            },
            trace,
        );
        let courses = table
            .iter()
            .enumerate()
            .map(|(i, course)| {
                // A different deadline lab per course.
                let id = course_labs(course.column)[1 + i];
                let lab = d.deploy(id, Some(course.id), LabScale::Small);
                RushCourse {
                    lab: PoolLab::new(&d, lab, RUSH_VARIANTS),
                    tokens: d.enroll(course.id, size.of(RUSH_STUDENTS)),
                    next_student: 0,
                    per_wave: per_wave(i),
                }
            })
            .collect();
        let mut w = RushV1 {
            d,
            seed: SplitMix64::new(seed).fork(2),
            courses,
            variant_cdf: zipf_cdf(RUSH_VARIANTS, 1.1),
            wave: 0,
            serial: seed << 24,
        };
        // Warm-up: one unmeasured wave.
        w.d.begin_warm_up();
        w.run_wave();
        w.d.end_set_up();
        w
    }

    fn run_wave(&mut self) {
        self.wave += 1;
        let mut rng = self.seed.fork(self.wave);
        let now = self.wave * HOUR_MS;
        // Exact per-course counts in a shuffled order: admission sees the
        // same backlog peaks on every seed, the lanes a different weave.
        let mut order: Vec<usize> = self
            .courses
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.per_wave))
            .collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let total = order.len() as u64;
        for (j, ci) in order.into_iter().enumerate() {
            let course = &mut self.courses[ci];
            let token = course.tokens[course.next_student];
            course.next_student = (course.next_student + 1) % course.tokens.len();
            let (base, expect) = &course.lab.variants[rng.pick(&self.variant_cdf)];
            let source = if rng.unit() < RUSH_FRESH {
                self.serial += 1;
                fresh_edit(base, self.serial)
            } else {
                base.clone()
            };
            let action = pick_action(&mut rng, 0.40, 0.20, course.lab.datasets);
            self.d.submit(Offer {
                lab: course.lab.lab,
                token,
                at_ms: now + j as u64 * HOUR_MS / total,
                action,
                source,
                expect: *expect,
            });
        }
        self.d.drain(now, 1, RUSH_REAP_EVERY);
    }
}

impl Workload for RushV1 {
    fn driver(&mut self) -> &mut Driver {
        &mut self.d
    }

    /// One deadline-hour wave, offered whole and then drained.
    fn unit(&mut self) {
        self.run_wave();
    }

    fn reference_units(&self) -> u64 {
        25
    }
}

// ---- cold_compile ----------------------------------------------------------

/// Small enough that byte-budget eviction starts inside warm-up.
const COLD_COMPILE_BUDGET_BYTES: usize = 4 * 1024 * 1024;
const COLD_STUDENTS: usize = 64;
const COLD_BATCH: usize = 1000;
const COLD_WARMUP_JOBS: usize = 2000;
/// Virtual time between a client's submissions: a student comes round
/// again after 64 s, well inside the limiter's refill.
const COLD_STEP_MS: u64 = 1000;

pub struct ColdCompile {
    d: Driver,
    batch: usize,
    labs: Vec<usize>,
    tokens: Vec<u64>,
    serial_base: u64,
    jobs: u64,
}

impl ColdCompile {
    fn new(seed: u64, trace: bool, size: Size) -> ColdCompile {
        let mut d = closed_loop_stack(
            trace,
            CacheConfig {
                compile_budget_bytes: COLD_COMPILE_BUDGET_BYTES,
                ..CacheConfig::default()
            },
        );
        let labs = wb_labs::lab_ids()
            .into_iter()
            .map(|id| d.deploy(id, None, LabScale::Small))
            .collect();
        let tokens = d.enroll("cold", COLD_STUDENTS);
        let mut w = ColdCompile {
            d,
            batch: size.of(COLD_BATCH),
            labs,
            tokens,
            serial_base: SplitMix64::new(seed).fork(3).next_u64() << 20,
            jobs: 0,
        };
        w.d.begin_warm_up();
        for _ in 0..size.of(COLD_WARMUP_JOBS) {
            w.one_job();
        }
        w.d.end_set_up();
        w
    }

    /// One client, closed loop: submit, pump until it is done, reap.
    fn one_job(&mut self) {
        let k = self.jobs;
        self.jobs += 1;
        let lab = self.labs[(k % self.labs.len() as u64) as usize];
        let edited = fresh_edit(self.d.labs[lab].solution, self.serial_base + k);
        // Every 13th carries the replay's syntax error.
        let (source, expect) = if k % 13 == 12 {
            (format!("int oops( {{\n{edited}"), Expect::CompileError)
        } else {
            (edited, Expect::Pass { flagged: false })
        };
        let now = k * COLD_STEP_MS;
        self.d.submit(Offer {
            lab,
            token: self.tokens[(k % self.tokens.len() as u64) as usize],
            at_ms: now,
            action: SubmitAction::CompileOnly,
            source,
            expect,
        });
        self.d.drain(now, 1, 1);
    }
}

impl Workload for ColdCompile {
    fn driver(&mut self) -> &mut Driver {
        &mut self.d
    }

    fn unit(&mut self) {
        for _ in 0..self.batch {
            self.one_job();
        }
    }

    fn reference_units(&self) -> u64 {
        60
    }
}

/// The stack both closed-loop workloads use: v2, one worker, so every
/// round is the serial pump and no thread is spawned by the control plane.
fn closed_loop_stack(trace: bool, cache: CacheConfig) -> Driver {
    Driver::new(
        |obs| {
            Cluster::V2(Arc::new(
                ClusterBuilder::new(device())
                    .fleet(1)
                    .shards(SHARDS)
                    .cache(cache)
                    .worker_config(full_image())
                    .traced(obs)
                    .build_v2(),
            ))
        },
        trace,
    )
}

// ---- kernel_full -----------------------------------------------------------

const KERNEL_STEP_MS: u64 = 60_000;

pub struct KernelFull {
    d: Driver,
    labs: Vec<usize>,
    tokens: Vec<u64>,
    serial_base: u64,
    jobs: u64,
}

impl KernelFull {
    fn new(seed: u64, trace: bool, size: Size) -> KernelFull {
        let mut d = closed_loop_stack(trace, CacheConfig::default());
        let scale = match size {
            Size::Full => LabScale::Full,
            Size::Tiny => LabScale::Small,
        };
        let labs: Vec<usize> = wb_labs::lab_ids()
            .into_iter()
            .map(|id| d.deploy(id, None, scale))
            .collect();
        let tokens = d.enroll("kernel", labs.len());
        d.replay_jobs = 2 * labs.len();
        let mut w = KernelFull {
            d,
            labs,
            tokens,
            serial_base: SplitMix64::new(seed).fork(4).next_u64() << 20,
            jobs: 0,
        };
        // Warm-up: one round of the catalog.
        w.d.begin_warm_up();
        w.round();
        w.d.end_set_up();
        w
    }

    /// Every catalog lab once: a full grade of its reference solution
    /// under bytes no cache has seen.
    fn round(&mut self) {
        for i in 0..self.labs.len() {
            let k = self.jobs;
            self.jobs += 1;
            let lab = self.labs[i];
            let now = k * KERNEL_STEP_MS;
            self.d.submit(Offer {
                lab,
                token: self.tokens[i],
                at_ms: now,
                action: SubmitAction::FullGrade,
                source: fresh_edit(self.d.labs[lab].solution, self.serial_base + k),
                expect: Expect::Pass { flagged: false },
            });
            self.d.drain(now, 1, 1);
        }
    }
}

impl Workload for KernelFull {
    fn driver(&mut self) -> &mut Driver {
        &mut self.d
    }

    /// One round of the catalog. Short units give the median over units
    /// more to work with; the unit's 95th percentile of 15 turnarounds is
    /// its slowest lab's.
    fn unit(&mut self) {
        self.round();
    }

    fn reference_units(&self) -> u64 {
        36
    }
}
