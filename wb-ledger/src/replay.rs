//! Layer replays: after the measured window of a traced run, the harness
//! re-drives each crate's public functions with the submissions this
//! workload generated and times the calls. Each replay is a child span of
//! one `replay` root. A replay's number is what the layer costs on these
//! inputs in isolation — an upper bound on what a change to it can save,
//! not a share of the measured window (README.md, "Inferred vs measured").

use crate::drive::{recorder, Driver, Sample, SHARDS};
use libwb::Dataset;
use minicuda::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wb_cache::{hash_bytes, CacheConfig, CompileKey, CompiledEntry, GradeKey};
use wb_obs::{Annotation, Counter, JobPhase, Recorder, Timer};
use wb_queue::{shard_for_course, CapabilitySet, ShardedBroker};
use wb_sched::{GradeClass, SchedConfig, ShardedScheduler};
use wb_server::state::{AttemptRec, ServerState};
use wb_server::SubmitAction;
use wb_worker::{execute_job_cached_traced, new_submission_cache, JobAction, JobRequest};

/// The image name every replayed key and job is derived under.
const IMAGE: &str = "webgpu/full";
/// Distinct sources the compiler and sandbox replays cover at most.
const MAX_SOURCES: usize = 256;
/// Same budget as the cold-compile stack, so inserts evict.
const CACHE_REPLAY_BUDGET: usize = 4 * 1024 * 1024;
const CACHE_REPLAY_KEYS: usize = 4096;
const JOB_DIR_QUOTA: usize = 4 * 1024 * 1024;

fn us_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

fn job_action(action: SubmitAction) -> JobAction {
    match action {
        SubmitAction::CompileOnly => JobAction::CompileOnly,
        SubmitAction::RunDataset(i) => JobAction::RunDataset(i),
        SubmitAction::FullGrade => JobAction::FullGrade,
    }
}

/// The job the server would build for a sampled submission.
fn job_request(d: &Driver, index: usize, s: &Sample) -> JobRequest {
    let lab = &d.labs[s.lab].def;
    JobRequest {
        job_id: 1 + index as u64,
        user: format!("replay-s{}", index % 120),
        source: s.source.clone(),
        spec: lab.spec.clone(),
        datasets: lab.datasets.clone(),
        action: job_action(s.action),
    }
}

fn dataset_bytes(d: &Dataset) -> usize {
    match d {
        Dataset::Vector(v) => v.len() * 4,
        Dataset::IntVector(v) => v.len() * 4,
        Dataset::Matrix { data, .. } => data.len() * 4,
        Dataset::Image(img) => img.data().len() * 4,
        Dataset::Sparse(m) => (m.row_ptr().len() + m.col_idx().len()) * 8 + m.values().len() * 4,
        Dataset::Graph(g) => (g.row_ptr().len() + g.neighbors().len()) * 8,
        Dataset::Scalar(_) => 4,
    }
}

fn case_indexes(req: &JobRequest) -> Vec<usize> {
    match req.action {
        JobAction::CompileOnly => Vec::new(),
        JobAction::RunDataset(i) => vec![i],
        JobAction::FullGrade => (0..req.datasets.len()).collect(),
    }
}

/// Metric name to value, as measured.
type Out = BTreeMap<&'static str, f64>;

/// Run one layer's replay as a span.
fn replay(d: &mut Driver, span: &'static str, out: &mut Out, body: impl FnOnce(&Driver, &mut Out)) {
    d.spans.enter(span, 0);
    body(d, out);
    d.spans.exit();
}

pub fn run(d: &mut Driver, out: &mut Out) {
    let reqs: Vec<JobRequest> = d
        .samples
        .iter()
        .enumerate()
        .map(|(i, s)| job_request(d, i, s))
        .collect();
    let reqs = &reqs[..];
    // The workload's distinct sources, for the compiler and the sandbox.
    let mut seen = BTreeSet::new();
    let sources: Vec<&JobRequest> = reqs
        .iter()
        .filter(|r| seen.insert(r.source.as_str()))
        .take(MAX_SOURCES)
        .collect();
    let sources = &sources[..];

    d.spans.enter("replay", 0);
    replay(d, "replay.wb-sched", out, |_, f| sched(reqs, f));
    replay(d, "replay.wb-queue", out, |_, f| queue(reqs, f));
    replay(d, "replay.wb-cache", out, |_, f| cache(reqs, f));
    replay(d, "replay.minicuda.compile", out, |_, f| {
        compile(sources, f)
    });
    replay(d, "replay.wb-sandbox", out, |_, f| sandbox(sources, f));
    replay(d, "replay.minicuda.exec", out, execute_and_check);
    replay(d, "replay.wb-worker", out, |d, f| {
        worker(&reqs[..reqs.len().min(d.replay_jobs)], f)
    });
    replay(d, "replay.wb-obs", out, |_, f| obs(reqs, f));
    replay(d, "replay.wb-db", out, |_, f| db(reqs, f));
    d.spans.exit();
}

fn per(total_us: f64, n: usize) -> f64 {
    total_us / n.max(1) as f64
}

/// Offer everything, then drain it pool-width at a time.
fn sched(reqs: &[JobRequest], out: &mut Out) {
    let sched: ShardedScheduler<JobRequest> =
        ShardedScheduler::new(SHARDS, SchedConfig::default(), Arc::new(Recorder::noop()));
    let payloads = reqs.to_vec();
    let started = Instant::now();
    for req in payloads {
        let class = if req.action == JobAction::FullGrade {
            GradeClass::Full
        } else {
            GradeClass::Light
        };
        let course = req.spec.course.clone();
        let id = req.job_id;
        black_box(sched.offer(&course, id, req, class, 0, |r| {
            r.action = JobAction::CompileOnly;
        }));
    }
    out.insert(
        "wb-sched.offer_us_per_job",
        per(us_since(started), reqs.len()),
    );
    let started = Instant::now();
    let mut round = 0u64;
    while sched.total_backlog() > 0 {
        // Alternate the two drains the clusters use.
        let wave = if round.is_multiple_of(2) {
            sched.drain_rotating(2, round)
        } else {
            sched.drain_stealing((round % SHARDS as u64) as usize, 2, round)
        };
        black_box(wave);
        round += 1;
    }
    out.insert(
        "wb-sched.drain_us_per_job",
        per(us_since(started), reqs.len()),
    );
}

/// Enqueue on the course's lane, then poll and ack.
fn queue(reqs: &[JobRequest], out: &mut Out) {
    let broker: ShardedBroker<JobRequest> = ShardedBroker::new(SHARDS, 60_000, 3);
    let caps: CapabilitySet = ["cuda", "opencl", "openacc", "mpi", "multi-gpu"].into();
    let tagged: Vec<_> = reqs
        .iter()
        .map(|r| {
            (
                shard_for_course(&r.spec.course, SHARDS),
                r.clone(),
                r.spec.tags.to_wire(),
            )
        })
        .collect();
    let started = Instant::now();
    for (lane, req, tags) in tagged {
        black_box(broker.enqueue_to(lane, req, tags, 0));
    }
    out.insert(
        "wb-queue.enqueue_us_per_job",
        per(us_since(started), reqs.len()),
    );
    let started = Instant::now();
    let mut lane = 0usize;
    while let Some(delivery) = broker.poll_from(lane, &caps, 1) {
        broker.ack(delivery.meta.id);
        lane = (lane + 1) % SHARDS;
    }
    out.insert(
        "wb-queue.poll_ack_us_per_job",
        per(us_since(started), reqs.len()),
    );
}

/// Key derivation on the real requests; hit and insert cost on a
/// standalone cache small enough to evict.
fn cache(reqs: &[JobRequest], out: &mut Out) {
    let device = minicuda::DeviceConfig::test_small();
    let started = Instant::now();
    for req in reqs {
        let spec = &req.spec;
        let ckey = CompileKey::derive(
            &req.source,
            spec.dialect,
            spec.opt_level,
            spec.analysis.enabled(),
            &spec.toolchain,
            IMAGE,
            &spec.blacklist,
            &spec.limits,
        );
        for idx in case_indexes(req) {
            if let Some(case) = req.datasets.get(idx) {
                black_box(GradeKey::derive(
                    ckey,
                    &case.name,
                    &case.inputs,
                    &case.expected,
                    &device,
                    &spec.whitelist,
                    &spec.check,
                    &spec.limits,
                ));
            }
        }
        black_box(ckey);
    }
    out.insert(
        "wb-cache.key_derive_us_per_job",
        per(us_since(started), reqs.len()),
    );
    let mut bytes_hashed = 0usize;
    for req in reqs {
        bytes_hashed += req.source.len();
        for idx in case_indexes(req) {
            if let Some(case) = req.datasets.get(idx) {
                bytes_hashed += case.inputs.iter().map(dataset_bytes).sum::<usize>()
                    + dataset_bytes(&case.expected);
            }
        }
    }
    out.insert(
        "wb-cache.bytes_hashed_per_job",
        per(bytes_hashed as f64, reqs.len()),
    );

    let cache = new_submission_cache(CacheConfig {
        compile_budget_bytes: CACHE_REPLAY_BUDGET,
        ..CacheConfig::default()
    });
    let program = Arc::new(
        minicuda::compile("int main() { return 0; }", minicuda::Dialect::Cuda)
            .expect("the trivial program compiles"),
    );
    // Entries weigh what this workload's sources weigh.
    let source_bytes =
        (reqs.iter().map(|r| r.source.len()).sum::<usize>() / reqs.len().max(1)).max(64);
    let keys: Vec<CompileKey> = (0..CACHE_REPLAY_KEYS as u64)
        .map(|i| CompileKey(hash_bytes(&i.to_le_bytes())))
        .collect();
    let started = Instant::now();
    for key in &keys {
        black_box(cache.compile_or(*key, || CompiledEntry {
            result: Ok(Arc::clone(&program)),
            source_bytes,
            analysis: Vec::new(),
        }));
    }
    out.insert("wb-cache.insert_us", per(us_since(started), keys.len()));
    // The newest keys are resident whatever was evicted.
    let resident = &keys[keys.len() - 256..];
    let started = Instant::now();
    for _ in 0..16 {
        for key in resident {
            black_box(cache.compile_or(*key, || unreachable!("resident key recomputed")));
        }
    }
    out.insert(
        "wb-cache.lookup_hit_us",
        per(us_since(started), 16 * resident.len()),
    );
}

/// The compiler's phases, one by one and as a whole.
fn compile(sources: &[&JobRequest], out: &mut Out) {
    let mut phase_us = [0.0f64; 7];
    let mut compile_us = 0.0;
    for req in sources {
        let dialect = req.spec.dialect;
        let started = Instant::now();
        black_box(minicuda::compile_with(&req.source, dialect, req.spec.opt_level).is_ok());
        compile_us += us_since(started);
        phases(&req.source, dialect, &mut phase_us);
    }
    for (name, total) in [
        "minicuda.preprocess_us",
        "minicuda.lex_us",
        "minicuda.parse_us",
        "minicuda.sema_us",
        "minicuda.lower_us",
        "minicuda.passes_us",
        "minicuda.analyze_us",
    ]
    .into_iter()
    .zip(phase_us)
    {
        out.insert(name, per(total, sources.len()));
    }
    out.insert("minicuda.compile_us", per(compile_us, sources.len()));
    out.insert(
        "minicuda.source_bytes_per_compile",
        per(
            sources.iter().map(|r| r.source.len()).sum::<usize>() as f64,
            sources.len(),
        ),
    );
}

fn sandbox(sources: &[&JobRequest], out: &mut Out) {
    let started = Instant::now();
    for req in sources {
        black_box(req.spec.blacklist.scan(&req.source));
    }
    out.insert(
        "wb-sandbox.scan_us_per_compile",
        per(us_since(started), sources.len()),
    );
    let started = Instant::now();
    for req in sources {
        let mut dir = wb_sandbox::JobDir::create(req.job_id, JOB_DIR_QUOTA);
        black_box(dir.write("solution.cu", req.source.as_bytes()).is_ok());
    }
    out.insert(
        "wb-sandbox.jobdir_us_per_compile",
        per(us_since(started), sources.len()),
    );
}

/// Kernel execution and the solution check: one full grade of the
/// reference solution of every lab the workload touched.
fn execute_and_check(d: &Driver, out: &mut Out) {
    let device = minicuda::DeviceConfig::test_small();
    let labs: BTreeSet<usize> = d.samples.iter().map(|s| s.lab).collect();
    let (mut exec_us, mut check_us, mut datasets, mut compared) = (0.0, 0.0, 0usize, 0u64);
    let mut cost = minicuda::CostSummary::default();
    for &lab in &labs {
        let deployed = &d.labs[lab];
        let spec = &deployed.def.spec;
        let program: Program =
            minicuda::compile_with(deployed.solution, spec.dialect, spec.opt_level)
                .expect("reference solutions compile");
        let opts = spec.limits.to_run_options(device.clone());
        for case in &deployed.def.datasets {
            let started = Instant::now();
            let run = minicuda::run_with_policy(&program, &case.inputs, &opts, &spec.whitelist);
            exec_us += us_since(started);
            datasets += 1;
            cost.warp_instructions += run.cost.warp_instructions;
            cost.global_transactions += run.cost.global_transactions;
            cost.host_steps += run.cost.host_steps;
            if let Some(solution) = &run.solution {
                let started = Instant::now();
                let report = libwb::check::compare(solution, &case.expected, &spec.check);
                check_us += us_since(started);
                compared += report.total as u64;
            }
        }
    }
    out.insert("minicuda.exec_us_per_dataset", per(exec_us, datasets));
    out.insert("libwb.check_us_per_dataset", per(check_us, datasets));
    out.extend([
        (
            "minicuda.warp_instructions_per_job",
            per(cost.warp_instructions as f64, labs.len()),
        ),
        (
            "minicuda.global_transactions_per_job",
            per(cost.global_transactions as f64, labs.len()),
        ),
        (
            "minicuda.host_steps_per_job",
            per(cost.host_steps as f64, labs.len()),
        ),
        (
            "libwb.values_compared_per_job",
            per(compared as f64, labs.len()),
        ),
    ]);
    out.insert(
        "minicuda.warp_instr_per_us",
        cost.warp_instructions as f64 / exec_us.max(1e-9),
    );
}

/// The whole pipeline behind one shared cache, in the workload's own
/// order, so reuse follows the workload's.
fn worker(reqs: &[JobRequest], out: &mut Out) {
    let device = minicuda::DeviceConfig::test_small();
    let cache = new_submission_cache(CacheConfig::default());
    let obs = recorder();
    let started = Instant::now();
    for req in reqs {
        black_box(execute_job_cached_traced(
            req, &device, 1, 0, IMAGE, &cache, &obs, 0,
        ));
    }
    out.insert(
        "wb-worker.execute_us_per_job",
        per(us_since(started), reqs.len()),
    );
}

/// What one cached job records, on the production recorder configuration.
fn obs(reqs: &[JobRequest], out: &mut Out) {
    let obs = recorder();
    let started = Instant::now();
    for req in reqs {
        let id = req.job_id;
        obs.bump(Counter::AttemptsServed);
        obs.bump_scoped(&req.spec.lab_id);
        obs.phase(id, JobPhase::Queued, 0);
        obs.phase(id, JobPhase::Dispatched, 1);
        obs.observe(Timer::CompileMicros, 3);
        obs.annotate(id, Annotation::CacheHit, 1);
        obs.phase(id, JobPhase::Compiled, 1);
        obs.observe(Timer::GradeMicros, 5);
        obs.phase(id, JobPhase::Graded, 1);
        obs.observe(Timer::QueueWaitRounds, 2);
    }
    out.insert(
        "wb-obs.record_us_per_job",
        per(us_since(started), reqs.len()),
    );
}

/// The attempt row each reaped job writes.
fn db(reqs: &[JobRequest], out: &mut Out) {
    let state = ServerState::new();
    let rows: Vec<AttemptRec> = reqs
        .iter()
        .map(|r| AttemptRec {
            user: r.user.clone(),
            lab: r.spec.lab_id.clone(),
            dataset: None,
            at_ms: r.job_id,
            compiled: true,
            passed: true,
            summary: "Compilation successful.".to_string(),
            source: r.source.clone(),
            share_token: None,
        })
        .collect();
    let started = Instant::now();
    for row in &rows {
        black_box(state.attempts.insert(row).is_ok());
    }
    out.insert(
        "wb-db.insert_us_per_job",
        per(us_since(started), reqs.len()),
    );
}

/// Run the compiler's public phases one by one, adding each phase's time
/// to its slot; a source that fails a phase skips the later ones.
fn phases(source: &str, dialect: minicuda::Dialect, us: &mut [f64; 7]) {
    let started = Instant::now();
    let Ok(pre) = minicuda::preprocessor::preprocess(source) else {
        us[0] += us_since(started);
        return;
    };
    let canonical = minicuda::dialect::canonicalize(&pre, dialect);
    us[0] += us_since(started);

    let started = Instant::now();
    let tokens = minicuda::lexer::lex(&canonical);
    us[1] += us_since(started);
    let Ok(tokens) = tokens else { return };

    let started = Instant::now();
    let unit = minicuda::parser::parse(tokens);
    us[2] += us_since(started);
    let Ok(unit) = unit else { return };

    let started = Instant::now();
    let program = minicuda::sema::analyze(unit, dialect);
    us[3] += us_since(started);
    let Ok(mut program) = program else { return };

    let started = Instant::now();
    let mut ir = minicuda::lower::lower_program(&program);
    us[4] += us_since(started);

    let started = Instant::now();
    minicuda::passes::optimize_program(&mut ir);
    us[5] += us_since(started);

    program.attach_ir(ir);
    let started = Instant::now();
    black_box(minicuda::analyze_program(&program));
    us[6] += us_since(started);
}
