//! The compile → sandbox → execute → evaluate pipeline (§III-C/D).
//!
//! [`execute`] runs a job from source to verdict under a [`RunCtx`].
//! With a cluster-wide [`SubmissionCache`] in the context, the compile
//! and every dataset grade are looked up by key first, so byte-identical
//! submissions during a deadline rush compile and grade once. The steps
//! are deterministic pure functions of their keyed inputs, which is what
//! makes a cached result indistinguishable from fresh execution.

use crate::cache::SubmissionCache;
use crate::job::{DatasetCase, DatasetOutcome, JobAction, JobOutcome, JobRequest, LabSpec};
use libwb::check;
use minicuda::{analyze_program, compile_with, AnalysisPolicy, DeviceConfig, Finding, Program};
use std::sync::Arc;
use std::time::Instant;
use wb_cache::{CompileKey, CompiledEntry, GradeKey, LookupOutcome};
use wb_obs::{Annotation, Counter, JobPhase, Recorder, Timer};
use wb_sandbox::JobDir;

/// Scratch-directory quota per job (mirrors the real worker's tmpfs).
const JOB_DIR_QUOTA: usize = 4 * 1024 * 1024;

/// The recorder [`RunCtx::new`] reports to.
static NOOP: Recorder = Recorder::noop();

/// Everything a job runs with besides the request itself. Identity
/// fields (`worker_id`, `container_wait_ms`) land on the outcome and are
/// never cached; only the deterministic compile/grade payloads are.
#[derive(Clone, Copy)]
pub struct RunCtx<'a> {
    /// Simulated GPU the datasets run on.
    pub device: &'a DeviceConfig,
    /// Node reported on the outcome.
    pub worker_id: u64,
    /// Container checkout wait reported on the outcome.
    pub container_wait_ms: u64,
    /// Container image the job runs in — part of the compile key, since
    /// different images may carry different toolchain stacks.
    pub image: &'a str,
    /// Cluster-wide submission cache; `None` runs every step fresh.
    pub cache: Option<&'a SubmissionCache>,
    /// Trace/metrics recorder.
    pub obs: &'a Recorder,
    /// Virtual ms stamped on the job's span events.
    pub now_ms: u64,
}

impl<'a> RunCtx<'a> {
    /// Worker 0 on `device`: no container wait, the default worker
    /// image, no cache and the no-op recorder.
    pub fn new(device: &'a DeviceConfig) -> Self {
        RunCtx {
            device,
            worker_id: 0,
            container_wait_ms: 0,
            image: "webgpu/cuda",
            cache: None,
            obs: &NOOP,
            now_ms: 0,
        }
    }
}

/// The compile phase of a submission: size gate → blacklist scan →
/// scratch-dir write (as the real worker writes `solution.cu` before
/// invoking nvcc) → compile. Returns the program or the rendered
/// error shown to the student.
fn compile_phase(job_id: u64, source: &str, spec: &LabSpec) -> Result<Arc<Program>, String> {
    spec.limits.check_source_size(source)?;

    // Layer 1: blacklist scan on the raw, unparsed text.
    if let Some(v) = spec.blacklist.scan(source).first() {
        return Err(v.message.clone());
    }

    // The scratch directory is RAII: every exit path below — including
    // the error returns — reclaims it when `dir` drops.
    let mut dir = JobDir::create(job_id, JOB_DIR_QUOTA);
    dir.write("solution.cu", source.as_bytes())
        .map_err(|e| e.to_string())?;

    match compile_with(source, spec.dialect, spec.opt_level) {
        Ok(p) => Ok(Arc::new(p)),
        Err(d) => Err(d.to_string()),
    }
}

/// Run one dataset case: execute under the whitelist policy, then
/// evaluate against the expected output.
fn run_dataset_case(
    program: &Program,
    case: &DatasetCase,
    spec: &LabSpec,
    device: &DeviceConfig,
) -> DatasetOutcome {
    let opts = spec.limits.to_run_options(device.clone());
    // Layer 2: the whitelist rides along as the hostcall policy.
    let run = minicuda::run_with_policy(program, &case.inputs, &opts, &spec.whitelist);
    let check_report = match (&run.error, &run.solution) {
        (None, Some(sol)) => Some(check::compare(sol, &case.expected, &spec.check)),
        (None, None) => Some(check::CheckReport {
            total: 0,
            mismatch_count: 0,
            mismatches: Vec::new(),
            shape_error: Some("program completed without calling wbSolution".to_string()),
        }),
        _ => None,
    };
    DatasetOutcome {
        name: case.name.clone(),
        check: check_report,
        error: run.error,
        cost: run.cost,
        elapsed_cycles: run.elapsed_cycles,
        log_text: run.log.render(),
        timing_text: run.timer.report(),
    }
}

/// Run the static verifier over a freshly compiled program: records
/// the verifier's wall time and run/finding counters, and returns the
/// findings. Only ever called when the lab's policy enables analysis,
/// and — with a cache — only on the single-flight leader, so
/// `analysis_runs` counts actual verifier executions, not lookups.
fn analyze_phase(program: &Program, obs: &Recorder) -> Vec<Finding> {
    let started = Instant::now();
    let findings = analyze_program(program);
    obs.observe(Timer::AnalyzeMicros, started.elapsed().as_micros() as u64);
    obs.bump(Counter::AnalysisRuns);
    obs.add(Counter::AnalysisFindings, findings.len() as u64);
    findings
}

/// Apply the lab's analysis policy to the verifier's findings for one
/// job. Flagged jobs are annotated per job (a cache hit re-reports the
/// stored findings); `Deny` additionally converts them into a compile
/// rejection. Returns `true` when the job is denied and no datasets
/// may run.
fn apply_analysis(
    outcome: &mut JobOutcome,
    policy: AnalysisPolicy,
    findings: Vec<Finding>,
    obs: &Recorder,
    now_ms: u64,
) -> bool {
    if findings.is_empty() {
        return false;
    }
    obs.annotate(outcome.job_id, Annotation::AnalysisFlagged, now_ms);
    let denied = policy == AnalysisPolicy::Deny;
    if denied {
        obs.bump(Counter::AnalysisDenied);
        outcome.compile_error = Some(
            findings
                .iter()
                .map(Finding::render)
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
    outcome.analysis = findings;
    denied
}

/// The outcome reported when the requested dataset index does not
/// exist.
fn missing_dataset_outcome(idx: usize) -> DatasetOutcome {
    DatasetOutcome {
        name: format!("dataset {idx}"),
        check: None,
        error: Some(minicuda::Diag::nowhere(
            minicuda::Phase::Runtime,
            format!("no dataset with index {idx}"),
        )),
        cost: Default::default(),
        elapsed_cycles: 0,
        log_text: String::new(),
        timing_text: String::new(),
    }
}

/// Which dataset indexes an action runs.
fn case_indexes(action: &JobAction, dataset_count: usize) -> Vec<usize> {
    match action {
        JobAction::CompileOnly => Vec::new(),
        JobAction::RunDataset(i) => vec![*i],
        JobAction::FullGrade => (0..dataset_count).collect(),
    }
}

/// Record one cache lookup against the job's span: saved work becomes
/// a `CacheHit`/`Coalesced` annotation, a miss only bumps the
/// [`Counter::CacheMisses`] counter (misses are the normal path, not a
/// span-worthy event). `None` — no cache — records nothing.
fn record_lookup(obs: &Recorder, job_id: u64, lookup: Option<LookupOutcome>, now_ms: u64) {
    match lookup {
        Some(LookupOutcome::Hit) => obs.annotate(job_id, Annotation::CacheHit, now_ms),
        Some(LookupOutcome::Coalesced) => obs.annotate(job_id, Annotation::Coalesced, now_ms),
        Some(LookupOutcome::Miss) => obs.bump(Counter::CacheMisses),
        None => {}
    }
}

/// A value served through a cache tier, with how the lookup went.
fn served<V>((value, lookup): (V, LookupOutcome)) -> (V, Option<LookupOutcome>) {
    (value, Some(lookup))
}

/// Run a job: compile (plus the static verifier when the lab's policy
/// enables it), then every dataset its action names. With `ctx.cache`,
/// the compile and each dataset grade are served by key and
/// single-flight, so each distinct computation runs once cluster-wide.
///
/// Compile time lands in [`Timer::CompileMicros`], dataset time in
/// [`Timer::GradeMicros`]; the span advances to `Compiled` then
/// `Graded`, or to `Failed` on a compile error or a `Deny` verdict.
pub fn execute(req: &JobRequest, ctx: &RunCtx) -> JobOutcome {
    let (obs, now_ms, job_id) = (ctx.obs, ctx.now_ms, req.job_id);
    let mut outcome = JobOutcome {
        job_id,
        worker_id: ctx.worker_id,
        compile_error: None,
        datasets: Vec::new(),
        analysis: Vec::new(),
        container_wait_ms: ctx.container_wait_ms,
    };
    let analyze = req.spec.analysis.enabled();
    let compile = || {
        let result = compile_phase(job_id, &req.source, &req.spec);
        let analysis = match (&result, analyze) {
            (Ok(p), true) => analyze_phase(p, obs),
            _ => Vec::new(),
        };
        CompiledEntry {
            result,
            source_bytes: req.source.len(),
            analysis,
        }
    };
    let keyed = ctx.cache.map(|cache| {
        let ckey = CompileKey::derive(
            &req.source,
            req.spec.dialect,
            req.spec.opt_level,
            analyze,
            &req.spec.toolchain,
            ctx.image,
            &req.spec.blacklist,
            &req.spec.limits,
        );
        (cache, ckey)
    });
    let started = Instant::now();
    let (entry, lookup) = match keyed {
        Some((cache, ckey)) => served(cache.compile_or(ckey, compile)),
        None => (compile(), None),
    };
    obs.observe(Timer::CompileMicros, started.elapsed().as_micros() as u64);
    record_lookup(obs, job_id, lookup, now_ms);
    let program = match entry.result {
        Ok(p) => p,
        Err(m) => {
            outcome.compile_error = Some(m);
            obs.phase(job_id, JobPhase::Failed, now_ms);
            return outcome;
        }
    };
    obs.phase(job_id, JobPhase::Compiled, now_ms);
    if analyze && apply_analysis(&mut outcome, req.spec.analysis, entry.analysis, obs, now_ms) {
        obs.phase(job_id, JobPhase::Failed, now_ms);
        return outcome;
    }
    let started = Instant::now();
    for idx in case_indexes(&req.action, req.datasets.len()) {
        // A missing index is never cached: trivially cheap, and there
        // is no dataset content to key on.
        let Some(case) = req.datasets.get(idx) else {
            outcome.datasets.push(missing_dataset_outcome(idx));
            continue;
        };
        let grade = || run_dataset_case(&program, case, &req.spec, ctx.device);
        let (graded, lookup) = match keyed {
            Some((cache, ckey)) => {
                let gkey = GradeKey::derive(
                    ckey,
                    &case.name,
                    &case.inputs,
                    &case.expected,
                    ctx.device,
                    &req.spec.whitelist,
                    &req.spec.check,
                    &req.spec.limits,
                );
                served(cache.grade_or(gkey, grade))
            }
            None => (grade(), None),
        };
        record_lookup(obs, job_id, lookup, now_ms);
        outcome.datasets.push(graded);
    }
    obs.observe(Timer::GradeMicros, started.elapsed().as_micros() as u64);
    obs.phase(job_id, JobPhase::Graded, now_ms);
    outcome
}

/// [`execute`] with a cache and a recorder, under the positional
/// signature that predates [`RunCtx`].
#[allow(clippy::too_many_arguments)]
pub fn execute_job_cached_traced(
    req: &JobRequest,
    device: &DeviceConfig,
    worker_id: u64,
    container_wait_ms: u64,
    image: &str,
    cache: &SubmissionCache,
    obs: &Recorder,
    now_ms: u64,
) -> JobOutcome {
    execute(
        req,
        &RunCtx {
            device,
            worker_id,
            container_wait_ms,
            image,
            cache: Some(cache),
            obs,
            now_ms,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::new_submission_cache;
    use crate::job::{DatasetCase, LabSpec};
    use libwb::Dataset;
    use wb_cache::CacheConfig;

    const VECADD: &str = r#"
        __global__ void vecAdd(float* a, float* b, float* out, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { out[i] = a[i] + b[i]; }
        }
        int main() {
            int n;
            float* a = wbImportVector(0, &n);
            float* b = wbImportVector(1, &n);
            float* out = (float*) malloc(n * sizeof(float));
            float* dA; float* dB; float* dC;
            cudaMalloc(&dA, n * sizeof(float));
            cudaMalloc(&dB, n * sizeof(float));
            cudaMalloc(&dC, n * sizeof(float));
            cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
            cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
            vecAdd<<<(n + 63) / 64, 64>>>(dA, dB, dC, n);
            cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(out, n);
            return 0;
        }
    "#;

    fn vecadd_request(action: JobAction) -> JobRequest {
        JobRequest {
            job_id: 1,
            user: "alice".into(),
            source: VECADD.to_string(),
            spec: LabSpec::cuda_test("vecadd"),
            datasets: vec![
                DatasetCase {
                    name: "d0".into(),
                    inputs: vec![
                        Dataset::Vector(vec![1.0, 2.0]),
                        Dataset::Vector(vec![3.0, 4.0]),
                    ],
                    expected: Dataset::Vector(vec![4.0, 6.0]),
                },
                DatasetCase {
                    name: "d1".into(),
                    inputs: vec![Dataset::Vector(vec![0.0]), Dataset::Vector(vec![5.0])],
                    expected: Dataset::Vector(vec![5.0]),
                },
            ],
            action,
        }
    }

    /// Run uncached on worker 0 of the small test device.
    fn run(req: &JobRequest) -> JobOutcome {
        execute(req, &RunCtx::new(&DeviceConfig::test_small()))
    }

    /// Run through `cache` on worker 0 of `device`.
    fn run_cached(req: &JobRequest, device: &DeviceConfig, cache: &SubmissionCache) -> JobOutcome {
        let ctx = RunCtx {
            cache: Some(cache),
            ..RunCtx::new(device)
        };
        execute(req, &ctx)
    }

    #[test]
    fn full_grade_passes_all_datasets() {
        let req = vecadd_request(JobAction::FullGrade);
        let device = DeviceConfig::test_small();
        let ctx = RunCtx {
            worker_id: 7,
            ..RunCtx::new(&device)
        };
        let out = execute(&req, &ctx);
        assert!(out.compiled(), "{:?}", out.compile_error);
        assert_eq!(out.datasets.len(), 2);
        assert_eq!(out.passed_count(), 2);
        assert_eq!(out.worker_id, 7);
    }

    #[test]
    fn compile_only_runs_nothing() {
        let out = run(&vecadd_request(JobAction::CompileOnly));
        assert!(out.compiled());
        assert!(out.datasets.is_empty());
    }

    #[test]
    fn single_dataset_run() {
        let out = run(&vecadd_request(JobAction::RunDataset(1)));
        assert_eq!(out.datasets.len(), 1);
        assert_eq!(out.datasets[0].name, "d1");
        assert!(out.datasets[0].passed());
    }

    #[test]
    fn out_of_range_dataset_reports_error() {
        let out = run(&vecadd_request(JobAction::RunDataset(9)));
        assert!(out.datasets[0].error.is_some());
        assert!(!out.datasets[0].passed());
    }

    #[test]
    fn blacklisted_source_rejected_before_compile() {
        let mut req = vecadd_request(JobAction::FullGrade);
        req.source = format!("// sneaky asm comment\n{}", req.source);
        let out = run(&req);
        assert!(!out.compiled());
        assert!(out.compile_error.unwrap().contains("asm"));
        assert!(out.datasets.is_empty());
    }

    #[test]
    fn syntax_error_reported_with_position() {
        let mut req = vecadd_request(JobAction::CompileOnly);
        req.source = "int main( { return 0; }".to_string();
        let out = run(&req);
        assert!(out.compile_error.unwrap().contains("syntax error"));
    }

    #[test]
    fn wrong_answer_is_mismatch_not_error() {
        let mut req = vecadd_request(JobAction::FullGrade);
        // A classic student bug: using + instead of * in the index.
        req.source = VECADD.replace("a[i] + b[i]", "a[i] - b[i]");
        let out = run(&req);
        assert!(out.compiled());
        assert_eq!(out.passed_count(), 0);
        let d = &out.datasets[0];
        assert!(d.error.is_none());
        assert!(d.check.as_ref().unwrap().mismatch_count > 0);
    }

    #[test]
    fn missing_wbsolution_is_reported() {
        let mut req = vecadd_request(JobAction::RunDataset(0));
        req.source = "int main() { return 0; }".to_string();
        let out = run(&req);
        let d = &out.datasets[0];
        assert!(d.error.is_none());
        assert!(d
            .check
            .as_ref()
            .unwrap()
            .shape_error
            .as_ref()
            .unwrap()
            .contains("wbSolution"));
    }

    #[test]
    fn oversized_source_rejected() {
        let mut req = vecadd_request(JobAction::CompileOnly);
        req.spec.limits.max_source_bytes = 16;
        let out = run(&req);
        assert!(out.compile_error.unwrap().contains("at most 16"));
    }

    #[test]
    fn cost_counters_populated() {
        let out = run(&vecadd_request(JobAction::RunDataset(0)));
        let d = &out.datasets[0];
        assert_eq!(d.cost.kernel_launches, 1);
        assert!(d.elapsed_cycles > 0);
    }

    /// What a traced recorder holds after one job, with the counter the
    /// cache alone bumps (`CacheMisses`) zeroed out.
    fn books(obs: &Recorder) -> (Vec<wb_obs::SpanView>, Vec<(String, u64)>, [u64; 3]) {
        let snap = obs.snapshot();
        let counters = snap
            .counters
            .iter()
            .map(|c| {
                let value = if c.name == Counter::CacheMisses.name() {
                    0
                } else {
                    c.value
                };
                (c.name.clone(), value)
            })
            .collect();
        let timings = [
            snap.compile_micros.count,
            snap.grade_micros.count,
            snap.analyze_micros.count,
        ];
        (obs.spans(), counters, timings)
    }

    #[test]
    fn cached_outcome_equals_fresh_outcome() {
        let cache = new_submission_cache(CacheConfig::default());
        let req = vecadd_request(JobAction::FullGrade);
        let device = DeviceConfig::test_small();
        let fresh = execute(&req, &RunCtx::new(&device));
        let first = run_cached(&req, &device, &cache);
        let second = run_cached(&req, &device, &cache);
        assert_eq!(fresh, first, "cold cached run matches fresh");
        assert_eq!(fresh, second, "warm cached run matches fresh");
        let m = cache.metrics();
        assert_eq!(m.compile.misses, 1);
        assert_eq!(m.compile.hits, 1);
        assert_eq!(m.grade.misses, 2, "two datasets computed once");
        assert_eq!(m.grade.hits, 2, "and served from cache once");

        // Both branches of `execute`, cell by cell: no cache, and a
        // fresh cache whose every lookup misses, must agree on the
        // outcome and on the books — spans, counters and which timers
        // fired — except for the misses only the cache counts.
        let flagged = format!(
            "__global__ void probe(float* unused) {{\n\
                 if (threadIdx.x < 7) {{ __syncthreads(); }}\n\
             }}\n{VECADD}"
        );
        let sources = [
            ("clean", VECADD.to_string()),
            ("flagged", flagged),
            ("syntax error", "int main( { return 0; }".to_string()),
        ];
        let actions = [
            JobAction::CompileOnly,
            JobAction::RunDataset(1),
            JobAction::FullGrade,
        ];
        let policies = [
            AnalysisPolicy::Off,
            AnalysisPolicy::Warn,
            AnalysisPolicy::Deny,
        ];
        for (label, source) in &sources {
            for action in &actions {
                for policy in policies {
                    let cell = format!("{label} / {action:?} / {policy:?}");
                    let mut req = vecadd_request(action.clone());
                    req.source = source.clone();
                    req.spec.analysis = policy;
                    let run = |cache: Option<&SubmissionCache>| {
                        let obs = Recorder::traced();
                        let ctx = RunCtx {
                            worker_id: 7,
                            cache,
                            obs: &obs,
                            now_ms: 5,
                            ..RunCtx::new(&device)
                        };
                        (
                            execute(&req, &ctx),
                            books(&obs),
                            obs.counter(Counter::CacheMisses),
                        )
                    };
                    let (plain, plain_books, plain_misses) = run(None);
                    let fresh_cache = new_submission_cache(CacheConfig::default());
                    let (cached, cached_books, cached_misses) = run(Some(&fresh_cache));
                    assert_eq!(plain, cached, "{cell}: outcome");
                    let flagged_here = *label == "flagged" && policy.enabled();
                    assert_eq!(!plain.analysis.is_empty(), flagged_here, "{cell}: verdict");
                    assert_eq!(plain_books, cached_books, "{cell}: spans, counters, timers");
                    assert_eq!(plain_misses, 0, "{cell}: no cache, no misses");
                    let lookups = fresh_cache.metrics().total();
                    assert_eq!(lookups.hits + lookups.coalesced, 0, "{cell}: all miss");
                    assert_eq!(cached_misses, lookups.misses, "{cell}: misses counted");
                }
            }
        }
    }

    #[test]
    fn cached_compile_errors_are_reused() {
        let cache = new_submission_cache(CacheConfig::default());
        let mut req = vecadd_request(JobAction::CompileOnly);
        req.source = "int main( { return 0; }".to_string();
        let device = DeviceConfig::test_small();
        let first = run_cached(&req, &device, &cache);
        // A different student resubmits the same broken code.
        req.job_id = 2;
        req.user = "bob".into();
        let second = run_cached(&req, &device, &cache);
        assert_eq!(first.compile_error, second.compile_error);
        assert!(first.compile_error.unwrap().contains("syntax error"));
        assert_eq!(cache.metrics().compile.hits, 1);
    }

    #[test]
    fn different_dataset_same_source_reuses_compile_only() {
        let cache = new_submission_cache(CacheConfig::default());
        let device = DeviceConfig::test_small();
        let a = vecadd_request(JobAction::RunDataset(0));
        let b = vecadd_request(JobAction::RunDataset(1));
        let out_a = run_cached(&a, &device, &cache);
        let out_b = run_cached(&b, &device, &cache);
        assert!(out_a.datasets[0].passed());
        assert!(out_b.datasets[0].passed());
        let m = cache.metrics();
        assert_eq!((m.compile.misses, m.compile.hits), (1, 1));
        assert_eq!(
            (m.grade.misses, m.grade.hits),
            (2, 0),
            "distinct grade keys"
        );
    }

    #[test]
    fn pipeline_never_leaks_job_dirs() {
        // Every early-return path through the compile phase.
        let mut oversized = vecadd_request(JobAction::CompileOnly);
        oversized.spec.limits.max_source_bytes = 16;
        let mut blacklisted = vecadd_request(JobAction::CompileOnly);
        blacklisted.source = "int main() { asm(); }".to_string();
        let mut broken = vecadd_request(JobAction::CompileOnly);
        broken.source = "int main( {".to_string();
        for req in [
            vecadd_request(JobAction::FullGrade),
            oversized,
            blacklisted,
            broken,
        ] {
            run(&req);
        }
        // Counter deltas are asserted in the dedicated leak regression
        // test (tests/jobdir_leak.rs) where no other test races the
        // global; here we only exercise the paths.
    }
}
