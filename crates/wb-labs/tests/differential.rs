//! Differential grading: every Table II lab must grade **identically**
//! at `O0` (the kernel IR exactly as lowering emits it) and at `O2`
//! (the IR after the full pass pipeline), both run on the one
//! warp-batched executor. This suite checks that the passes change
//! nothing a grader can see; the tree-walk oracle that checks the
//! executor itself runs in `minicuda`'s unit tests (`src/differential.rs`),
//! over the same labs and the same buggy-kernel corpus.
//!
//! "Identically" means everything a student or grader can see: check
//! verdicts, runtime diagnostics (message, position, and thread
//! attribution), and log output — plus the memory-system counters
//! (transactions, bank conflicts, barriers, atomics, divergence),
//! which lab feedback asserts on. Only `warp_instructions` and
//! `device_cycles` may differ: shrinking those is what the optimizer
//! is *for*.

use minicuda::{
    analyze_program, compile, compile_analyzed, compile_with, CheckKind, DeviceConfig, Dialect,
    OptLevel,
};
use wb_labs::{definition, lab_ids, solution, LabScale};
use wb_worker::{execute, JobAction, JobOutcome, JobRequest, RunCtx};

include!("../../minicuda/tests/corpus/buggy_kernels.rs");

fn graded(lab_id: &str, source: &str, opt: OptLevel) -> JobOutcome {
    graded_at(lab_id, source, opt, LabScale::Small)
}

fn graded_at(lab_id: &str, source: &str, opt: OptLevel, scale: LabScale) -> JobOutcome {
    let lab = definition(lab_id, scale).unwrap();
    let mut spec = lab.spec;
    spec.opt_level = opt;
    let req = JobRequest {
        job_id: 1,
        user: "differential".into(),
        source: source.to_string(),
        spec,
        datasets: lab.datasets,
        action: JobAction::FullGrade,
    };
    execute(&req, &RunCtx::new(&DeviceConfig::test_small()))
}

/// Assert two outcomes are indistinguishable to a student, dataset by
/// dataset. Cost is compared field-by-field so the executor-dependent
/// fields (`warp_instructions`, `device_cycles`, and the elapsed-cycle
/// makespan derived from them) can be exempted explicitly.
fn assert_same_grading(lab: &str, lvl: OptLevel, base: &JobOutcome, other: &JobOutcome) {
    assert_eq!(
        base.compile_error, other.compile_error,
        "{lab}@{lvl}: compile verdict diverged"
    );
    assert_eq!(
        base.datasets.len(),
        other.datasets.len(),
        "{lab}@{lvl}: dataset count diverged"
    );
    for (a, b) in base.datasets.iter().zip(&other.datasets) {
        let ctx = format!("{lab}@{lvl} dataset {}", a.name);
        assert_eq!(a.name, b.name, "{ctx}: name");
        assert_eq!(a.check, b.check, "{ctx}: check verdict");
        assert_eq!(a.error, b.error, "{ctx}: diagnostic");
        assert_eq!(a.log_text, b.log_text, "{ctx}: log output");
        let (ca, cb) = (&a.cost, &b.cost);
        assert_eq!(
            ca.global_transactions, cb.global_transactions,
            "{ctx}: global transactions"
        );
        assert_eq!(
            ca.global_accesses, cb.global_accesses,
            "{ctx}: global accesses"
        );
        assert_eq!(
            ca.shared_accesses, cb.shared_accesses,
            "{ctx}: shared accesses"
        );
        assert_eq!(
            ca.shared_conflicts, cb.shared_conflicts,
            "{ctx}: bank conflicts"
        );
        assert_eq!(ca.atomics, cb.atomics, "{ctx}: atomics");
        assert_eq!(ca.barriers, cb.barriers, "{ctx}: barriers");
        assert_eq!(
            ca.divergent_branches, cb.divergent_branches,
            "{ctx}: divergent branches"
        );
        assert_eq!(
            ca.kernel_launches, cb.kernel_launches,
            "{ctx}: kernel launches"
        );
        assert_eq!(ca.words_h2d, cb.words_h2d, "{ctx}: H2D words");
        assert_eq!(ca.words_d2h, cb.words_d2h, "{ctx}: D2H words");
    }
}

#[test]
fn every_lab_reference_grades_identically_at_all_levels() {
    for id in lab_ids() {
        let src = solution(id).unwrap();
        let o0 = graded(id, src, OptLevel::O0);
        assert!(o0.compiled(), "{id}: {:?}", o0.compile_error);
        assert_eq!(
            o0.passed_count(),
            o0.datasets.len(),
            "{id}: reference solution must pass at O0"
        );
        let o2 = graded(id, src, OptLevel::O2);
        assert_same_grading(id, OptLevel::O2, &o0, &o2);
    }
}

/// The differential suite grades at `LabScale::Small`; the performance
/// ledger's `kernel_full` workload grades at `LabScale::Full`, where
/// blocks are 256 threads wide, grids have interior *and* edge blocks,
/// and the last warp of a block can be partial. Same comparison, at the
/// scale the ledger runs.
#[test]
fn every_lab_reference_grades_identically_at_full_scale() {
    for id in lab_ids() {
        let src = solution(id).unwrap();
        let o0 = graded_at(id, src, OptLevel::O0, LabScale::Full);
        assert!(o0.compiled(), "{id}: {:?}", o0.compile_error);
        assert_eq!(
            o0.passed_count(),
            o0.datasets.len(),
            "{id}: reference solution must pass at O0"
        );
        let o2 = graded_at(id, src, OptLevel::O2, LabScale::Full);
        assert_same_grading(id, OptLevel::O2, &o0, &o2);
    }
}

/// Student-bug archetypes with runtime diagnostics (the shared
/// `BUGGY_KERNELS` corpus): the *failure* must also be identical — same
/// message, same position, same thread.
#[test]
fn buggy_kernels_fail_identically_at_all_levels() {
    for (i, (lab, src)) in BUGGY_KERNELS.iter().enumerate() {
        let o0 = graded(lab, src, OptLevel::O0);
        assert!(o0.compiled(), "case {i}: {:?}", o0.compile_error);
        assert!(
            o0.datasets.iter().any(|d| d.error.is_some()),
            "case {i} should produce a runtime diagnostic at O0"
        );
        let o2 = graded(lab, src, OptLevel::O2);
        assert_same_grading(&format!("buggy-case-{i}"), OptLevel::O2, &o0, &o2);
    }
}

// ---------------------------------------------------------------------
// Static verifier verdicts
// ---------------------------------------------------------------------

/// A statically-catchable student-bug archetype: a complete program
/// whose kernel the verifier must flag with exactly the given checker.
fn verifier_findings(kernel: &str) -> Vec<minicuda::Finding> {
    let src = format!("{kernel}\nint main() {{ return 0; }}");
    let program = compile(&src, Dialect::Cuda).expect("archetype must compile");
    analyze_program(&program)
}

/// Every archetype the bench's catch-rate gate counts, as unit checks:
/// the verifier flags each with the right checker kind.
#[test]
fn verifier_flags_every_statically_catchable_archetype() {
    let archetypes: &[(&str, CheckKind, &str)] = &[
        (
            "ww-shared-race",
            CheckKind::SharedRace,
            r#"__global__ void k(float* a, int n) {
                __shared__ float acc[32];
                int t = threadIdx.x;
                acc[0] = a[t];
                if (t < n) { a[t] = acc[0]; }
            }"#,
        ),
        (
            "rw-shared-race",
            CheckKind::SharedRace,
            r#"__global__ void k(float* a, int n) {
                __shared__ float buf[128];
                int t = threadIdx.x;
                buf[t] = a[t];
                a[t] = buf[t + 1];
            }"#,
        ),
        (
            "barrier-in-divergent-if",
            CheckKind::BarrierDivergence,
            r#"__global__ void k(float* a, int n) {
                int t = threadIdx.x;
                if (t < 7) { __syncthreads(); }
                a[t] = 1.0;
            }"#,
        ),
        (
            "barrier-in-nonuniform-loop",
            CheckKind::BarrierDivergence,
            r#"__global__ void k(float* a, int n) {
                int i = threadIdx.x;
                while (i > 0) {
                    __syncthreads();
                    i = i - 1;
                }
            }"#,
        ),
        (
            "off-by-one-tile-oob",
            CheckKind::OutOfBounds,
            r#"__global__ void k(float* a, int n) {
                __shared__ float tile[16];
                int t = threadIdx.x;
                if (t <= 16) { tile[t] = a[t]; }
            }"#,
        ),
        (
            "loop-bound-tile-oob",
            CheckKind::OutOfBounds,
            r#"__global__ void k(float* a, int n) {
                __shared__ float tile[16];
                if (threadIdx.x == 0) {
                    for (int i = 0; i <= 16; i++) { tile[i] = 0.0; }
                }
            }"#,
        ),
        (
            "uninit-read",
            CheckKind::UninitRead,
            r#"__global__ void k(float* a, int n) {
                int best;
                if (threadIdx.x < n) { best = 3; }
                a[threadIdx.x] = best;
                best = 0;
            }"#,
        ),
    ];
    for (name, expected, kernel) in archetypes {
        let findings = verifier_findings(kernel);
        assert!(
            findings.iter().any(|f| f.kind == *expected),
            "{name}: expected a {expected:?} finding, got {findings:?}"
        );
        for f in &findings {
            assert!(f.diag.pos.line > 0, "{name}: finding must carry a position");
        }
    }
}

/// False-positive traps: correct idioms that *look* like the archetypes
/// above. The verifier must stay silent on every one.
#[test]
fn verifier_stays_silent_on_false_positive_traps() {
    let traps: &[(&str, &str)] = &[
        (
            "guarded-access",
            r#"__global__ void k(float* a, int n) {
                __shared__ float buf[64];
                int t = threadIdx.x;
                if (t < 64) { buf[t] = a[t]; }
            }"#,
        ),
        (
            "affine-disjoint-slots",
            r#"__global__ void k(float* a, int n) {
                __shared__ float buf[128];
                int t = threadIdx.x;
                buf[t] = a[t];
                a[t] = buf[t] * 2.0;
            }"#,
        ),
        (
            "single-writer-guard",
            r#"__global__ void k(float* a, int n) {
                __shared__ float total[1];
                if (threadIdx.x == 0) { total[0] = 0.0; }
            }"#,
        ),
        (
            "barrier-separated-phases",
            r#"__global__ void k(float* a, int n) {
                __shared__ float buf[64];
                int t = threadIdx.x;
                buf[t] = a[t];
                __syncthreads();
                a[t] = buf[63 - t];
            }"#,
        ),
        (
            "uniform-loop-barrier",
            r#"__global__ void k(float* a, int n) {
                __shared__ float buf[64];
                int t = threadIdx.x;
                buf[t] = a[t];
                for (int s = 1; s < 64; s = s * 2) {
                    __syncthreads();
                    if (t >= s) { a[t] = buf[t - s]; }
                }
            }"#,
        ),
    ];
    for (name, kernel) in traps {
        let findings = verifier_findings(kernel);
        assert!(findings.is_empty(), "{name}: false positives {findings:?}");
    }
}

/// The acceptance bar the bench gate enforces in CI, as a plain test:
/// all fifteen reference solutions are finding-free.
#[test]
fn verifier_reports_zero_findings_on_every_reference_lab() {
    for id in lab_ids() {
        let src = solution(id).unwrap();
        let dialect = definition(id, LabScale::Small).unwrap().spec.dialect;
        let program = compile(src, dialect).expect(id);
        let findings = analyze_program(&program);
        assert!(findings.is_empty(), "{id}: false positives {findings:?}");
    }
}

fn graded_with_policy(
    lab_id: &str,
    source: &str,
    opt: OptLevel,
    policy: minicuda::AnalysisPolicy,
) -> JobOutcome {
    let lab = definition(lab_id, LabScale::Small).unwrap();
    let mut spec = lab.spec;
    spec.opt_level = opt;
    spec.analysis = policy;
    let req = JobRequest {
        job_id: 1,
        user: "differential".into(),
        source: source.to_string(),
        spec,
        datasets: lab.datasets,
        action: JobAction::FullGrade,
    };
    execute(&req, &RunCtx::new(&DeviceConfig::test_small()))
}

/// A flagged-but-gradeable source: the student's real (correct) kernel
/// plus a dead audit-probe kernel that trips the barrier-divergence
/// checker. The probe is never launched, so grading is untouched while
/// warn-mode analysis has something to say.
fn with_audit_probe(solution: &str) -> String {
    format!(
        "__global__ void wbAuditProbe(float* unused) {{\n\
             if (threadIdx.x < 7) {{ __syncthreads(); }}\n\
         }}\n{solution}"
    )
}

/// Warn-mode must be observationally invisible to grading: at every
/// opt level, a `Warn` run and an `Off` run of the *same* source —
/// including one the verifier actually flags — produce bit-identical
/// verdicts, diagnostics, logs, and memory counters. Only the
/// `analysis` field itself may differ; that is the whole point.
#[test]
fn warn_mode_analysis_never_perturbs_grading() {
    use minicuda::AnalysisPolicy;
    for id in ["vecadd", "scan"] {
        let clean = solution(id).unwrap().to_string();
        let flagged = with_audit_probe(&clean);
        for (src, expect_flag) in [(&clean, false), (&flagged, true)] {
            for lvl in [OptLevel::O0, OptLevel::O2] {
                let off = graded_with_policy(id, src, lvl, AnalysisPolicy::Off);
                let warn = graded_with_policy(id, src, lvl, AnalysisPolicy::Warn);
                assert_same_grading(id, lvl, &off, &warn);
                assert_eq!(off.passed_count(), warn.passed_count(), "{id}@{lvl}");
                assert!(off.analysis.is_empty(), "{id}@{lvl}: Off must not analyze");
                if expect_flag {
                    assert!(
                        warn.analysis
                            .iter()
                            .any(|f| f.kind == CheckKind::BarrierDivergence),
                        "{id}@{lvl}: probe must be flagged under Warn"
                    );
                    assert_eq!(
                        warn.passed_count(),
                        warn.datasets.len(),
                        "{id}@{lvl}: flagged-but-correct code still passes under Warn"
                    );
                }
            }
        }
    }
}

/// The product path's one-lowering compile is the two-lowering one:
/// on every lab, clean and with a flagged audit probe, at both levels,
/// `compile_analyzed` reports exactly `analyze_program`'s findings,
/// attaches the same IR as `compile_with`, and its program runs every
/// dataset bit-identically to `compile_with`'s.
#[test]
fn compile_analyzed_equals_compile_then_analyze_on_every_lab() {
    let device = DeviceConfig::test_small();
    for id in lab_ids() {
        let lab = definition(id, LabScale::Small).unwrap();
        let spec = &lab.spec;
        let opts = spec.limits.to_run_options(device.clone());
        let clean = solution(id).unwrap().to_string();
        for src in [with_audit_probe(&clean), clean] {
            for lvl in [OptLevel::O0, OptLevel::O2] {
                let ctx = format!("{id}@{lvl}");
                let (once, findings, _) = compile_analyzed(&src, spec.dialect, lvl).expect(&ctx);
                let twice = compile_with(&src, spec.dialect, lvl).expect(&ctx);
                assert_eq!(findings, analyze_program(&twice), "{ctx}: findings");
                assert_eq!(once.ir(), twice.ir(), "{ctx}: IR attached");
                for case in &lab.datasets {
                    let run =
                        |p| minicuda::run_with_policy(p, &case.inputs, &opts, &spec.whitelist);
                    assert_eq!(
                        format!("{:?}", run(&once)),
                        format!("{:?}", run(&twice)),
                        "{ctx} {}: run diverged",
                        case.name
                    );
                }
            }
        }
    }
}

/// Deny-mode is a compile-phase rejection: deterministic, explained by
/// the rendered findings, and it never reaches the datasets.
#[test]
fn deny_mode_rejects_flagged_code_before_datasets() {
    use minicuda::AnalysisPolicy;
    let flagged = with_audit_probe(solution("vecadd").unwrap());
    for lvl in [OptLevel::O0, OptLevel::O2] {
        let a = graded_with_policy("vecadd", &flagged, lvl, AnalysisPolicy::Deny);
        let b = graded_with_policy("vecadd", &flagged, lvl, AnalysisPolicy::Deny);
        assert!(!a.compiled(), "deny must reject");
        assert_eq!(
            a.compile_error, b.compile_error,
            "deny must be deterministic"
        );
        assert!(a.datasets.is_empty(), "deny must stop before datasets");
        let report = a.compile_error.unwrap();
        assert!(
            report.contains("[barrier-divergence]"),
            "deny report names the check: {report}"
        );
        // Clean code is untouched by Deny.
        let clean = graded_with_policy(
            "vecadd",
            solution("vecadd").unwrap(),
            lvl,
            AnalysisPolicy::Deny,
        );
        assert!(clean.compiled());
        assert_eq!(clean.passed_count(), clean.datasets.len());
    }
}
