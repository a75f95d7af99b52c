//! Property-based tests: the simulated GPU agrees with the Rust golden
//! models on randomized lab workloads (small sizes for speed), and the
//! static verifier's policy contract holds on fuzzed kernels — `Warn`
//! is observationally identical to `Off` for grading, and `Deny` is a
//! deterministic compile-phase rejection.

use libwb::{gen, Dataset};
use minicuda::{
    compile, AnalysisPolicy, CheckKind, DeviceConfig, Dialect, OptLevel, Phase, RunOptions,
};
use wb_worker::{execute, JobAction, JobOutcome, JobRequest, RunCtx};

fn run_solution(lab: &str, inputs: Vec<Dataset>) -> Option<Dataset> {
    let program = compile(wb_labs::solution(lab).unwrap(), dialect_of(lab)).unwrap();
    let opts = RunOptions {
        device: DeviceConfig::test_small(),
        ..Default::default()
    };
    let out = minicuda::run(&program, &inputs, &opts);
    assert!(out.ok(), "{lab}: {:?}", out.error);
    out.solution
}

fn dialect_of(lab: &str) -> Dialect {
    if lab == "opencl-vecadd" {
        Dialect::OpenCl
    } else {
        Dialect::Cuda
    }
}

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol + tol * y.abs())
}

/// GPU vector addition equals element-wise addition for any size
/// and seed (including awkward non-multiples of the block size).
#[test]
fn vecadd_matches_oracle() {
    wb_prop::check(16, |g| {
        let (n, seed) = (g.int(1..400), g.int(0..=u64::MAX));
        let a = gen::random_vector(n, seed);
        let b = gen::random_vector(n, seed ^ 0x9e37);
        let want: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let got = run_solution("vecadd", vec![Dataset::Vector(a), Dataset::Vector(b)]);
        match got {
            Some(Dataset::Vector(v)) => assert!(close(&v, &want, 1e-4)),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// GPU inclusive scan equals the sequential prefix sum.
#[test]
fn scan_matches_oracle() {
    wb_prop::check(16, |g| {
        let (n, seed) = (g.int(1..513), g.int(0..=u64::MAX));
        let input = gen::random_positive_vector(n, seed);
        let want = wb_labs::scan::golden(&input);
        let got = run_solution("scan", vec![Dataset::Vector(input)]);
        match got {
            Some(Dataset::Vector(v)) => assert!(close(&v, &want, 1e-2), "n={n}"),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// Tiled matmul equals the golden model on random ragged shapes.
#[test]
fn tiled_matmul_matches_oracle() {
    wb_prop::check(16, |g| {
        let (m, k, n, seed) = (
            g.int(1..40),
            g.int(1..24),
            g.int(1..40),
            g.int(0..=u64::MAX),
        );
        let a = gen::random_matrix(m, k, seed);
        let b = gen::random_matrix(k, n, seed ^ 0xff);
        let want = wb_labs::matmul::golden(m, k, n, &a, &b);
        let matrix = |rows, cols, data| Dataset::Matrix { rows, cols, data };
        let got = run_solution("tiled-matmul", vec![matrix(m, k, a), matrix(k, n, b)]);
        match got {
            Some(Dataset::Matrix { rows, cols, data }) => {
                assert_eq!((rows, cols), (m, n));
                assert!(close(&data, &want, 1e-3), "{m}x{k}x{n}");
            }
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// GPU binning equals the golden counter for any point set; counts
/// are exact because integer atomics commute.
#[test]
fn binning_matches_oracle() {
    wb_prop::check(16, |g| {
        let (n, seed) = (g.int(1..600), g.int(0..=u64::MAX));
        let points = gen::random_positive_vector(n, seed);
        let want = wb_labs::binning::golden(&points);
        let got = run_solution("binning", vec![Dataset::Vector(points)]);
        match got {
            Some(Dataset::IntVector(v)) => assert_eq!(v, want),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// GPU BFS levels equal the sequential BFS on random connected
/// graphs.
#[test]
fn bfs_matches_oracle() {
    wb_prop::check(16, |g| {
        let (n, p, seed) = (g.int(1..60), g.float(0.0..0.15), g.int(0..=u64::MAX));
        let graph = gen::random_connected_graph(n, p, seed);
        let want = graph.bfs_levels(0).unwrap();
        let got = run_solution("bfs", vec![Dataset::Graph(graph)]);
        match got {
            Some(Dataset::IntVector(v)) => assert_eq!(v, want),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// GPU stencil equals the golden model, boundaries included.
#[test]
fn stencil_matches_oracle() {
    wb_prop::check(16, |g| {
        let (n, seed) = (g.int(1..700), g.int(0..=u64::MAX));
        let input = gen::random_vector(n, seed);
        let want = wb_labs::stencil::golden(&input);
        let got = run_solution("stencil", vec![Dataset::Vector(input)]);
        match got {
            Some(Dataset::Vector(v)) => assert!(close(&v, &want, 1e-4)),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// The two-rank MPI stencil equals the single-machine golden model
/// for any vector length ≥ 2 (the split needs one element each).
#[test]
fn mpi_stencil_matches_oracle() {
    wb_prop::check(16, |g| {
        let (n, seed) = (g.int(2..200), g.int(0..=u64::MAX));
        let input = gen::random_vector(n, seed);
        let want = wb_labs::mpi_stencil::golden(&input);
        let program = compile(wb_labs::solution("mpi-stencil").unwrap(), Dialect::Cuda).unwrap();
        let opts = RunOptions {
            device: DeviceConfig::test_small(),
            world_size: 2,
            ..Default::default()
        };
        let out = minicuda::run(&program, &[Dataset::Vector(input)], &opts);
        assert!(out.ok(), "{:?}", out.error);
        match out.solution {
            Some(Dataset::Vector(v)) => assert!(close(&v, &want, 1e-4), "n={n}"),
            other => panic!("unexpected {other:?}"),
        }
    });
}

/// Grade the vecadd reference plus a fuzzed probe kernel under a given
/// analysis policy. The probe is never launched, so grading semantics
/// are fixed while the verifier's verdict varies with the probe shape.
fn graded_with_probe(probe: &str, opt: OptLevel, policy: AnalysisPolicy) -> JobOutcome {
    let lab = wb_labs::definition("vecadd", wb_labs::LabScale::Small).unwrap();
    let mut spec = lab.spec;
    spec.opt_level = opt;
    spec.analysis = policy;
    let req = JobRequest {
        job_id: 1,
        user: "properties".into(),
        source: format!("{probe}\n{}", wb_labs::solution("vecadd").unwrap()),
        spec,
        datasets: lab.datasets,
        action: JobAction::FullGrade,
    };
    execute(&req, &RunCtx::new(&DeviceConfig::test_small()))
}

/// Everything a student can see of a grade, minus the advisory
/// `analysis` field (the one thing `Warn` is *allowed* to add).
fn grading_view(o: &JobOutcome) -> (Option<String>, Vec<String>) {
    (
        o.compile_error.clone(),
        o.datasets
            .iter()
            .map(|d| {
                format!(
                    "{} {:?} {:?} {:?} {:?}",
                    d.name, d.check, d.error, d.log_text, d.timing_text
                )
            })
            .collect(),
    )
}

/// Warn-mode analysis is observationally invisible: for fuzzed
/// probe kernels — flagged (divergent barrier) and clean alike —
/// grading under `Warn` is bit-identical to `Off` at both executor
/// generations, and only the advisory `analysis` field differs.
#[test]
fn warn_grades_identically_to_off() {
    wb_prop::check(8, |g| {
        let (guard, divergent) = (g.int(1..32u32), g.bool());
        let probe = if divergent {
            format!(
                "__global__ void wbProbe(float* unused) {{\n\
                     if (threadIdx.x < {guard}) {{ __syncthreads(); }}\n\
                 }}"
            )
        } else {
            format!(
                "__global__ void wbProbe(float* unused) {{\n\
                     if (threadIdx.x < {guard}) {{ unused[0] = 1.0; }}\n\
                 }}"
            )
        };
        for opt in [OptLevel::O0, OptLevel::O2] {
            let off = graded_with_probe(&probe, opt, AnalysisPolicy::Off);
            let warn = graded_with_probe(&probe, opt, AnalysisPolicy::Warn);
            assert_eq!(grading_view(&off), grading_view(&warn), "{:?}", opt);
            assert!(off.analysis.is_empty(), "Off must not analyze");
            assert_eq!(
                !warn.analysis.is_empty(),
                divergent,
                "verifier verdict must track the probe shape at {:?}",
                opt
            );
            assert!(warn.compiled(), "Warn must never reject");
            assert_eq!(warn.passed_count(), warn.datasets.len());
        }
    });
}

/// Deny-mode is a deterministic compile-phase rejection carrying a
/// student-usable diagnostic: `Phase::Analysis`, a real source
/// position, and a witness thread for the divergent barrier.
#[test]
fn deny_rejects_deterministically_with_attributed_diags() {
    wb_prop::check(8, |g| {
        let guard = g.int(1..32u32);
        let probe = format!(
            "__global__ void wbProbe(float* unused) {{\n\
                 if (threadIdx.x < {guard}) {{ __syncthreads(); }}\n\
             }}"
        );
        for opt in [OptLevel::O0, OptLevel::O2] {
            let a = graded_with_probe(&probe, opt, AnalysisPolicy::Deny);
            let b = graded_with_probe(&probe, opt, AnalysisPolicy::Deny);
            assert!(!a.compiled(), "Deny must reject the flagged probe");
            assert_eq!(
                &a.compile_error, &b.compile_error,
                "nondeterministic denial"
            );
            assert!(a.datasets.is_empty(), "Deny must stop before datasets");
            let finding = a
                .analysis
                .iter()
                .find(|f| f.kind == CheckKind::BarrierDivergence)
                .expect("barrier-divergence finding");
            assert_eq!(finding.diag.phase, Phase::Analysis);
            assert!(finding.diag.pos.line > 0, "finding needs a source position");
            assert!(
                finding.diag.thread.is_some(),
                "divergence finding needs a witness thread"
            );
        }
    });
}

/// Inputs that differ in one byte, one line ending, one float bit
/// pattern or one dataset kind all get different cache keys: every
/// lab solution against single-byte edits at sampled positions and its
/// CR/LF twin, and grade inputs that differ only in `-0.0` vs `0.0`, in
/// a NaN payload, or in `Vector` vs `IntVector` with the same bits.
#[test]
fn distinct_inputs_get_distinct_keys() {
    use std::collections::HashMap;
    use wb_cache::{CompileKey, GradeKey};
    let mut keys = HashMap::new();
    let mut add = |what: String, key: wb_cache::ContentHash| {
        if let Some(other) = keys.insert(key, what.clone()) {
            panic!("{what} and {other} share key {key}");
        }
    };
    for id in wb_labs::lab_ids() {
        let spec = wb_labs::definition(id, wb_labs::LabScale::Small)
            .unwrap()
            .spec;
        let key = |src: &str| {
            let (opt, analyze) = (spec.opt_level, spec.analysis.enabled());
            let (tool, bl, lim) = (&spec.toolchain, &spec.blacklist, &spec.limits);
            CompileKey::derive(src, spec.dialect, opt, analyze, tool, "img", bl, lim).0
        };
        let solution = wb_labs::solution(id).unwrap();
        add(format!("{id} solution"), key(solution));
        add(
            format!("{id} CR/LF twin"),
            key(&solution.replace('\n', "\r\n")),
        );
        let bytes = solution.as_bytes();
        for k in 0..24 {
            let at = k * (bytes.len() - 1) / 23;
            let mut edited = bytes.to_vec();
            edited[at] ^= 1;
            if let Ok(edited) = String::from_utf8(edited) {
                add(format!("{id} byte {at} edited"), key(&edited));
            }
        }
    }
    let spec = wb_labs::definition("vecadd", wb_labs::LabScale::Small)
        .unwrap()
        .spec;
    let program = CompileKey(wb_cache::hash_bytes(b"program"));
    let grade = |expected: Dataset| {
        let dev = DeviceConfig::test_small();
        let (wl, check, lim) = (&spec.whitelist, &spec.check, &spec.limits);
        GradeKey::derive(program, "d", &[], &expected, &dev, wl, check, lim).0
    };
    let floats = |bits: [u32; 3]| Dataset::Vector(bits.map(f32::from_bits).to_vec());
    let (zero, neg_zero) = (0.0f32.to_bits(), (-0.0f32).to_bits());
    add("0.0".into(), grade(floats([1, zero, 2])));
    add("-0.0".into(), grade(floats([1, neg_zero, 2])));
    add("NaN payload 1".into(), grade(floats([1, 0x7fc0_0001, 2])));
    add("NaN payload 2".into(), grade(floats([1, 0x7fc0_0002, 2])));
    add("Vector of 3, 4, 5".into(), grade(floats([3, 4, 5])));
    add(
        "IntVector, same bits".into(),
        grade(Dataset::IntVector(vec![3, 4, 5])),
    );
}
