//! Instructor workflow (§IV-E): author a brand-new lab from scratch —
//! markdown description, skeleton, generated datasets, rubric, and
//! sandbox policy — deploy it, and validate it with a reference
//! solution, exactly the loop a TA runs before a lab goes live.
//!
//! ```sh
//! cargo run --example instructor_lab_authoring
//! ```

use libwb::{gen, CheckPolicy, Dataset};
use wb_sandbox::{Blacklist, ResourceLimits, SyscallWhitelist};
use wb_server::{DeviceKind, LabDefinition, Rubric, SubmitRequest, WbError, WebGpuServer};
use wb_worker::{DatasetCase, LabSpec};
use webgpu::ClusterBuilder;

/// The new lab: SAXPY (`y = a*x + y`).
fn author_saxpy() -> LabDefinition {
    // 1. Datasets: generate inputs and golden outputs.
    let mut datasets = Vec::new();
    for (k, n) in [33usize, 500].into_iter().enumerate() {
        let a = 2.5f32;
        let x = gen::random_vector(n, 900 + k as u64);
        let y = gen::random_vector(n, 910 + k as u64);
        let expected: Vec<f32> = x.iter().zip(&y).map(|(xi, yi)| a * xi + yi).collect();
        datasets.push(DatasetCase {
            name: format!("d{k}"),
            inputs: vec![Dataset::Scalar(a), Dataset::Vector(x), Dataset::Vector(y)].into(),
            expected: Dataset::Vector(expected).into(),
        });
    }

    // 2. Configuration: sandbox, limits, grading.
    LabDefinition {
        id: "saxpy".to_string(),
        title: "SAXPY".to_string(),
        description_md: "# SAXPY\n\nCompute `y = a * x + y` on the GPU.\n\n- `a` arrives via `wbImportScalar(0)`\n- vectors via `wbImportVector(1, &n)` and `wbImportVector(2, &n)`\n".to_string(),
        skeleton: "// SAXPY\n__global__ void saxpy(float a, float* x, float* y, int n) {\n    // TODO\n}\n\nint main() {\n    return 0;\n}\n".to_string(),
        datasets,
        questions: vec!["What is the arithmetic intensity of SAXPY?".to_string()],
        spec: LabSpec {
            lab_id: "saxpy".to_string(),
            course: "hpp".to_string(),
            dialect: minicuda::Dialect::Cuda,
            blacklist: Blacklist::standard(),
            whitelist: SyscallWhitelist::cuda_default(),
            limits: ResourceLimits::default(),
            check: CheckPolicy::default(),
            tags: Default::default(),
            toolchain: "cuda".to_string(),
            opt_level: minicuda::OptLevel::default(),
            analysis: minicuda::AnalysisPolicy::default(),
        },
        rubric: Rubric {
            compile_points: 10.0,
            dataset_points: 80.0,
            question_points: 10.0,
            keyword_points: vec![],
        },
        deadline_ms: 7 * 24 * 3600 * 1000,
    }
}

const REFERENCE: &str = r#"
__global__ void saxpy(float a, float* x, float* y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * x[i] + y[i]; }
}

int main() {
    int n;
    float a = wbImportScalar(0);
    float* hostX = wbImportVector(1, &n);
    float* hostY = wbImportVector(2, &n);

    float* dX; float* dY;
    cudaMalloc(&dX, n * sizeof(float));
    cudaMalloc(&dY, n * sizeof(float));
    cudaMemcpy(dX, hostX, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(dY, hostY, n * sizeof(float), cudaMemcpyHostToDevice);

    saxpy<<<(n + 127) / 128, 128>>>(a, dX, dY, n);

    cudaMemcpy(hostY, dY, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolution(hostY, n);
    return 0;
}
"#;

fn main() {
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::default())
        .fleet(1)
        .build_v1();
    let srv = WebGpuServer::new(Box::new(cluster));
    srv.register_instructor("ta", "pw").unwrap();
    let ta = srv.login("ta", "pw", DeviceKind::Desktop, 0).unwrap();

    // Author and deploy.
    let lab = author_saxpy();
    println!(
        "authored lab `{}` with {} datasets",
        lab.id,
        lab.datasets.len()
    );
    srv.deploy_lab(ta, lab).unwrap();
    println!("deployed labs: {:?}", srv.lab_ids());

    // Validate with the reference solution before opening to students
    // (the TA submits as a scratch account).
    srv.register_student("ta-scratch", "pw").unwrap();
    let scratch = srv
        .login("ta-scratch", "pw", DeviceKind::Desktop, 1)
        .unwrap();
    srv.save_code(scratch, "saxpy", REFERENCE, 1_000).unwrap();
    let sub = srv
        .submit(&SubmitRequest::full_grade(scratch, "saxpy").at(2_000))
        .unwrap();
    println!(
        "reference run: compiled={} datasets {}/{} score={:.1}",
        sub.compiled,
        sub.passed,
        sub.total,
        sub.score.unwrap_or(0.0)
    );
    assert_eq!(sub.passed, sub.total, "reference must be perfect");

    // And prove the sandbox config bites: a hostile submission dies.
    srv.save_code(scratch, "saxpy", "int main() { asm(\"x\"); }", 40_000)
        .unwrap();
    let err = srv
        .submit(&SubmitRequest::compile_only(scratch, "saxpy").at(41_000))
        .unwrap_err();
    let WbError::CompileError { report } = &err else {
        panic!("blacklisted source must be a typed compile error, got {err:?}");
    };
    println!(
        "hostile submission rejected: {:?}",
        report.lines().next().unwrap_or("")
    );
    println!("lab `saxpy` is ready for students.");
}
