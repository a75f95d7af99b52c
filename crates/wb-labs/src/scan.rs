//! Reduction and Scan — floating point, work efficiency, tree-shaped
//! algorithms.
//!
//! The graded artifact is an **inclusive prefix sum**: a
//! work-efficient Blelloch scan within each block, a scan of the block
//! sums, and a uniform add — the full three-kernel structure the
//! course teaches.

use crate::common::{case, make_lab, skeleton_banner, LabScale};
use libwb::{gen, CheckPolicy, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Reference solution (block size 64, handles any input length).
pub const SOLUTION: &str = r#"
#define BLOCK 64

__global__ void scanBlock(float* in, float* out, float* blockSums, int n) {
    __shared__ float buf[128];
    int t = threadIdx.x;
    int start = blockIdx.x * BLOCK * 2;
    buf[t] = (start + t < n) ? in[start + t] : 0.0;
    buf[t + BLOCK] = (start + t + BLOCK < n) ? in[start + t + BLOCK] : 0.0;
    __syncthreads();

    // Up-sweep (reduce).
    for (int stride = 1; stride <= BLOCK; stride = stride * 2) {
        int idx = (t + 1) * stride * 2 - 1;
        if (idx < 2 * BLOCK) { buf[idx] += buf[idx - stride]; }
        __syncthreads();
    }
    // Down-sweep.
    for (int stride = BLOCK / 2; stride > 0; stride = stride / 2) {
        int idx = (t + 1) * stride * 2 - 1;
        if (idx + stride < 2 * BLOCK) { buf[idx + stride] += buf[idx]; }
        __syncthreads();
    }

    if (start + t < n) { out[start + t] = buf[t]; }
    if (start + t + BLOCK < n) { out[start + t + BLOCK] = buf[t + BLOCK]; }
    if (t == 0) { blockSums[blockIdx.x] = buf[2 * BLOCK - 1]; }
}

__global__ void addOffsets(float* out, float* scannedSums, int n) {
    int start = blockIdx.x * BLOCK * 2;
    int t = threadIdx.x;
    if (blockIdx.x > 0) {
        float offset = scannedSums[blockIdx.x - 1];
        if (start + t < n) { out[start + t] += offset; }
        if (start + t + BLOCK < n) { out[start + t + BLOCK] += offset; }
    }
}

int main() {
    int n;
    float* hostIn = wbImportVector(0, &n);
    float* hostOut = (float*) malloc(n * sizeof(float));

    int blocks = (n + 2 * BLOCK - 1) / (2 * BLOCK);
    float* dIn; float* dOut; float* dSums;
    cudaMalloc(&dIn, n * sizeof(float));
    cudaMalloc(&dOut, n * sizeof(float));
    cudaMalloc(&dSums, blocks * sizeof(float));
    cudaMemcpy(dIn, hostIn, n * sizeof(float), cudaMemcpyHostToDevice);

    scanBlock<<<blocks, BLOCK>>>(dIn, dOut, dSums, n);

    // Scan the per-block sums on the host (blocks is small), then add.
    float* hostSums = (float*) malloc(blocks * sizeof(float));
    cudaMemcpy(hostSums, dSums, blocks * sizeof(float), cudaMemcpyDeviceToHost);
    for (int i = 1; i < blocks; i++) { hostSums[i] += hostSums[i - 1]; }
    cudaMemcpy(dSums, hostSums, blocks * sizeof(float), cudaMemcpyHostToDevice);

    addOffsets<<<blocks, BLOCK>>>(dOut, dSums, n);

    cudaMemcpy(hostOut, dOut, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolution(hostOut, n);
    return 0;
}
"#;

/// CPU golden model: inclusive prefix sum.
pub fn golden(input: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(input.len());
    let mut acc = 0.0f32;
    for &x in input {
        acc += x;
        out.push(acc);
    }
    out
}

/// Dataset cases: lengths crossing none/one/many block boundaries.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let sizes = match scale {
        LabScale::Small => vec![1usize, 128, 300],
        LabScale::Full => vec![1usize, 128, 1_000, 65_536],
    };
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let input = gen::random_positive_vector(n, 0xE0 + i as u64);
            let expected = golden(&input);
            case(
                &format!("d{i}"),
                vec![Dataset::Vector(input)],
                Dataset::Vector(expected),
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("scan");
    // Scans accumulate rounding error with length; loosen the
    // relative tolerance accordingly.
    spec.check = CheckPolicy {
        abs_tol: 1e-2,
        rel_tol: 1e-3,
        max_reported: 10,
    };
    make_lab(
        "scan",
        "Reduction and Scan",
        DESCRIPTION,
        &format!(
            "{}#define BLOCK 64\n\n__global__ void scanBlock(float* in, float* out, float* blockSums, int n) {{\n    __shared__ float buf[128];\n    // TODO: load two elements per thread, up-sweep, down-sweep\n}}\n\nint main() {{\n    // TODO: scan blocks, scan block sums, add offsets\n    return 0;\n}}\n",
            skeleton_banner("Reduction and Scan")
        ),
        datasets(scale),
        vec![
            "What is the work complexity of the Blelloch scan vs the naive scan?",
            "Why are the datasets strictly positive?",
        ],
        spec,
        Rubric {
            compile_points: 10.0,
            dataset_points: 75.0,
            question_points: 10.0,
            keyword_points: vec![("__syncthreads".to_string(), 5.0)],
        },
    )
}

const DESCRIPTION: &str = "# Reduction and Scan\n\nCompute the **inclusive prefix sum** of a \
vector using the work-efficient tree-shaped scan:\n\n1. each block scans `2 * BLOCK` elements in \
shared memory (up-sweep, down-sweep)\n2. the per-block totals are scanned\n3. each block adds its \
predecessor's total\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn golden_model_simple() {
        assert_eq!(golden(&[1.0, 2.0, 3.0]), vec![1.0, 3.0, 6.0]);
        assert_eq!(golden(&[]), Vec::<f32>::new());
    }

    #[test]
    fn missing_offset_add_fails_multi_block() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        let buggy = SOLUTION.replace("addOffsets<<<blocks, BLOCK>>>(dOut, dSums, n);", "");
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: buggy,
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::FullGrade,
        };
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        assert!(out.compiled());
        // Single-block datasets still pass; the 300-element one fails.
        assert!(out.passed_count() < out.datasets.len());
        assert!(out.passed_count() >= 1);
    }
}
