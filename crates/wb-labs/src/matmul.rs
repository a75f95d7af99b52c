//! Basic Matrix Multiplication — boundary checking and 2-D indexing.

use crate::common::{case, float_check, make_lab, skeleton_banner, LabScale};
use libwb::{gen, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Reference solution: one thread per output element.
pub const SOLUTION: &str = r#"
__global__ void matMul(float* A, float* B, float* C, int m, int k, int n) {
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    if (row < m && col < n) {
        float acc = 0.0;
        for (int t = 0; t < k; t++) {
            acc += A[row * k + t] * B[t * n + col];
        }
        C[row * n + col] = acc;
    }
}

int main() {
    int m; int kDim; int k2; int n;
    float* hostA = wbImportMatrix(0, &m, &kDim);
    float* hostB = wbImportMatrix(1, &k2, &n);
    float* hostC = (float*) malloc(m * n * sizeof(float));

    float* dA; float* dB; float* dC;
    cudaMalloc(&dA, m * kDim * sizeof(float));
    cudaMalloc(&dB, kDim * n * sizeof(float));
    cudaMalloc(&dC, m * n * sizeof(float));
    cudaMemcpy(dA, hostA, m * kDim * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(dB, hostB, kDim * n * sizeof(float), cudaMemcpyHostToDevice);

    matMul<<<dim3((n + 15) / 16, (m + 15) / 16), dim3(16, 16)>>>(dA, dB, dC, m, kDim, n);

    cudaMemcpy(hostC, dC, m * n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolutionMatrix(hostC, m, n);
    return 0;
}
"#;

/// CPU golden model shared with the tiled and SGEMM labs.
pub fn golden(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for t in 0..k {
            let av = a[i * k + t];
            for j in 0..n {
                c[i * n + j] += av * b[t * n + j];
            }
        }
    }
    c
}

/// Dataset cases: rectangular shapes that are not tile multiples.
pub fn datasets(scale: LabScale, seed: u64) -> Vec<DatasetCase> {
    let shapes: Vec<(usize, usize, usize)> = match scale {
        LabScale::Small => vec![(3, 4, 5), (17, 9, 11)],
        LabScale::Full => vec![(16, 16, 16), (65, 33, 17), (128, 100, 96)],
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(idx, (m, k, n))| {
            let a = gen::random_matrix(m, k, seed + idx as u64 * 2);
            let b = gen::random_matrix(k, n, seed + idx as u64 * 2 + 1);
            let c = golden(m, k, n, &a, &b);
            case(
                &format!("d{idx}"),
                vec![
                    Dataset::Matrix {
                        rows: m,
                        cols: k,
                        data: a,
                    },
                    Dataset::Matrix {
                        rows: k,
                        cols: n,
                        data: b,
                    },
                ],
                Dataset::Matrix {
                    rows: m,
                    cols: n,
                    data: c,
                },
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("matmul");
    spec.check = float_check();
    make_lab(
        "matmul",
        "Basic Matrix Multiplication",
        DESCRIPTION,
        &format!(
            "{}__global__ void matMul(float* A, float* B, float* C, int m, int k, int n) {{\n    // TODO: one thread per output element; check both boundaries\n}}\n\nint main() {{\n    int m; int k; int k2; int n;\n    float* hostA = wbImportMatrix(0, &m, &k);\n    float* hostB = wbImportMatrix(1, &k2, &n);\n    float* hostC = (float*) malloc(m * n * sizeof(float));\n    // TODO\n    wbSolutionMatrix(hostC, m, n);\n    return 0;\n}}\n",
            skeleton_banner("Basic Matrix Multiplication")
        ),
        datasets(scale, 0x1234),
        vec![
            "What is the arithmetic intensity (flops per byte) of your kernel?",
            "Which matrix is accessed with a stride, A or B?",
        ],
        spec,
        Rubric::default(),
    )
}

const DESCRIPTION: &str =
    "# Basic Matrix Multiplication\n\nCompute `C = A × B` with one thread per \
output element.\n\n- `A` is `m × k`, `B` is `k × n`, `C` is `m × n`, all row-major\n- launch a 2-D \
grid of 2-D blocks\n- **check both the row and column boundary** — the datasets are not multiples \
of the block size\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn golden_model_small_case() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let c = golden(2, 2, 2, &[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn swapped_index_bug_caught() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        // The classic bug: C[col * n + row].
        let buggy = SOLUTION.replace("C[row * n + col] = acc;", "C[col * m + row] = acc;");
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: buggy,
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::FullGrade,
        };
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        assert_eq!(out.passed_count(), 0, "rectangular datasets expose it");
    }
}
