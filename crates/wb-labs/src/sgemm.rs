//! SGEMM — register tiling and thread coarsening on matrix multiply.
//!
//! ECE 598HK's heavier sibling of the tiled lab: each thread computes a
//! 2×1 register tile, halving the shared-memory reads per output.

use crate::common::{case, float_check, make_lab, skeleton_banner, LabScale};
use crate::matmul::golden;
use libwb::{gen, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Reference solution: 16×16 shared tiles, 2 rows per thread.
pub const SOLUTION: &str = r#"
#define TILE 16

__global__ void sgemm(float* A, float* B, float* C, int m, int k, int n) {
    __shared__ float tileA[2 * TILE][TILE + 1];
    __shared__ float tileB[TILE][TILE + 1];
    int ty = threadIdx.y;
    int tx = threadIdx.x;
    int row0 = blockIdx.y * 2 * TILE + ty;
    int row1 = row0 + TILE;
    int col = blockIdx.x * TILE + tx;
    float acc0 = 0.0;
    float acc1 = 0.0;
    int phases = (k + TILE - 1) / TILE;
    for (int p = 0; p < phases; p++) {
        int aCol = p * TILE + tx;
        int bRow = p * TILE + ty;
        tileA[ty][tx] = (row0 < m && aCol < k) ? A[row0 * k + aCol] : 0.0;
        tileA[ty + TILE][tx] = (row1 < m && aCol < k) ? A[row1 * k + aCol] : 0.0;
        tileB[ty][tx] = (bRow < k && col < n) ? B[bRow * n + col] : 0.0;
        __syncthreads();
        for (int t = 0; t < TILE; t++) {
            float b = tileB[t][tx];
            acc0 += tileA[ty][t] * b;
            acc1 += tileA[ty + TILE][t] * b;
        }
        __syncthreads();
    }
    if (col < n) {
        if (row0 < m) { C[row0 * n + col] = acc0; }
        if (row1 < m) { C[row1 * n + col] = acc1; }
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

    sgemm<<<dim3((n + TILE - 1) / TILE, (m + 2 * TILE - 1) / (2 * TILE)), dim3(TILE, TILE)>>>(dA, dB, dC, m, kDim, n);

    cudaMemcpy(hostC, dC, m * n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolutionMatrix(hostC, m, n);
    return 0;
}
"#;

/// Generate dataset cases: taller matrices so the 2-row coarsening has
/// work on both halves, including ragged shapes.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let shapes: Vec<(usize, usize, usize)> = match scale {
        LabScale::Small => vec![(33, 8, 9), (40, 16, 16)],
        LabScale::Full => vec![(128, 64, 64), (200, 96, 50)],
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (m, k, n))| {
            let a = gen::random_matrix(m, k, 0x810 + i as u64);
            let b = gen::random_matrix(k, n, 0x820 + i as u64);
            let c = golden(m, k, n, &a, &b);
            case(
                &format!("d{i}"),
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
    let mut spec = LabSpec::cuda_test("sgemm");
    spec.check = float_check();
    // SGEMM is the heavyweight lab; give it a bigger budget like the
    // real course did around deadlines.
    spec.limits = spec.limits.scaled(2.0);
    make_lab(
        "sgemm",
        "SGEMM",
        DESCRIPTION,
        &format!(
            "{}#define TILE 16\n\n__global__ void sgemm(float* A, float* B, float* C, int m, int k, int n) {{\n    // TODO: shared tiles + a register tile of 2 outputs per thread\n}}\n\nint main() {{\n    // TODO\n    return 0;\n}}\n",
            skeleton_banner("SGEMM")
        ),
        datasets(scale),
        vec![
            "How many outputs per thread does your kernel compute, and why stop there?",
            "Estimate the register pressure added by the coarsening.",
        ],
        spec,
        Rubric {
            compile_points: 10.0,
            dataset_points: 70.0,
            question_points: 10.0,
            keyword_points: vec![("__shared__".to_string(), 10.0)],
        },
    )
}

const DESCRIPTION: &str =
    "# SGEMM\n\nProduction-style matrix multiply: shared-memory tiles plus a \
**register tile** — each thread accumulates two output rows, reusing each loaded `B` element \
twice.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn coarsened_kernel_issues_fewer_instructions_than_tiled() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        // Same datasets through the tiled lab's kernel vs SGEMM: the
        // register-tiled kernel does the same flops with fewer shared
        // loads per output.
        // A shape whose row count is a multiple of 2*TILE, so the
        // coarsened grid really has half the blocks.
        let (m, k, n) = (64usize, 16usize, 16usize);
        let a = gen::random_matrix(m, k, 1);
        let b = gen::random_matrix(k, n, 2);
        let c = golden(m, k, n, &a, &b);
        let sets = vec![case(
            "bench",
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
        )];
        let spec = definition(LabScale::Small).spec;
        let run = |source: &str| {
            let req = JobRequest {
                job_id: 1,
                user: "t".into(),
                source: source.to_string(),
                spec: spec.clone(),
                datasets: sets.clone(),
                action: JobAction::RunDataset(0),
            };
            execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()))
        };
        let sgemm = run(SOLUTION);
        let tiled = run(crate::tiled_matmul::SOLUTION);
        assert!(sgemm.datasets[0].passed());
        assert!(tiled.datasets[0].passed());
        let s = &sgemm.datasets[0].cost;
        let t = &tiled.datasets[0].cost;
        assert!(
            s.shared_accesses < t.shared_accesses,
            "register tiling must cut shared traffic: sgemm {} vs tiled {}",
            s.shared_accesses,
            t.shared_accesses
        );
    }
}
