//! SPMV — sparse matrix formats and their performance effects.
//!
//! CSR sparse matrix–vector multiply, one row per thread (the course's
//! first sparse kernel; the load imbalance across rows is what the
//! performance questions probe).

use crate::common::{case, make_lab, skeleton_banner, LabScale};
use libwb::{gen, CheckPolicy, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Reference solution.
pub const SOLUTION: &str = r#"
__global__ void spmvCsr(int* rowPtr, int* colIdx, float* values, float* x, float* y, int numRows) {
    int row = blockIdx.x * blockDim.x + threadIdx.x;
    if (row < numRows) {
        float acc = 0.0;
        int start = rowPtr[row];
        int end = rowPtr[row + 1];
        for (int k = start; k < end; k++) {
            acc += values[k] * x[colIdx[k]];
        }
        y[row] = acc;
    }
}

int main() {
    int numRows; int nnz; int nnz2; int n;
    int* hostRowPtr = wbImportCsrRowPtr(0, &numRows);
    int* hostColIdx = wbImportCsrColIdx(0, &nnz);
    float* hostValues = wbImportCsrValues(0, &nnz2);
    float* hostX = wbImportVector(1, &n);
    float* hostY = (float*) malloc(numRows * sizeof(float));

    int* dRowPtr; int* dColIdx; float* dValues; float* dX; float* dY;
    cudaMalloc(&dRowPtr, (numRows + 1) * sizeof(int));
    cudaMalloc(&dColIdx, nnz * sizeof(int));
    cudaMalloc(&dValues, nnz * sizeof(float));
    cudaMalloc(&dX, n * sizeof(float));
    cudaMalloc(&dY, numRows * sizeof(float));
    cudaMemcpy(dRowPtr, hostRowPtr, (numRows + 1) * sizeof(int), cudaMemcpyHostToDevice);
    cudaMemcpy(dColIdx, hostColIdx, nnz * sizeof(int), cudaMemcpyHostToDevice);
    cudaMemcpy(dValues, hostValues, nnz * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(dX, hostX, n * sizeof(float), cudaMemcpyHostToDevice);

    spmvCsr<<<(numRows + 127) / 128, 128>>>(dRowPtr, dColIdx, dValues, dX, dY, numRows);

    cudaMemcpy(hostY, dY, numRows * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolution(hostY, numRows);
    return 0;
}
"#;

/// Generate dataset cases (golden model is `CsrMatrix::spmv`).
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let shapes = match scale {
        LabScale::Small => vec![(5usize, 7usize, 0.4f64), (23, 23, 0.15)],
        LabScale::Full => vec![(256, 256, 0.05), (1000, 800, 0.01)],
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (rows, cols, density))| {
            let m = gen::random_sparse(rows, cols, density, 0x910 + i as u64);
            let x = gen::random_vector(cols, 0x920 + i as u64);
            let y = m.spmv(&x).expect("shapes match");
            case(
                &format!("d{i}"),
                vec![Dataset::Sparse(m), Dataset::Vector(x)],
                Dataset::Vector(y),
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("spmv");
    spec.check = CheckPolicy {
        abs_tol: 1e-3,
        rel_tol: 1e-3,
        max_reported: 10,
    };
    make_lab(
        "spmv",
        "SPMV",
        DESCRIPTION,
        &format!(
            "{}__global__ void spmvCsr(int* rowPtr, int* colIdx, float* values, float* x, float* y, int numRows) {{\n    // TODO: one row per thread\n}}\n\nint main() {{\n    // Import the CSR arrays with wbImportCsrRowPtr / ColIdx / Values.\n    return 0;\n}}\n",
            skeleton_banner("SPMV")
        ),
        datasets(scale),
        vec![
            "Why does one-row-per-thread underutilize warps on skewed matrices?",
            "What format change (ELL, JDS) would improve coalescing?",
        ],
        spec,
        Rubric::default(),
    )
}

const DESCRIPTION: &str = "# SPMV\n\nMultiply a CSR sparse matrix by a dense vector: \
`y[row] = Σ values[k] * x[colIdx[k]]` over the row's extent in `rowPtr`.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn off_by_one_row_extent_fails() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        let buggy = SOLUTION.replace("int end = rowPtr[row + 1];", "int end = rowPtr[row];");
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
        assert_eq!(out.passed_count(), 0, "all rows come out zero");
    }
}
