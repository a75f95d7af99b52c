//! Stencil — register tiling and thread coarsening.
//!
//! A 1-D 5-point stencil with clamped boundaries. The reference
//! solution coarsens: each thread produces `COARSEN` outputs, carrying
//! the window in registers, which the cost model rewards with fewer
//! global transactions than the naive one-output-per-thread kernel.

use crate::common::{case, float_check, make_lab, skeleton_banner, LabScale};
use libwb::{gen, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Stencil coefficients (symmetric 5-point).
pub const COEFFS: [f32; 5] = [0.1, 0.2, 0.4, 0.2, 0.1];

/// Reference solution with 4× thread coarsening.
pub const SOLUTION: &str = r#"
#define COARSEN 4

__global__ void stencil(float* in, float* out, int n) {
    int base = (blockIdx.x * blockDim.x + threadIdx.x) * COARSEN;
    for (int k = 0; k < COARSEN; k++) {
        int i = base + k;
        if (i < n) {
            // Clamped neighbor loads kept in registers.
            int im2 = max(i - 2, 0);
            int im1 = max(i - 1, 0);
            int ip1 = min(i + 1, n - 1);
            int ip2 = min(i + 2, n - 1);
            out[i] = 0.1 * in[im2] + 0.2 * in[im1] + 0.4 * in[i]
                   + 0.2 * in[ip1] + 0.1 * in[ip2];
        }
    }
}

int main() {
    int n;
    float* hostIn = wbImportVector(0, &n);
    float* hostOut = (float*) malloc(n * sizeof(float));

    float* dIn; float* dOut;
    cudaMalloc(&dIn, n * sizeof(float));
    cudaMalloc(&dOut, n * sizeof(float));
    cudaMemcpy(dIn, hostIn, n * sizeof(float), cudaMemcpyHostToDevice);

    int outputsPerBlock = 128 * COARSEN;
    stencil<<<(n + outputsPerBlock - 1) / outputsPerBlock, 128>>>(dIn, dOut, n);

    cudaMemcpy(hostOut, dOut, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolution(hostOut, n);
    return 0;
}
"#;

/// CPU golden model with clamped boundaries.
pub fn golden(input: &[f32]) -> Vec<f32> {
    let n = input.len();
    (0..n)
        .map(|i| {
            let at = |j: isize| -> f32 {
                let k = j.clamp(0, n as isize - 1) as usize;
                input[k]
            };
            COEFFS[0] * at(i as isize - 2)
                + COEFFS[1] * at(i as isize - 1)
                + COEFFS[2] * at(i as isize)
                + COEFFS[3] * at(i as isize + 1)
                + COEFFS[4] * at(i as isize + 2)
        })
        .collect()
}

/// Generate dataset cases.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let sizes = match scale {
        LabScale::Small => vec![1usize, 9, 517],
        LabScale::Full => vec![1_000usize, 65_537],
    };
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let input = gen::random_vector(n, 0x610 + i as u64);
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
    let mut spec = LabSpec::cuda_test("stencil");
    spec.check = float_check();
    make_lab(
        "stencil",
        "Stencil",
        DESCRIPTION,
        &format!(
            "{}__global__ void stencil(float* in, float* out, int n) {{\n    // TODO: 5-point stencil, clamp at the boundaries,\n    // coarsen so each thread produces several outputs\n}}\n\nint main() {{\n    // TODO\n    return 0;\n}}\n",
            skeleton_banner("Stencil")
        ),
        datasets(scale),
        vec![
            "How does thread coarsening reduce redundant loads here?",
            "What limits how far you can coarsen?",
        ],
        spec,
        Rubric::default(),
    )
}

const DESCRIPTION: &str = "# Stencil\n\nApply the symmetric 5-point stencil \
`[0.1, 0.2, 0.4, 0.2, 0.1]` to a vector. Out-of-range neighbors clamp to the edge value.\n\n\
Coarsen your threads: one thread, several adjacent outputs, neighbors carried in registers.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn golden_constant_input_is_fixed_point() {
        // Coefficients sum to 1, so a constant vector is unchanged.
        let out = golden(&[2.0; 10]);
        assert!(out.iter().all(|&x| (x - 2.0).abs() < 1e-6));
    }

    #[test]
    fn golden_single_element() {
        let out = golden(&[3.0]);
        assert!((out[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn unclamped_boundary_fails() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        let buggy = SOLUTION
            .replace("int im2 = max(i - 2, 0);", "int im2 = i - 2;")
            .replace("int im1 = max(i - 1, 0);", "int im1 = i - 1;");
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: buggy,
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::FullGrade,
        };
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        // Negative indexing is a reported runtime error, not silence.
        assert!(out.datasets.iter().any(|d| d.error.is_some()));
    }
}
