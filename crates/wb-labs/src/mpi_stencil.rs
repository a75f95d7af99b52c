//! Multi-GPU Stencil with MPI — the capstone PUMPS lab.
//!
//! Two ranks, each with its own simulated GPU, split a vector in half,
//! exchange one-element halos over the MPI layer, run a 3-point
//! stencil on their half, and gather the result on rank 0.

use crate::common::{case, float_check, make_lab, skeleton_banner, LabScale};
use libwb::{gen, Dataset};
use wb_sandbox::SyscallWhitelist;
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// 3-point stencil coefficients.
pub const COEFFS: [f32; 3] = [0.25, 0.5, 0.25];

/// Reference solution (world size 2).
pub const SOLUTION: &str = r#"
__global__ void stencil3(float* in, float* out, int n) {
    // in has a halo cell on each side: in[1..n+1] are this rank's
    // elements, in[0] and in[n+1] are the halos.
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        out[i] = 0.25 * in[i] + 0.5 * in[i + 1] + 0.25 * in[i + 2];
    }
}

int main() {
    int rank = wbMPI_rank();
    int n;
    float* hostFull = wbImportVector(0, &n);
    int half = n / 2;
    int mine = (rank == 0) ? half : (n - half);
    int offset = (rank == 0) ? 0 : half;

    // Local buffer with two halo cells.
    float* hostLocal = (float*) malloc((mine + 2) * sizeof(float));
    for (int i = 0; i < mine; i++) { hostLocal[i + 1] = hostFull[offset + i]; }

    // Boundary halos clamp to the edge value; interior halos are
    // exchanged with the neighbor rank.
    float* sendBuf = (float*) malloc(sizeof(float));
    float* recvBuf = (float*) malloc(sizeof(float));
    if (rank == 0) {
        hostLocal[0] = hostFull[0];
        sendBuf[0] = hostLocal[mine];        // my last element
        wbMPI_sendFloat(1, sendBuf, 1);
        wbMPI_recvFloat(1, recvBuf, 1);
        hostLocal[mine + 1] = recvBuf[0];
    } else {
        hostLocal[mine + 1] = hostFull[n - 1];
        wbMPI_recvFloat(0, recvBuf, 1);
        hostLocal[0] = recvBuf[0];
        sendBuf[0] = hostLocal[1];           // my first element
        wbMPI_sendFloat(0, sendBuf, 1);
    }

    float* dIn; float* dOut;
    cudaMalloc(&dIn, (mine + 2) * sizeof(float));
    cudaMalloc(&dOut, mine * sizeof(float));
    cudaMemcpy(dIn, hostLocal, (mine + 2) * sizeof(float), cudaMemcpyHostToDevice);

    stencil3<<<(mine + 127) / 128, 128>>>(dIn, dOut, mine);

    float* hostOut = (float*) malloc(mine * sizeof(float));
    cudaMemcpy(hostOut, dOut, mine * sizeof(float), cudaMemcpyDeviceToHost);

    // Gather on rank 0 and submit.
    if (rank == 1) {
        wbMPI_sendFloat(0, hostOut, mine);
    } else {
        float* hostAll = (float*) malloc(n * sizeof(float));
        for (int i = 0; i < mine; i++) { hostAll[i] = hostOut[i]; }
        float* theirs = (float*) malloc((n - half) * sizeof(float));
        wbMPI_recvFloat(1, theirs, n - half);
        for (int i = 0; i < n - half; i++) { hostAll[half + i] = theirs[i]; }
        wbSolution(hostAll, n);
    }
    wbMPI_barrier();
    return 0;
}
"#;

/// CPU golden model: 3-point stencil with clamped edges over the full
/// vector (what the two ranks jointly compute).
pub fn golden(input: &[f32]) -> Vec<f32> {
    let n = input.len();
    (0..n)
        .map(|i| {
            let left = input[i.saturating_sub(1)];
            let right = input[(i + 1).min(n - 1)];
            COEFFS[0] * left + COEFFS[1] * input[i] + COEFFS[2] * right
        })
        .collect()
}

/// Generate dataset cases (even and odd lengths, so the uneven split
/// path is exercised).
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let sizes = match scale {
        LabScale::Small => vec![8usize, 31],
        LabScale::Full => vec![4_096usize, 10_001],
    };
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let input = gen::random_vector(n, 0xC10 + i as u64);
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
    let mut spec = LabSpec::cuda_test("mpi-stencil");
    spec.check = float_check();
    spec.whitelist = SyscallWhitelist::mpi_profile();
    spec.limits.world_size = 2;
    spec.tags = ["mpi".to_string(), "multi-gpu".to_string()]
        .into_iter()
        .collect();
    spec.toolchain = "mpi".to_string();
    make_lab(
        "mpi-stencil",
        "Multi-GPU Stencil with MPI",
        DESCRIPTION,
        &format!(
            "{}__global__ void stencil3(float* in, float* out, int n) {{\n    // in[0] and in[n+1] are halo cells\n}}\n\nint main() {{\n    int rank = wbMPI_rank();\n    // TODO: split, exchange halos, compute, gather on rank 0\n    return 0;\n}}\n",
            skeleton_banner("Multi-GPU Stencil with MPI")
        ),
        datasets(scale),
        vec![
            "Why must the halo exchange happen before the kernel launch?",
            "What deadlock exists if both ranks recv before sending?",
        ],
        spec,
        Rubric {
            compile_points: 10.0,
            dataset_points: 80.0,
            question_points: 10.0,
            keyword_points: vec![],
        },
    )
}

const DESCRIPTION: &str = "# Multi-GPU Stencil with MPI\n\nTwo ranks, two GPUs: split the vector, \
exchange one-element halos with `wbMPI_sendFloat`/`wbMPI_recvFloat`, run the 3-point stencil \
`[0.25, 0.5, 0.25]` on your half, and gather the result on rank 0. Edges clamp.\n\nThis lab is \
tagged `mpi` + `multi-gpu`: in WebGPU 2.0 only workers advertising those capabilities accept it.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn golden_constant_is_fixed_point() {
        let out = golden(&[5.0; 9]);
        assert!(out.iter().all(|&x| (x - 5.0).abs() < 1e-6));
    }

    #[test]
    fn lab_is_tagged_for_capable_workers() {
        let lab = definition(LabScale::Small);
        assert!(lab.spec.tags.contains("mpi"));
        assert!(lab.spec.tags.contains("multi-gpu"));
        assert_eq!(lab.spec.limits.world_size, 2);
    }

    #[test]
    fn cuda_whitelist_kills_the_mpi_solution() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        // Running the MPI lab under the plain CUDA whitelist dies with
        // a security diagnostic — the per-lab whitelist is real.
        let mut lab = definition(LabScale::Small);
        lab.spec.whitelist = SyscallWhitelist::cuda_default();
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: SOLUTION.to_string(),
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::RunDataset(0),
        };
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        let err = out.datasets[0].error.as_ref().expect("must be denied");
        assert_eq!(err.phase, minicuda::Phase::Security);
    }
}
