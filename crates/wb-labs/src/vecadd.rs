//! Vector Addition — the first real CUDA kernel (HPP MP1 / ECE 408).

use crate::common::{case, float_check, make_lab, skeleton_banner, LabScale};
use libwb::{gen, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Reference solution.
pub const SOLUTION: &str = r#"
__global__ void vecAdd(float* a, float* b, float* out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { out[i] = a[i] + b[i]; }
}

int main() {
    int n;
    wbTime_start(Generic, "Importing data");
    float* hostA = wbImportVector(0, &n);
    float* hostB = wbImportVector(1, &n);
    float* hostC = (float*) malloc(n * sizeof(float));
    wbTime_stop(Generic, "Importing data");

    float* dA; float* dB; float* dC;
    wbTime_start(GPU, "Allocating GPU memory");
    cudaMalloc(&dA, n * sizeof(float));
    cudaMalloc(&dB, n * sizeof(float));
    cudaMalloc(&dC, n * sizeof(float));
    wbTime_stop(GPU, "Allocating GPU memory");

    wbTime_start(Copy, "Copying input to device");
    cudaMemcpy(dA, hostA, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(dB, hostB, n * sizeof(float), cudaMemcpyHostToDevice);
    wbTime_stop(Copy, "Copying input to device");

    wbTime_start(Compute, "Kernel");
    vecAdd<<<(n + 255) / 256, 256>>>(dA, dB, dC, n);
    cudaDeviceSynchronize();
    wbTime_stop(Compute, "Kernel");

    wbTime_start(Copy, "Copying output to host");
    cudaMemcpy(hostC, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbTime_stop(Copy, "Copying output to host");

    wbSolution(hostC, n);

    cudaFree(dA); cudaFree(dB); cudaFree(dC);
    free(hostA); free(hostB); free(hostC);
    return 0;
}
"#;

/// Generate the dataset cases for a scale.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    // Sizes deliberately include a non-multiple of the block size so
    // the boundary check matters, plus a single-element edge case.
    let sizes = match scale {
        LabScale::Small => vec![1usize, 37, 130],
        LabScale::Full => vec![1usize, 997, 16_384, 100_000],
    };
    sizes
        .into_iter()
        .enumerate()
        .map(|(k, n)| {
            let a = gen::random_vector(n, 0xA0 + k as u64);
            let b = gen::random_vector(n, 0xB0 + k as u64);
            let expected: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            case(
                &format!("d{k}"),
                vec![Dataset::Vector(a), Dataset::Vector(b)],
                Dataset::Vector(expected),
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("vecadd");
    spec.check = float_check();
    make_lab(
        "vecadd",
        "Vector Addition",
        DESCRIPTION,
        &format!(
            "{}__global__ void vecAdd(float* a, float* b, float* out, int n) {{\n    // TODO: compute this thread's global index and guard the boundary\n}}\n\nint main() {{\n    int n;\n    float* hostA = wbImportVector(0, &n);\n    float* hostB = wbImportVector(1, &n);\n    float* hostC = (float*) malloc(n * sizeof(float));\n    // TODO: allocate device memory, copy, launch, copy back\n    wbSolution(hostC, n);\n    return 0;\n}}\n",
            skeleton_banner("Vector Addition")
        ),
        datasets(scale),
        vec![
            "How many floating point operations does your kernel perform?",
            "How many global memory reads does each thread perform?",
        ],
        spec,
        Rubric::default(),
    )
}

const DESCRIPTION: &str = "# Vector Addition\n\nImplement element-wise vector addition on the GPU.\n\n\
## Objective\n\n- allocate device memory with `cudaMalloc`\n- copy host memory with `cudaMemcpy`\n- \
compute a global thread index from `blockIdx`, `blockDim`, `threadIdx`\n- guard against \
out-of-bounds threads\n\n```c\nint i = blockIdx.x * blockDim.x + threadIdx.x;\n```\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn missing_boundary_check_fails_non_multiple_size() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        let buggy = SOLUTION.replace(
            "if (i < n) { out[i] = a[i] + b[i]; }",
            "out[i] = a[i] + b[i];",
        );
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: buggy,
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::FullGrade,
        };
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        // The unguarded kernel writes out of bounds on sizes that are
        // not multiples of the block size and the worker reports it.
        assert!(out.datasets.iter().any(|d| d.error.is_some()));
    }

    #[test]
    fn datasets_have_edge_sizes() {
        let cases = datasets(LabScale::Small);
        assert_eq!(cases[0].expected.len(), 1, "single-element edge case");
        assert!(cases.iter().any(|c| c.expected.len() % 256 != 0));
    }

    #[test]
    fn cloned_spec_shares_its_tables() {
        // The tables, their digests and the whitelist's profile name
        // sit behind the one `Arc` per table that a clone shares: the
        // clone's handles are a pointer wide (plus the scan mode) and
        // point at the original's strings.
        use minicuda::HostcallPolicy;
        use std::mem::size_of;
        let spec = definition(LabScale::Small).spec;
        let copy = spec.clone();
        assert_eq!(
            size_of::<wb_sandbox::SyscallWhitelist>(),
            size_of::<usize>()
        );
        assert_eq!(size_of::<wb_sandbox::Blacklist>(), 2 * size_of::<usize>());
        assert!(std::ptr::eq(
            spec.blacklist.patterns(),
            copy.blacklist.patterns()
        ));
        assert!(std::ptr::eq(spec.whitelist.name(), copy.whitelist.name()));
        let first_call = |w: &wb_sandbox::SyscallWhitelist| w.calls().next().map(str::as_ptr);
        assert_eq!(first_call(&spec.whitelist), first_call(&copy.whitelist));
        assert_eq!(spec.blacklist.digest(), copy.blacklist.digest());
        assert_eq!(spec.whitelist.digest(), copy.whitelist.digest());
    }

    #[test]
    fn cache_keys_are_pinned() {
        // Cloned specs share their blacklist and whitelist tables; the
        // keys fold in the tables' content digests, so sharing moves no
        // key.
        use wb_cache::{CompileKey, GradeKey};
        let lab = definition(LabScale::Small);
        let spec = lab.spec.clone();
        let ckey = CompileKey::derive(
            SOLUTION,
            spec.dialect,
            spec.opt_level,
            spec.analysis.enabled(),
            &spec.toolchain,
            "webgpu/cuda",
            &spec.blacklist,
            &spec.limits,
        );
        let case = &lab.datasets[0];
        let gkey = GradeKey::derive(
            ckey,
            &case.name,
            &case.inputs,
            &case.expected,
            &minicuda::DeviceConfig::test_small(),
            &spec.whitelist,
            &spec.check,
            &spec.limits,
        );
        assert_eq!(ckey.0.to_string(), "df14e18499d3ed76c36d21f61caf18f7");
        assert_eq!(gkey.0.to_string(), "2c8cfc7f8451fa7153b28207373b94b5");
    }
}
