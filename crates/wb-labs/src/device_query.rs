//! Device Query — the demo lab that introduces WebGPU to students.
//!
//! Used by every course in Table II. The program queries the device
//! count, logs it, and submits it as the solution, proving the student
//! can edit, compile, run, and submit.

use crate::common::{case, exact_check, make_lab, skeleton_banner, LabScale};
use libwb::Dataset;
use wb_server::{LabDefinition, Rubric};
use wb_worker::LabSpec;

/// Reference solution.
pub const SOLUTION: &str = r#"
int main() {
    int deviceCount;
    cudaGetDeviceCount(&deviceCount);
    wbLog(TRACE, "There is", deviceCount, "device supporting CUDA");
    wbLog(TRACE, "Device 0 name: SimGPU");
    wbLog(TRACE, "Computational capabilities: simulated");
    wbSolutionScalar(deviceCount);
    return 0;
}
"#;

/// Build the lab.
pub fn definition(_scale: LabScale) -> LabDefinition {
    let datasets = vec![case("d0", vec![], Dataset::Scalar(1.0))];
    let mut spec = LabSpec::cuda_test("device-query");
    spec.check = exact_check();
    make_lab(
        "device-query",
        "Device Query",
        DESCRIPTION,
        &format!(
            "{}int main() {{\n    int deviceCount;\n    // TODO: query the device count and log it\n    wbSolutionScalar(deviceCount);\n    return 0;\n}}\n",
            skeleton_banner("Device Query")
        ),
        datasets,
        vec!["How many devices does the worker node expose?"],
        spec,
        Rubric {
            compile_points: 50.0,
            dataset_points: 40.0,
            question_points: 10.0,
            keyword_points: vec![],
        },
    )
}

const DESCRIPTION: &str =
    "# Device Query\n\nThis demo lab walks you through the WebGPU workflow: edit the code, \
compile it, run it against the dataset, and submit.\n\n\
Use `cudaGetDeviceCount(&count)` to query the number of GPUs and submit it \
with `wbSolutionScalar`.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn skeleton_compiles_but_fails() {
        // The skeleton submits an uninitialized count (0); it should
        // compile yet not pass the dataset — students must do work.
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: lab.skeleton.clone(),
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::FullGrade,
        };
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        assert!(out.compiled(), "{:?}", out.compile_error);
        assert_eq!(out.passed_count(), 0);
    }
}
