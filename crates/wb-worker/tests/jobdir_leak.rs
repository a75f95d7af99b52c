//! Regression test: the pipeline must not leak job directories.
//!
//! An earlier pipeline version destroyed the scratch directory
//! explicitly and skipped the cleanup on early returns (a failed
//! `solution.cu` write leaked, and so would a panicking stage). The
//! fix made `JobDir` RAII; this test drives every pipeline exit path
//! and asserts the process-wide live-directory counter returns to
//! zero.
//!
//! Lives in its own integration-test binary — one process, no
//! concurrent tests — because the counter is process-global: any other
//! test creating a `JobDir` concurrently would race the assertion.

use libwb::Dataset;
use minicuda::DeviceConfig;
use wb_sandbox::live_dir_count;
use wb_worker::{
    execute, new_submission_cache, DatasetCase, JobAction, JobRequest, LabSpec, RunCtx,
};

fn request(job_id: u64, source: &str, action: JobAction) -> JobRequest {
    JobRequest {
        job_id,
        user: "alice".into(),
        source: source.to_string(),
        spec: LabSpec::cuda_test("identity"),
        datasets: vec![DatasetCase {
            name: "d0".into(),
            inputs: vec![Dataset::Vector(vec![1.0, 2.0])],
            expected: Dataset::Vector(vec![1.0, 2.0]),
        }],
        action,
    }
}

const GOOD: &str = r#"
    int main() {
        int n;
        float* a = wbImportVector(0, &n);
        wbSolution(a, n);
        return 0;
    }
"#;

#[test]
fn every_pipeline_exit_path_reclaims_the_job_dir() {
    assert_eq!(live_dir_count(), 0, "test starts clean");
    let device = DeviceConfig::test_small();
    let ctx = RunCtx::new(&device);

    // Success path.
    let out = execute(&request(1, GOOD, JobAction::FullGrade), &ctx);
    assert!(out.compiled());

    // Early return: oversized source (fails before the dir exists).
    let mut oversized = request(2, GOOD, JobAction::CompileOnly);
    oversized.spec.limits.max_source_bytes = 8;
    assert!(!execute(&oversized, &ctx).compiled());

    // Early return: blacklist violation.
    let blacklisted = request(3, "int main() { asm(); }", JobAction::CompileOnly);
    assert!(!execute(&blacklisted, &ctx).compiled());

    // Early return: quota-exceeded write into the scratch dir. The
    // original leak was exactly this path: `dir.write` failed and the
    // early return skipped the explicit destroy.
    let mut fat = request(4, GOOD, JobAction::CompileOnly);
    fat.source = format!("// {}\n{}", "x".repeat(5 * 1024 * 1024), GOOD);
    fat.spec.limits.max_source_bytes = 8 * 1024 * 1024; // pass the gate
    let out = execute(&fat, &ctx);
    assert!(
        out.compile_error
            .as_deref()
            .is_some_and(|m| m.contains("quota")),
        "expected the quota error path, got {:?}",
        out.compile_error
    );

    // Early return: compile error.
    let broken = request(5, "int main( { return 0; }", JobAction::CompileOnly);
    assert!(!execute(&broken, &ctx).compiled());

    // The cached branch shares the same compile phase.
    let cache = new_submission_cache(wb_cache::CacheConfig::default());
    let cached = RunCtx {
        cache: Some(&cache),
        ..ctx
    };
    let out = execute(&request(6, GOOD, JobAction::FullGrade), &cached);
    assert!(out.compiled());

    assert_eq!(live_dir_count(), 0, "no scratch directory leaked");
}
