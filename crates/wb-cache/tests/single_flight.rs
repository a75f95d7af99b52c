//! Exactly-once execution under concurrency: K threads submit the
//! same bytes simultaneously through the real worker pipeline, and the
//! cluster-wide cache must compile and grade exactly once.
//!
//! The cache counts a `miss` only when a lookup actually led a fresh
//! computation, so `misses == 1` per tier *is* the exactly-once
//! assertion; the other K−1 lookups must show up as coalesced
//! single-flight waits or hits on the resident entry.

use libwb::Dataset;
use minicuda::DeviceConfig;
use std::sync::{Arc, Barrier};
use wb_cache::CacheConfig;
use wb_worker::{
    execute, new_submission_cache, DatasetCase, JobAction, JobRequest, LabSpec, RunCtx,
};

const SOURCE: &str = r#"
    __global__ void scale(float* a, float* out, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) { out[i] = 2.0 * a[i]; }
    }
    int main() {
        int n;
        float* a = wbImportVector(0, &n);
        float* out = (float*) malloc(n * sizeof(float));
        float* dA; float* dC;
        cudaMalloc(&dA, n * sizeof(float));
        cudaMalloc(&dC, n * sizeof(float));
        cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
        scale<<<(n + 63) / 64, 64>>>(dA, dC, n);
        cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
        wbSolution(out, n);
        return 0;
    }
"#;

fn request(job_id: u64) -> JobRequest {
    let inputs: Vec<f32> = (0..256).map(|i| i as f32).collect();
    let expected: Vec<f32> = inputs.iter().map(|v| 2.0 * v).collect();
    JobRequest {
        job_id,
        user: format!("user-{job_id}"),
        source: SOURCE.to_string(),
        spec: LabSpec::cuda_test("scale"),
        datasets: vec![DatasetCase {
            name: "d0".into(),
            inputs: vec![Dataset::Vector(inputs)].into(),
            expected: Dataset::Vector(expected).into(),
        }],
        action: JobAction::FullGrade,
    }
}

#[test]
fn concurrent_identical_submissions_execute_once() {
    const THREADS: usize = 8;
    let cache = new_submission_cache(CacheConfig::default());
    let device = DeviceConfig::test_small();
    let reference = execute(&request(0), &RunCtx::new(&device));
    assert!(reference.compiled());
    assert_eq!(reference.passed_count(), 1);

    let gate = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let device = device.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let ctx = RunCtx {
                    worker_id: t + 1,
                    cache: Some(&cache),
                    ..RunCtx::new(&device)
                };
                execute(&request(t + 1), &ctx)
            })
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let out = h.join().expect("worker thread survived");
        assert_eq!(out.job_id, t as u64 + 1, "identity fields stay per-job");
        assert_eq!(
            out.datasets, reference.datasets,
            "every caller got the fresh-execution outcome"
        );
    }

    let m = cache.metrics();
    assert_eq!(m.compile.misses, 1, "exactly one compile ran");
    assert_eq!(m.grade.misses, 1, "exactly one grade ran");
    assert_eq!(
        m.compile.hits + m.compile.coalesced,
        THREADS as u64 - 1,
        "everyone else was deduplicated"
    );
    assert_eq!(m.grade.hits + m.grade.coalesced, THREADS as u64 - 1);
}

#[test]
fn eviction_pressure_never_corrupts_results() {
    // A budget small enough to evict constantly: correctness must not
    // depend on residency, only hit-rate does.
    let cache = new_submission_cache(CacheConfig::tiny(256));
    let device = DeviceConfig::test_small();
    let fresh = RunCtx {
        worker_id: 9,
        ..RunCtx::new(&device)
    };
    let cached = RunCtx {
        cache: Some(&cache),
        ..fresh
    };
    let reference = execute(&request(0), &fresh);
    for round in 0..4 {
        let out = execute(&request(round), &cached);
        assert_eq!(out.datasets, reference.datasets, "round {round}");
    }
}
