//! Property tests for the submission cache.
//!
//! The load-bearing property is **hit ≡ fresh execution**: for any
//! submission, serving it through the cache must produce a result
//! byte-identical to executing it fresh — on the first (miss) pass and
//! on every subsequent (hit) pass. The others pin key separation
//! (distinct configurations never collide) and the LRU byte budget.

use libwb::Dataset;
use minicuda::{DeviceConfig, Dialect, OptLevel};
use wb_cache::{CacheConfig, CompileKey, LruStore};
use wb_prop::Gen;
use wb_sandbox::{Blacklist, ResourceLimits, ScanMode};
use wb_worker::{
    execute, new_submission_cache, DatasetCase, JobAction, JobRequest, LabSpec, RunCtx,
};

/// A vecadd solution parameterized by comment text and grid shape so
/// distinct strategies produce genuinely distinct programs.
fn vecadd_source(comment: &str, block: usize) -> String {
    format!(
        r#"
        // {comment}
        __global__ void vecAdd(float* a, float* b, float* out, int n) {{
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) {{ out[i] = a[i] + b[i]; }}
        }}
        int main() {{
            int n;
            float* a = wbImportVector(0, &n);
            float* b = wbImportVector(1, &n);
            float* out = (float*) malloc(n * sizeof(float));
            float* dA; float* dB; float* dC;
            cudaMalloc(&dA, n * sizeof(float));
            cudaMalloc(&dB, n * sizeof(float));
            cudaMalloc(&dC, n * sizeof(float));
            cudaMemcpy(dA, a, n * sizeof(float), cudaMemcpyHostToDevice);
            cudaMemcpy(dB, b, n * sizeof(float), cudaMemcpyHostToDevice);
            vecAdd<<<(n + {bm}) / {block}, {block}>>>(dA, dB, dC, n);
            cudaMemcpy(out, dC, n * sizeof(float), cudaMemcpyDeviceToHost);
            wbSolution(out, n);
            return 0;
        }}
    "#,
        comment = comment,
        block = block,
        bm = block - 1,
    )
}

/// A scalar-reduction solution (a second program shape, exercising a
/// different solution type through the cache).
fn sum_source(comment: &str) -> String {
    format!(
        r#"
        // {comment}
        int main() {{
            int n;
            float* a = wbImportVector(0, &n);
            float acc = 0.0;
            for (int i = 0; i < n; i = i + 1) {{ acc = acc + a[i]; }}
            wbSolutionScalar(acc);
            return 0;
        }}
    "#
    )
}

fn request(job_id: u64, source: String, inputs: Vec<f32>, expected: Dataset) -> JobRequest {
    let datasets = vec![DatasetCase {
        name: "d0".into(),
        inputs: vec![
            Dataset::Vector(inputs.clone()),
            Dataset::Vector(inputs.iter().map(|v| v + 1.0).collect()),
        ],
        expected,
    }];
    JobRequest {
        job_id,
        user: "prop".into(),
        source,
        spec: LabSpec::cuda_test("prop-lab"),
        datasets,
        action: JobAction::FullGrade,
    }
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// One side's keyed configuration: warp limit, dialect, opt level,
/// whether the verifier runs.
type Config = (i64, Dialect, OptLevel, bool);

fn config(g: &mut Gen) -> Config {
    let opts = [OptLevel::O0, OptLevel::O2];
    let dialect = *g.pick(&[Dialect::Cuda, Dialect::OpenCl]);
    (g.int(1..1_000_000), dialect, *g.pick(&opts), g.bool())
}

/// Property (a): a cache hit returns an outcome identical to fresh
/// execution, for randomized sources and datasets — including
/// wrong answers (expected is offset half the time) and the
/// scalar-solution program shape.
#[test]
fn cache_hit_equals_fresh_execution() {
    wb_prop::check(24, |g| {
        let comment = g.string(LOWER, 1..13);
        let block = *g.pick(&[32usize, 64, 128]);
        let data = g.vec(1..24, |g| g.float(-100.0..100.0) as f32);
        let offset = *g.pick(&[0.0f32, 0.5]);
        let use_sum = g.bool();
        let device = DeviceConfig::test_small();
        let (source, expected) = if use_sum {
            let sum: f32 = data.iter().sum();
            (sum_source(&comment), Dataset::Scalar(sum + offset))
        } else {
            let expected: Vec<f32> = data.iter().map(|v| v + v + 1.0 + offset).collect();
            (vecadd_source(&comment, block), Dataset::Vector(expected))
        };
        let req = request(1, source, data, expected);
        let ctx = RunCtx {
            worker_id: 3,
            ..RunCtx::new(&device)
        };
        let fresh = execute(&req, &ctx);
        let cache = new_submission_cache(CacheConfig::default());
        let cached = RunCtx {
            cache: Some(&cache),
            ..ctx
        };
        let miss_pass = execute(&req, &cached);
        let hit_pass = execute(&req, &cached);
        assert_eq!(&fresh, &miss_pass, "miss pass must equal fresh");
        assert_eq!(&fresh, &hit_pass, "hit pass must equal fresh");
        let m = cache.metrics();
        assert_eq!(m.compile.misses, 1);
        assert_eq!(m.compile.hits, 1);
    });
}

/// Property (b): submissions that differ in any keyed component —
/// limits, dialect, opt level, analysis, or blacklist version — never
/// share a compile key, even with identical source bytes.
#[test]
fn distinct_configurations_never_collide() {
    wb_prop::check(24, |g| {
        let source = g.string("abcdefghijklmnopqrstuvwxyz ", 0..65);
        let (config_a, config_b) = (config(g), config(g));
        let extra_pattern = g.bool().then(|| g.string(LOWER, 3..9));
        let blacklist_a = Blacklist::standard();
        let blacklist_b = match &extra_pattern {
            Some(p) => {
                let mut pats: Vec<String> = blacklist_a.patterns().to_vec();
                pats.push(p.clone());
                Blacklist::new(pats, ScanMode::RawText)
            }
            None => blacklist_a.clone(),
        };
        let key = |(warp, dialect, opt, analyze): Config, blacklist: &Blacklist| {
            let limits = ResourceLimits {
                max_warp_instructions: warp,
                ..ResourceLimits::default()
            };
            let image = "webgpu/cuda";
            CompileKey::derive(
                &source, dialect, opt, analyze, "cuda", image, blacklist, &limits,
            )
        };
        let same_config = config_a == config_b && extra_pattern.is_none();
        let collide = key(config_a, &blacklist_a) == key(config_b, &blacklist_b);
        assert_eq!(
            collide, same_config,
            "keys must collide exactly when every component matches"
        );
    });
}

/// Property (c): no insertion sequence pushes the store past its
/// byte budget, and everything still resident is readable.
#[test]
fn lru_never_exceeds_budget() {
    wb_prop::check(24, |g| {
        let (budget, shards) = (g.int(1..4096), g.int(1..8));
        let inserts = g.vec(1..128, |g| (g.int(0..64u64), g.int(1..512usize)));
        let store: LruStore<u64, u64> = LruStore::new(budget, shards);
        for (i, (key, weight)) in inserts.iter().enumerate() {
            store.insert(*key, i as u64, *weight);
            let resident = store.resident_bytes();
            assert!(resident <= budget, "resident {resident} > budget {budget}");
        }
        for (key, _) in &inserts {
            if let Some(v) = store.peek(key) {
                assert!((v as usize) < inserts.len());
            }
        }
    });
}
