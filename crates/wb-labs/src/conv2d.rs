//! 2D Convolution — constant memory and shared memory.
//!
//! A 5×5 mask is placed in `__constant__` memory via
//! `cudaMemcpyToSymbol`; halo cells outside the image are treated as
//! zero (the "ghost cell" convention the course uses).

use crate::common::{case, float_check, make_lab, skeleton_banner, LabScale};
use libwb::{gen, Dataset, Image};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Mask is always 5×5.
pub const MASK_DIM: usize = 5;

/// Reference solution.
pub const SOLUTION: &str = r#"
#define MASK_DIM 5
#define MASK_RADIUS 2

__constant__ float mask[25];

__global__ void conv2d(float* in, float* out, int width, int height) {
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    if (col < width && row < height) {
        float acc = 0.0;
        for (int my = 0; my < MASK_DIM; my++) {
            for (int mx = 0; mx < MASK_DIM; mx++) {
                int y = row + my - MASK_RADIUS;
                int x = col + mx - MASK_RADIUS;
                if (x >= 0 && x < width && y >= 0 && y < height) {
                    acc += in[y * width + x] * mask[my * MASK_DIM + mx];
                }
            }
        }
        out[row * width + col] = acc;
    }
}

int main() {
    int width; int height; int channels;
    float* hostIn = wbImportImage(0, &width, &height, &channels);
    int maskRows; int maskCols;
    float* hostMask = wbImportMatrix(1, &maskRows, &maskCols);
    float* hostOut = (float*) malloc(width * height * sizeof(float));

    cudaMemcpyToSymbol(mask, hostMask, 25 * sizeof(float));

    float* dIn; float* dOut;
    cudaMalloc(&dIn, width * height * sizeof(float));
    cudaMalloc(&dOut, width * height * sizeof(float));
    cudaMemcpy(dIn, hostIn, width * height * sizeof(float), cudaMemcpyHostToDevice);

    conv2d<<<dim3((width + 15) / 16, (height + 15) / 16), dim3(16, 16)>>>(dIn, dOut, width, height);

    cudaMemcpy(hostOut, dOut, width * height * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolutionImage(hostOut, width, height, 1);
    return 0;
}
"#;

/// CPU golden model (zero ghost cells).
pub fn golden(img: &Image, mask: &[f32]) -> Image {
    let (w, h) = (img.width(), img.height());
    let r = MASK_DIM as isize / 2;
    let mut out = Image::zeros(w, h, 1);
    for y in 0..h as isize {
        for x in 0..w as isize {
            let mut acc = 0.0f32;
            for my in 0..MASK_DIM as isize {
                for mx in 0..MASK_DIM as isize {
                    let sy = y + my - r;
                    let sx = x + mx - r;
                    if sx >= 0 && sx < w as isize && sy >= 0 && sy < h as isize {
                        acc += img.at(sx as usize, sy as usize, 0)
                            * mask[(my * MASK_DIM as isize + mx) as usize];
                    }
                }
            }
            out.set(x as usize, y as usize, 0, acc);
        }
    }
    out
}

/// Generate dataset cases.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let shapes = match scale {
        LabScale::Small => vec![(6usize, 5usize), (16, 9)],
        LabScale::Full => vec![(64, 64), (101, 67)],
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, (w, h))| {
            let img = gen::random_image(w, h, 1, 0xC0 + i as u64);
            let mask = gen::random_matrix(MASK_DIM, MASK_DIM, 0xD0 + i as u64);
            let out = golden(&img, &mask);
            case(
                &format!("d{i}"),
                vec![
                    Dataset::Image(img),
                    Dataset::Matrix {
                        rows: MASK_DIM,
                        cols: MASK_DIM,
                        data: mask,
                    },
                ],
                Dataset::Image(out),
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("conv2d");
    spec.check = float_check();
    make_lab(
        "conv2d",
        "2D Convolution",
        DESCRIPTION,
        &format!(
            "{}#define MASK_DIM 5\n__constant__ float mask[25];\n\n__global__ void conv2d(float* in, float* out, int width, int height) {{\n    // TODO: accumulate the 5x5 neighborhood; outside pixels are 0\n}}\n\nint main() {{\n    // TODO: import image + mask, cudaMemcpyToSymbol, launch\n    return 0;\n}}\n",
            skeleton_banner("2D Convolution")
        ),
        datasets(scale),
        vec![
            "Why is the mask a good fit for constant memory?",
            "How would shared-memory tiling change the number of global loads?",
        ],
        spec,
        Rubric {
            compile_points: 10.0,
            dataset_points: 75.0,
            question_points: 10.0,
            keyword_points: vec![("__constant__".to_string(), 5.0)],
        },
    )
}

const DESCRIPTION: &str =
    "# 2D Convolution\n\nConvolve a grayscale image with a 5×5 mask.\n\n- the \
mask lives in `__constant__` memory; fill it with `cudaMemcpyToSymbol`\n- pixels outside the image \
are **zero** (ghost cells)\n- submit with `wbSolutionImage(out, width, height, 1)`\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn golden_identity_mask() {
        let img = gen::random_image(4, 3, 1, 7);
        let mut mask = vec![0.0f32; 25];
        mask[12] = 1.0; // center
        let out = golden(&img, &mask);
        assert_eq!(out.data(), img.data());
    }

    #[test]
    fn golden_ghost_cells_are_zero() {
        // An all-ones mask over an all-ones 3x3 image sums the whole
        // image from every position (the 5x5 window covers it all).
        let img = Image::from_data(3, 3, 1, vec![1.0; 9]).unwrap();
        let mask = vec![1.0f32; 25];
        let out = golden(&img, &mask);
        assert_eq!(out.at(0, 0, 0), 9.0);
        assert_eq!(out.at(1, 1, 0), 9.0);
    }

    #[test]
    fn missing_ghost_check_fails() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        let lab = definition(LabScale::Small);
        let buggy = SOLUTION.replace("if (x >= 0 && x < width && y >= 0 && y < height)", "if (1)");
        assert_ne!(buggy, SOLUTION, "replacement must apply");
        let req = JobRequest {
            job_id: 1,
            user: "t".into(),
            source: buggy,
            spec: lab.spec.clone(),
            datasets: lab.datasets.clone(),
            action: JobAction::FullGrade,
        };
        let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
        // Without the bounds check the kernel reads out of bounds.
        assert!(out.datasets.iter().any(|d| d.error.is_some()));
    }
}
