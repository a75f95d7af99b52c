//! Scatter to Gather — transforming write conflicts into reads.
//!
//! Students receive a permutation map and must produce
//! `out[i] = in[map[i]]` (the *gather* form). The pedagogical point is
//! that the equivalent scatter (`out[map[i]] = in[i]` with an inverted
//! map) would race without atomics, while the gather form has
//! conflict-free writes.

use crate::common::{case, float_check, make_lab, skeleton_banner, LabScale};
use libwb::rng::SplitMix64;
use libwb::{gen, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Reference solution (gather form).
pub const SOLUTION: &str = r#"
__global__ void gather(float* in, int* map, float* out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        out[i] = in[map[i]];
    }
}

int main() {
    int n; int m;
    float* hostIn = wbImportVector(0, &n);
    int* hostMap = wbImportIntVector(1, &m);
    float* hostOut = (float*) malloc(n * sizeof(float));

    float* dIn; float* dOut; int* dMap;
    cudaMalloc(&dIn, n * sizeof(float));
    cudaMalloc(&dOut, n * sizeof(float));
    cudaMalloc(&dMap, n * sizeof(int));
    cudaMemcpy(dIn, hostIn, n * sizeof(float), cudaMemcpyHostToDevice);
    cudaMemcpy(dMap, hostMap, n * sizeof(int), cudaMemcpyHostToDevice);

    gather<<<(n + 127) / 128, 128>>>(dIn, dMap, dOut, n);

    cudaMemcpy(hostOut, dOut, n * sizeof(float), cudaMemcpyDeviceToHost);
    wbSolution(hostOut, n);
    return 0;
}
"#;

/// CPU golden model.
pub fn golden(input: &[f32], map: &[i32]) -> Vec<f32> {
    map.iter().map(|&j| input[j as usize]).collect()
}

/// A random permutation map.
fn permutation(n: usize, seed: u64) -> Vec<i32> {
    let mut map: Vec<i32> = (0..n as i32).collect();
    SplitMix64::new(seed).shuffle(&mut map);
    map
}

/// Generate dataset cases.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let sizes = match scale {
        LabScale::Small => vec![4usize, 97],
        LabScale::Full => vec![1_000usize, 50_000],
    };
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let input = gen::random_vector(n, 0x510 + i as u64);
            let map = permutation(n, 0x520 + i as u64);
            let expected = golden(&input, &map);
            case(
                &format!("d{i}"),
                vec![Dataset::Vector(input), Dataset::IntVector(map)],
                Dataset::Vector(expected),
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("scatter-gather");
    spec.check = float_check();
    make_lab(
        "scatter-gather",
        "Scatter to Gather",
        DESCRIPTION,
        &format!(
            "{}__global__ void gather(float* in, int* map, float* out, int n) {{\n    // TODO: out[i] = in[map[i]]\n}}\n\nint main() {{\n    // TODO\n    return 0;\n}}\n",
            skeleton_banner("Scatter to Gather")
        ),
        datasets(scale),
        vec![
            "Why is the gather form free of write conflicts while the scatter form is not?",
            "Which form has better memory coalescing on the write side?",
        ],
        spec,
        Rubric::default(),
    )
}

const DESCRIPTION: &str = "# Scatter to Gather\n\nGiven a permutation `map`, produce \
`out[i] = in[map[i]]`.\n\nRewriting a scatter as a gather removes write conflicts: each output \
element is owned by exactly one thread.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn golden_is_a_permutation() {
        let input = vec![10.0, 20.0, 30.0];
        let map = vec![2, 0, 1];
        assert_eq!(golden(&input, &map), vec![30.0, 10.0, 20.0]);
    }

    #[test]
    fn permutation_covers_all_indices() {
        let p = permutation(50, 3);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<i32>>());
    }

    #[test]
    fn scatter_written_as_gather_of_same_map_fails() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        // Students who confuse the direction write out[map[i]] = in[i],
        // which equals gathering through the inverse permutation — a
        // wrong answer on a random (non-involution) map.
        let lab = definition(LabScale::Small);
        let buggy = SOLUTION.replace("out[i] = in[map[i]];", "out[map[i]] = in[i];");
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
        assert!(out.passed_count() < out.datasets.len());
    }
}
