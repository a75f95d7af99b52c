//! BFS Queuing — hierarchical queuing performance effects.
//!
//! Level-synchronous breadth-first search: each iteration launches a
//! kernel that expands the current frontier into the next, appending
//! with `atomicAdd` on a queue cursor; `atomicMin` claims each vertex
//! exactly once.

use crate::common::{case, exact_check, make_lab, skeleton_banner, LabScale};
use libwb::{gen, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Reference solution.
pub const SOLUTION: &str = r#"
__global__ void bfsLevel(int* rowPtr, int* neighbors, int* levels,
                         int* frontier, int frontierSize,
                         int* nextFrontier, int* nextSize, int depth) {
    int t = blockIdx.x * blockDim.x + threadIdx.x;
    if (t < frontierSize) {
        int u = frontier[t];
        int start = rowPtr[u];
        int end = rowPtr[u + 1];
        for (int k = start; k < end; k++) {
            int v = neighbors[k];
            // Claim v exactly once: only the thread that lowers the
            // level from INT_MAX-ish sentinel enqueues it.
            int old = atomicMin(&levels[v], depth);
            if (old > depth) {
                int slot = atomicAdd(nextSize, 1);
                nextFrontier[slot] = v;
            }
        }
    }
}

int main() {
    int numNodes; int numEdges;
    int* hostRowPtr = wbImportGraphRowPtr(0, &numNodes);
    int* hostNeighbors = wbImportGraphNeighbors(0, &numEdges);
    int* hostLevels = (int*) malloc(numNodes * sizeof(int));

    int* dRowPtr; int* dNeighbors; int* dLevels;
    int* dFrontierA; int* dFrontierB; int* dNextSize;
    cudaMalloc(&dRowPtr, (numNodes + 1) * sizeof(int));
    cudaMalloc(&dNeighbors, numEdges * sizeof(int));
    cudaMalloc(&dLevels, numNodes * sizeof(int));
    cudaMalloc(&dFrontierA, numNodes * sizeof(int));
    cudaMalloc(&dFrontierB, numNodes * sizeof(int));
    cudaMalloc(&dNextSize, sizeof(int));
    cudaMemcpy(dRowPtr, hostRowPtr, (numNodes + 1) * sizeof(int), cudaMemcpyHostToDevice);
    cudaMemcpy(dNeighbors, hostNeighbors, numEdges * sizeof(int), cudaMemcpyHostToDevice);

    // levels = "infinity" sentinel; source gets 0.
    int* hostInit = (int*) malloc(numNodes * sizeof(int));
    for (int i = 0; i < numNodes; i++) { hostInit[i] = 1000000000; }
    hostInit[0] = 0;
    cudaMemcpy(dLevels, hostInit, numNodes * sizeof(int), cudaMemcpyHostToDevice);

    // frontier = {source}
    int* hostFrontier = (int*) malloc(sizeof(int));
    hostFrontier[0] = 0;
    cudaMemcpy(dFrontierA, hostFrontier, sizeof(int), cudaMemcpyHostToDevice);

    int frontierSize = 1;
    int depth = 1;
    int* hostSize = (int*) malloc(sizeof(int));
    while (frontierSize > 0 && depth <= numNodes) {
        hostSize[0] = 0;
        cudaMemcpy(dNextSize, hostSize, sizeof(int), cudaMemcpyHostToDevice);
        bfsLevel<<<(frontierSize + 127) / 128, 128>>>(dRowPtr, dNeighbors, dLevels,
            dFrontierA, frontierSize, dFrontierB, dNextSize, depth);
        cudaMemcpy(hostSize, dNextSize, sizeof(int), cudaMemcpyDeviceToHost);
        frontierSize = hostSize[0];
        // swap frontiers
        int* tmp = dFrontierA;
        dFrontierA = dFrontierB;
        dFrontierB = tmp;
        depth = depth + 1;
    }

    cudaMemcpy(hostLevels, dLevels, numNodes * sizeof(int), cudaMemcpyDeviceToHost);
    // Unreached nodes report -1, matching the golden model.
    for (int i = 0; i < numNodes; i++) {
        if (hostLevels[i] >= 1000000000) { hostLevels[i] = -1; }
    }
    wbSolutionInt(hostLevels, numNodes);
    return 0;
}
"#;

/// Generate dataset cases. Source is always node 0; graphs are
/// generated connected so every node has a deterministic level.
pub fn datasets(scale: LabScale) -> Vec<DatasetCase> {
    let sizes = match scale {
        LabScale::Small => vec![(6usize, 0.2f64), (40, 0.05)],
        LabScale::Full => vec![(500, 0.01), (2_000, 0.002)],
    };
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, (n, p))| {
            let g = gen::random_connected_graph(n, p, 0xB10 + i as u64);
            let levels = g.bfs_levels(0).expect("source 0 valid");
            case(
                &format!("d{i}"),
                vec![Dataset::Graph(g)],
                Dataset::IntVector(levels),
            )
        })
        .collect()
}

/// Build the lab.
pub fn definition(scale: LabScale) -> LabDefinition {
    let mut spec = LabSpec::cuda_test("bfs");
    spec.check = exact_check();
    // Frontier loops relaunch kernels; give a generous host budget.
    spec.limits.max_host_steps *= 2;
    make_lab(
        "bfs",
        "BFS Queuing",
        DESCRIPTION,
        &format!(
            "{}__global__ void bfsLevel(int* rowPtr, int* neighbors, int* levels,\n                         int* frontier, int frontierSize,\n                         int* nextFrontier, int* nextSize, int depth) {{\n    // TODO: expand the frontier; claim vertices with atomicMin;\n    // append to the next frontier with atomicAdd on nextSize\n}}\n\nint main() {{\n    // TODO: level loop with frontier swap\n    return 0;\n}}\n",
            skeleton_banner("BFS Queuing")
        ),
        datasets(scale),
        vec![
            "Why is atomicMin the right claim primitive here?",
            "How would a per-block queue reduce contention on nextSize?",
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

const DESCRIPTION: &str = "# BFS Queuing\n\nLevel-synchronous BFS from node 0 over a CSR graph. \
Each kernel launch expands the frontier into a queue built with `atomicAdd`; unreached nodes \
report level `-1`.\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::grade_solution;

    #[test]
    fn reference_solution_passes() {
        grade_solution(&definition(LabScale::Small), SOLUTION);
    }

    #[test]
    fn datasets_are_fully_reachable() {
        for case in datasets(LabScale::Small) {
            let levels = case.expected.as_int_vector().unwrap();
            assert!(levels.iter().all(|&l| l >= 0));
            assert_eq!(levels[0], 0, "source level");
        }
    }

    #[test]
    fn duplicate_enqueue_bug_still_converges_or_fails_cleanly() {
        use wb_worker::{execute, JobAction, JobRequest, RunCtx};
        // Claiming with a plain load instead of atomicMin enqueues
        // duplicates; the queue can overflow the frontier buffer, which
        // the simulator reports as an out-of-bounds error rather than
        // corrupting memory.
        let lab = definition(LabScale::Small);
        let buggy = SOLUTION.replace(
            "int old = atomicMin(&levels[v], depth);\n            if (old > depth) {",
            "int old = levels[v];\n            if (old > depth) { levels[v] = depth;",
        );
        assert_ne!(buggy, SOLUTION);
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
        // Either a wrong answer, a reported overflow, or (on the tiny
        // serialized device) a lucky pass — never a crash.
        let _ = out.passed_count();
    }
}
