//! Dataset generators.
//!
//! The paper publishes "test generators" alongside the lab skeletons so
//! students can develop offline (§IV-C). These are deterministic: the
//! same seed always produces the same dataset, which lets graders and
//! tests regenerate instructor data on demand instead of shipping files.

use crate::rng::SplitMix64;
use crate::{graph::CsrGraph, image::Image, sparse::CsrMatrix};

/// Uniform random vector in `[-1, 1)`.
pub fn random_vector(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range(-1.0..1.0)).collect()
}

/// Uniform random non-negative vector in `[0, 1)` (for scan/reduction
/// labs where sign cancellation would mask accumulation bugs).
pub fn random_positive_vector(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range(0.0..1.0)).collect()
}

/// Random integer vector with values in `[0, max_value)`.
pub fn random_int_vector(n: usize, max_value: i32, seed: u64) -> Vec<i32> {
    assert!(max_value > 0, "max_value must be positive");
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range(0..max_value)).collect()
}

/// Row-major random matrix in `[-1, 1)`.
pub fn random_matrix(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    random_vector(rows * cols, seed)
}

/// Random image with samples in `[0, 1)`.
pub fn random_image(width: usize, height: usize, channels: usize, seed: u64) -> Image {
    let mut rng = SplitMix64::new(seed);
    let data = (0..width * height * channels)
        .map(|_| rng.range(0.0..1.0))
        .collect();
    Image::from_data(width, height, channels, data).expect("generated dims consistent")
}

/// Random CSR matrix where each entry is nonzero with probability
/// `density`; values are in `[-1, 1)`.
pub fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    let mut rng = SplitMix64::new(seed);
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for _ in 0..rows {
        for c in 0..cols {
            if rng.bool(density) {
                col_idx.push(c);
                values.push(rng.range(-1.0..1.0));
            }
        }
        row_ptr.push(values.len());
    }
    CsrMatrix::new(rows, cols, row_ptr, col_idx, values).expect("generated CSR consistent")
}

/// Random directed graph where each ordered pair `(u, v)`, `u != v`,
/// is an edge with probability `edge_prob` (Erdős–Rényi G(n, p)).
pub fn random_graph(num_nodes: usize, edge_prob: f64, seed: u64) -> CsrGraph {
    assert!(
        (0.0..=1.0).contains(&edge_prob),
        "edge_prob must be in [0,1]"
    );
    let mut rng = SplitMix64::new(seed);
    let mut row_ptr = Vec::with_capacity(num_nodes + 1);
    let mut neighbors = Vec::new();
    row_ptr.push(0);
    for u in 0..num_nodes {
        for v in 0..num_nodes {
            if u != v && rng.bool(edge_prob) {
                neighbors.push(v);
            }
        }
        row_ptr.push(neighbors.len());
    }
    CsrGraph::new(num_nodes, row_ptr, neighbors).expect("generated graph consistent")
}

/// Random graph guaranteed to be connected from node 0: a random tree
/// plus extra G(n, p) edges. BFS labs use this so every node has a
/// finite level and the expected output exercises the whole frontier.
pub fn random_connected_graph(num_nodes: usize, extra_edge_prob: f64, seed: u64) -> CsrGraph {
    assert!(num_nodes > 0, "graph needs at least one node");
    let mut rng = SplitMix64::new(seed);
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    // Random spanning tree rooted at 0: each node attaches to a random
    // earlier node, guaranteeing reachability from 0.
    for v in 1..num_nodes {
        let parent = rng.range(0..v);
        adj[parent].push(v);
    }
    for (u, list) in adj.iter_mut().enumerate() {
        for v in 0..num_nodes {
            if u != v && !list.contains(&v) && rng.bool(extra_edge_prob) {
                list.push(v);
            }
        }
        list.sort_unstable();
    }
    let mut row_ptr = Vec::with_capacity(num_nodes + 1);
    let mut neighbors = Vec::new();
    row_ptr.push(0);
    for list in &adj {
        neighbors.extend_from_slice(list);
        row_ptr.push(neighbors.len());
    }
    CsrGraph::new(num_nodes, row_ptr, neighbors).expect("generated graph consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_vector(64, 7), random_vector(64, 7));
        assert_ne!(random_vector(64, 7), random_vector(64, 8));
        assert_eq!(random_int_vector(32, 100, 1), random_int_vector(32, 100, 1));
    }

    #[test]
    fn positive_vector_is_positive() {
        assert!(random_positive_vector(256, 3)
            .iter()
            .all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn int_vector_respects_bound() {
        assert!(random_int_vector(256, 10, 4)
            .iter()
            .all(|&x| (0..10).contains(&x)));
    }

    #[test]
    fn image_has_right_shape() {
        let img = random_image(8, 4, 3, 5);
        assert_eq!((img.width(), img.height(), img.channels()), (8, 4, 3));
    }

    #[test]
    fn sparse_density_extremes() {
        assert_eq!(random_sparse(8, 8, 0.0, 1).nnz(), 0);
        assert_eq!(random_sparse(8, 8, 1.0, 1).nnz(), 64);
    }

    #[test]
    fn connected_graph_reaches_all_nodes() {
        let g = random_connected_graph(50, 0.02, 9);
        let levels = g.bfs_levels(0).unwrap();
        assert!(levels.iter().all(|&l| l >= 0), "all nodes reachable");
    }

    #[test]
    fn er_graph_edge_count_scales_with_p() {
        let sparse = random_graph(40, 0.01, 2).num_edges();
        let dense = random_graph(40, 0.5, 2).num_edges();
        assert!(dense > sparse * 5);
    }
}
