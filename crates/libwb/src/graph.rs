//! CSR adjacency graph used by the BFS queuing lab.

use crate::{Result, WbError};
use std::collections::VecDeque;

/// A directed graph in compressed-sparse-row adjacency form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    num_nodes: usize,
    row_ptr: Vec<usize>,
    neighbors: Vec<usize>,
}

impl CsrGraph {
    /// Build a graph, validating CSR invariants.
    pub fn new(num_nodes: usize, row_ptr: Vec<usize>, neighbors: Vec<usize>) -> Result<Self> {
        if row_ptr.len() != num_nodes + 1 {
            return Err(WbError::Shape(format!(
                "row_ptr has {} entries, expected {}",
                row_ptr.len(),
                num_nodes + 1
            )));
        }
        if row_ptr.first() != Some(&0) {
            return Err(WbError::Invalid("row_ptr must start at 0".into()));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(WbError::Invalid("row_ptr must be non-decreasing".into()));
        }
        if *row_ptr.last().expect("non-empty row_ptr") != neighbors.len() {
            return Err(WbError::Shape("row_ptr end != neighbor count".into()));
        }
        if let Some(&bad) = neighbors.iter().find(|&&n| n >= num_nodes) {
            return Err(WbError::Invalid(format!(
                "neighbor {bad} out of range for {num_nodes} nodes"
            )));
        }
        Ok(CsrGraph {
            num_nodes,
            row_ptr,
            neighbors,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Row-offset array (`num_nodes + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Flattened neighbor lists.
    pub fn neighbors(&self) -> &[usize] {
        &self.neighbors
    }

    /// Out-neighbors of `node`.
    pub fn out(&self, node: usize) -> &[usize] {
        &self.neighbors[self.row_ptr[node]..self.row_ptr[node + 1]]
    }

    /// Reference sequential BFS returning the level of each node from
    /// `source` (`-1` for unreachable). The golden model for the BFS lab.
    pub fn bfs_levels(&self, source: usize) -> Result<Vec<i32>> {
        if source >= self.num_nodes {
            return Err(WbError::Invalid(format!(
                "source {source} out of range for {} nodes",
                self.num_nodes
            )));
        }
        let mut level = vec![-1i32; self.num_nodes];
        let mut queue = VecDeque::new();
        level[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &v in self.out(u) {
                if level[v] < 0 {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        Ok(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::new(4, vec![0, 2, 3, 4, 4], vec![1, 2, 3, 3]).unwrap()
    }

    #[test]
    fn new_validates_invariants() {
        assert!(CsrGraph::new(2, vec![0, 1], vec![0]).is_err()); // short row_ptr
        assert!(CsrGraph::new(1, vec![1, 1], vec![]).is_err()); // not starting 0
        assert!(CsrGraph::new(2, vec![0, 2, 1], vec![0, 1]).is_err()); // decreasing
        assert!(CsrGraph::new(1, vec![0, 1], vec![5]).is_err()); // bad neighbor
        assert!(CsrGraph::new(1, vec![0, 2], vec![0]).is_err()); // edge count
    }

    #[test]
    fn out_neighbors() {
        let g = diamond();
        assert_eq!(g.out(0), &[1, 2]);
        assert_eq!(g.out(3), &[] as &[usize]);
    }

    #[test]
    fn bfs_levels_on_diamond() {
        let g = diamond();
        assert_eq!(g.bfs_levels(0).unwrap(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        // 0 -> 1, node 2 isolated
        let g = CsrGraph::new(3, vec![0, 1, 1, 1], vec![1]).unwrap();
        assert_eq!(g.bfs_levels(0).unwrap(), vec![0, 1, -1]);
    }

    #[test]
    fn bfs_rejects_bad_source() {
        assert!(diamond().bfs_levels(9).is_err());
    }
}
