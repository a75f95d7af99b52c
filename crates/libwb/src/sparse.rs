//! Compressed-sparse-row matrix used by the SpMV lab.

use crate::{Result, WbError};

/// A CSR sparse matrix.
///
/// Invariants (checked at construction):
/// - `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, non-decreasing;
/// - `row_ptr[rows] == col_idx.len() == values.len()`;
/// - every column index `< cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build a CSR matrix, validating the structural invariants.
    pub fn new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(WbError::Shape(format!(
                "row_ptr has {} entries, expected {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if row_ptr.first() != Some(&0) {
            return Err(WbError::Invalid("row_ptr must start at 0".into()));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(WbError::Invalid("row_ptr must be non-decreasing".into()));
        }
        let nnz = *row_ptr.last().expect("non-empty row_ptr");
        if col_idx.len() != nnz || values.len() != nnz {
            return Err(WbError::Shape(format!(
                "nnz mismatch: row_ptr says {nnz}, col_idx {} values {}",
                col_idx.len(),
                values.len()
            )));
        }
        if let Some(&bad) = col_idx.iter().find(|&&c| c >= cols) {
            return Err(WbError::Invalid(format!(
                "column index {bad} out of range for {cols} columns"
            )));
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Build from a dense row-major matrix, dropping exact zeros.
    pub fn from_dense(rows: usize, cols: usize, dense: &[f32]) -> Result<Self> {
        if dense.len() != rows * cols {
            return Err(WbError::Shape(format!(
                "dense {rows}x{cols} needs {} values, got {}",
                rows * cols,
                dense.len()
            )));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = dense[r * cols + c];
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `rows + 1` row-offset array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index of each stored value.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Stored values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Number of stored (structurally nonzero) values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Reference sequential SpMV: `y = A * x`.
    ///
    /// This is the golden model graders compare GPU results against.
    pub fn spmv(&self, x: &[f32]) -> Result<Vec<f32>> {
        if x.len() != self.cols {
            return Err(WbError::Shape(format!(
                "x has {} entries, matrix has {} columns",
                x.len(),
                self.cols
            )));
        }
        let mut y = vec![0.0f32; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *out = acc;
        }
        Ok(y)
    }

    /// Convert to a dense row-major buffer (testing helper).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                dense[r * self.cols + self.col_idx[k]] = self.values[k];
            }
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_invariants() {
        // row_ptr wrong length
        assert!(CsrMatrix::new(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // does not start at zero
        assert!(CsrMatrix::new(1, 2, vec![1, 1], vec![], vec![]).is_err());
        // decreasing
        assert!(CsrMatrix::new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // nnz mismatch
        assert!(CsrMatrix::new(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        // column out of range
        assert!(CsrMatrix::new(1, 2, vec![0, 1], vec![2], vec![1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let dense = vec![1.0, 0.0, 0.0, 2.0, 3.0, 0.0];
        let m = CsrMatrix::from_dense(2, 3, &dense).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.to_dense(), dense);
    }

    #[test]
    fn spmv_matches_dense_product() {
        let dense = vec![1.0, 2.0, 0.0, 0.0, 0.0, 3.0];
        let m = CsrMatrix::from_dense(2, 3, &dense).unwrap();
        let x = vec![1.0, 10.0, 100.0];
        let y = m.spmv(&x).unwrap();
        assert_eq!(y, vec![21.0, 300.0]);
    }

    #[test]
    fn spmv_rejects_wrong_x() {
        let m = CsrMatrix::from_dense(2, 3, &[0.0; 6]).unwrap();
        assert!(m.spmv(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = CsrMatrix::new(0, 0, vec![0], vec![], vec![]).unwrap();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spmv(&[]).unwrap(), Vec::<f32>::new());
    }
}
