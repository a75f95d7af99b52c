//! Dataset model and the text interchange format.
//!
//! Instructor-provided inputs and expected outputs are stored in the
//! libwb "raw" text format: a header line with the dimensions followed
//! by whitespace-separated values, one row per line. The same format is
//! shared by vectors, matrices, images (per-channel interleaved floats),
//! sparse matrices (a small multi-section variant), and graphs.

use crate::{graph::CsrGraph, image::Image, sparse::CsrMatrix, Result, WbError};

/// A value a lab consumes or produces.
///
/// Every lab in the catalog reads zero or more `Dataset`s as inputs and
/// produces exactly one as its result, which the grader compares
/// against the instructor's expected `Dataset`.
#[derive(Debug, Clone, PartialEq)]
pub enum Dataset {
    /// 1-D vector of `f32`.
    Vector(Vec<f32>),
    /// 1-D vector of `i32` (used by histogram/binning/BFS labs).
    IntVector(Vec<i32>),
    /// Row-major dense matrix.
    Matrix {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// `rows * cols` values, row-major.
        data: Vec<f32>,
    },
    /// Image with interleaved channels.
    Image(Image),
    /// Sparse matrix in CSR form.
    Sparse(CsrMatrix),
    /// Graph in CSR adjacency form.
    Graph(CsrGraph),
    /// A single scalar (used by reduction labs).
    Scalar(f32),
}

impl Dataset {
    /// Short name of the dataset kind, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Dataset::Vector(_) => "vector",
            Dataset::IntVector(_) => "int-vector",
            Dataset::Matrix { .. } => "matrix",
            Dataset::Image(_) => "image",
            Dataset::Sparse(_) => "sparse",
            Dataset::Graph(_) => "graph",
            Dataset::Scalar(_) => "scalar",
        }
    }

    /// Total number of scalar elements (what a size-based time limit or
    /// points rubric scales against).
    pub fn len(&self) -> usize {
        match self {
            Dataset::Vector(v) => v.len(),
            Dataset::IntVector(v) => v.len(),
            Dataset::Matrix { data, .. } => data.len(),
            Dataset::Image(img) => img.data().len(),
            Dataset::Sparse(m) => m.values().len(),
            Dataset::Graph(g) => g.num_edges(),
            Dataset::Scalar(_) => 1,
        }
    }

    /// True when the dataset holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow as a float vector, or report the actual kind.
    pub fn as_vector(&self) -> Result<&[f32]> {
        match self {
            Dataset::Vector(v) => Ok(v),
            other => Err(WbError::Kind {
                expected: "vector",
                found: other.kind(),
            }),
        }
    }

    /// Borrow as an int vector, or report the actual kind.
    pub fn as_int_vector(&self) -> Result<&[i32]> {
        match self {
            Dataset::IntVector(v) => Ok(v),
            other => Err(WbError::Kind {
                expected: "int-vector",
                found: other.kind(),
            }),
        }
    }

    /// Borrow as a dense matrix `(rows, cols, data)`.
    pub fn as_matrix(&self) -> Result<(usize, usize, &[f32])> {
        match self {
            Dataset::Matrix { rows, cols, data } => Ok((*rows, *cols, data)),
            other => Err(WbError::Kind {
                expected: "matrix",
                found: other.kind(),
            }),
        }
    }

    /// Serialize to the libwb text interchange format.
    pub fn export(&self) -> String {
        let mut out = String::new();
        match self {
            Dataset::Vector(v) => {
                out.push_str(&format!("vector {}\n", v.len()));
                push_floats(&mut out, v);
            }
            Dataset::IntVector(v) => {
                out.push_str(&format!("ivector {}\n", v.len()));
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(&x.to_string());
                }
                out.push('\n');
            }
            Dataset::Matrix { rows, cols, data } => {
                out.push_str(&format!("matrix {rows} {cols}\n"));
                for r in 0..*rows {
                    push_floats(&mut out, &data[r * cols..(r + 1) * cols]);
                }
            }
            Dataset::Image(img) => {
                out.push_str(&format!(
                    "image {} {} {}\n",
                    img.width(),
                    img.height(),
                    img.channels()
                ));
                push_floats(&mut out, img.data());
            }
            Dataset::Sparse(m) => {
                out.push_str(&format!(
                    "sparse {} {} {}\n",
                    m.rows(),
                    m.cols(),
                    m.values().len()
                ));
                push_usizes(&mut out, m.row_ptr());
                push_usizes(&mut out, m.col_idx());
                push_floats(&mut out, m.values());
            }
            Dataset::Graph(g) => {
                out.push_str(&format!("graph {} {}\n", g.num_nodes(), g.num_edges()));
                push_usizes(&mut out, g.row_ptr());
                push_usizes(&mut out, g.neighbors());
            }
            Dataset::Scalar(x) => {
                out.push_str("scalar\n");
                out.push_str(&format!("{x}\n"));
            }
        }
        out
    }

    /// Parse the libwb text interchange format produced by [`export`].
    ///
    /// [`export`]: Dataset::export
    pub fn import(text: &str) -> Result<Dataset> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| WbError::parse(1, "empty dataset"))?;
        let mut parts = header.split_whitespace();
        let tag = parts
            .next()
            .ok_or_else(|| WbError::parse(1, "missing dataset tag"))?;
        // The rest of the payload is whitespace-separated values across
        // the remaining lines; collect once and slice per section.
        let body: Vec<(usize, &str)> = lines
            .flat_map(|(i, l)| l.split_whitespace().map(move |t| (i + 1, t)))
            .collect();
        let dims: Vec<usize> = parts
            .map(|p| {
                p.parse::<usize>()
                    .map_err(|_| WbError::parse(1, format!("bad dimension {p:?}")))
            })
            .collect::<Result<_>>()?;

        match tag {
            "vector" => {
                let n = expect_dims(&dims, 1)?[0];
                Ok(Dataset::Vector(take_floats(&body, 0, n)?))
            }
            "ivector" => {
                let n = expect_dims(&dims, 1)?[0];
                let v = tokens(&body, 0, n)?
                    .iter()
                    .map(|(line, tok)| {
                        tok.parse::<i32>()
                            .map_err(|_| WbError::parse(*line, format!("bad int {tok:?}")))
                    })
                    .collect::<Result<_>>()?;
                Ok(Dataset::IntVector(v))
            }
            "matrix" => {
                let d = expect_dims(&dims, 2)?;
                let (rows, cols) = (d[0], d[1]);
                let data = take_floats(&body, 0, size(rows.checked_mul(cols))?)?;
                Ok(Dataset::Matrix { rows, cols, data })
            }
            "image" => {
                let d = expect_dims(&dims, 3)?;
                let (w, h, c) = (d[0], d[1], d[2]);
                let n = size(w.checked_mul(h).and_then(|wh| wh.checked_mul(c)))?;
                let data = take_floats(&body, 0, n)?;
                Image::from_data(w, h, c, data).map(Dataset::Image)
            }
            "sparse" => {
                let d = expect_dims(&dims, 3)?;
                let (rows, cols, nnz) = (d[0], d[1], d[2]);
                let ptrs = size(rows.checked_add(1))?;
                let row_ptr = take_usizes(&body, 0, ptrs)?;
                let col_idx = take_usizes(&body, ptrs, nnz)?;
                let values = take_floats(&body, size(ptrs.checked_add(nnz))?, nnz)?;
                CsrMatrix::new(rows, cols, row_ptr, col_idx, values).map(Dataset::Sparse)
            }
            "graph" => {
                let d = expect_dims(&dims, 2)?;
                let (nodes, edges) = (d[0], d[1]);
                let ptrs = size(nodes.checked_add(1))?;
                let row_ptr = take_usizes(&body, 0, ptrs)?;
                let neighbors = take_usizes(&body, ptrs, edges)?;
                CsrGraph::new(nodes, row_ptr, neighbors).map(Dataset::Graph)
            }
            "scalar" => {
                let v = take_floats(&body, 0, 1)?;
                Ok(Dataset::Scalar(v[0]))
            }
            other => Err(WbError::parse(1, format!("unknown dataset tag {other:?}"))),
        }
    }
}

fn push_floats(out: &mut String, vals: &[f32]) {
    for (i, x) in vals.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        // `{:?}` on f32 round-trips exactly via `parse`, unlike `{}`
        // for some values; keep the canonical shortest form.
        out.push_str(&format!("{x:?}"));
    }
    out.push('\n');
}

fn push_usizes(out: &mut String, vals: &[usize]) {
    for (i, x) in vals.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&x.to_string());
    }
    out.push('\n');
}

fn expect_dims(dims: &[usize], n: usize) -> Result<&[usize]> {
    if dims.len() != n {
        return Err(WbError::parse(
            1,
            format!("expected {n} dimensions, found {}", dims.len()),
        ));
    }
    Ok(dims)
}

/// A size computed from header fields with checked arithmetic; `None`
/// (an overflow) is a parse error on the header line.
fn size(checked: Option<usize>) -> Result<usize> {
    checked.ok_or_else(|| WbError::parse(1, "dataset size overflows"))
}

/// The `n` body tokens from `offset` on. Checked before anything is
/// allocated, so a header's sizes never outrun the body that backs them.
fn tokens<'a>(
    body: &'a [(usize, &'a str)],
    offset: usize,
    n: usize,
) -> Result<&'a [(usize, &'a str)]> {
    offset
        .checked_add(n)
        .and_then(|end| body.get(offset..end))
        .ok_or_else(|| WbError::parse(1, format!("truncated payload: needed {n} values")))
}

fn take_floats(body: &[(usize, &str)], offset: usize, n: usize) -> Result<Vec<f32>> {
    tokens(body, offset, n)?
        .iter()
        .map(|(line, tok)| {
            tok.parse::<f32>()
                .map_err(|_| WbError::parse(*line, format!("bad float {tok:?}")))
        })
        .collect()
}

fn take_usizes(body: &[(usize, &str)], offset: usize, n: usize) -> Result<Vec<usize>> {
    tokens(body, offset, n)?
        .iter()
        .map(|(line, tok)| {
            tok.parse::<usize>()
                .map_err(|_| WbError::parse(*line, format!("bad index {tok:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(d: &Dataset) {
        let text = d.export();
        let back = Dataset::import(&text).expect("import");
        assert_eq!(&back, d, "roundtrip failed for {text}");
    }

    #[test]
    fn vector_roundtrip() {
        roundtrip(&Dataset::Vector(vec![1.0, -2.5, 3.25e-4, 0.0]));
    }

    #[test]
    fn int_vector_roundtrip() {
        roundtrip(&Dataset::IntVector(vec![5, -3, 0, i32::MAX]));
    }

    #[test]
    fn matrix_roundtrip() {
        roundtrip(&Dataset::Matrix {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        });
    }

    #[test]
    fn scalar_roundtrip() {
        roundtrip(&Dataset::Scalar(42.5));
    }

    #[test]
    fn image_roundtrip() {
        let img = Image::from_data(2, 2, 3, vec![0.5; 12]).unwrap();
        roundtrip(&Dataset::Image(img));
    }

    #[test]
    fn sparse_roundtrip() {
        let m = CsrMatrix::new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0]).unwrap();
        roundtrip(&Dataset::Sparse(m));
    }

    #[test]
    fn graph_roundtrip() {
        let g = CsrGraph::new(3, vec![0, 2, 3, 3], vec![1, 2, 2]).unwrap();
        roundtrip(&Dataset::Graph(g));
    }

    #[test]
    fn empty_vector_roundtrip() {
        roundtrip(&Dataset::Vector(vec![]));
    }

    #[test]
    fn import_rejects_empty() {
        assert!(Dataset::import("").is_err());
    }

    #[test]
    fn import_rejects_unknown_tag() {
        assert!(Dataset::import("tensor 3\n1 2 3\n").is_err());
    }

    #[test]
    fn import_rejects_truncated_matrix() {
        let err = Dataset::import("matrix 2 2\n1 2 3\n").unwrap_err();
        assert!(matches!(err, WbError::Parse { .. }));
    }

    #[test]
    fn import_rejects_bad_float() {
        let err = Dataset::import("vector 2\n1.0 oops\n").unwrap_err();
        assert!(matches!(err, WbError::Parse { line: 2, .. }));
    }

    #[test]
    fn import_rejects_wrong_dim_count() {
        assert!(Dataset::import("matrix 2\n1 2\n").is_err());
    }

    /// A header may claim any size; the body it needs is checked, with
    /// overflow-free arithmetic, before anything is allocated.
    #[test]
    fn import_rejects_hostile_headers() {
        for text in [
            "vector 100000000000000\n1.0\n",
            "vector 18446744073709551615\n1.0\n",
            "ivector 18446744073709551615\n1\n",
            "matrix 4294967296 4294967297\n1.0\n",
            "image 4294967296 4294967296 2\n1.0\n",
            "sparse 18446744073709551615 1 1\n0\n",
            "sparse 1 1 18446744073709551615\n0 1\n0\n1.0\n",
            "graph 18446744073709551615 1\n0\n",
            "graph 1 18446744073709551615\n0 0\n",
        ] {
            let err = Dataset::import(text).unwrap_err();
            assert!(
                matches!(err, WbError::Parse { line: 1, .. }),
                "{text:?}: {err}"
            );
        }
    }

    #[test]
    fn image_from_data_rejects_overflowing_dims() {
        let err = Image::from_data(1 << 32, 1 << 32, 2, vec![0.0]).unwrap_err();
        assert!(matches!(err, WbError::Shape(_)), "{err}");
    }

    #[test]
    fn kind_accessors_enforce_type() {
        let v = Dataset::Vector(vec![1.0]);
        assert!(v.as_vector().is_ok());
        assert_eq!(
            v.as_matrix().unwrap_err(),
            WbError::Kind {
                expected: "matrix",
                found: "vector"
            }
        );
    }

    #[test]
    fn len_counts_elements() {
        assert_eq!(Dataset::Vector(vec![0.0; 7]).len(), 7);
        assert_eq!(
            Dataset::Matrix {
                rows: 3,
                cols: 4,
                data: vec![0.0; 12]
            }
            .len(),
            12
        );
        assert_eq!(Dataset::Scalar(1.0).len(), 1);
        assert!(!Dataset::Scalar(1.0).is_empty());
        assert!(Dataset::Vector(vec![]).is_empty());
    }
}
