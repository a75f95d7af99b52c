//! Solution checking: compare a student result against the expected
//! dataset and report mismatches the way the WebGPU UI does.
//!
//! The paper (§IV-A action 3): *"students can evaluate their code
//! against instructor provided datasets. If a mismatch occurs between
//! the computed and the expected values, the student is informed."*

use crate::Dataset;

/// Tolerance policy for float comparison.
///
/// GPU floating-point labs (reduction, scan, SGEMM) cannot demand exact
/// equality — warp-level reassociation changes rounding — so the grader
/// accepts values within `abs_tol + rel_tol * |expected|`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckPolicy {
    /// Absolute tolerance floor.
    pub abs_tol: f32,
    /// Relative tolerance factor.
    pub rel_tol: f32,
    /// Cap on how many mismatches to record (UI shows only the first few).
    pub max_reported: usize,
}

impl Default for CheckPolicy {
    fn default() -> Self {
        CheckPolicy {
            abs_tol: 1e-3,
            rel_tol: 1e-3,
            max_reported: 10,
        }
    }
}

impl CheckPolicy {
    /// Exact comparison (integer labs: histogram bins, BFS levels).
    pub fn exact() -> Self {
        CheckPolicy {
            abs_tol: 0.0,
            rel_tol: 0.0,
            max_reported: 10,
        }
    }

    /// True when `got` is acceptably close to `want`.
    pub fn close(&self, got: f32, want: f32) -> bool {
        if got == want {
            return true; // covers infinities of matching sign and -0.0 == 0.0
        }
        if !got.is_finite() || !want.is_finite() {
            // NaNs never match; non-equal infinities (e.g. inf vs -inf)
            // must not slip through `inf <= inf` tolerance arithmetic.
            return false;
        }
        (got - want).abs() <= self.abs_tol + self.rel_tol * want.abs()
    }
}

/// One differing element, reported to the student.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Flat element index of the difference.
    pub index: usize,
    /// Value the student's program produced.
    pub got: f32,
    /// Value the instructor dataset expects.
    pub expected: f32,
}

/// Outcome of comparing a result against an expected dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Total number of elements compared.
    pub total: usize,
    /// Total number of differing elements (may exceed `mismatches.len()`).
    pub mismatch_count: usize,
    /// First few mismatches, capped by the policy.
    pub mismatches: Vec<Mismatch>,
    /// Set when the shapes/kinds differ; elementwise comparison was
    /// skipped entirely.
    pub shape_error: Option<String>,
}

impl CheckReport {
    /// True when the result matched the expected dataset.
    pub fn passed(&self) -> bool {
        self.shape_error.is_none() && self.mismatch_count == 0
    }

    /// Render the student-facing summary line.
    pub fn summary(&self) -> String {
        if let Some(err) = &self.shape_error {
            return format!("Solution shape mismatch: {err}");
        }
        if self.mismatch_count == 0 {
            format!("Solution is correct ({} values checked)", self.total)
        } else {
            let first = self
                .mismatches
                .first()
                .map(|m| {
                    format!(
                        " First difference at index {}: expected {} got {}.",
                        m.index, m.expected, m.got
                    )
                })
                .unwrap_or_default();
            format!(
                "Solution differs in {} of {} values.{}",
                self.mismatch_count, self.total, first
            )
        }
    }

    fn shape(err: String) -> Self {
        CheckReport {
            total: 0,
            mismatch_count: 0,
            mismatches: Vec::new(),
            shape_error: Some(err),
        }
    }
}

/// Compare a computed dataset against the expected one.
pub fn compare(got: &Dataset, expected: &Dataset, policy: &CheckPolicy) -> CheckReport {
    match (got, expected) {
        (Dataset::Vector(g), Dataset::Vector(e)) => compare_floats(g, e, policy),
        (Dataset::Scalar(g), Dataset::Scalar(e)) => compare_floats(&[*g], &[*e], policy),
        (Dataset::IntVector(g), Dataset::IntVector(e)) => compare_ints(g, e, policy),
        (
            Dataset::Matrix {
                rows: gr,
                cols: gc,
                data: gd,
            },
            Dataset::Matrix {
                rows: er,
                cols: ec,
                data: ed,
            },
        ) => {
            if (gr, gc) != (er, ec) {
                CheckReport::shape(format!("got {gr}x{gc} matrix, expected {er}x{ec}"))
            } else {
                compare_floats(gd, ed, policy)
            }
        }
        (Dataset::Image(g), Dataset::Image(e)) => {
            if (g.width(), g.height(), g.channels()) != (e.width(), e.height(), e.channels()) {
                CheckReport::shape(format!(
                    "got {}x{}x{} image, expected {}x{}x{}",
                    g.width(),
                    g.height(),
                    g.channels(),
                    e.width(),
                    e.height(),
                    e.channels()
                ))
            } else {
                compare_floats(g.data(), e.data(), policy)
            }
        }
        (g, e) if g.kind() != e.kind() => {
            CheckReport::shape(format!("got {} dataset, expected {}", g.kind(), e.kind()))
        }
        // Sparse/graph results are produced by labs only as dense
        // vectors, so reaching here with those kinds means the lab
        // definition itself is inconsistent.
        (g, e) => CheckReport::shape(format!(
            "cannot compare {} datasets elementwise (kind {})",
            g.kind(),
            e.kind()
        )),
    }
}

fn compare_floats(got: &[f32], expected: &[f32], policy: &CheckPolicy) -> CheckReport {
    if got.len() != expected.len() {
        return CheckReport::shape(format!(
            "got {} values, expected {}",
            got.len(),
            expected.len()
        ));
    }
    let mut mismatches = Vec::new();
    let mut count = 0usize;
    for (i, (&g, &e)) in got.iter().zip(expected).enumerate() {
        if !policy.close(g, e) {
            count += 1;
            if mismatches.len() < policy.max_reported {
                mismatches.push(Mismatch {
                    index: i,
                    got: g,
                    expected: e,
                });
            }
        }
    }
    CheckReport {
        total: expected.len(),
        mismatch_count: count,
        mismatches,
        shape_error: None,
    }
}

fn compare_ints(got: &[i32], expected: &[i32], policy: &CheckPolicy) -> CheckReport {
    if got.len() != expected.len() {
        return CheckReport::shape(format!(
            "got {} values, expected {}",
            got.len(),
            expected.len()
        ));
    }
    let mut mismatches = Vec::new();
    let mut count = 0usize;
    for (i, (&g, &e)) in got.iter().zip(expected).enumerate() {
        if g != e {
            count += 1;
            if mismatches.len() < policy.max_reported {
                mismatches.push(Mismatch {
                    index: i,
                    got: g as f32,
                    expected: e as f32,
                });
            }
        }
    }
    CheckReport {
        total: expected.len(),
        mismatch_count: count,
        mismatches,
        shape_error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_pass() {
        let d = Dataset::Vector(vec![1.0, 2.0, 3.0]);
        let r = compare(&d, &d, &CheckPolicy::default());
        assert!(r.passed());
        assert_eq!(r.total, 3);
        assert!(r.summary().contains("correct"));
    }

    #[test]
    fn tolerance_accepts_small_drift() {
        let got = Dataset::Vector(vec![1.0005]);
        let want = Dataset::Vector(vec![1.0]);
        assert!(compare(&got, &want, &CheckPolicy::default()).passed());
        assert!(!compare(&got, &want, &CheckPolicy::exact()).passed());
    }

    #[test]
    fn relative_tolerance_scales_with_magnitude() {
        let p = CheckPolicy {
            abs_tol: 0.0,
            rel_tol: 1e-3,
            max_reported: 10,
        };
        assert!(p.close(1000.5, 1000.0));
        assert!(!p.close(1.5, 1.0));
    }

    #[test]
    fn nan_never_matches() {
        let p = CheckPolicy::default();
        assert!(!p.close(f32::NAN, 1.0));
        assert!(!p.close(1.0, f32::NAN));
        assert!(!p.close(f32::NAN, f32::NAN));
    }

    #[test]
    fn matching_infinities_pass() {
        let p = CheckPolicy::default();
        assert!(p.close(f32::INFINITY, f32::INFINITY));
        assert!(!p.close(f32::INFINITY, f32::NEG_INFINITY));
    }

    #[test]
    fn mismatch_reporting_is_capped() {
        let got = Dataset::Vector(vec![9.0; 100]);
        let want = Dataset::Vector(vec![0.0; 100]);
        let r = compare(&got, &want, &CheckPolicy::default());
        assert_eq!(r.mismatch_count, 100);
        assert_eq!(r.mismatches.len(), 10);
        assert!(!r.passed());
        assert!(r.summary().contains("100 of 100"));
    }

    #[test]
    fn first_mismatch_is_reported_in_summary() {
        let got = Dataset::Vector(vec![1.0, 5.0, 3.0]);
        let want = Dataset::Vector(vec![1.0, 2.0, 3.0]);
        let r = compare(&got, &want, &CheckPolicy::exact());
        assert_eq!(r.mismatches[0].index, 1);
        assert!(r.summary().contains("index 1"));
    }

    #[test]
    fn length_mismatch_is_shape_error() {
        let got = Dataset::Vector(vec![1.0]);
        let want = Dataset::Vector(vec![1.0, 2.0]);
        let r = compare(&got, &want, &CheckPolicy::default());
        assert!(!r.passed());
        assert!(r.shape_error.is_some());
    }

    #[test]
    fn kind_mismatch_is_shape_error() {
        let got = Dataset::Vector(vec![1.0]);
        let want = Dataset::Scalar(1.0);
        let r = compare(&got, &want, &CheckPolicy::default());
        assert!(r.shape_error.unwrap().contains("expected scalar"));
    }

    #[test]
    fn matrix_dims_must_match() {
        let a = Dataset::Matrix {
            rows: 2,
            cols: 2,
            data: vec![0.0; 4],
        };
        let b = Dataset::Matrix {
            rows: 4,
            cols: 1,
            data: vec![0.0; 4],
        };
        assert!(!compare(&a, &b, &CheckPolicy::default()).passed());
    }

    #[test]
    fn int_vectors_compare_exactly() {
        let a = Dataset::IntVector(vec![1, 2, 3]);
        let b = Dataset::IntVector(vec![1, 2, 4]);
        let r = compare(&a, &b, &CheckPolicy::default());
        assert_eq!(r.mismatch_count, 1);
        assert_eq!(r.mismatches[0].index, 2);
    }

    #[test]
    fn image_shape_checked_before_values() {
        use crate::Image;
        let a = Dataset::Image(Image::zeros(2, 2, 1));
        let b = Dataset::Image(Image::zeros(2, 2, 3));
        assert!(compare(&a, &b, &CheckPolicy::default())
            .shape_error
            .is_some());
    }
}
