//! Instructor-side lab definition and the grading rubric.
//!
//! §IV-E: a lab is a markdown description, a solution skeleton,
//! datasets, short-answer questions, and a configuration file with the
//! deadline and how to award points: *"Points are arbitrarily divided
//! among datasets, short-answer questions, presence of keywords, and
//! successful compilation."*

use wb_worker::{DatasetCase, JobOutcome, LabSpec};

/// How points are awarded (§IV-E item 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Rubric {
    /// Points for a successful compilation.
    pub compile_points: f64,
    /// Points split evenly across passing datasets.
    pub dataset_points: f64,
    /// Points reserved for short-answer questions (instructor-graded).
    pub question_points: f64,
    /// Points for the presence of specific keywords in the source
    /// (e.g. `__shared__` in the tiling lab).
    pub keyword_points: Vec<(String, f64)>,
}

impl Default for Rubric {
    fn default() -> Self {
        Rubric {
            compile_points: 10.0,
            dataset_points: 80.0,
            question_points: 10.0,
            keyword_points: Vec::new(),
        }
    }
}

impl Rubric {
    /// Maximum attainable points.
    pub fn max_points(&self) -> f64 {
        self.compile_points
            + self.dataset_points
            + self.question_points
            + self.keyword_points.iter().map(|(_, p)| p).sum::<f64>()
    }

    /// Auto-gradable portion of the score: compilation, datasets, and
    /// keywords. Question points are added later by the instructor.
    pub fn auto_score(&self, outcome: &JobOutcome, source: &str) -> f64 {
        let mut score = 0.0;
        if outcome.compiled() {
            score += self.compile_points;
        } else {
            return 0.0;
        }
        let total = outcome.datasets.len();
        if total > 0 {
            let per = self.dataset_points / total as f64;
            score += per * outcome.passed_count() as f64;
        }
        for (kw, pts) in &self.keyword_points {
            if source.contains(kw) {
                score += pts;
            }
        }
        score
    }
}

/// A deployed lab (§IV-E).
#[derive(Debug, Clone)]
pub struct LabDefinition {
    /// Catalog id (`vecadd`, `tiled-matmul`, …).
    pub id: String,
    /// Display title.
    pub title: String,
    /// Markdown manual (rendered by `markdown::render`).
    pub description_md: String,
    /// Starter code shown on first open.
    pub skeleton: String,
    /// Instructor datasets.
    pub datasets: Vec<DatasetCase>,
    /// Short-answer questions.
    pub questions: Vec<String>,
    /// Toolchain/sandbox/limits configuration.
    pub spec: LabSpec,
    /// Rubric.
    pub rubric: Rubric,
    /// Deadline, virtual ms since course start.
    pub deadline_ms: u64,
}

impl LabDefinition {
    /// A minimal test lab with one identity dataset.
    pub fn test_lab(id: &str) -> Self {
        use libwb::Dataset;
        LabDefinition {
            id: id.to_string(),
            title: format!("Test lab {id}"),
            description_md: "# Test\n\nEcho the input.".to_string(),
            skeleton: "int main() {\n    // your code here\n    return 0;\n}\n".to_string(),
            datasets: vec![DatasetCase {
                name: "d0".into(),
                inputs: vec![Dataset::Vector(vec![1.0, 2.0, 3.0])],
                expected: Dataset::Vector(vec![1.0, 2.0, 3.0]),
            }],
            questions: vec!["Why is the sky blue?".to_string()],
            spec: LabSpec::cuda_test(id),
            rubric: Rubric::default(),
            deadline_ms: 7 * 24 * 3600 * 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicuda::CostSummary;
    use wb_worker::job::DatasetOutcome;

    fn outcome(compiled: bool, passes: &[bool]) -> JobOutcome {
        JobOutcome {
            job_id: 1,
            worker_id: 1,
            compile_error: if compiled { None } else { Some("boom".into()) },
            datasets: passes
                .iter()
                .map(|&p| DatasetOutcome {
                    name: "d".into(),
                    check: Some(libwb::check::compare(
                        &libwb::Dataset::Scalar(if p { 1.0 } else { 2.0 }),
                        &libwb::Dataset::Scalar(1.0),
                        &libwb::CheckPolicy::exact(),
                    )),
                    error: None,
                    cost: CostSummary::default(),
                    elapsed_cycles: 0,
                    log_text: String::new(),
                    timing_text: String::new(),
                })
                .collect(),
            analysis: Vec::new(),
            container_wait_ms: 0,
        }
    }

    #[test]
    fn full_marks_for_perfect_run() {
        let r = Rubric::default();
        let o = outcome(true, &[true, true]);
        assert!((r.auto_score(&o, "code") - 90.0).abs() < 1e-9);
        assert!((r.max_points() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn partial_dataset_credit() {
        let r = Rubric::default();
        let o = outcome(true, &[true, false, true, false]);
        // 10 compile + 2/4 of 80 = 50.
        assert!((r.auto_score(&o, "") - 50.0).abs() < 1e-9);
    }

    #[test]
    fn compile_failure_scores_zero() {
        let r = Rubric::default();
        let o = outcome(false, &[]);
        assert_eq!(r.auto_score(&o, ""), 0.0);
    }

    #[test]
    fn keyword_points_awarded() {
        let r = Rubric {
            keyword_points: vec![("__shared__".to_string(), 5.0)],
            ..Rubric::default()
        };
        let o = outcome(true, &[true]);
        let with = r.auto_score(&o, "__shared__ float tile[16];");
        let without = r.auto_score(&o, "float tile[16];");
        assert!((with - without - 5.0).abs() < 1e-9);
        assert!((r.max_points() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn test_lab_is_consistent() {
        let lab = LabDefinition::test_lab("x");
        assert_eq!(lab.id, "x");
        assert_eq!(lab.datasets.len(), 1);
        assert_eq!(lab.questions.len(), 1);
    }
}
