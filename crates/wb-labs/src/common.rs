//! Shared helpers for lab construction and a test harness that grades
//! reference solutions.

use libwb::{CheckPolicy, Dataset};
use wb_server::{LabDefinition, Rubric};
use wb_worker::{DatasetCase, LabSpec};

/// Dataset sizes: `Small` keeps unit tests fast; `Full` is what the
/// course and benches deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabScale {
    /// Tiny datasets for unit tests.
    Small,
    /// Course-sized datasets.
    Full,
}

impl LabScale {
    /// Pick a size by scale.
    pub fn pick(self, small: usize, full: usize) -> usize {
        match self {
            LabScale::Small => small,
            LabScale::Full => full,
        }
    }
}

/// Assemble a [`LabDefinition`] from the pieces every lab module
/// produces.
#[allow(clippy::too_many_arguments)]
pub fn make_lab(
    id: &str,
    title: &str,
    description_md: &str,
    skeleton: &str,
    datasets: Vec<DatasetCase>,
    questions: Vec<&str>,
    mut spec: LabSpec,
    rubric: Rubric,
) -> LabDefinition {
    spec.lab_id = id.to_string();
    LabDefinition {
        id: id.to_string(),
        title: title.to_string(),
        description_md: description_md.to_string(),
        skeleton: skeleton.to_string(),
        datasets,
        questions: questions.into_iter().map(String::from).collect(),
        spec,
        rubric,
        deadline_ms: 7 * 24 * 3600 * 1000,
    }
}

/// Build one dataset case.
pub fn case(name: &str, inputs: Vec<Dataset>, expected: Dataset) -> DatasetCase {
    DatasetCase {
        name: name.to_string(),
        inputs,
        expected,
    }
}

/// Default float tolerance for GPU labs.
pub fn float_check() -> CheckPolicy {
    CheckPolicy::default()
}

/// Exact comparison for integer labs.
pub fn exact_check() -> CheckPolicy {
    CheckPolicy::exact()
}

/// Grade a source against a lab on a small in-process worker; panics
/// with the failure report unless every dataset passes. Used by each
/// lab module's tests to prove the reference solution is correct.
#[doc(hidden)]
pub fn grade_solution(lab: &LabDefinition, source: &str) {
    use wb_worker::{execute, JobAction, JobRequest, RunCtx};
    let req = JobRequest {
        job_id: 1,
        user: "reference".into(),
        source: source.to_string(),
        spec: lab.spec.clone(),
        datasets: lab.datasets.clone(),
        action: JobAction::FullGrade,
    };
    let out = execute(&req, &RunCtx::new(&minicuda::DeviceConfig::test_small()));
    assert!(
        out.compiled(),
        "reference solution for {} failed to compile: {}",
        lab.id,
        out.compile_error.unwrap_or_default()
    );
    for d in &out.datasets {
        assert!(
            d.passed(),
            "reference solution for {} failed {}: error={:?} check={:?}",
            lab.id,
            d.name,
            d.error,
            d.check.as_ref().map(|c| c.summary())
        );
    }
}

/// A skeleton banner shared by all labs (what students first see).
pub fn skeleton_banner(lab: &str) -> String {
    format!(
        "// {lab}\n// Complete the TODO sections. The wb.h support library is\n// preloaded; see the Description tab for the API you need.\n#include \"wb.h\"\n\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks() {
        assert_eq!(LabScale::Small.pick(4, 1024), 4);
        assert_eq!(LabScale::Full.pick(4, 1024), 1024);
    }

    #[test]
    fn make_lab_stamps_spec_id() {
        let lab = make_lab(
            "x",
            "X",
            "# x",
            "// skeleton",
            vec![],
            vec!["q1"],
            LabSpec::cuda_test("other"),
            Rubric::default(),
        );
        assert_eq!(lab.spec.lab_id, "x");
        assert_eq!(lab.questions.len(), 1);
    }
}
