//! Job and result envelopes exchanged between the web server / queue
//! and worker nodes.

use libwb::{CheckPolicy, CheckReport, Dataset};
use minicuda::{AnalysisPolicy, CostSummary, Diag, Dialect, Finding};
use std::sync::Arc;
use wb_queue::CapabilitySet;
use wb_sandbox::{Blacklist, ResourceLimits, SyscallWhitelist};

/// One test dataset: the inputs handed to the program and the expected
/// output the worker evaluates against.
///
/// The payload is built once, where the lab is defined, and is
/// immutable from then on: a clone (the deployed lab's copy into each
/// [`JobRequest`], and every scheduler, broker or retry copy of that
/// job) shares it and bumps two reference counts.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetCase {
    /// Human-visible name ("dataset 3").
    pub name: String,
    /// Program inputs, in `wbImport` index order.
    pub inputs: Arc<[Dataset]>,
    /// Expected solution.
    pub expected: Arc<Dataset>,
}

/// Everything the instructor configured that the worker needs: the
/// "configurations specified by the lab" of §III-C.
#[derive(Debug, Clone)]
pub struct LabSpec {
    /// Lab identifier (catalog key).
    pub lab_id: String,
    /// Course offering the lab — the fair-share scheduler's
    /// arbitration key.
    pub course: String,
    /// Language surface.
    pub dialect: Dialect,
    /// Compile-time blacklist.
    pub blacklist: Blacklist,
    /// Runtime syscall whitelist.
    pub whitelist: SyscallWhitelist,
    /// Execution budgets.
    pub limits: ResourceLimits,
    /// Float comparison policy for grading.
    pub check: CheckPolicy,
    /// Capability tags a worker must have (`mpi`, `multi-gpu`).
    pub tags: CapabilitySet,
    /// Toolchain the container image must provide.
    pub toolchain: String,
    /// Middle-end level kernels compile at. Part of the compile cache
    /// key: a grade produced at one level is never served for another.
    pub opt_level: minicuda::OptLevel,
    /// Static-verifier policy for this lab: `Off` skips the verifier,
    /// `Warn` (the default) attaches findings without touching the
    /// grade, `Deny` rejects flagged submissions before any dataset
    /// runs.
    pub analysis: AnalysisPolicy,
}

impl LabSpec {
    /// A reasonable default CUDA lab spec for tests.
    pub fn cuda_test(lab_id: impl Into<String>) -> Self {
        LabSpec {
            lab_id: lab_id.into(),
            course: "default".to_string(),
            dialect: Dialect::Cuda,
            blacklist: Blacklist::standard(),
            whitelist: SyscallWhitelist::cuda_default(),
            limits: ResourceLimits::default(),
            check: CheckPolicy::default(),
            tags: CapabilitySet::new(),
            toolchain: "cuda".to_string(),
            opt_level: minicuda::OptLevel::default(),
            analysis: AnalysisPolicy::default(),
        }
    }
}

/// What the student asked for (§IV-A actions 2, 3, and 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobAction {
    /// Action 2: compile only, report errors.
    CompileOnly,
    /// Action 3: run against one instructor dataset.
    RunDataset(usize),
    /// Action 5: full grading run over all datasets.
    FullGrade,
}

/// A job as dispatched to a worker.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Platform-wide job id.
    pub job_id: u64,
    /// Submitting user (audit trail).
    pub user: String,
    /// Student source code.
    pub source: String,
    /// Lab configuration.
    pub spec: LabSpec,
    /// Instructor datasets (the worker only runs the requested ones).
    pub datasets: Vec<DatasetCase>,
    /// Requested action.
    pub action: JobAction,
}

/// Result of one dataset run.
///
/// `PartialEq` is part of the cache's contract: the hit ≡ fresh
/// property test asserts a cached outcome is indistinguishable from a
/// recomputed one, field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetOutcome {
    /// Dataset name.
    pub name: String,
    /// Comparison against the expected output (absent when the program
    /// failed before producing a solution).
    pub check: Option<CheckReport>,
    /// Runtime error, if the run failed.
    pub error: Option<Diag>,
    /// Cost counters for the run.
    pub cost: CostSummary,
    /// Virtual elapsed device cycles.
    pub elapsed_cycles: u64,
    /// Captured log text shown in the attempt view.
    pub log_text: String,
    /// `wbTime` report text.
    pub timing_text: String,
}

impl DatasetOutcome {
    /// True when the run completed and matched the expected output.
    pub fn passed(&self) -> bool {
        self.error.is_none() && self.check.as_ref().is_some_and(CheckReport::passed)
    }
}

/// The worker's reply for a whole job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Echoed job id.
    pub job_id: u64,
    /// Worker that executed it.
    pub worker_id: u64,
    /// Compile error (blacklist violation or compiler diagnostic);
    /// when set, no datasets were run.
    pub compile_error: Option<String>,
    /// Per-dataset outcomes in request order.
    pub datasets: Vec<DatasetOutcome>,
    /// Static-verifier findings. Under `Warn` they ride alongside an
    /// otherwise untouched grade; under `Deny` they explain the
    /// `compile_error`. Always empty when the lab's policy is `Off`.
    pub analysis: Vec<Finding>,
    /// Virtual milliseconds spent waiting for a container.
    pub container_wait_ms: u64,
}

impl JobOutcome {
    /// True when compilation succeeded.
    pub fn compiled(&self) -> bool {
        self.compile_error.is_none()
    }

    /// Number of datasets that passed.
    pub fn passed_count(&self) -> usize {
        self.datasets.iter().filter(|d| d.passed()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_sane() {
        let s = LabSpec::cuda_test("vecadd");
        assert_eq!(s.lab_id, "vecadd");
        assert_eq!(s.dialect, Dialect::Cuda);
        assert!(s.tags.is_empty());
    }

    #[test]
    fn outcome_pass_logic() {
        let mut o = DatasetOutcome {
            name: "d0".into(),
            check: Some(libwb::check::compare(
                &Dataset::Scalar(1.0),
                &Dataset::Scalar(1.0),
                &CheckPolicy::default(),
            )),
            error: None,
            cost: CostSummary::default(),
            elapsed_cycles: 0,
            log_text: String::new(),
            timing_text: String::new(),
        };
        assert!(o.passed());
        o.error = Some(minicuda::Diag::nowhere(minicuda::Phase::Runtime, "boom"));
        assert!(!o.passed());
        o.error = None;
        o.check = None;
        assert!(!o.passed());
    }
}
