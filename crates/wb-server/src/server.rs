//! The WebGPU web server: the six student actions, instructor tools,
//! and the roster — everything of §IV that runs on the web tier.
//!
//! Job execution is behind the [`JobDispatcher`] trait so the same
//! server logic runs on the v1 push cluster, the v2 queue cluster, or a
//! single in-process worker (tests). Submissions of every kind go
//! through one typed entry point, [`WebGpuServer::submit`], which
//! returns a [`SubmissionOutcome`] or a [`WbError`] and records the
//! attempt in the per-course metrics of a shared [`Recorder`].

use crate::api::{SubmissionOutcome, SubmitAction, SubmitRequest, WbError};
use crate::lab::LabDefinition;
use crate::markdown;
use crate::ratelimit::{RateLimit, RateLimiter};
use crate::session::Sessions;
use crate::state::{
    AnswerRec, AttemptRec, DeviceKind, RevisionRec, Role, ServerState, SubmissionRec,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wb_obs::sync::{Mutex, RwLock};
use wb_obs::{Counter, MetricsSnapshot, Recorder};
use wb_worker::{JobAction, JobOutcome, JobRequest};

/// Consecutive rounds that complete nothing before
/// [`JobDispatcher::dispatch`] stops waiting.
const DISPATCH_IDLE_ROUNDS: u32 = 10_000;

/// Abstract job execution backend.
///
/// A backend implements the queued path the semester replay drives:
/// [`submit_queued`] admits a job, [`advance`] runs one scheduling
/// round, and [`take_ready`] hands over the finished jobs a caller asks
/// for. The by-id [`poll_queued`] and the interactive [`dispatch`] are
/// written once over them, so a job's books are the same whichever path
/// submitted it.
///
/// [`dispatch`]: JobDispatcher::dispatch
/// [`submit_queued`]: JobDispatcher::submit_queued
/// [`advance`]: JobDispatcher::advance
/// [`poll_queued`]: JobDispatcher::poll_queued
/// [`take_ready`]: JobDispatcher::take_ready
pub trait JobDispatcher: Send + Sync {
    /// Offer a job through the backend's admission control without
    /// waiting for execution; `Ok(job_id)` when queued,
    /// [`WbError::Overloaded`] when shed.
    fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError>;

    /// Drive queued work one scheduling round; returns jobs completed
    /// this round.
    fn advance(&self, now_ms: u64) -> usize;

    /// Take every finished job's outcome whose id `wanted` accepts, in
    /// no particular order; the rest stay where they are.
    fn take_ready(&self, wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome>;

    /// Take the outcome of a previously queued job, if it finished.
    fn poll_queued(&self, job_id: u64) -> Option<JobOutcome> {
        self.take_ready(&|id| id == job_id).pop()
    }

    /// Submit a job and advance one round per virtual ms from `now_ms`
    /// until its outcome is in hand. Admission errors come back as
    /// they are. When ten thousand rounds in a row complete nothing,
    /// this gives up with [`WbError::Infra`], but the job stays
    /// admitted: it runs once a worker can take it, and its outcome
    /// is then polled like any queued job's. The student's own
    /// compile/runtime failures are *not* errors at this layer — they
    /// ride inside the [`JobOutcome`].
    fn dispatch(&self, req: JobRequest, now_ms: u64) -> Result<JobOutcome, WbError> {
        let job_id = self.submit_queued(req, now_ms)?;
        let (mut now, mut idle) = (now_ms, 0);
        while idle < DISPATCH_IDLE_ROUNDS {
            let done = self.advance(now);
            if let Some(outcome) = self.poll_queued(job_id) {
                return Ok(outcome);
            }
            idle = if done == 0 { idle + 1 } else { 0 };
            now += 1;
        }
        Err(WbError::infra(format!(
            "job {job_id} is still queued after {DISPATCH_IDLE_ROUNDS} rounds that completed \
             nothing (fleet empty or scaled to zero, every worker down, or none with the \
             job's capability tags)"
        )))
    }
}

/// Dispatchers pass through `Arc` unchanged, so a cluster can be
/// shared between a [`WebGpuServer`] and a harness that reads its
/// gauges directly.
impl<D: JobDispatcher + ?Sized> JobDispatcher for Arc<D> {
    fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        (**self).submit_queued(req, now_ms)
    }

    fn take_ready(&self, wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome> {
        (**self).take_ready(wanted)
    }

    fn advance(&self, now_ms: u64) -> usize {
        (**self).advance(now_ms)
    }
}

/// One row of the instructor roster view (§IV-F, Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct RosterRow {
    /// Student name.
    pub user: String,
    /// Student email.
    pub email: String,
    /// Number of graded submissions for the lab.
    pub submissions: usize,
    /// Best effective program score.
    pub program_grade: f64,
    /// Instructor-assigned question grade (0 until graded).
    pub question_grade: f64,
    /// Program + question.
    pub total_grade: f64,
    /// Virtual ms of the latest submission.
    pub last_submission_ms: Option<u64>,
}

/// The WebGPU web server.
pub struct WebGpuServer {
    /// Database tables.
    pub state: ServerState,
    /// Session manager.
    pub sessions: Sessions,
    labs: RwLock<HashMap<String, Arc<LabDefinition>>>,
    dispatcher: Box<dyn JobDispatcher>,
    limiter: RateLimiter,
    obs: Arc<Recorder>,
    next_job: AtomicU64,
    next_share: AtomicU64,
    /// Submissions queued on the dispatcher whose outcomes have not
    /// been reaped yet, keyed by job id.
    pending: Mutex<HashMap<u64, PendingSubmission>>,
}

/// Everything [`WebGpuServer::reap_queued`] needs to finish a
/// submission's record-keeping once its outcome surfaces.
struct PendingSubmission {
    user: String,
    lab: String,
    action: SubmitAction,
    at_ms: u64,
    source: String,
}

fn db_err(e: impl std::fmt::Display) -> WbError {
    WbError::infra(e.to_string())
}

impl WebGpuServer {
    /// Build a server over a dispatcher (recording disabled).
    pub fn new(dispatcher: Box<dyn JobDispatcher>) -> Self {
        Self::new_traced(dispatcher, Arc::new(Recorder::noop()))
    }

    /// Build a server whose attempt/rate-limit counters land in a
    /// shared recorder. Pass the same `Arc` to the cluster so queue,
    /// worker, and web-tier metrics compose into one snapshot.
    pub fn new_traced(dispatcher: Box<dyn JobDispatcher>, obs: Arc<Recorder>) -> Self {
        WebGpuServer {
            state: ServerState::new(),
            sessions: Sessions::new(),
            labs: RwLock::new(HashMap::new()),
            dispatcher,
            limiter: RateLimiter::new(RateLimit::default()),
            obs,
            next_job: AtomicU64::new(1),
            next_share: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// Current metrics: counters, latency percentiles, per-course
    /// attempt tallies, recent events — the queryable snapshot the
    /// operations dashboard renders.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    // ---- lab management (instructor, §IV-E) ---------------------------

    /// Deploy a lab. Unlike the rest of the instructor tools, the paper
    /// notes lab creation is a developer-level operation; here it is a
    /// server API guarded by the instructor role.
    pub fn deploy_lab(&self, token: u64, lab: LabDefinition) -> Result<(), WbError> {
        self.sessions.authenticate_instructor(token)?;
        self.labs.write().insert(lab.id.clone(), Arc::new(lab));
        Ok(())
    }

    /// Lab ids currently deployed.
    pub fn lab_ids(&self) -> Vec<String> {
        let mut v: Vec<String> = self.labs.read().keys().cloned().collect();
        v.sort();
        v
    }

    fn lab(&self, id: &str) -> Result<Arc<LabDefinition>, WbError> {
        self.labs
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| WbError::rejected(format!("no lab named {id:?}")))
    }

    /// The rendered lab manual + rubric shown to students (§IV-B 1).
    pub fn lab_description_html(&self, lab_id: &str) -> Result<String, WbError> {
        let lab = self.lab(lab_id)?;
        let mut html = markdown::render(&lab.description_md);
        html.push_str(&format!(
            "<h2>Grading</h2>\n<p>Compilation: {} points. Datasets: {} points. Questions: {} points.</p>\n",
            lab.rubric.compile_points, lab.rubric.dataset_points, lab.rubric.question_points
        ));
        Ok(html)
    }

    /// The skeleton code a student sees on first open (§IV-B 2).
    fn lab_skeleton(&self, lab_id: &str) -> Result<String, WbError> {
        Ok(self.lab(lab_id)?.skeleton.clone())
    }

    // ---- student actions (§IV-A) ----------------------------------------

    /// Action 1 — the editor autosaves code.
    pub fn save_code(
        &self,
        token: u64,
        lab_id: &str,
        source: &str,
        now_ms: u64,
    ) -> Result<u64, WbError> {
        let s = self.sessions.authenticate(token)?;
        self.lab(lab_id)?;
        self.state
            .revisions
            .insert(&RevisionRec {
                user: s.user,
                lab: lab_id.to_string(),
                at_ms: now_ms,
                source: source.to_string(),
            })
            .map_err(db_err)
    }

    /// The student's latest saved code, or the skeleton.
    pub fn current_code(&self, token: u64, lab_id: &str) -> Result<String, WbError> {
        let s = self.sessions.authenticate(token)?;
        let latest = self
            .state
            .revisions
            .with_last("by_user_lab", &format!("{}/{}", s.user, lab_id), |r| {
                r.source.clone()
            })
            .map_err(db_err)?;
        match latest {
            Some(source) => Ok(source),
            None => self.lab_skeleton(lab_id),
        }
    }

    /// Actions 2, 3, and 5 — the unified submission entry point.
    ///
    /// One request type covers compile-only, single-dataset runs, and
    /// full grades; one outcome type carries the attempt record id and
    /// the `trace_id` under which `wb-obs` recorded the job's span.
    /// Failure kinds are typed: the UI shows a countdown for
    /// [`WbError::RateLimited`], a compiler diagnostic for
    /// [`WbError::CompileError`], a crash report for
    /// [`WbError::RuntimeError`], and pages the operator for
    /// [`WbError::Infra`] (a job no worker could take stays queued on
    /// the dispatcher, but writes no record). Wrong answers are not
    /// errors: they come back `Ok` with `passed < total`.
    ///
    /// Full grades are the exception to the error taxonomy: grading
    /// records whatever happened — compile failure included — as a
    /// scored submission row, because a failed graded submission is a
    /// gradebook fact, not a transient error.
    pub fn submit(&self, req: &SubmitRequest) -> Result<SubmissionOutcome, WbError> {
        let (lab, meta, job) = self.prepare_submission(req)?;
        let job_id = job.job_id;
        let outcome = self.dispatcher.dispatch(job, req.at_ms)?;
        self.record_outcome(&lab, meta, job_id, &outcome)
    }

    /// The queued half of the submission API: everything up to and
    /// including admission happens now — auth, lab lookup, rate limit,
    /// the dispatcher's own admission control — but execution does
    /// not. Returns the job id to poll; record-keeping happens when
    /// [`reap_queued`](Self::reap_queued) collects the outcome. A shed
    /// ([`WbError::Overloaded`]) leaves no record, exactly like a
    /// synchronous dispatch failure.
    pub fn submit_queued(&self, req: &SubmitRequest) -> Result<u64, WbError> {
        let (_, meta, job) = self.prepare_submission(req)?;
        let job_id = job.job_id;
        self.dispatcher.submit_queued(job, req.at_ms)?;
        self.pending.lock().insert(job_id, meta);
        Ok(job_id)
    }

    /// Drive the dispatcher one scheduling round (a no-op where jobs run
    /// at submit time); returns jobs completed this round.
    pub fn advance(&self, now_ms: u64) -> usize {
        self.dispatcher.advance(now_ms)
    }

    /// Collect every queued submission whose outcome is ready and
    /// finish its record-keeping — rubric scoring, submission/attempt
    /// rows, hints — identically to the synchronous path. Takes only
    /// finished jobs this server queued, holding `pending` (locked
    /// before any dispatcher lock). Returns pairs in job-id order.
    #[allow(clippy::type_complexity)]
    pub fn reap_queued(&self) -> Vec<(u64, Result<SubmissionOutcome, WbError>)> {
        let mut ready: Vec<(PendingSubmission, JobOutcome)> = {
            let mut pending = self.pending.lock();
            let outcomes = self.dispatcher.take_ready(&|id| pending.contains_key(&id));
            outcomes
                .into_iter()
                .filter_map(|o| Some((pending.remove(&o.job_id)?, o)))
                .collect()
        };
        ready.sort_unstable_by_key(|(_, o)| o.job_id);
        ready
            .into_iter()
            .map(|(meta, outcome)| {
                let job_id = outcome.job_id;
                let result = self
                    .lab(&meta.lab)
                    .and_then(|lab| self.record_outcome(&lab, meta, job_id, &outcome));
                (job_id, result)
            })
            .collect()
    }

    /// Queued submissions not yet reaped.
    pub fn pending_queued(&self) -> usize {
        self.pending.lock().len()
    }

    /// The shared front half of both submission paths: authenticate,
    /// resolve lab and source, rate-limit, count the attempt, and
    /// build the job.
    fn prepare_submission(
        &self,
        req: &SubmitRequest,
    ) -> Result<(Arc<LabDefinition>, PendingSubmission, JobRequest), WbError> {
        let s = self.sessions.authenticate(req.token)?;
        let lab = self.lab(&req.lab)?;
        let source = match &req.source {
            Some(src) => src.clone(),
            None => self.current_code(req.token, &req.lab)?,
        };
        if let Err(e) = self
            .limiter
            .check(&format!("{}/{}", s.user, req.lab), req.at_ms)
        {
            self.obs.bump(Counter::RateLimited);
            return Err(e);
        }
        let action = match req.action {
            SubmitAction::CompileOnly => JobAction::CompileOnly,
            SubmitAction::RunDataset(i) => JobAction::RunDataset(i),
            SubmitAction::FullGrade => JobAction::FullGrade,
        };
        let job_id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.obs.bump(Counter::AttemptsServed);
        self.obs.bump_scoped(&format!("attempts/{}", req.lab));
        let job = JobRequest {
            job_id,
            user: s.user.clone(),
            source: source.clone(),
            spec: lab.spec.clone(),
            // Shares each case's payload with the deployed lab.
            datasets: lab.datasets.clone(),
            action,
        };
        let meta = PendingSubmission {
            user: s.user,
            lab: req.lab.clone(),
            action: req.action,
            at_ms: req.at_ms,
            source,
        };
        Ok((lab, meta, job))
    }

    /// The shared back half: render the outcome, append hints, write
    /// the durable row, and shape the typed result.
    fn record_outcome(
        &self,
        lab: &LabDefinition,
        meta: PendingSubmission,
        job_id: u64,
        outcome: &JobOutcome,
    ) -> Result<SubmissionOutcome, WbError> {
        let PendingSubmission {
            user,
            lab: lab_id,
            action,
            at_ms,
            source,
        } = meta;
        let (passed, mut report) = render_outcome(outcome);
        let analysis: Vec<String> = outcome
            .analysis
            .iter()
            .map(minicuda::Finding::render)
            .collect();
        // Automated feedback (the paper's future-work item): hints are
        // appended to failing attempts only — passing students are not
        // second-guessed, and a compile-only job that compiled (not
        // `passed`, as it ran nothing) has nothing to hint at.
        if attempt_failed(outcome) {
            for hint in crate::hints::hints_for(outcome, &source) {
                report.push_str(&format!("Hint: {}\n", hint.message));
            }
        }

        if action == SubmitAction::FullGrade {
            let score = lab.rubric.auto_score(outcome, &source);
            let record_id = self
                .state
                .submissions
                .insert(&SubmissionRec {
                    user,
                    lab: lab_id,
                    at_ms,
                    passed: outcome.passed_count(),
                    total: outcome.datasets.len(),
                    compiled: outcome.compiled(),
                    score,
                    override_score: None,
                    source,
                })
                .map_err(db_err)?;
            return Ok(SubmissionOutcome {
                trace_id: job_id,
                record_id,
                compiled: outcome.compiled(),
                passed: outcome.passed_count(),
                total: outcome.datasets.len(),
                score: Some(score),
                report,
                analysis,
            });
        }

        let record_id = self
            .state
            .attempts
            .insert(&AttemptRec {
                user,
                lab: lab_id,
                dataset: match action {
                    SubmitAction::RunDataset(i) => Some(i),
                    _ => None,
                },
                at_ms,
                compiled: outcome.compiled(),
                passed,
                summary: report.lines().next().unwrap_or_default().to_string(),
                source,
                share_token: None,
            })
            .map_err(db_err)?;
        if !outcome.compiled() {
            return Err(WbError::CompileError { report });
        }
        if outcome.datasets.iter().any(|d| d.error.is_some()) {
            return Err(WbError::RuntimeError { report });
        }
        Ok(SubmissionOutcome {
            trace_id: job_id,
            record_id,
            compiled: true,
            passed: outcome.passed_count(),
            total: outcome.datasets.len(),
            score: None,
            report,
            analysis,
        })
    }

    /// Action 4 — short-answer questions.
    pub fn answer_questions(
        &self,
        token: u64,
        lab_id: &str,
        answers: Vec<String>,
    ) -> Result<(), WbError> {
        let s = self.sessions.authenticate(token)?;
        let lab = self.lab(lab_id)?;
        if answers.len() != lab.questions.len() {
            return Err(WbError::rejected(format!(
                "lab has {} questions, {} answers given",
                lab.questions.len(),
                answers.len()
            )));
        }
        let key = format!("{}/{}", s.user, lab_id);
        let existing = self
            .state
            .answers
            .find("by_user_lab", &key)
            .unwrap_or_default();
        let rec = AnswerRec {
            user: s.user,
            lab: lab_id.to_string(),
            answers,
            question_score: None,
            comment: None,
        };
        match existing.first() {
            Some(&id) => self.state.answers.update(id, &rec).map_err(db_err)?,
            None => {
                self.state.answers.insert(&rec).map_err(db_err)?;
            }
        }
        Ok(())
    }

    /// Action 6 — code history (§IV-B 5).
    pub fn history(&self, token: u64, lab_id: &str) -> Result<Vec<RevisionRec>, WbError> {
        let s = self.sessions.authenticate(token)?;
        let ids = self
            .state
            .revisions
            .find("by_user_lab", &format!("{}/{}", s.user, lab_id))
            .map_err(db_err)?;
        Ok(ids
            .into_iter()
            .filter_map(|id| self.state.revisions.get(id).ok())
            .collect())
    }

    /// The attempts view (§IV-B 4).
    pub fn attempts(&self, token: u64, lab_id: &str) -> Result<Vec<AttemptRec>, WbError> {
        let s = self.sessions.authenticate(token)?;
        let ids = self
            .state
            .attempts
            .find("by_user_lab", &format!("{}/{}", s.user, lab_id))
            .map_err(db_err)?;
        Ok(ids
            .into_iter()
            .filter_map(|id| self.state.attempts.get(id).ok())
            .collect())
    }

    /// Generate a public link for an attempt — only after the lab
    /// deadline has passed (§IV-B 2).
    pub fn share_attempt(&self, token: u64, attempt_id: u64, now_ms: u64) -> Result<u64, WbError> {
        let s = self.sessions.authenticate(token)?;
        let mut rec = self.state.attempts.get(attempt_id).map_err(db_err)?;
        if rec.user != s.user {
            return Err(WbError::rejected("you can only share your own attempts"));
        }
        let lab = self.lab(&rec.lab)?;
        if now_ms < lab.deadline_ms {
            return Err(WbError::rejected(
                "attempts can be shared after the lab deadline",
            ));
        }
        let t = self.next_share.fetch_add(1, Ordering::Relaxed) ^ 0x5bd1e995;
        rec.share_token = Some(t);
        self.state
            .attempts
            .update(attempt_id, &rec)
            .map_err(db_err)?;
        Ok(t)
    }

    // ---- instructor tools (§IV-F) ---------------------------------------

    /// The roster view: every student with a submission for the lab.
    pub fn roster(&self, token: u64, lab_id: &str) -> Result<Vec<RosterRow>, WbError> {
        self.sessions.authenticate_instructor(token)?;
        let ids = self
            .state
            .submissions
            .find("by_lab", lab_id)
            .map_err(db_err)?;
        let mut per_user: HashMap<String, RosterRow> = HashMap::new();
        for id in ids {
            let sub = match self.state.submissions.get(id) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let email = self
                .state
                .users
                .find("by_name", &sub.user)
                .ok()
                .and_then(|ids| ids.first().copied())
                .and_then(|uid| self.state.users.get(uid).ok())
                .map(|u| u.email)
                .unwrap_or_default();
            let row = per_user.entry(sub.user.clone()).or_insert(RosterRow {
                user: sub.user.clone(),
                email,
                submissions: 0,
                program_grade: 0.0,
                question_grade: 0.0,
                total_grade: 0.0,
                last_submission_ms: None,
            });
            row.submissions += 1;
            row.program_grade = row.program_grade.max(sub.effective_score());
            row.last_submission_ms = Some(row.last_submission_ms.unwrap_or(0).max(sub.at_ms));
        }
        // Question grades come from the answers table.
        for row in per_user.values_mut() {
            let key = format!("{}/{}", row.user, lab_id);
            if let Ok(ids) = self.state.answers.find("by_user_lab", &key) {
                if let Some(&id) = ids.first() {
                    if let Ok(a) = self.state.answers.get(id) {
                        row.question_grade = a.question_score.unwrap_or(0.0);
                    }
                }
            }
            row.total_grade = row.program_grade + row.question_grade;
        }
        let mut rows: Vec<RosterRow> = per_user.into_values().collect();
        rows.sort_by(|a, b| a.user.cmp(&b.user));
        Ok(rows)
    }

    /// Override a submission's grade (§IV-F: "Instructors are provided
    /// an interface to override a grade").
    pub fn override_grade(
        &self,
        token: u64,
        submission_id: u64,
        score: f64,
    ) -> Result<(), WbError> {
        self.sessions.authenticate_instructor(token)?;
        let mut rec = self.state.submissions.get(submission_id).map_err(db_err)?;
        rec.override_score = Some(score);
        self.state
            .submissions
            .update(submission_id, &rec)
            .map_err(db_err)
    }

    /// Grade a student's short answers and optionally leave a comment.
    pub fn grade_questions(
        &self,
        token: u64,
        user: &str,
        lab_id: &str,
        score: f64,
        comment: Option<String>,
    ) -> Result<(), WbError> {
        self.sessions.authenticate_instructor(token)?;
        let key = format!("{user}/{lab_id}");
        let ids = self
            .state
            .answers
            .find("by_user_lab", &key)
            .map_err(db_err)?;
        let id = *ids
            .first()
            .ok_or_else(|| WbError::rejected(format!("{user} has no answers for {lab_id}")))?;
        let mut rec = self.state.answers.get(id).map_err(db_err)?;
        rec.question_score = Some(score);
        if comment.is_some() {
            rec.comment = comment;
        }
        self.state.answers.update(id, &rec).map_err(db_err)
    }

    /// Publish a lab's grades to an external gradebook (§IV-F:
    /// "storing the grade in Coursera, for example"). Instructor-only;
    /// returns the number of grade posts made.
    pub fn publish_grades(
        &self,
        token: u64,
        lab_id: &str,
        gradebook: &dyn crate::gradebook::ExternalGradebook,
        now_ms: u64,
    ) -> Result<usize, WbError> {
        self.sessions.authenticate_instructor(token)?;
        self.lab(lab_id)?;
        crate::gradebook::publish_lab_grades(&self.state, gradebook, lab_id, now_ms)
            .map_err(WbError::infra)
    }

    // ---- registration passthroughs ---------------------------------------

    /// Register a student account.
    pub fn register_student(&self, name: &str, password: &str) -> Result<(), WbError> {
        Ok(self
            .sessions
            .register(&self.state, name, password, Role::Student)?)
    }

    /// Register an instructor account.
    pub fn register_instructor(&self, name: &str, password: &str) -> Result<(), WbError> {
        Ok(self
            .sessions
            .register(&self.state, name, password, Role::Instructor)?)
    }

    /// Log in.
    pub fn login(
        &self,
        name: &str,
        password: &str,
        device: DeviceKind,
        now_ms: u64,
    ) -> Result<u64, WbError> {
        Ok(self
            .sessions
            .login(&self.state, name, password, device, now_ms)?
            .token)
    }
}

/// True when the compile failed, or a dataset errored or mismatched.
fn attempt_failed(outcome: &JobOutcome) -> bool {
    outcome.compile_error.is_some()
        || outcome
            .datasets
            .iter()
            .any(|d| d.error.is_some() || d.check.as_ref().is_some_and(|c| !c.passed()))
}

/// Render a job outcome the way the attempt view shows it.
fn render_outcome(outcome: &JobOutcome) -> (bool, String) {
    if let Some(err) = &outcome.compile_error {
        return (false, format!("Compilation failed: {err}\n"));
    }
    if outcome.datasets.is_empty() {
        return (false, "Compilation successful.".to_string());
    }
    let mut passed = true;
    let mut report = String::new();
    for d in &outcome.datasets {
        if let Some(err) = &d.error {
            passed = false;
            report.push_str(&format!("[{}] failed: {err}\n", d.name));
        } else if let Some(check) = &d.check {
            if !check.passed() {
                passed = false;
            }
            report.push_str(&format!("[{}] {}\n", d.name, check.summary()));
        }
        if !d.timing_text.is_empty() {
            report.push_str(&d.timing_text);
        }
        if !d.log_text.is_empty() {
            report.push_str(&d.log_text);
        }
    }
    (passed, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::LabDefinition;

    /// A dispatcher running jobs on one in-process worker node.
    struct LocalDispatcher {
        node: wb_worker::WorkerNode,
        /// Outcomes of submitted jobs. The single local node executes at
        /// submit time, so "queued" work is already done and merely waits
        /// to be polled; `advance` has nothing to run.
        done: Mutex<HashMap<u64, JobOutcome>>,
    }

    impl LocalDispatcher {
        /// A single small deterministic worker reporting to `obs` (pass
        /// `Recorder::noop()` for an untraced one).
        fn new(obs: Arc<Recorder>) -> Self {
            let cfg = wb_worker::NodeConfig {
                obs,
                ..wb_worker::NodeConfig::new(minicuda::DeviceConfig::test_small())
            };
            LocalDispatcher {
                node: wb_worker::WorkerNode::launch(1, &cfg),
                done: Mutex::new(HashMap::new()),
            }
        }
    }

    impl JobDispatcher for LocalDispatcher {
        fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
            let outcome = self
                .node
                .submit(&req, now_ms)
                .ok_or_else(|| WbError::infra("worker unavailable"))?;
            self.done.lock().insert(req.job_id, outcome);
            Ok(req.job_id)
        }

        fn advance(&self, _now_ms: u64) -> usize {
            0
        }

        fn take_ready(&self, wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome> {
            let mut done = self.done.lock();
            done.extract_if(|&id, _| wanted(id)).map(|e| e.1).collect()
        }
    }

    impl WebGpuServer {
        /// Replace the default per-student submission rate limit (burst 3,
        /// one token per 15 s).
        fn with_rate_limit(mut self, limit: RateLimit) -> Self {
            self.limiter = RateLimiter::new(limit);
            self
        }
    }

    const ECHO: &str = r#"
        int main() {
            int n;
            float* a = wbImportVector(0, &n);
            wbSolution(a, n);
            return 0;
        }
    "#;

    fn server_with_lab() -> (WebGpuServer, u64, u64) {
        let local = LocalDispatcher::new(Arc::new(Recorder::noop()));
        with_echo_lab(WebGpuServer::new(Box::new(local)))
    }

    /// `srv` with an instructor, a student and the echo lab deployed.
    fn with_echo_lab(srv: WebGpuServer) -> (WebGpuServer, u64, u64) {
        srv.register_instructor("prof", "pw").unwrap();
        srv.register_student("alice", "pw").unwrap();
        let staff = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
        let student = srv.login("alice", "pw", DeviceKind::Desktop, 0).unwrap();
        srv.deploy_lab(staff, LabDefinition::test_lab("echo"))
            .unwrap();
        (srv, staff, student)
    }

    #[test]
    fn students_cannot_deploy_labs() {
        let (srv, _, student) = server_with_lab();
        let err = srv
            .deploy_lab(student, LabDefinition::test_lab("evil"))
            .unwrap_err();
        assert!(matches!(err, WbError::Rejected { ref reason } if reason.contains("instructor")));
    }

    #[test]
    fn skeleton_shown_before_any_save() {
        let (srv, _, student) = server_with_lab();
        let code = srv.current_code(student, "echo").unwrap();
        assert!(code.contains("your code here"));
    }

    #[test]
    fn autosave_and_history() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", "v1", 100).unwrap();
        srv.save_code(student, "echo", "v2", 200).unwrap();
        assert_eq!(srv.current_code(student, "echo").unwrap(), "v2");
        let hist = srv.history(student, "echo").unwrap();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].source, "v1");
        assert_eq!(hist[1].at_ms, 200);
    }

    #[test]
    fn compile_records_attempt() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", ECHO, 100).unwrap();
        let out = srv
            .submit(&SubmitRequest::compile_only(student, "echo").at(200))
            .unwrap();
        assert!(out.compiled);
        assert_eq!(out.total, 0, "compile-only runs no datasets");
        assert!(out.trace_id > 0);
        let attempts = srv.attempts(student, "echo").unwrap();
        assert_eq!(attempts.len(), 1);
        assert!(attempts[0].compiled);
        assert_eq!(attempts[0].dataset, None);
    }

    /// Hints are for failures: a compile-only job that compiled is not
    /// `passed` (it ran nothing) but did not fail either, so
    /// `record_outcome` skips the hint engine; a failed compile or a
    /// dataset that errored or mismatched runs it.
    #[test]
    fn hints_run_for_failed_attempts_only() {
        let outcome = |compile_error: Option<&str>,
                       datasets: Vec<wb_worker::job::DatasetOutcome>| {
            JobOutcome {
                job_id: 1,
                worker_id: 1,
                compile_error: compile_error.map(str::to_string),
                datasets,
                analysis: Vec::new(),
                container_wait_ms: 0,
            }
        };
        let dataset = |got: f32, error: Option<minicuda::Diag>| wb_worker::job::DatasetOutcome {
            name: "d".into(),
            check: error.is_none().then(|| {
                libwb::check::compare(
                    &libwb::Dataset::Scalar(got),
                    &libwb::Dataset::Scalar(1.0),
                    &libwb::CheckPolicy::exact(),
                )
            }),
            error,
            cost: minicuda::CostSummary::default(),
            elapsed_cycles: 0,
            log_text: String::new(),
            timing_text: String::new(),
        };

        let compiled = outcome(None, Vec::new());
        assert_eq!(
            render_outcome(&compiled),
            (false, "Compilation successful.".to_string()),
            "the attempt record and report are unchanged"
        );
        assert!(!attempt_failed(&compiled), "no hints for a clean compile");
        assert!(!attempt_failed(&outcome(None, vec![dataset(1.0, None)])));

        assert!(attempt_failed(&outcome(
            Some("1:1: syntax error"),
            Vec::new()
        )));
        assert!(attempt_failed(&outcome(None, vec![dataset(2.0, None)])));
        let trap = minicuda::Diag::nowhere(minicuda::Phase::Runtime, "division by zero");
        assert!(attempt_failed(&outcome(
            None,
            vec![dataset(1.0, None), dataset(0.0, Some(trap))]
        )));
    }

    #[test]
    fn compile_error_is_typed() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", "int main( {", 100).unwrap();
        let err = srv
            .submit(&SubmitRequest::compile_only(student, "echo").at(200))
            .unwrap_err();
        let WbError::CompileError { report } = err else {
            panic!("expected CompileError, got {err:?}");
        };
        assert!(report.contains("Compilation failed"));
        // The failed attempt is still on the record.
        let attempts = srv.attempts(student, "echo").unwrap();
        assert_eq!(attempts.len(), 1);
        assert!(!attempts[0].compiled);
    }

    #[test]
    fn run_dataset_reports_pass() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", ECHO, 100).unwrap();
        let out = srv
            .submit(&SubmitRequest::run_dataset(student, "echo", 0).at(200))
            .unwrap();
        assert!(out.all_passed(), "{}", out.report);
        assert!(out.report.contains("correct"));
        assert!(out.score.is_none(), "no rubric score outside full grades");
    }

    #[test]
    fn run_dataset_reports_mismatch() {
        let (srv, _, student) = server_with_lab();
        let buggy = ECHO.replace("wbSolution(a, n)", "a[0] = 99.0; wbSolution(a, n)");
        srv.save_code(student, "echo", &buggy, 100).unwrap();
        let out = srv
            .submit(&SubmitRequest::run_dataset(student, "echo", 0).at(200))
            .unwrap();
        assert!(!out.all_passed(), "wrong answers are outcomes, not errors");
        assert_eq!((out.passed, out.total), (0, 1));
        assert!(out.report.contains("differs"));
    }

    #[test]
    fn submit_scores_with_rubric() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", ECHO, 100).unwrap();
        let sub = srv
            .submit(&SubmitRequest::full_grade(student, "echo").at(200))
            .unwrap();
        assert!(sub.compiled);
        assert_eq!(sub.passed, 1);
        // 10 compile + 80 datasets = 90 (10 question points pending).
        assert!((sub.score.unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn full_grade_records_even_compile_failures() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", "int main( {", 0).unwrap();
        let sub = srv
            .submit(&SubmitRequest::full_grade(student, "echo").at(1))
            .unwrap();
        assert!(!sub.compiled);
        assert_eq!(sub.score, Some(0.0));
    }

    #[test]
    fn rate_limit_kicks_in() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", ECHO, 0).unwrap();
        // Default burst is 3.
        for k in 0..3 {
            srv.submit(&SubmitRequest::compile_only(student, "echo").at(k))
                .unwrap();
        }
        let err = srv
            .submit(&SubmitRequest::compile_only(student, "echo").at(4))
            .unwrap_err();
        assert!(matches!(err, WbError::RateLimited { .. }));
        assert!(err.to_string().contains("retry in"));
    }

    #[test]
    fn attempts_and_rate_limits_land_in_metrics() {
        let obs = Arc::new(Recorder::traced());
        let srv = WebGpuServer::new_traced(Box::new(LocalDispatcher::new(Arc::clone(&obs))), obs);
        srv.register_instructor("prof", "pw").unwrap();
        srv.register_student("alice", "pw").unwrap();
        let staff = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
        let student = srv.login("alice", "pw", DeviceKind::Desktop, 0).unwrap();
        srv.deploy_lab(staff, LabDefinition::test_lab("echo"))
            .unwrap();
        srv.save_code(student, "echo", ECHO, 0).unwrap();
        for k in 0..3 {
            srv.submit(&SubmitRequest::compile_only(student, "echo").at(k))
                .unwrap();
        }
        let _ = srv
            .submit(&SubmitRequest::compile_only(student, "echo").at(4))
            .unwrap_err();
        let snap = srv.metrics_snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.counter("attempts_served"), 3);
        assert_eq!(snap.counter("rate_limited"), 1);
        assert_eq!(snap.counter("attempts/echo"), 3, "per-course tally");
        assert_eq!(
            snap.compile_micros.count, 3,
            "each dispatched attempt timed its compile"
        );
    }

    #[test]
    fn queued_submission_records_like_the_sync_path() {
        let (srv, _, student) = server_with_lab();
        srv.save_code(student, "echo", ECHO, 100).unwrap();
        let job_id = srv
            .submit_queued(&SubmitRequest::full_grade(student, "echo").at(200))
            .unwrap();
        assert_eq!(srv.pending_queued(), 1);
        let reaped = srv.reap_queued();
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].0, job_id);
        let out = reaped[0].1.as_ref().expect("grade lands");
        assert_eq!(out.trace_id, job_id);
        assert!((out.score.unwrap() - 90.0).abs() < 1e-9);
        assert_eq!(srv.pending_queued(), 0);
        // The submission row is identical to what submit() writes.
        let ids = srv.state.submissions.find("by_lab", "echo").unwrap();
        assert_eq!(ids.len(), 1);
        let rec = srv.state.submissions.get(ids[0]).unwrap();
        assert_eq!(rec.user, "alice");
        assert!(rec.compiled);
        // Reaping again finds nothing.
        assert!(srv.reap_queued().is_empty());
    }

    #[test]
    fn queued_submission_takes_inline_source() {
        let (srv, _, student) = server_with_lab();
        // No save_code: the source rides in the request.
        let job_id = srv
            .submit_queued(
                &SubmitRequest::compile_only(student, "echo")
                    .at(50)
                    .with_source(ECHO),
            )
            .unwrap();
        let reaped = srv.reap_queued();
        assert_eq!(reaped[0].0, job_id);
        assert!(reaped[0].1.as_ref().unwrap().compiled);
        let attempts = srv.attempts(student, "echo").unwrap();
        assert_eq!(attempts.len(), 1);
        assert!(attempts[0].source.contains("wbSolution"));
        // The revisions table stayed empty — no autosave round-trip.
        assert!(srv.history(student, "echo").unwrap().is_empty());
    }

    #[test]
    fn queued_failures_are_typed_and_recorded() {
        let (srv, _, student) = server_with_lab();
        srv.submit_queued(
            &SubmitRequest::compile_only(student, "echo")
                .at(10)
                .with_source("int main( {"),
        )
        .unwrap();
        let reaped = srv.reap_queued();
        assert!(matches!(
            reaped[0].1.as_ref().unwrap_err(),
            WbError::CompileError { .. }
        ));
        // The failed attempt is on the record, same as the sync path.
        let attempts = srv.attempts(student, "echo").unwrap();
        assert_eq!(attempts.len(), 1);
        assert!(!attempts[0].compiled);
    }

    #[test]
    fn queued_rate_limit_applies_at_submit_time() {
        let (srv, _, student) = server_with_lab();
        for k in 0..3 {
            srv.submit_queued(
                &SubmitRequest::compile_only(student, "echo")
                    .at(k)
                    .with_source(ECHO),
            )
            .unwrap();
        }
        let err = srv
            .submit_queued(
                &SubmitRequest::compile_only(student, "echo")
                    .at(4)
                    .with_source(ECHO),
            )
            .unwrap_err();
        assert!(matches!(err, WbError::RateLimited { .. }));
        assert_eq!(srv.pending_queued(), 3, "the shed attempt never queued");
    }

    #[test]
    fn custom_rate_limit_replaces_the_default() {
        let srv = WebGpuServer::new(Box::new(LocalDispatcher::new(Arc::new(Recorder::noop()))))
            .with_rate_limit(RateLimit {
                burst: 1.0,
                per_second: 0.0,
            });
        srv.register_instructor("prof", "pw").unwrap();
        srv.register_student("alice", "pw").unwrap();
        let staff = srv.login("prof", "pw", DeviceKind::Desktop, 0).unwrap();
        let student = srv.login("alice", "pw", DeviceKind::Desktop, 0).unwrap();
        srv.deploy_lab(staff, LabDefinition::test_lab("echo"))
            .unwrap();
        srv.save_code(student, "echo", ECHO, 0).unwrap();
        srv.submit(&SubmitRequest::compile_only(student, "echo").at(1))
            .unwrap();
        let err = srv
            .submit(&SubmitRequest::compile_only(student, "echo").at(2))
            .unwrap_err();
        assert!(matches!(err, WbError::RateLimited { .. }));
    }

    #[test]
    fn questions_answered_and_graded() {
        let (srv, staff, student) = server_with_lab();
        srv.answer_questions(student, "echo", vec!["rayleigh scattering".into()])
            .unwrap();
        // Wrong count rejected.
        assert!(srv
            .answer_questions(student, "echo", vec!["a".into(), "b".into()])
            .is_err());
        srv.grade_questions(staff, "alice", "echo", 8.0, Some("good".into()))
            .unwrap();
        // Students cannot grade.
        assert!(srv
            .grade_questions(student, "alice", "echo", 10.0, None)
            .is_err());
    }

    #[test]
    fn roster_aggregates_best_scores() {
        let (srv, staff, student) = server_with_lab();
        srv.save_code(student, "echo", "int main( {", 0).unwrap();
        srv.submit(&SubmitRequest::full_grade(student, "echo").at(1))
            .unwrap(); // fails: 0 points
        srv.save_code(student, "echo", ECHO, 100_000).unwrap();
        srv.submit(&SubmitRequest::full_grade(student, "echo").at(200_000))
            .unwrap(); // 90 points
        srv.answer_questions(student, "echo", vec!["x".into()])
            .unwrap();
        srv.grade_questions(staff, "alice", "echo", 7.5, None)
            .unwrap();
        let roster = srv.roster(staff, "echo").unwrap();
        assert_eq!(roster.len(), 1);
        let row = &roster[0];
        assert_eq!(row.submissions, 2);
        assert!((row.program_grade - 90.0).abs() < 1e-9);
        assert!((row.question_grade - 7.5).abs() < 1e-9);
        assert!((row.total_grade - 97.5).abs() < 1e-9);
        // Students cannot see the roster.
        assert!(srv.roster(student, "echo").is_err());
    }

    #[test]
    fn grade_override_applies() {
        let (srv, staff, student) = server_with_lab();
        srv.save_code(student, "echo", ECHO, 0).unwrap();
        srv.submit(&SubmitRequest::full_grade(student, "echo").at(1))
            .unwrap();
        let ids = srv.state.submissions.find("by_lab", "echo").unwrap();
        srv.override_grade(staff, ids[0], 100.0).unwrap();
        let roster = srv.roster(staff, "echo").unwrap();
        assert!((roster[0].program_grade - 100.0).abs() < 1e-9);
    }

    #[test]
    fn share_only_after_deadline() {
        let (srv, staff, student) = server_with_lab();
        let _ = staff;
        srv.save_code(student, "echo", ECHO, 0).unwrap();
        let out = srv
            .submit(&SubmitRequest::compile_only(student, "echo").at(1))
            .unwrap();
        let before = srv.share_attempt(student, out.record_id, 1000);
        assert!(before.is_err(), "deadline not passed");
        let deadline = 7 * 24 * 3600 * 1000;
        let token = srv
            .share_attempt(student, out.record_id, deadline + 1)
            .unwrap();
        assert!(token > 0);
    }

    #[test]
    fn cannot_share_others_attempts() {
        let (srv, _, student) = server_with_lab();
        srv.register_student("bob", "pw").unwrap();
        let bob = srv.login("bob", "pw", DeviceKind::Desktop, 0).unwrap();
        srv.save_code(student, "echo", ECHO, 0).unwrap();
        let out = srv
            .submit(&SubmitRequest::compile_only(student, "echo").at(1))
            .unwrap();
        let err = srv.share_attempt(bob, out.record_id, u64::MAX).unwrap_err();
        assert!(matches!(err, WbError::Rejected { .. }));
    }

    #[test]
    fn description_renders_markdown_and_rubric() {
        let (srv, _, _) = server_with_lab();
        let html = srv.lab_description_html("echo").unwrap();
        assert!(html.contains("<h1>Test</h1>"));
        assert!(html.contains("<h2>Grading</h2>"));
    }

    #[test]
    fn unknown_lab_rejected_everywhere() {
        let (srv, _, student) = server_with_lab();
        let err = srv.save_code(student, "nope", "x", 0).unwrap_err();
        assert!(matches!(err, WbError::Rejected { ref reason } if reason.contains("no lab")));
        assert!(srv.lab_description_html("nope").is_err());
    }

    /// Runs only the jobs `runs` accepts, on a [`LocalDispatcher`];
    /// every other job stays queued. Counts the by-id polls it serves.
    struct Holding {
        local: LocalDispatcher,
        runs: fn(u64) -> bool,
        polls: Arc<AtomicU64>,
    }

    impl JobDispatcher for Holding {
        fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
            if (self.runs)(req.job_id) {
                return self.local.submit_queued(req, now_ms);
            }
            Ok(req.job_id)
        }

        fn advance(&self, now_ms: u64) -> usize {
            self.local.advance(now_ms)
        }

        fn poll_queued(&self, job_id: u64) -> Option<JobOutcome> {
            self.polls.fetch_add(1, Ordering::Relaxed);
            self.local.poll_queued(job_id)
        }

        fn take_ready(&self, wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome> {
            self.local.take_ready(wanted)
        }
    }

    #[test]
    fn reap_polls_no_pending_id() {
        let polls = Arc::new(AtomicU64::new(0));
        let d = Holding {
            local: LocalDispatcher::new(Arc::new(Recorder::noop())),
            runs: |id| id == 5_000,
            polls: Arc::clone(&polls),
        };
        let unlimited = RateLimit {
            burst: 1e9,
            per_second: 0.0,
        };
        let srv = WebGpuServer::new(Box::new(d)).with_rate_limit(unlimited);
        let (srv, _, student) = with_echo_lab(srv);
        for k in 0..10_000 {
            let req = SubmitRequest::compile_only(student, "echo").at(k);
            srv.submit_queued(&req.with_source(ECHO)).unwrap();
        }
        assert_eq!(srv.pending_queued(), 10_000);
        let reaped = srv.reap_queued();
        assert_eq!(reaped.len(), 1, "one of the 10 000 finished");
        assert_eq!(reaped[0].0, 5_000);
        assert!(reaped[0].1.as_ref().is_ok_and(|o| o.compiled));
        assert_eq!(polls.load(Ordering::Relaxed), 0, "no pending id polled");
        assert_eq!(srv.pending_queued(), 9_999);
    }

    #[test]
    fn reap_leaves_a_synchronous_jobs_outcome() {
        // Job 9 999 stands for a synchronous `dispatch` whose outcome is
        // in but not yet polled: the server never queued it.
        let d = Arc::new(LocalDispatcher::new(Arc::new(Recorder::noop())));
        let (srv, _, student) = with_echo_lab(WebGpuServer::new(Box::new(Arc::clone(&d))));
        let lab = LabDefinition::test_lab("echo");
        let sync_job = JobRequest {
            job_id: 9_999,
            user: "bob".into(),
            source: ECHO.into(),
            spec: lab.spec,
            datasets: lab.datasets,
            action: JobAction::CompileOnly,
        };
        d.submit_queued(sync_job, 0).unwrap();
        let queued: Vec<u64> = (0..3)
            .map(|k| {
                let req = SubmitRequest::compile_only(student, "echo").at(k);
                srv.submit_queued(&req.with_source(ECHO)).unwrap()
            })
            .collect();
        let reaped: Vec<u64> = srv.reap_queued().into_iter().map(|(id, _)| id).collect();
        assert_eq!(reaped, queued, "every queued job, in job-id order");
        assert!(d.poll_queued(9_999).is_some_and(|o| o.compiled()));
    }
}
