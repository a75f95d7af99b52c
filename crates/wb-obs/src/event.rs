//! Span phases, annotations, and the sequence-numbered event record.

/// A job-lifecycle phase boundary.
///
/// The canonical chain is `Queued → Dispatched → Compiled → Graded`
/// (or `Failed` as the terminal when the compile or the dispatch gives
/// up). `Dispatched` may repeat when a delivery times out and the
/// broker redelivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted into the queue / assigned to a worker pool.
    Queued,
    /// Handed to a concrete worker.
    Dispatched,
    /// Source compiled successfully.
    Compiled,
    /// Terminal: the job ran to completion and produced a grade
    /// (a failing grade is still a grade).
    Graded,
    /// Terminal: the job cannot produce a grade — compile error or the
    /// dispatch layer gave up on it.
    Failed,
}

impl JobPhase {
    /// Ordering rank along the canonical chain; both terminals share
    /// the final rank.
    pub fn rank(self) -> u8 {
        match self {
            JobPhase::Queued => 0,
            JobPhase::Dispatched => 1,
            JobPhase::Compiled => 2,
            JobPhase::Graded | JobPhase::Failed => 3,
        }
    }

    /// True for `Graded` / `Failed`.
    pub fn is_terminal(self) -> bool {
        self.rank() == 3
    }
}

/// A non-phase fact attached to a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annotation {
    /// A cache tier served the result without executing.
    CacheHit,
    /// The lookup piggybacked on another in-flight execution.
    Coalesced,
    /// The job was delivered again after a failed attempt.
    Retry,
    /// The job survived a broker zone failover.
    Failover,
    /// Admission control downgraded a full-grade request to
    /// compile-only inside the brown-out band.
    BrownOut,
    /// Admission control refused the job outright (backlog budget
    /// exhausted); the submitter was told to retry later.
    Shed,
    /// The static verifier reported findings for this job's kernels.
    AnalysisFlagged,
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span phase boundary.
    Phase(JobPhase),
    /// A span annotation.
    Annotated(Annotation),
    /// A job exhausted its retry budget and was dead-lettered. The
    /// event's `job_id` is the *broker delivery id* (the broker is
    /// payload-agnostic and cannot see platform job ids).
    DeadLettered,
    /// The autoscaler changed the fleet size.
    Autoscale {
        /// Fleet size before the decision.
        from: u64,
        /// Fleet size after the decision.
        to: u64,
    },
}

/// One entry in the bounded event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global, strictly increasing sequence number.
    pub seq: u64,
    /// Virtual ms when recorded.
    pub at_ms: u64,
    /// Platform job id (or broker delivery id for `DeadLettered`,
    /// 0 for fleet-level events).
    pub job_id: u64,
    /// The recorded fact.
    pub kind: EventKind,
}
