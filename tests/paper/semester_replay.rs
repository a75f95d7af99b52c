//! The semester replay's two contracts, end to end: a seeded run is
//! bit-for-bit reproducible across executions, and its recorder books
//! reconcile exactly-once.

use crate::semester::{run_semester, SemesterParams};

/// Smaller than `SemesterParams::smoke` (this runs in the debug-profile
/// test suite) but the same shape: multiple courses, both cache tiers
/// exercised, enough load that at least something queues.
fn test_params() -> SemesterParams {
    let mut p = SemesterParams::smoke();
    p.days = 3;
    p.scale = 2.0;
    p
}

#[test]
fn seeded_replay_reproduces_exactly() {
    let a = run_semester(&test_params());
    let b = run_semester(&test_params());
    assert_eq!(
        a.deterministic_digest(),
        b.deterministic_digest(),
        "same seed must replay the same semester"
    );
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.graded, b.graded);
    assert_eq!(a.compile_failed, b.compile_failed);
    assert_eq!(a.queue_wait.p99, b.queue_wait.p99);
}

#[test]
fn different_seeds_diverge() {
    let a = run_semester(&test_params());
    let mut p = test_params();
    p.seed ^= 0xdead_beef;
    let b = run_semester(&p);
    assert_ne!(
        a.deterministic_digest(),
        b.deterministic_digest(),
        "a different seed must produce a different semester"
    );
}

#[test]
fn replay_books_reconcile_exactly_once() {
    // The week-long shape: its deadline rush outruns the 2-worker
    // fleet, so the shed path's books are on the line too.
    let o = run_semester(&SemesterParams::smoke());
    assert!(o.books_balance(), "books must balance: {o:?}");
    assert!(o.shed > 0, "the rush must trip admission control: {o:?}");
    assert_eq!(o.offered, o.admitted + o.shed + o.rate_limited);
    assert_eq!(o.completed, o.admitted, "every admitted job reaped once");
    assert_eq!(o.infra_errors, 0);
    // Warn-mode analysis flags the audit-probe variants without ever
    // denying: the recorder's flag count must match the harness's.
    assert_eq!(o.analysis_flagged, o.flagged);
    assert_eq!(o.analysis_denied, 0);
    assert!(o.flagged > 0, "some flagged variants must land: {o:?}");
    // Only full-grade jobs earn a score; runs and compile-only checks
    // complete without one — so the classified buckets are a strict
    // subset of completions, never more.
    assert!(o.graded + o.compile_failed + o.runtime_failed <= o.completed);
    assert!(o.graded > 0, "some full-grade jobs must land: {o:?}");
    // A resubmission-heavy population must mostly be served from cache.
    assert!(o.cache_reuse_rate() >= 0.30, "reuse collapsed: {o:?}");
}
