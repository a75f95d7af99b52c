//! Span integrity, end to end: every job that flows through a traced
//! v2 cluster must leave exactly one complete, causally ordered
//! lifecycle span — `Queued → Dispatched → … → Graded/Failed` — with
//! the annotations the run actually earned (cache hits on duplicate
//! sources, failover marks on jobs that lived through a zone switch).
//! This is the contract that makes the `trace_id` on a
//! `SubmissionOutcome` trustworthy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wb_labs::LabScale;
use wb_obs::{Annotation, JobPhase, Recorder};
use wb_worker::{JobAction, JobRequest};
use webgpu::{AutoscalePolicy, ClusterBuilder};

const FLEET: usize = 8;
const JOBS: u64 = 96;
const PUMP_THREADS: usize = 4;

fn vecadd_request(job_id: u64, variant: u64) -> JobRequest {
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    // A trailing comment makes distinct compile keys without changing
    // behaviour; reusing a variant makes byte-identical duplicates the
    // cluster-wide cache will serve.
    let source = format!(
        "{}\n// variant {variant}\n",
        wb_labs::solution("vecadd").unwrap()
    );
    JobRequest {
        job_id,
        user: "tracer".into(),
        source,
        spec: lab.spec,
        datasets: lab.datasets,
        action: JobAction::RunDataset(0),
    }
}

#[test]
fn every_job_leaves_one_complete_ordered_span() {
    let obs = Arc::new(Recorder::traced());
    let c = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(FLEET)
        .policy(AutoscalePolicy::Static(FLEET))
        .traced(Arc::clone(&obs))
        .build_v2();
    c.config.update(|cfg| {
        cfg.capabilities.insert("mpi".into());
    });
    // 16 source variants over 96 jobs: most jobs are duplicates and
    // must be served by the cache (and say so in their spans).
    for j in 0..JOBS {
        let mut req = vecadd_request(j, j % 16);
        if j % 5 == 0 {
            req.spec.tags.insert("mpi".into());
        }
        c.enqueue(req, j);
    }

    let clock = AtomicU64::new(1_000);
    std::thread::scope(|s| {
        for _ in 0..PUMP_THREADS {
            s.spawn(|| {
                while c.completed() < JOBS {
                    let t = clock.fetch_add(1, Ordering::Relaxed);
                    assert!(t < 50_000, "fleet stopped making progress");
                    c.pump(t);
                }
            });
        }
    });
    assert_eq!(c.completed(), JOBS);

    let mut cache_served = 0u64;
    let mut cache_annotations = 0u64;
    for j in 0..JOBS {
        let span = c.span(j).unwrap_or_else(|| panic!("job {j} has a span"));
        assert!(
            span.is_complete(),
            "job {j}: span must open Queued and end in one terminal: {span:?}"
        );
        assert!(
            span.is_ordered(),
            "job {j}: phases must advance in causal order: {span:?}"
        );
        assert_eq!(
            span.terminal(),
            Some(JobPhase::Graded),
            "job {j}: a passing run terminates Graded"
        );
        assert_eq!(
            span.phases
                .iter()
                .filter(|(p, _, _)| p.is_terminal())
                .count(),
            1,
            "job {j}: exactly one terminal phase"
        );
        if span.has(Annotation::CacheHit) || span.has(Annotation::Coalesced) {
            cache_served += 1;
        }
        cache_annotations += span
            .annotations
            .iter()
            .filter(|(a, _, _)| matches!(a, Annotation::CacheHit | Annotation::Coalesced))
            .count() as u64;
    }
    // 96 jobs over 16 variants: at least 80 lookups were satisfied
    // without fresh work, and each one is annotated on its span.
    assert!(
        cache_served >= JOBS - 16,
        "expected >= {} cache-served spans, saw {cache_served}",
        JOBS - 16
    );

    // The aggregate books agree with the spans.
    let snap = c.metrics_snapshot();
    assert!(snap.enabled);
    assert_eq!(snap.counter("jobs_queued"), JOBS);
    assert_eq!(snap.counter("jobs_completed"), JOBS);
    assert_eq!(snap.counter("jobs_failed"), 0);
    assert_eq!(snap.queue_wait_rounds.count, JOBS);
    // The compile timer wraps the cache lookup, so every job times it;
    // the hit/coalesced counters agree with the per-span annotations.
    assert_eq!(snap.compile_micros.count, JOBS);
    // Each compile/grade lookup served from the cache is one
    // annotation; the aggregate counters agree with the spans.
    assert_eq!(
        snap.counter("cache_hits") + snap.counter("cache_coalesced"),
        cache_annotations
    );
}

#[test]
fn failover_and_cache_annotations_land_on_the_right_spans() {
    let obs = Arc::new(Recorder::traced());
    let c = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(2)
        .policy(AutoscalePolicy::Static(2))
        .traced(Arc::clone(&obs))
        .build_v2();
    for j in 0..12 {
        c.enqueue(vecadd_request(j, j), 0);
    }
    // Drain half, fail the zone over, drain the rest.
    let mut t = 0u64;
    while c.completed() < 6 {
        c.pump(t);
        t += 1;
        assert!(t < 10_000);
    }
    c.broker_failover(t);
    let still_queued: Vec<u64> = (0..12)
        .filter(|&j| c.span(j).is_some_and(|s| s.terminal().is_none()))
        .collect();
    while c.completed() < 12 {
        c.pump(t);
        t += 1;
        assert!(t < 10_000);
    }

    let survivors: u64 = (0..12)
        .filter(|&j| c.span(j).is_some_and(|s| s.has(Annotation::Failover)))
        .count() as u64;
    assert!(
        survivors >= 1,
        "jobs pending at the failover carry the mark (queued then: {still_queued:?})"
    );
    for j in 0..12 {
        let span = c.span(j).unwrap();
        assert!(span.is_complete() && span.is_ordered(), "job {j}: {span:?}");
        // Completed-before-failover jobs must NOT be marked.
        if !span.has(Annotation::Failover) {
            continue;
        }
        assert_eq!(
            span.terminal(),
            Some(JobPhase::Graded),
            "job {j} survived the failover and still graded"
        );
    }
    assert_eq!(c.metrics_snapshot().counter("failovers"), survivors);
}
