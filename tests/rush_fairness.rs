//! Deadline-rush integration: the Wednesday surge replayed through a
//! traced cluster with a tight admission budget. Every admitted job
//! must complete exactly once with a complete, ordered span; overflow
//! must brown out (full-grade downgraded to compile-only, annotated)
//! and then shed (`WbError::Overloaded` with a finite retry hint,
//! annotated) — the recorder's books must agree with what the
//! harness saw at the submission boundary, and no course's worst rush
//! wait may exceed 5× its fleet-idle wait. Runs on both architectures.

use std::collections::BTreeMap;
use std::sync::Arc;

use wb_obs::{Annotation, Recorder, SpanView};
use wb_server::WbError;
use webgpu::{ClusterBuilder, Platform, RushScenario, SchedConfig};

const FLEET: usize = 2;
const ROUNDS: usize = 4;
const SURGE: usize = 8;
const BUDGET: usize = 4;
/// The fleet gets this many scheduling ticks per arrival round.
const PUMPS_PER_ROUND: u64 = 2;
const MAX_WAIT_RATIO: u64 = 5;

fn rush_cluster(arch: &str, obs: Arc<Recorder>) -> Box<dyn Platform> {
    let builder = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(FLEET)
        .scheduler(SchedConfig {
            backlog_budget: BUDGET,
            ..SchedConfig::default()
        })
        .traced(obs);
    match arch {
        "v1" => Box::new(builder.build_v1()),
        _ => Box::new(builder.build_v2()),
    }
}

/// Pump ticks from admission to the terminal phase, read off the span
/// (virtual time, so exact and host-independent).
fn wait_ticks(span: &SpanView) -> u64 {
    span.phases.last().unwrap().1 - span.phases[0].1
}

/// Each course's wait on an otherwise empty fleet of the same shape.
fn idle_waits(arch: &str) -> BTreeMap<String, u64> {
    let obs = Arc::new(Recorder::traced());
    let c = rush_cluster(arch, Arc::clone(&obs));
    let mut tick = 0u64;
    let mut waits = BTreeMap::new();
    for req in RushScenario::wednesday(1, 1).arrivals(0) {
        let course = req.spec.course.clone();
        let id = c.submit_job(req, tick).expect("idle fleet admits");
        while c.take_result(id).is_none() {
            tick += 1;
            c.pump(tick);
            assert!(tick < 100, "idle fleet must complete promptly");
        }
        waits.insert(course, wait_ticks(&obs.span(id).expect("traced")));
    }
    waits
}

#[test]
fn v1_rush_completes_exactly_once_annotated_and_fair() {
    rush_completes_exactly_once_annotated_and_fair("v1");
}

#[test]
fn v2_rush_completes_exactly_once_annotated_and_fair() {
    rush_completes_exactly_once_annotated_and_fair("v2");
}

fn rush_completes_exactly_once_annotated_and_fair(arch: &str) {
    let obs = Arc::new(Recorder::traced());
    let c = rush_cluster(arch, Arc::clone(&obs));
    let scenario = RushScenario::wednesday(ROUNDS, SURGE);

    // admitted job id -> course; shed job ids with their retry hints.
    let mut admitted: BTreeMap<u64, String> = BTreeMap::new();
    let mut shed: Vec<u64> = Vec::new();
    let mut tick = 0u64;
    for round in 0..scenario.rounds {
        for req in scenario.arrivals(round) {
            let id = req.job_id;
            let course = req.spec.course.clone();
            match c.submit_job(req, tick) {
                Ok(_) => {
                    admitted.insert(id, course);
                }
                Err(WbError::Overloaded { retry_after_s }) => {
                    assert!(
                        retry_after_s.is_finite() && retry_after_s > 0.0,
                        "job {id}: shed without a usable retry hint ({retry_after_s})"
                    );
                    shed.push(id);
                }
                Err(e) => panic!("job {id}: unexpected submit error {e}"),
            }
        }
        for _ in 0..PUMPS_PER_ROUND {
            tick += 1;
            c.pump(tick);
        }
    }
    while c.completed() < admitted.len() as u64 {
        tick += 1;
        c.pump(tick);
        assert!(tick < 10_000, "admitted jobs stopped completing");
    }

    // The surge actually tripped both bands.
    assert!(
        !shed.is_empty(),
        "an 8x surge into budget {BUDGET} must shed"
    );
    let snap = c.metrics_snapshot();
    assert!(
        snap.counter("sched_brown_outs") > 0,
        "the band never browned out"
    );

    // Exactly-once completion, with a complete ordered span per job.
    let mut brown_spans = 0u64;
    let mut worst_wait: BTreeMap<&str, u64> = BTreeMap::new();
    for (&id, course) in &admitted {
        let out = c
            .take_result(id)
            .unwrap_or_else(|| panic!("admitted job {id} ({course}) has no outcome"));
        assert!(out.compiled(), "job {id}: reference solutions compile");
        assert!(c.take_result(id).is_none(), "job {id} completed twice");
        let span = obs
            .span(id)
            .unwrap_or_else(|| panic!("job {id} left no span"));
        assert!(span.is_complete(), "job {id}: span must close: {span:?}");
        assert!(span.is_ordered(), "job {id}: span out of order: {span:?}");
        assert_eq!(
            span.phases
                .iter()
                .filter(|(p, _, _)| p.is_terminal())
                .count(),
            1,
            "job {id}: exactly one terminal phase"
        );
        if span.has(Annotation::BrownOut) {
            brown_spans += 1;
        }
        assert!(!span.has(Annotation::Shed), "admitted job {id} marked shed");
        let worst = worst_wait.entry(course.as_str()).or_insert(0);
        *worst = (*worst).max(wait_ticks(&span));
    }
    assert_eq!(c.completed(), admitted.len() as u64);

    // Shed jobs never ran, and each carries the shed mark on its span.
    for &id in &shed {
        assert!(
            c.take_result(id).is_none(),
            "shed job {id} produced a result"
        );
        let span = obs
            .span(id)
            .unwrap_or_else(|| panic!("shed job {id} left no span"));
        assert!(
            span.has(Annotation::Shed),
            "job {id}: shed unannotated: {span:?}"
        );
    }

    // The recorder's books agree with the submission boundary.
    assert_eq!(snap.counter("sched_admitted"), admitted.len() as u64);
    assert_eq!(snap.counter("sched_shed"), shed.len() as u64);
    assert_eq!(snap.counter("sched_brown_outs"), brown_spans);
    assert_eq!(snap.counter("sched_dequeues"), admitted.len() as u64);

    // The surge did not starve anyone: every course's worst wait stays
    // within a small multiple of what it sees on an idle fleet.
    for (course, idle) in idle_waits(arch) {
        let worst = worst_wait[course.as_str()];
        assert!(
            worst <= MAX_WAIT_RATIO * idle.max(1),
            "course {course}: rush wait {worst} ticks vs {idle} idle"
        );
    }

    // Fair share reached every course: each one's scoped dequeue tally
    // covers everything it got admitted.
    let mut per_course: BTreeMap<&str, u64> = BTreeMap::new();
    for course in admitted.values() {
        *per_course.entry(course.as_str()).or_insert(0) += 1;
    }
    for (course, n) in per_course {
        assert_eq!(
            obs.scoped(&format!("sched/dequeued/{course}")),
            n,
            "course {course}: dequeues drifted from admissions"
        );
    }
}
