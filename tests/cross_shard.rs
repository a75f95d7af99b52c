//! Cross-shard control-plane invariants: a multi-course load spread
//! over an explicitly multi-lane cluster (the local default is one
//! lane per host core, so these tests pin `shards(4)` to exercise the
//! sharded paths everywhere). Every admitted job must complete exactly
//! once no matter which lane released it or which worker stole it,
//! the recorder's per-course books must reconcile across shard
//! boundaries, and work-stealing must keep the whole fleet busy even
//! when every job hashes to one lane.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wb_labs::LabScale;
use wb_obs::Recorder;
use wb_worker::{JobAction, JobRequest};
use webgpu::{shard_for_course, AutoscalePolicy, ClusterBuilder};

const SHARDS: usize = 4;
const FLEET: usize = 8;
const JOBS: u64 = 120;
const PUMP_THREADS: usize = 4;

/// Six courses: enough that every one of the four lanes is somebody's
/// home, with at least one lane shared by two courses.
const COURSES: [&str; 6] = ["hpp", "ece408", "cs100", "pmpp", "gpu101", "hpc-ta"];

fn vecadd_request(job_id: u64, course: &str) -> JobRequest {
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    let mut spec = lab.spec;
    spec.course = course.to_string();
    JobRequest {
        job_id,
        user: "xshard".into(),
        source: wb_labs::solution("vecadd").unwrap().to_string(),
        spec,
        datasets: lab.datasets,
        action: JobAction::RunDataset(0),
    }
}

/// Every catalog course's home lane, pinned at 2 and 4 shards. Lane
/// routing hashes the course id on its own FNV-1a loop, apart from the
/// cache-key hasher, so a change to content hashing cannot move a
/// course to another lane (and with it the scheduling count rows).
#[test]
fn catalog_course_lanes_are_pinned() {
    let pinned = [
        ("hpp", 1, 3),
        ("ece408", 0, 0),
        ("ece598", 0, 2),
        ("pumps", 0, 0),
    ];
    let catalog: Vec<&str> = wb_labs::courses().iter().map(|c| c.id).collect();
    assert_eq!(
        catalog,
        pinned.map(|(id, _, _)| id),
        "pin every catalog course"
    );
    for (course, two, four) in pinned {
        assert_eq!(shard_for_course(course, 2), two, "{course} at 2 shards");
        assert_eq!(shard_for_course(course, 4), four, "{course} at 4 shards");
    }
}

#[test]
fn adversarial_course_mix_completes_exactly_once_across_shards() {
    // The hash must spread six courses over more than one lane —
    // otherwise this test silently degenerates to single-shard.
    let lanes: std::collections::BTreeSet<usize> = COURSES
        .iter()
        .map(|c| shard_for_course(c, SHARDS))
        .collect();
    assert!(lanes.len() > 1, "course mix must span lanes, got {lanes:?}");

    let obs = Arc::new(Recorder::traced());
    let c = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(FLEET)
        .shards(SHARDS)
        .policy(AutoscalePolicy::Static(FLEET))
        .traced(Arc::clone(&obs))
        .build_v2();
    let mut per_course: HashMap<&str, u64> = HashMap::new();
    for j in 0..JOBS {
        let course = COURSES[j as usize % COURSES.len()];
        *per_course.entry(course).or_default() += 1;
        c.enqueue(vecadd_request(j, course), 0);
    }

    // Four scheduler threads share one virtual clock and pump the same
    // fleet concurrently until everything drains.
    let clock = AtomicU64::new(0);
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

    // Exactly-once completion, across every lane boundary.
    assert_eq!(c.completed(), JOBS);
    let per_worker: u64 = (0..)
        .map_while(|i| c.worker(i))
        .map(|w| w.jobs_done())
        .sum();
    assert_eq!(per_worker, JOBS, "worker jobs_done sums to completed");
    let mut results = 0;
    for j in 0..JOBS {
        if c.take_result(j).is_some() {
            results += 1;
        }
    }
    assert_eq!(results, JOBS, "one result per job");
    assert_eq!(c.wait_samples() as u64, JOBS, "one latency sample per job");

    // Broker books reconcile after lane-wise aggregation: nothing
    // lost in a lane, nothing run twice.
    let m = c.broker_metrics();
    assert_eq!(m.enqueued, JOBS);
    assert_eq!(m.dead_lettered, 0);
    assert_eq!(m.enqueued, m.acked + m.dead_lettered);
    assert_eq!(c.queue_depth(100_000), 0);
    assert_eq!(c.in_flight(100_000), 0);

    // Per-course fairness books survive the shard split: each course's
    // scheduler dequeues equal its admissions, whichever lane (home or
    // thief) released them.
    for (course, expected) in &per_course {
        assert_eq!(
            obs.scoped(&format!("sched/dequeued/{course}")),
            *expected,
            "course {course} dequeues reconcile across lanes"
        );
    }

    // Span integrity: every job's trace is present, closed, and
    // ordered, no matter which lane carried it.
    for j in 0..JOBS {
        let span = obs
            .span(j)
            .unwrap_or_else(|| panic!("job {j} left no span"));
        assert!(span.is_complete(), "job {j}: span must close: {span:?}");
        assert!(span.is_ordered(), "job {j}: span out of order: {span:?}");
    }
}

#[test]
fn work_stealing_keeps_the_whole_fleet_busy_on_one_hot_course() {
    // Every job hashes to one lane. Without stealing, that lane's
    // fleet-share (fleet / shards = 1 job per pump) bounds throughput
    // and 48 jobs need ~48 rounds; with stealing, the three idle lanes
    // pull from the hot one and each round still releases a full
    // fleet-wide wave.
    const HOT_JOBS: u64 = 48;
    let c = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(4)
        .shards(SHARDS)
        .policy(AutoscalePolicy::Static(4))
        .build_v2();
    for j in 0..HOT_JOBS {
        c.enqueue(vecadd_request(j, "hpp"), 0);
    }
    let mut rounds = 0u64;
    while c.completed() < HOT_JOBS {
        c.pump(rounds);
        rounds += 1;
        assert!(
            rounds <= 20,
            "stealing keeps waves fleet-wide: 48 jobs on a 4-worker \
             fleet must finish in ~12 rounds, not {rounds}"
        );
    }
    assert_eq!(c.completed(), HOT_JOBS);
}

#[test]
fn failover_mid_load_loses_nothing_across_lanes() {
    // Half the load completes, then every lane fails over to its
    // standby zone at once: completed work must not re-run (acks
    // reached both zones of the issuing lane) and queued work must
    // survive (each lane's standby mirrors its primary).
    let c = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(4)
        .shards(SHARDS)
        .policy(AutoscalePolicy::Static(4))
        .build_v2();
    for j in 0..24 {
        c.enqueue(vecadd_request(j, COURSES[j as usize % COURSES.len()]), 0);
    }
    let mut t = 0u64;
    while c.completed() < 12 {
        c.pump(t);
        t += 1;
        assert!(t < 10_000);
    }
    c.broker_failover(t);
    while c.completed() < 24 {
        c.pump(t);
        t += 1;
        assert!(t < 10_000);
    }
    assert_eq!(c.completed(), 24, "every job completed exactly once");
    let per_worker: u64 = (0..)
        .map_while(|i| c.worker(i))
        .map(|w| w.jobs_done())
        .sum();
    assert_eq!(per_worker, 24, "failover re-ran nothing");
    // Broker metrics are per-active-zone, so totals reset at failover;
    // what must hold lane-wise is that nothing is left behind.
    assert_eq!(c.queue_depth(100_000), 0, "no lane kept a stranded job");
    assert_eq!(c.in_flight(100_000), 0);
    assert_eq!(c.broker_metrics().dead_lettered, 0);
}
