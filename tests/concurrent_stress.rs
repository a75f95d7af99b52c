//! Concurrency stress: the v2 fleet pumped from several scheduler
//! threads at once, with a mixed-tag job load. Every job must complete
//! exactly once, every completion must carry a latency sample, and the
//! broker's books must reconcile — the invariants the concurrent pump
//! rewrite is required to preserve.

use std::sync::atomic::{AtomicU64, Ordering};

use wb_labs::LabScale;
use wb_worker::{JobAction, JobRequest};
use webgpu::{AutoscalePolicy, ClusterBuilder};

const FLEET: usize = 8;
const JOBS: u64 = 100;
const PUMP_THREADS: usize = 4;

fn vecadd_request(job_id: u64) -> JobRequest {
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    JobRequest {
        job_id,
        user: "stress".into(),
        source: wb_labs::solution("vecadd").unwrap().to_string(),
        spec: lab.spec,
        datasets: lab.datasets,
        action: JobAction::RunDataset(0),
    }
}

#[test]
fn concurrent_pump_completes_every_job_exactly_once() {
    let c = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(FLEET)
        .policy(AutoscalePolicy::Static(FLEET))
        .build_v2();
    // The whole fleet advertises mpi, so tagged jobs route like any
    // other — what's stressed here is the bookkeeping, not routing.
    c.config.update(|cfg| {
        cfg.capabilities.insert("mpi".into());
    });
    for j in 0..JOBS {
        let mut req = vecadd_request(j);
        if j % 5 == 0 {
            req.spec.tags.insert("mpi".into());
        }
        c.enqueue(req, 0);
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

    // Exactly-once completion.
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

    // Every completion recorded its queueing delay (the baseline is
    // written before the broker enqueue, so no sample can be dropped).
    assert_eq!(c.wait_samples() as u64, JOBS);

    // Broker books reconcile: nothing lost, nothing run twice.
    let m = c.broker_metrics();
    assert_eq!(m.enqueued, JOBS);
    assert_eq!(m.dead_lettered, 0);
    assert_eq!(m.enqueued, m.acked + m.dead_lettered);
    assert_eq!(c.queue_depth(100_000), 0);
    assert_eq!(c.in_flight(100_000), 0);
}

#[test]
fn concurrent_pump_survives_failover_mid_load() {
    let c = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(4)
        .policy(AutoscalePolicy::Static(4))
        .build_v2();
    for j in 0..24 {
        c.enqueue(vecadd_request(j), 0);
    }
    // Drain half, fail over, drain the rest: completed work must not
    // be re-executed, queued work must not be lost.
    let mut t = 0u64;
    while c.completed() < 12 {
        c.pump(t);
        t += 1;
        assert!(t < 10_000);
    }
    c.broker_failover(0);
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
}
