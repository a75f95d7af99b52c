//! Load-replay integration: drive the v2 cluster with real grading
//! jobs shaped by the Figure-1 load model, snapshot the dashboard,
//! and check the elasticity invariants end to end.

use wb_labs::LabScale;
use wb_worker::{JobAction, JobRequest};
use webgpu::dashboard::Snapshot;
use webgpu::sim::population::LoadModel;
use webgpu::{AutoscalePolicy, ClusterBuilder};

fn job(job_id: u64) -> JobRequest {
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    JobRequest {
        job_id,
        user: format!("s{}", job_id % 13),
        source: wb_labs::solution("vecadd").unwrap().to_string(),
        spec: lab.spec,
        datasets: lab.datasets,
        action: JobAction::RunDataset(0),
    }
}

#[test]
fn v2_cluster_tracks_a_deadline_day() {
    // Midday hours of the busiest Wednesday, scaled down 10×.
    let model = LoadModel::default();
    let series = model.hourly_series(7);
    let wednesday = 10 * 24; // day 10 is the peak Wednesday
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(1)
        .policy(AutoscalePolicy::Reactive {
            jobs_per_worker: 2,
            min: 1,
            max: 6,
        })
        .build_v2();

    let mut job_id = 0u64;
    let mut fleet_sizes = Vec::new();
    for h in 8..20 {
        let active = series[wednesday + h] as usize;
        let jobs = active.div_ceil(10);
        let now = (h as u64 - 8) * 3_600_000;
        for _ in 0..jobs {
            job_id += 1;
            cluster.enqueue(job(job_id), now);
        }
        // Pump until this hour's queue drains, recording the fleet
        // high-water mark (the fleet scales back in once idle, so the
        // post-drain size would hide the rush).
        let mut round = 0;
        let mut high_water = cluster.fleet_size();
        while cluster.queue_depth(now + round) > 0 && round < 200 {
            cluster.pump(now + round);
            high_water = high_water.max(cluster.fleet_size());
            round += 1;
        }
        fleet_sizes.push(high_water);
    }

    assert_eq!(cluster.completed(), job_id, "every submission graded");
    // The fleet actually moved with the load.
    let max_fleet = *fleet_sizes.iter().max().unwrap();
    assert!(
        max_fleet > 1,
        "rush hours scaled the fleet out: {fleet_sizes:?}"
    );

    // The dashboard agrees with the cluster.
    let snap = Snapshot::capture(&cluster, 12 * 3_600_000);
    assert_eq!(snap.completed, job_id);
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.broker.acked, job_id);
    let text = snap.render();
    assert!(text.contains("jobs completed"));
    assert!(!text.contains("DOWN"));
}

#[test]
fn dashboard_detects_a_quiet_crash() {
    // A worker that crashes between deadlines shows up on the
    // dashboard before any student notices.
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(3)
        .policy(AutoscalePolicy::Static(3))
        .build_v2();
    cluster.worker(2).unwrap().crash();
    let snap = Snapshot::capture(&cluster, 0);
    let down: Vec<u64> = snap
        .workers
        .iter()
        .filter(|w| !w.alive)
        .map(|w| w.id)
        .collect();
    assert_eq!(down.len(), 1);
    assert!(snap.render().contains("DOWN"));
}

#[test]
fn zipf_rush_is_mostly_served_from_the_cache() {
    // Submissions per source variant for a deadline-night stream under
    // Zipf(1.1) over 16 ranks (80 · k^-1.1 / H₁₆, rounded): most
    // students resubmit one of a handful of near-identical sources.
    const PER_RANK: [u64; 16] = [26, 12, 8, 6, 4, 4, 3, 3, 2, 2, 2, 2, 2, 1, 1, 1];
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(4)
        .policy(AutoscalePolicy::Static(4))
        .build_v2();
    let mut jobs = 0u64;
    // Pass-major order spreads each variant's repeats over the stream.
    for pass in 0..PER_RANK[0] {
        for (rank, _) in PER_RANK.iter().enumerate().filter(|(_, &n)| pass < n) {
            let mut req = job(jobs);
            req.source = format!("// deadline-rush variant {rank}\n{}", req.source);
            req.action = JobAction::FullGrade;
            cluster.enqueue(req, 0);
            jobs += 1;
        }
    }
    let mut round = 0;
    while cluster.completed() < jobs && round < 10_000 {
        cluster.pump(round);
        round += 1;
    }
    assert_eq!(cluster.completed(), jobs, "every submission graded");

    let cache = cluster.cache_metrics().expect("default builds are cached");
    assert!(
        cache.total().hit_rate() >= 0.5,
        "a Zipf rush must mostly hit: {cache:?}"
    );
    assert_eq!(
        cache.compile.misses,
        PER_RANK.len() as u64,
        "one compile per distinct source"
    );
}
