//! Chaos campaigns end to end: kills in both zones followed by a
//! partition of the *active* broker zone mid-campaign force a failover
//! under live load, and spot/mpi worker churn must never strand
//! capability-tagged jobs. Both scenarios run the full
//! [`webgpu::chaos`] audit — exactly-once completion, span integrity,
//! broker-book reconciliation — through the same
//! [`webgpu::FleetControl`] surface the autoscaler uses.

use std::sync::Arc;

use wb_labs::LabScale;
use wb_obs::Recorder;
use wb_worker::{JobAction, JobRequest};
use webgpu::{
    run_campaign, AutoscalePolicy, ChaosConfig, ClusterBuilder, FleetControl, WorkerDesc, Zone,
};

fn campaign_job(job_id: u64, tagged: bool) -> JobRequest {
    let lab = wb_labs::definition("vecadd", LabScale::Small).unwrap();
    let mut req = JobRequest {
        job_id,
        user: format!("u{job_id}"),
        source: wb_labs::solution("vecadd").unwrap().to_string(),
        spec: lab.spec,
        datasets: lab.datasets,
        action: JobAction::RunDataset(0),
    };
    if tagged {
        req.spec.tags.insert("mpi".into());
    }
    req
}

/// The only `mpi`-capable nodes: one spot worker per zone.
fn spawn_spot_mpi_pair(cluster: &webgpu::ClusterV2) {
    let mpi_caps: wb_queue::CapabilitySet = ["cuda", "mpi"].into();
    for zone in Zone::ALL {
        cluster.spawn_worker(WorkerDesc::spot(zone).with_capabilities(mpi_caps.clone()));
    }
}

#[test]
fn partition_of_active_zone_mid_campaign_forces_failover() {
    // The full churn shape on a small fleet: a forced kill in each
    // zone (2 of 4 workers, well past 20 %) leaves two workers against
    // a heavy arrival rate, so a backlog is pending when the active
    // (primary) zone is cut and the failover has jobs to carry over —
    // and to mark with `Failover` annotations.
    let obs = Arc::new(Recorder::traced());
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(2)
        .policy(AutoscalePolicy::Static(4))
        .shards(1)
        .traced(Arc::clone(&obs))
        .broker_tuning(5, 50)
        .build_v2();
    spawn_spot_mpi_pair(&cluster);
    let cfg = ChaosConfig {
        rounds: 16,
        ms_per_round: 50,
        arrivals_per_round: 4,
        tagged_every: 4,
        forced_kills: vec![(2, Zone::Primary), (3, Zone::Standby)],
        partition_at: Some((5, Zone::Primary)),
        heal_at: Some(11),
        drain_rounds: 200,
        ..ChaosConfig::default()
    };
    let report = run_campaign(&cluster, &obs, &cfg, campaign_job);
    report.assert_clean();
    assert_eq!((report.kills_primary, report.kills_standby), (1, 1));
    assert!(report.tagged_jobs > 0);
    assert_eq!(report.stranded_tagged, 0);
    assert_eq!(report.partitions, 1);
    assert_eq!(report.heals, 1);
    assert!(
        report.failovers >= 1,
        "cutting the active zone fails the broker over: {report:?}"
    );
    assert!(
        report.failover_marked_spans >= 1,
        "jobs pending at the failover carry the span mark"
    );
    assert_eq!(report.completed, report.admitted);
    assert_eq!(report.jobs_lost(), 0);
    assert_eq!(report.dead_lettered, 0);
    assert_eq!(
        report.books_delta, 0,
        "broker books reconcile after the cycle"
    );
    assert!(cluster.describe_fleet().partitioned.is_none());
}

#[test]
fn spot_mpi_churn_does_not_strand_tagged_jobs() {
    // Only the two spot workers advertise `mpi`, and heavy preemption
    // pressure (MTTF 4 rounds) keeps killing them. Tagged jobs must
    // still complete once replacements boot — the heterogeneous-churn
    // failure mode the harness exists to catch.
    let obs = Arc::new(Recorder::traced());
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
        .fleet(2)
        .policy(AutoscalePolicy::Static(4))
        .shards(1)
        .traced(Arc::clone(&obs))
        .broker_tuning(5, 50)
        .build_v2();
    spawn_spot_mpi_pair(&cluster);
    assert_eq!(cluster.describe_fleet().total(), 4);

    let cfg = ChaosConfig {
        rounds: 20,
        ms_per_round: 50,
        arrivals_per_round: 2,
        tagged_every: 3,
        mttf_rounds_spot: 4,
        revive_after_rounds: 3,
        min_alive: 2,
        drain_rounds: 150,
        ..ChaosConfig::default()
    };
    let report = run_campaign(&cluster, &obs, &cfg, campaign_job);
    report.assert_clean();
    assert!(report.tagged_jobs > 0);
    assert_eq!(report.stranded_tagged, 0);
    assert_eq!(report.completed, report.admitted);
    assert!(
        report.kills >= 1,
        "MTTF 4 over 20 rounds preempts at least one spot worker"
    );
    assert_eq!(
        report.revives, report.kills,
        "every kill got a replacement boot"
    );
}
