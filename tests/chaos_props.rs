//! Property-based chaos: *any* seeded kill/revive schedule — whatever
//! MTTF, revive delay, tagging cadence, and kill-stream seed the
//! property draws — preserves exactly-once completion, strands no tagged job,
//! and reconciles the broker books. The campaigns are deliberately
//! small (a few rounds, a cheap echo kernel) so the property runs in
//! CI time; the full-size schedules live in the `churn` bench.

use std::sync::Arc;

use libwb::Dataset;
use wb_obs::Recorder;
use wb_worker::{DatasetCase, JobAction, JobRequest, LabSpec, WorkerConfig};
use webgpu::{run_campaign, ChaosConfig, ClusterBuilder, Zone};

/// A minimal job that grades clean on a healthy cluster: echo one
/// vector back. Tagged arrivals ask for `mpi`, which the whole fleet
/// advertises here — what's under test is churn bookkeeping, not
/// capability routing.
fn echo_job(job_id: u64, tagged: bool) -> JobRequest {
    let mut spec = LabSpec::cuda_test("chaos-prop");
    spec.course = "hpp".to_string();
    if tagged {
        spec.tags.insert("mpi".into());
    }
    JobRequest {
        job_id,
        user: format!("u{job_id}"),
        source: r#"
            int main() {
                int n;
                float* a = wbImportVector(0, &n);
                wbSolution(a, n);
                return 0;
            }
        "#
        .to_string(),
        spec,
        datasets: vec![DatasetCase {
            name: "d0".into(),
            inputs: vec![Dataset::Vector(vec![1.0, 2.0])].into(),
            expected: Dataset::Vector(vec![1.0, 2.0]).into(),
        }],
        action: JobAction::FullGrade,
    }
}

fn mpi_image() -> WorkerConfig {
    WorkerConfig {
        capabilities: ["cuda", "mpi"].into(),
        ..WorkerConfig::default()
    }
}

/// v2: however the schedule falls, every admitted job completes
/// exactly once and no tagged job is stranded.
#[test]
fn any_seeded_schedule_preserves_exactly_once_on_v2() {
    wb_prop::check(8, |g| {
        let seed = g.int(0..=u64::MAX);
        let (rounds, mttf, revive_after) = (g.int(6..14), g.int(2..8), g.int(1..4));
        let (tagged_every, forced_round) = (g.int(0..4), g.int(0..6));
        let obs = Arc::new(Recorder::traced());
        let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
            .fleet(3)
            .shards(1)
            .traced(Arc::clone(&obs))
            .broker_tuning(5, 50)
            .worker_config(mpi_image())
            .build_v2();
        let cfg = ChaosConfig {
            seed,
            rounds,
            ms_per_round: 50,
            arrivals_per_round: 2,
            tagged_every,
            mttf_rounds_on_demand: mttf,
            revive_after_rounds: revive_after,
            forced_kills: vec![(forced_round, Zone::Primary)],
            min_alive: 1,
            drain_rounds: 120,
            ..ChaosConfig::default()
        };
        let report = run_campaign(&cluster, &obs, &cfg, echo_job);
        assert!(
            report.is_clean(),
            "violations under seed {seed:#x}: {:?}",
            report.violations
        );
        assert_eq!(report.completed, report.admitted);
        assert_eq!(report.jobs_lost(), 0);
        assert_eq!(report.stranded_tagged, 0);
        assert_eq!(report.dead_lettered, 0);
        assert_eq!(report.books_delta, 0);
    });
}

/// v1 (single-AZ, push dispatch): the same property holds — even
/// when the whole pool is down for a while — and the same seed
/// replays to the same campaign.
#[test]
fn any_seeded_schedule_preserves_exactly_once_on_v1() {
    wb_prop::check(8, |g| {
        let (seed, rounds, mttf) = (g.int(0..=u64::MAX), g.int(5..10), g.int(3..8));
        let run = || {
            let obs = Arc::new(Recorder::traced());
            let cluster = ClusterBuilder::new(minicuda::DeviceConfig::test_small())
                .fleet(3)
                .shards(1)
                .traced(Arc::clone(&obs))
                .build_v1();
            let cfg = ChaosConfig {
                seed,
                rounds,
                ms_per_round: 50,
                arrivals_per_round: 1,
                mttf_rounds_on_demand: mttf,
                revive_after_rounds: 2,
                min_alive: 0,
                drain_rounds: 60,
                ..ChaosConfig::default()
            };
            run_campaign(&cluster, &obs, &cfg, echo_job)
        };
        let a = run();
        assert!(a.is_clean(), "violations: {:?}", a.violations);
        assert_eq!(a.completed, a.admitted);
        let b = run();
        assert_eq!(a.admitted, b.admitted, "same seed, same campaign");
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.completed, b.completed);
    });
}
