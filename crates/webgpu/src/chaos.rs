//! Seeded chaos campaigns: worker churn, zone partitions, and the
//! exactly-once audit.
//!
//! §VI-B's fault story ("workers are cattle, the queue is the source
//! of truth") is easy to claim and easy to quietly regress. This
//! module makes it testable: a campaign drives a
//! [`ControlPlane`] of either dispatch strategy through a *seeded*,
//! reproducible schedule of worker kills, revives, and zone
//! partition/heal events while load keeps arriving — then audits that
//! every admitted job completed **exactly once**, that no capability-
//! tagged job was stranded by the death of the only node that could
//! run it, that the broker books reconcile
//! (`queue_enqueued == queue_acked + dead_letters`, and no dead
//! letters at all), and that every surviving span is complete,
//! ordered, and terminates in `Graded` with `Retry`/`Failover`
//! annotations where the schedule implies them.
//!
//! Determinism: the kill schedule derives from a
//! [`libwb::rng::SplitMix64`] stream seeded by [`ChaosConfig::seed`],
//! so a campaign replays byte-identically everywhere, and `forced_kills`
//! pins the structurally-required events (e.g. "a Standby worker dies
//! at round 5") independent of the probabilistic MTTF stream.

use crate::fleet::{ReliabilityClass, Zone};
use crate::plane::{ControlPlane, Dispatch};
use libwb::rng::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use wb_obs::{Annotation, JobPhase, Recorder};
use wb_worker::JobRequest;

/// A campaign schedule. Rounds are 0-based; event rounds compare
/// against the loop counter before that round's pump.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the probabilistic kill stream.
    pub seed: u64,
    /// Load rounds to run (the recovery drain comes after).
    pub rounds: u64,
    /// Virtual milliseconds per round; pump `r` runs at
    /// `(r + 1) * ms_per_round`.
    pub ms_per_round: u64,
    /// Jobs offered to admission control each round.
    pub arrivals_per_round: usize,
    /// Every `n`th job id is capability-tagged (asks for `mpi`);
    /// `0` disables tagging.
    pub tagged_every: u64,
    /// Mean rounds to failure for on-demand workers: each alive
    /// on-demand worker dies with probability `1/n` per round.
    /// `0` means on-demand workers never die probabilistically.
    pub mttf_rounds_on_demand: u64,
    /// Mean rounds to failure for spot workers (preemption pressure);
    /// `0` disables.
    pub mttf_rounds_spot: u64,
    /// Rounds after its kill at which a worker is revived
    /// (the "replacement node boots" delay); `0` means killed workers
    /// stay down until the recovery phase.
    pub revive_after_rounds: u64,
    /// Cut this zone at this round (single-AZ clusters report the
    /// event as unsupported and the campaign carries on).
    pub partition_at: Option<(u64, Zone)>,
    /// Heal whatever is partitioned at this round.
    pub heal_at: Option<u64>,
    /// Deterministic kills — `(round, zone)` pairs; each takes the
    /// lowest-id alive worker in the zone, *bypassing* `min_alive`.
    /// These pin the structural gates ("≥20% killed, both zones hit")
    /// regardless of the seed.
    pub forced_kills: Vec<(u64, Zone)>,
    /// The probabilistic stream never drops the fleet below this many
    /// alive workers (forced kills may).
    pub min_alive: usize,
    /// Recovery-phase pump budget after load stops.
    pub drain_rounds: u64,
    /// First job id the campaign submits (ids ascend from here);
    /// raise it when the cluster has already seen jobs.
    pub first_job_id: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC0FFEE,
            rounds: 20,
            ms_per_round: 100,
            arrivals_per_round: 2,
            tagged_every: 0,
            mttf_rounds_on_demand: 0,
            mttf_rounds_spot: 0,
            revive_after_rounds: 0,
            partition_at: None,
            heal_at: None,
            forced_kills: Vec::new(),
            min_alive: 1,
            drain_rounds: 200,
            first_job_id: 1,
        }
    }
}

/// What a campaign did and what the audit found.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Jobs admission control accepted.
    pub admitted: u64,
    /// Jobs shed by admission control (not a fault — sheds are the
    /// overload contract working).
    pub shed: u64,
    /// Admitted jobs whose outcome was retrieved exactly once.
    pub completed: u64,
    /// Admitted jobs that carried the capability tag.
    pub tagged_jobs: u64,
    /// Tagged jobs that never completed — the heterogeneous-churn
    /// failure mode this harness exists to catch.
    pub stranded_tagged: u64,
    /// Workers killed (forced + probabilistic).
    pub kills: u64,
    /// Kills landing in the primary zone.
    pub kills_primary: u64,
    /// Kills landing in the standby zone.
    pub kills_standby: u64,
    /// Forced kills that found no alive worker in their zone.
    pub forced_kill_misses: u64,
    /// Workers revived (scheduled + recovery phase).
    pub revives: u64,
    /// Partition events the cluster actually performed.
    pub partitions: u64,
    /// Heal events the cluster actually performed.
    pub heals: u64,
    /// Redeliveries observed (recorder counter delta).
    pub retries: u64,
    /// Broker failovers observed (recorder counter delta).
    pub failovers: u64,
    /// Admitted spans carrying a `Failover` annotation.
    pub failover_marked_spans: u64,
    /// Dead letters accrued during the campaign (must be 0 —
    /// dead-lettering an admitted job violates exactly-once).
    pub dead_lettered: u64,
    /// `Δenqueued − Δacked − Δdead_letters` over the campaign; 0 when
    /// the books reconcile.
    pub books_delta: i64,
    /// Per-retried-job recovery latency: terminal-phase time minus
    /// first-queued time, for every admitted span with a `Retry`.
    pub recovery_ms: Vec<u64>,
    /// Recovery-phase pumps actually spent.
    pub drain_rounds_used: u64,
    /// Every audit failure, human-readable. Empty ⇔ clean.
    pub violations: Vec<String>,
}

impl CampaignReport {
    /// Admitted jobs with no retrievable outcome.
    pub fn jobs_lost(&self) -> u64 {
        self.admitted.saturating_sub(self.completed)
    }

    /// True when the audit found nothing.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with every violation — the test-side gate.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "chaos campaign found {} violation(s):\n  {}",
            self.violations.len(),
            self.violations.join("\n  ")
        );
    }
}

/// Run one campaign. `make_job(id, tagged)` builds each arrival — it
/// must set `job_id = id`, must produce a job that grades cleanly on
/// a healthy cluster, and when `tagged` must request the `mpi`
/// capability. The audit needs spans, so `obs` must be the *traced*
/// recorder the cluster was built with (a noop recorder is itself
/// reported as a violation rather than silently passing).
pub fn run_campaign<D, F>(
    cluster: &ControlPlane<D>,
    obs: &Recorder,
    cfg: &ChaosConfig,
    mut make_job: F,
) -> CampaignReport
where
    D: Dispatch,
    F: FnMut(u64, bool) -> JobRequest,
{
    let baseline_done = cluster.completed();
    let snap0 = obs.snapshot();
    let mut rng = SplitMix64::new(cfg.seed);

    let mut admitted: Vec<u64> = Vec::new();
    let mut tagged_ids: BTreeSet<u64> = BTreeSet::new();
    let mut killed_at: BTreeMap<u64, u64> = BTreeMap::new();
    let mut cut_zone: Option<Zone> = None;
    let mut next_id = cfg.first_job_id;

    let mut r = CampaignReport {
        admitted: 0,
        shed: 0,
        completed: 0,
        tagged_jobs: 0,
        stranded_tagged: 0,
        kills: 0,
        kills_primary: 0,
        kills_standby: 0,
        forced_kill_misses: 0,
        revives: 0,
        partitions: 0,
        heals: 0,
        retries: 0,
        failovers: 0,
        failover_marked_spans: 0,
        dead_lettered: 0,
        books_delta: 0,
        recovery_ms: Vec::new(),
        drain_rounds_used: 0,
        violations: Vec::new(),
    };

    let count_kill = |report: &mut CampaignReport, zone: Zone| {
        report.kills += 1;
        match zone {
            Zone::Primary => report.kills_primary += 1,
            Zone::Standby => report.kills_standby += 1,
        }
    };

    for round in 0..cfg.rounds {
        let now = (round + 1) * cfg.ms_per_round;

        // Replacement nodes boot: revive workers whose downtime lapsed.
        if cfg.revive_after_rounds > 0 {
            let due: Vec<u64> = killed_at
                .iter()
                .filter(|(_, &at)| at + cfg.revive_after_rounds <= round)
                .map(|(&id, _)| id)
                .collect();
            for id in due {
                killed_at.remove(&id);
                if cluster.revive_worker(id) {
                    r.revives += 1;
                }
            }
        }

        // Network events.
        if let Some((at, zone)) = cfg.partition_at {
            if at == round && cluster.partition_zone(zone) {
                r.partitions += 1;
                cut_zone = Some(zone);
            }
        }
        if cfg.heal_at == Some(round) {
            if let Some(zone) = cut_zone.take() {
                if cluster.heal_zone(zone) {
                    r.heals += 1;
                }
            }
        }

        // Load keeps arriving through the chaos.
        for _ in 0..cfg.arrivals_per_round {
            let id = next_id;
            next_id += 1;
            let tagged = cfg.tagged_every > 0 && id.is_multiple_of(cfg.tagged_every);
            match cluster.submit(make_job(id, tagged), now) {
                Ok(jid) => {
                    admitted.push(jid);
                    if tagged {
                        tagged_ids.insert(jid);
                    }
                }
                Err(_) => r.shed += 1,
            }
        }

        // Deterministic kills first — they pin the structural gates.
        for &(at, zone) in &cfg.forced_kills {
            if at != round {
                continue;
            }
            let view = cluster.describe_fleet();
            let victim = view
                .workers
                .iter()
                .filter(|w| w.alive && w.zone == zone)
                .map(|w| w.id)
                .min();
            match victim {
                Some(id) if cluster.kill_worker(id) => {
                    killed_at.insert(id, round);
                    count_kill(&mut r, zone);
                }
                _ => r.forced_kill_misses += 1,
            }
        }

        // Probabilistic churn, MTTF per reliability class.
        let view = cluster.describe_fleet();
        let mut alive = view.alive();
        for w in &view.workers {
            if !w.alive || alive <= cfg.min_alive {
                continue;
            }
            let mttf = match w.reliability_class {
                ReliabilityClass::OnDemand => cfg.mttf_rounds_on_demand,
                ReliabilityClass::Spot => cfg.mttf_rounds_spot,
            };
            // One-in-`mttf` chance per round; 0 means never.
            if mttf != 0 && rng.range(0..mttf) == 0 && cluster.kill_worker(w.id) {
                killed_at.insert(w.id, round);
                count_kill(&mut r, w.zone);
                alive -= 1;
            }
        }

        cluster.pump(now);
    }

    r.admitted = admitted.len() as u64;
    r.tagged_jobs = tagged_ids.len() as u64;

    // Recovery: heal anything still cut, boot every downed worker,
    // then drain. The exactly-once claim is about *eventual* delivery
    // once the fleet is whole again.
    if let Some(zone) = cut_zone.take().or(cluster.describe_fleet().partitioned) {
        if cluster.heal_zone(zone) {
            r.heals += 1;
        }
    }
    for (&id, _) in killed_at.iter() {
        if cluster.revive_worker(id) {
            r.revives += 1;
        }
    }
    killed_at.clear();

    let mut now = cfg.rounds * cfg.ms_per_round;
    while cluster.completed() - baseline_done < r.admitted && r.drain_rounds_used < cfg.drain_rounds
    {
        now += cfg.ms_per_round;
        cluster.pump(now);
        r.drain_rounds_used += 1;
    }

    audit(
        cluster,
        obs,
        &snap0,
        &admitted,
        &tagged_ids,
        baseline_done,
        &mut r,
    );
    r
}

/// The post-campaign audit: exactly-once, books, spans, tags.
fn audit<D: Dispatch>(
    cluster: &ControlPlane<D>,
    obs: &Recorder,
    snap0: &wb_obs::MetricsSnapshot,
    admitted: &[u64],
    tagged_ids: &BTreeSet<u64>,
    baseline_done: u64,
    r: &mut CampaignReport,
) {
    // Exactly-once, half one: the cluster's lifetime counter moved by
    // exactly the number of admitted jobs. More means double-grading.
    let done_delta = cluster.completed() - baseline_done;
    if done_delta > r.admitted {
        r.violations.push(format!(
            "completed {done_delta} jobs but only admitted {} — double-grading",
            r.admitted
        ));
    }

    // Exactly-once, half two: every admitted job has exactly one
    // retrievable outcome (`take_result` consumes it, so a duplicate
    // would have been counted above; a miss here is a lost job).
    for &id in admitted {
        match cluster.take_result(id) {
            Some(_) => r.completed += 1,
            None => {
                if tagged_ids.contains(&id) {
                    r.stranded_tagged += 1;
                    r.violations.push(format!(
                        "tagged job {id} stranded: no capable worker outcome"
                    ));
                } else {
                    r.violations.push(format!("job {id} lost: no outcome"));
                }
            }
        }
    }

    // Scheduler-book reconciliation on the recorder's broker counters.
    let snap = obs.snapshot();
    let d = |name: &str| snap.counter(name).saturating_sub(snap0.counter(name));
    r.retries = d("retries");
    r.failovers = d("failovers");
    r.dead_lettered = d("dead_letters");
    r.books_delta = d("queue_enqueued") as i64 - d("queue_acked") as i64 - r.dead_lettered as i64;
    if r.books_delta != 0 {
        r.violations.push(format!(
            "broker books off by {}: enqueued ≠ acked + dead-lettered",
            r.books_delta
        ));
    }
    if r.dead_lettered != 0 {
        r.violations.push(format!(
            "{} admitted job(s) dead-lettered — exactly-once violated",
            r.dead_lettered
        ));
    }

    // Span integrity on everything that survived.
    if let Some(&probe) = admitted.first() {
        if obs.span(probe).is_none() {
            r.violations
                .push("campaign requires a traced recorder: no spans recorded".into());
            return;
        }
    }
    for &id in admitted {
        let Some(span) = obs.span(id) else {
            r.violations.push(format!("job {id} has no span"));
            continue;
        };
        if !span.is_ordered() {
            r.violations.push(format!("job {id} span out of order"));
        }
        if !span.is_complete() {
            r.violations.push(format!("job {id} span incomplete"));
        } else if span.terminal() != Some(JobPhase::Graded) {
            r.violations.push(format!(
                "job {id} terminated {:?}, expected Graded",
                span.terminal()
            ));
        }
        if span.has(Annotation::Failover) {
            r.failover_marked_spans += 1;
        }
        if span.has(Annotation::Retry) {
            if let (Some(first), Some(last)) = (span.phases.first(), span.phases.last()) {
                r.recovery_ms.push(last.1.saturating_sub(first.1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ClusterBuilder;
    use crate::AutoscalePolicy;
    use libwb::Dataset;
    use minicuda::DeviceConfig;
    use std::sync::Arc;
    use wb_worker::{DatasetCase, JobAction, LabSpec, WorkerConfig};

    /// A fleet image that can take the campaign's `mpi`-tagged jobs.
    fn mpi_image() -> WorkerConfig {
        WorkerConfig {
            capabilities: ["cuda", "mpi"].into(),
            ..WorkerConfig::default()
        }
    }

    fn job(job_id: u64, tagged: bool) -> JobRequest {
        let mut spec = LabSpec::cuda_test("chaos");
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

    #[test]
    fn seeded_campaign_replays_identically_and_stays_clean_on_v2() {
        let run = || {
            let obs = Arc::new(wb_obs::Recorder::traced());
            let cluster = ClusterBuilder::new(DeviceConfig::test_small())
                .fleet(4)
                .shards(1)
                .traced(Arc::clone(&obs))
                .broker_tuning(5, 50)
                .worker_config(mpi_image())
                .build_v2();
            let cfg = ChaosConfig {
                rounds: 12,
                ms_per_round: 50,
                arrivals_per_round: 2,
                tagged_every: 3,
                revive_after_rounds: 4,
                forced_kills: vec![(3, Zone::Primary), (5, Zone::Standby)],
                drain_rounds: 80,
                ..ChaosConfig::default()
            };
            run_campaign(&cluster, &obs, &cfg, job)
        };
        let a = run();
        a.assert_clean();
        assert_eq!(a.kills, 2, "both forced kills landed");
        assert_eq!(a.kills_primary, 1);
        assert_eq!(a.kills_standby, 1);
        assert!(a.admitted > 0 && a.tagged_jobs > 0);
        assert_eq!(a.completed, a.admitted);
        assert_eq!(a.jobs_lost(), 0);

        let b = run();
        assert_eq!(a.admitted, b.admitted, "same seed, same campaign");
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.shed, b.shed);
    }

    #[test]
    fn partition_heal_cycle_mid_campaign_loses_nothing() {
        let obs = Arc::new(wb_obs::Recorder::traced());
        let cluster = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(4)
            .shards(1)
            .traced(Arc::clone(&obs))
            .broker_tuning(5, 50)
            .build_v2();
        let cfg = ChaosConfig {
            rounds: 16,
            ms_per_round: 50,
            arrivals_per_round: 2,
            partition_at: Some((4, Zone::Standby)),
            heal_at: Some(10),
            drain_rounds: 80,
            ..ChaosConfig::default()
        };
        let report = run_campaign(&cluster, &obs, &cfg, job);
        report.assert_clean();
        assert_eq!(report.partitions, 1);
        assert_eq!(report.heals, 1);
        assert_eq!(report.completed, report.admitted);
    }

    #[test]
    fn v1_campaign_runs_without_zones() {
        let obs = Arc::new(wb_obs::Recorder::traced());
        let cluster = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .traced(Arc::clone(&obs))
            .build_v1();
        let cfg = ChaosConfig {
            rounds: 10,
            arrivals_per_round: 1,
            revive_after_rounds: 2,
            // v1 is single-AZ: the partition is reported unsupported
            // and the campaign carries on.
            partition_at: Some((2, Zone::Standby)),
            forced_kills: vec![(3, Zone::Primary)],
            drain_rounds: 60,
            ..ChaosConfig::default()
        };
        let report = run_campaign(&cluster, &obs, &cfg, job);
        report.assert_clean();
        assert_eq!(
            report.partitions, 0,
            "single-AZ cluster has no zones to cut"
        );
        assert_eq!(report.kills, 1);
        assert_eq!(report.completed, report.admitted);
    }

    #[test]
    fn v1_campaign_loses_nothing_while_the_whole_pool_is_down() {
        // Both push workers down for three rounds under load: every
        // job admitted meanwhile waits, none is lost.
        let obs = Arc::new(wb_obs::Recorder::traced());
        let cluster = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .traced(Arc::clone(&obs))
            .build_v1();
        let cfg = ChaosConfig {
            rounds: 8,
            revive_after_rounds: 3,
            forced_kills: vec![(2, Zone::Primary), (2, Zone::Primary)],
            min_alive: 0,
            drain_rounds: 60,
            ..ChaosConfig::default()
        };
        let report = run_campaign(&cluster, &obs, &cfg, job);
        report.assert_clean();
        assert_eq!(report.kills, 2, "both workers went down");
        assert_eq!(report.admitted, 16);
        assert_eq!(report.completed, report.admitted);
    }

    #[test]
    fn untraced_recorder_is_reported_not_ignored() {
        let obs = Arc::new(wb_obs::Recorder::noop());
        let cluster = ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(2)
            .policy(AutoscalePolicy::Static(2))
            .build_v2();
        let cfg = ChaosConfig {
            rounds: 4,
            arrivals_per_round: 1,
            ..ChaosConfig::default()
        };
        let report = run_campaign(&cluster, &obs, &cfg, job);
        assert!(!report.is_clean());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("traced recorder")),
            "got: {:?}",
            report.violations
        );
    }
}
