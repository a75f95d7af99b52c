//! One control plane, two dispatch strategies.
//!
//! The paper's two architectures differ in one decision, dispatch: v1
//! (Fig. 2) has the web tier push each job to a chosen worker, v2
//! (Figs. 6–7) has workers pull tagged jobs from a mirrored broker.
//! Admission, the shared submission cache, the recorder, the results
//! table, the round clock and the worker roster are the same platform
//! in both, written once here in [`ControlPlane`]. The small
//! [`Dispatch`] trait holds only what differs; [`Push`](crate::v1::Push)
//! and [`Pull`](crate::v2::Pull) are its two strategies. Rounds run on
//! the pumping thread; concurrency comes from several callers pumping.
//!
//! Lock order: the plane's state lock before the scheduler's, the
//! broker's, or a strategy's own. No lock is held while a worker runs
//! a job.

use crate::builder::ClusterBuilder;
use crate::fleet::{placement, FleetView, ReliabilityClass, WorkerDesc, WorkerInfo, Zone};
use minicuda::DeviceConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wb_obs::sync::Mutex;
use wb_obs::{Annotation, JobPhase, Recorder, Timer};
use wb_queue::ShardedBroker;
use wb_sched::{Admission, GradeClass, SchedSnapshot, ShardedScheduler};
use wb_server::{JobDispatcher, WbError};
use wb_worker::{
    new_submission_cache, ConfigServer, JobAction, JobOutcome, JobRequest, NodeConfig,
    SubmissionCache, WorkerConfig, WorkerNode,
};

/// What differs between the push and pull architectures.
pub trait Dispatch: Sized + Send + Sync {
    /// Release one round's work from the scheduler and run it, on the
    /// calling thread, on the reachable `workers` (fleet index, node);
    /// returns the outcomes the plane files in its results table.
    fn round(
        plane: &ControlPlane<Self>,
        workers: &[(usize, Arc<WorkerNode>)],
        round: u64,
        now_ms: u64,
    ) -> Vec<JobOutcome>;

    /// Runs at the end of every pump, after the outcomes are merged.
    fn after_round(_plane: &ControlPlane<Self>, _now_ms: u64) {}

    /// Take a live worker down.
    fn kill(w: &WorkerNode);

    /// Where a worker asked to land in `requested` is placed.
    fn zone(requested: Zone) -> Zone {
        requested
    }

    /// The broker, when the strategy has one: queue depth, partitions
    /// and heals go through it. Without one, zones cannot be cut.
    fn broker(&self) -> Option<&ShardedBroker<JobRequest>> {
        None
    }
}

/// Placement bookkeeping for one worker: where it lives, what it
/// costs, and whether the chaos/ops plane has killed it. Killed
/// workers stay in the roster (dark) until revived or scaled in.
pub(crate) struct Meta {
    pub(crate) zone: Zone,
    pub(crate) class: ReliabilityClass,
    pub(crate) killed: bool,
}

pub(crate) struct State {
    pub(crate) workers: Vec<Arc<WorkerNode>>,
    pub(crate) meta: HashMap<u64, Meta>,
    pub(crate) next_worker_id: u64,
    results: HashMap<u64, JobOutcome>,
    completed: u64,
    round: u64,
    /// Admission round of every admitted job not yet completed.
    enqueue_round: HashMap<u64, u64>,
    /// Queueing delay in pump rounds, summed over completed jobs.
    pub(crate) wait_sum: u64,
    pub(crate) wait_count: u64,
}

impl State {
    /// Worker `id` and its placement meta, if it is in the roster.
    fn entry(&mut self, id: u64) -> Option<(Arc<WorkerNode>, &mut Meta)> {
        let w = self.workers.iter().find(|w| w.id() == id)?;
        Some((Arc::clone(w), self.meta.get_mut(&id)?))
    }
}

/// The platform both architectures share, parameterized by how jobs
/// reach workers.
pub struct ControlPlane<D> {
    pub(crate) strategy: D,
    /// Remote configuration service all workers boot from (§VI-B).
    /// Pull workers watch it every round; push workers never sync it.
    pub config: ConfigServer,
    device: DeviceConfig,
    /// Cluster-wide submission cache every worker — including those
    /// spawned later — shares (`None` for the uncached baseline).
    pub(crate) cache: Option<Arc<SubmissionCache>>,
    /// Fair-share scheduler, one lane per control-plane shard:
    /// admission control for every submission path, and release order
    /// for pumped work.
    pub(crate) sched: ShardedScheduler<JobRequest>,
    pub(crate) shards: usize,
    pub(crate) obs: Arc<Recorder>,
    /// High-water mark of the virtual clock (`now_ms` seen by submit
    /// and pump). Fleet mutations carry no timestamp of their own;
    /// their span annotations are stamped with this.
    clock: AtomicU64,
    pub(crate) state: Mutex<State>,
}

pub(crate) fn grade_class(req: &JobRequest) -> GradeClass {
    if req.action == JobAction::FullGrade {
        GradeClass::Full
    } else {
        GradeClass::Light
    }
}

impl<D: Dispatch> ControlPlane<D> {
    /// Boot `b.fleet` workers from `worker` under `strategy`. Initial
    /// placement alternates zones by id (see [`placement`]).
    pub(crate) fn boot(strategy: D, worker: WorkerConfig, b: ClusterBuilder) -> Self {
        let shards = b.resolved_shards();
        let plane = ControlPlane {
            strategy,
            config: ConfigServer::new(worker),
            device: b.device,
            cache: b.cache.map(new_submission_cache),
            sched: ShardedScheduler::new(shards, b.sched, Arc::clone(&b.obs)),
            shards,
            obs: b.obs,
            clock: AtomicU64::new(0),
            state: Mutex::new(State {
                workers: Vec::new(),
                meta: HashMap::new(),
                next_worker_id: 1,
                results: HashMap::new(),
                completed: 0,
                round: 0,
                enqueue_round: HashMap::new(),
                wait_sum: 0,
                wait_count: 0,
            }),
        };
        {
            let mut g = plane.state.lock();
            for id in 1..=b.fleet as u64 {
                plane.spawn_locked(&mut g, WorkerDesc::on_demand(placement(id)));
            }
        }
        plane
    }

    /// Offer a job for admission. Admitted jobs enter the fair-share
    /// scheduler (possibly downgraded to compile-only in the brown-out
    /// band) and run in later pumps; shed jobs return
    /// [`WbError::Overloaded`] with a finite retry hint.
    ///
    /// The latency baseline and the admission decision are one atomic
    /// step: the state lock is held across the scheduler offer, so an
    /// admitted job's baseline exists before any concurrent pump can
    /// merge its completion, and a shed job never touches
    /// `enqueue_round` (nor a concurrent failover's span marks).
    pub fn submit(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        self.clock.fetch_max(now_ms, Ordering::Relaxed);
        let job_id = req.job_id;
        let course = req.spec.course.clone();
        let class = grade_class(&req);
        let mut g = self.state.lock();
        let round = g.round;
        match self.sched.offer(&course, job_id, req, class, now_ms, |r| {
            r.action = JobAction::CompileOnly;
        }) {
            Admission::Admitted { .. } => {
                g.enqueue_round.insert(job_id, round);
                drop(g);
                self.obs.phase(job_id, JobPhase::Queued, now_ms);
                Ok(job_id)
            }
            Admission::Shed { retry_after_s } => {
                drop(g);
                self.obs.phase(job_id, JobPhase::Failed, now_ms);
                Err(WbError::Overloaded { retry_after_s })
            }
        }
    }

    /// [`submit`](Self::submit) for callers that size their own load
    /// (tests, benches). Panics if admission control sheds.
    pub fn enqueue(&self, req: JobRequest, now_ms: u64) -> u64 {
        self.submit(req, now_ms)
            .expect("enqueue on a cluster with admission control enabled; use submit")
    }

    /// One scheduling round: the strategy releases and runs work on
    /// every reachable worker, outcomes land in the results table, then
    /// the strategy's after-round hook runs. Returns the number of
    /// outcomes merged this round.
    ///
    /// Workers in a partitioned zone are unreachable: they sit the
    /// round out but keep their fleet index, so lane pinning is stable
    /// across the cut and heal.
    pub fn pump(&self, now_ms: u64) -> usize {
        self.clock.fetch_max(now_ms, Ordering::Relaxed);
        let cut = self.strategy.broker().and_then(|b| b.partitioned_zone());
        let (workers, round) = {
            let mut g = self.state.lock();
            g.round += 1;
            let reachable: Vec<(usize, Arc<WorkerNode>)> = g
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| cut.is_none() || g.meta.get(&w.id()).map(|m| m.zone) != cut)
                .map(|(i, w)| (i, Arc::clone(w)))
                .collect();
            (reachable, g.round)
        };
        let outcomes = D::round(self, &workers, round, now_ms);
        let done = outcomes.len();
        self.merge_outcomes(outcomes);
        D::after_round(self, now_ms);
        done
    }

    /// Completion bookkeeping, under the state lock but strictly after
    /// the round's jobs finished.
    fn merge_outcomes(&self, outcomes: Vec<JobOutcome>) {
        if outcomes.is_empty() {
            return;
        }
        let mut g = self.state.lock();
        let round = g.round;
        for outcome in outcomes {
            g.completed += 1;
            if let Some(at) = g.enqueue_round.remove(&outcome.job_id) {
                let wait = round.saturating_sub(at);
                self.obs.observe(Timer::QueueWaitRounds, wait);
                g.wait_sum += wait;
                g.wait_count += 1;
            }
            g.results.insert(outcome.job_id, outcome);
        }
    }

    /// Take a completed job's outcome off the cluster.
    pub fn take_result(&self, job_id: u64) -> Option<JobOutcome> {
        self.state.lock().results.remove(&job_id)
    }

    /// Jobs completed, whichever path submitted them.
    pub fn completed(&self) -> u64 {
        self.state.lock().completed
    }

    /// Jobs waiting platform-wide: the scheduler's per-course backlogs
    /// plus everything visible in the broker to an all-capable worker.
    pub fn queue_depth(&self, now_ms: u64) -> usize {
        self.sched.total_backlog() + self.strategy.broker().map_or(0, |b| b.depth(now_ms))
    }

    /// Workers in the roster, dead or alive.
    pub fn fleet_size(&self) -> usize {
        self.state.lock().workers.len()
    }

    /// Control-plane lane count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Handle on a worker by fleet index (fault injection).
    pub fn worker(&self, idx: usize) -> Option<Arc<WorkerNode>> {
        self.state.lock().workers.get(idx).cloned()
    }

    /// Per-course scheduler backlogs, for the dashboard.
    pub fn sched_snapshot(&self) -> SchedSnapshot {
        self.sched.snapshot()
    }

    /// Aggregate metrics from the shared recorder — counters, latency
    /// percentiles, recent events. Empty on an untraced cluster.
    pub fn metrics_snapshot(&self) -> wb_obs::MetricsSnapshot {
        self.obs.snapshot()
    }

    /// A job's lifecycle span (traced clusters only).
    pub fn span(&self, job_id: u64) -> Option<wb_obs::SpanView> {
        self.obs.span(job_id)
    }

    /// Every tracked span (traced clusters only).
    pub fn spans(&self) -> Vec<wb_obs::SpanView> {
        self.obs.spans()
    }

    /// Boot a worker into the fleet; returns its id. It joins the
    /// cluster-wide cache and boots from the current remote config.
    pub fn spawn_worker(&self, desc: WorkerDesc) -> u64 {
        let mut g = self.state.lock();
        self.spawn_locked(&mut g, desc)
    }

    /// The one spawn path — boot, the autoscaler and
    /// [`spawn_worker`](Self::spawn_worker) — under an already-held
    /// state lock.
    pub(crate) fn spawn_locked(&self, g: &mut State, desc: WorkerDesc) -> u64 {
        let id = g.next_worker_id;
        g.next_worker_id += 1;
        let mut worker = self.config.get();
        if let Some(caps) = desc.capabilities {
            // Same version as the server's: the override sticks until
            // the next fleet-wide publish bumps it.
            worker.capabilities = caps;
        }
        g.workers.push(Arc::new(WorkerNode::launch(
            id,
            &NodeConfig {
                device: self.device.clone(),
                worker,
                cache: self.cache.clone(),
                obs: Arc::clone(&self.obs),
            },
        )));
        g.meta.insert(
            id,
            Meta {
                zone: D::zone(desc.zone),
                class: desc.reliability_class,
                killed: false,
            },
        );
        id
    }

    /// Kill worker `id` (spot preemption / hardware loss). It stays in
    /// the roster, dark, until revived or scaled in. A push kill is
    /// immediate (the node refuses the next dispatch); a pull kill is
    /// a preemption (the node vanishes at its next poll, taking any
    /// matching delivery dark until the visibility timeout reclaims
    /// it). False when the id is unknown or the worker is already dead.
    pub fn kill_worker(&self, id: u64) -> bool {
        let mut g = self.state.lock();
        let Some((w, m)) = g.entry(id) else {
            return false;
        };
        if m.killed || w.is_crashed() {
            return false;
        }
        m.killed = true;
        D::kill(&w);
        true
    }

    /// Bring a killed worker back. False when the id is unknown or the
    /// worker is already alive.
    pub fn revive_worker(&self, id: u64) -> bool {
        let mut g = self.state.lock();
        let Some((w, m)) = g.entry(id) else {
            return false;
        };
        if !m.killed && !w.is_crashed() {
            return false;
        }
        m.killed = false;
        w.recover();
        true
    }

    /// Cut `zone` off by a network partition. When the cut zone was
    /// serving broker traffic, the broker fails over first — pending
    /// jobs get `Failover` span annotations, nothing is lost. False
    /// when a zone is already partitioned, or there is no broker.
    pub fn partition_zone(&self, zone: Zone) -> bool {
        let Some(broker) = self.strategy.broker() else {
            return false;
        };
        if broker.partitioned_zone().is_none() && broker.active_zone() == zone {
            self.mark_failover(self.clock.load(Ordering::Relaxed));
        }
        broker.partition(zone)
    }

    /// Heal a partition: the cut zone's broker side is rebuilt from the
    /// surviving zone. False unless `zone` is the one partitioned.
    pub fn heal_zone(&self, zone: Zone) -> bool {
        self.strategy.broker().is_some_and(|b| b.heal(zone))
    }

    /// Annotate every job still waiting with `Failover` — the
    /// operator-visible trace of which submissions lived through a
    /// zone switch.
    pub(crate) fn mark_failover(&self, now_ms: u64) {
        let g = self.state.lock();
        for &job_id in g.enqueue_round.keys() {
            self.obs.annotate(job_id, Annotation::Failover, now_ms);
        }
    }

    /// Snapshot the fleet roster and partition state.
    pub fn describe_fleet(&self) -> FleetView {
        let g = self.state.lock();
        let workers = g
            .workers
            .iter()
            .map(|w| {
                let m = &g.meta[&w.id()];
                WorkerInfo {
                    id: w.id(),
                    zone: m.zone,
                    reliability_class: m.class,
                    capabilities: w.capabilities(),
                    alive: !w.is_crashed() && !m.killed,
                    jobs_done: w.jobs_done(),
                }
            })
            .collect();
        FleetView {
            workers,
            partitioned: self.strategy.broker().and_then(|b| b.partitioned_zone()),
        }
    }
}

/// The queued path is the plane's own admission, pump and results
/// table; the interactive `dispatch` is the trait's, over the same
/// books.
impl<D: Dispatch> JobDispatcher for ControlPlane<D> {
    fn submit_queued(&self, req: JobRequest, now_ms: u64) -> Result<u64, WbError> {
        self.submit(req, now_ms)
    }

    fn take_ready(&self, wanted: &dyn Fn(u64) -> bool) -> Vec<JobOutcome> {
        let mut g = self.state.lock();
        let ready = g.results.extract_if(|&id, _| wanted(id));
        ready.map(|e| e.1).collect()
    }

    fn advance(&self, now_ms: u64) -> usize {
        self.pump(now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AutoscalePolicy;
    use libwb::Dataset;
    use wb_cache::CacheMetrics;
    use wb_sandbox::SyscallWhitelist;
    use wb_worker::{DatasetCase, HealthBeat, LabSpec};

    fn echo(job_id: u64, course: &str) -> JobRequest {
        let mut spec = LabSpec::cuda_test("echo");
        spec.course = course.to_string();
        JobRequest {
            job_id,
            user: "alice".into(),
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
                inputs: vec![Dataset::Vector(vec![1.0])].into(),
                expected: Dataset::Vector(vec![1.0]).into(),
            }],
            action: JobAction::FullGrade,
        }
    }

    fn builder(fleet: usize) -> ClusterBuilder {
        ClusterBuilder::new(DeviceConfig::test_small())
            .fleet(fleet)
            .shards(1)
    }

    /// The generic harness shape: submit, pump to drain, take results.
    fn run_jobs<D: Dispatch>(p: &ControlPlane<D>, jobs: u64) {
        for j in 0..jobs {
            p.submit(echo(j, if j % 2 == 0 { "hpp" } else { "ece408" }), 0)
                .expect("default budget admits everything");
        }
        assert_eq!(p.queue_depth(0), jobs as usize);
        let mut round = 1;
        while p.completed() < jobs {
            p.pump(round);
            round += 1;
            assert!(round < 200, "platform failed to drain {jobs} jobs");
        }
        for j in 0..jobs {
            let out = p.take_result(j).expect("every job has an outcome");
            assert!(out.compiled());
        }
        assert_eq!(p.queue_depth(round), 0);
        assert_eq!(p.fleet_size(), 2);
    }

    #[test]
    fn both_strategies_run_the_same_harness() {
        let v1 = builder(2).build_v1();
        run_jobs(&v1, 8);
        assert!(v1.cache_metrics().total().lookups() > 0);
        let v2 = builder(2).build_v2();
        run_jobs(&v2, 8);
        let cache = v2.cache_metrics().expect("default builds are cached");
        assert!(cache.total().lookups() > 0);
        // An uncached build reports None rather than zeroed gauges.
        assert!(builder(1).uncached().build_v2().cache_metrics().is_none());
    }

    /// Kill/revive semantics, and a killed worker loses no job: a push
    /// kill refuses the next dispatch (retried onto the survivor), a
    /// pull kill takes one delivery dark until the visibility timeout
    /// reclaims it.
    fn kill_and_revive_lose_nothing<D: Dispatch>(c: ControlPlane<D>) {
        for j in 0..4 {
            c.enqueue(echo(j, "hpp"), 0);
        }
        assert!(c.kill_worker(1), "worker 1 exists and is alive");
        assert!(!c.kill_worker(1), "double kill reports false");
        assert!(!c.kill_worker(99), "unknown id reports false");
        assert!(!c.revive_worker(99), "unknown id reports false");
        assert_eq!(c.describe_fleet().alive(), 1);
        let done: usize = (0..30).map(|r| c.pump(r)).sum();
        assert_eq!(done, 4, "every job completed despite the kill");
        assert_eq!(c.worker(1).unwrap().jobs_done(), 4, "the survivor took all");
        assert!(c.revive_worker(1));
        assert!(!c.revive_worker(1), "double revive reports false");
        assert_eq!(c.describe_fleet().alive(), 2);
    }

    #[test]
    fn kill_and_revive_lose_nothing_on_push() {
        kill_and_revive_lose_nothing(builder(2).build_v1());
    }

    #[test]
    fn kill_and_revive_lose_nothing_on_pull() {
        kill_and_revive_lose_nothing(builder(2).broker_tuning(5, 10).build_v2());
    }

    /// A spawned spot worker with a capability override joins the
    /// roster in the zone its strategy places it, and takes work.
    fn spawned_worker_joins_and_works<D: Dispatch>(c: &ControlPlane<D>, lands_in: Zone) {
        let id = c.spawn_worker(
            WorkerDesc::spot(Zone::Standby).with_capabilities(["cuda", "mpi"].into()),
        );
        assert_eq!(id, 2);
        let view = c.describe_fleet();
        assert_eq!(view.total(), 2);
        assert_eq!(view.alive_of_class(ReliabilityClass::Spot), 1);
        assert!(view.workers[1].capabilities.contains("mpi"));
        assert_eq!(view.workers[1].zone, lands_in);
        c.enqueue(mpi_echo(7), 0);
        c.enqueue(echo(8, "hpp"), 0);
        let done: usize = (0..10).map(|r| c.pump(r)).sum();
        assert_eq!(done, 2);
        assert!(c.worker(1).unwrap().jobs_done() >= 1, "the spawn took work");
        assert_eq!(c.fleet_size(), 2);
    }

    fn mpi_echo(job_id: u64) -> JobRequest {
        let mut req = echo(job_id, "hpp");
        req.spec.tags = ["mpi".to_string()].into_iter().collect();
        req.spec.whitelist = SyscallWhitelist::mpi_profile();
        req
    }

    #[test]
    fn spawned_worker_lands_in_primary_on_push() {
        spawned_worker_joins_and_works(&builder(1).build_v1(), Zone::Primary);
    }

    #[test]
    fn spawned_worker_takes_tagged_jobs_on_pull() {
        // The static target keeps the spawn, and it alone advertises
        // `mpi`: the initial worker never takes a tagged job.
        let c = builder(1).policy(AutoscalePolicy::Static(2)).build_v2();
        spawned_worker_joins_and_works(&c, Zone::Standby);
        let initial = c.worker(0).unwrap().jobs_done();
        c.enqueue(mpi_echo(9), 10);
        let done: usize = (10..20).map(|r| c.pump(r)).sum();
        assert_eq!(done, 1);
        assert_eq!(c.worker(0).unwrap().jobs_done(), initial);
    }

    /// Worker 1 is primary, worker 2 standby on pull. Cutting the
    /// standby leaves the primary worker to drain the queue alone;
    /// push is single-AZ and refuses zone faults politely.
    fn partition_and_heal<D: Dispatch>(c: ControlPlane<D>, has_zones: bool) {
        assert_eq!(c.partition_zone(Zone::Standby), has_zones);
        assert_eq!(
            c.describe_fleet().partitioned,
            has_zones.then_some(Zone::Standby)
        );
        c.enqueue(echo(1, "hpp"), 0);
        c.enqueue(echo(2, "hpp"), 0);
        let mut done: usize = (0..10).map(|r| c.pump(r)).sum();
        assert_eq!(done, 2);
        if has_zones {
            assert_eq!(c.worker(1).unwrap().jobs_done(), 0, "standby sat out");
        }
        assert_eq!(c.heal_zone(Zone::Standby), has_zones);
        assert!(!c.heal_zone(Zone::Standby), "nothing left to heal");
        assert!(c.describe_fleet().partitioned.is_none());
        c.enqueue(echo(3, "hpp"), 20);
        done += (20..30).map(|r| c.pump(r)).sum::<usize>();
        assert_eq!(done, 3);
    }

    #[test]
    fn push_refuses_zone_faults() {
        partition_and_heal(builder(2).build_v1(), false);
    }

    #[test]
    fn partitioned_zone_workers_sit_out_the_round_on_pull() {
        partition_and_heal(builder(2).build_v2(), true);
    }

    /// A traced fleet of 2 under either strategy.
    fn traced(obs: &Arc<Recorder>) -> ClusterBuilder {
        builder(2)
            .policy(AutoscalePolicy::Static(2))
            .traced(Arc::clone(obs))
    }

    /// The interactive path keeps the queued path's books: each
    /// `dispatch` is admitted, waits its turn, completes once, and
    /// hands its outcome to the caller alone.
    fn dispatch_goes_through_the_books<D: Dispatch>(c: ControlPlane<D>, obs: &Recorder) {
        for j in 0..3 {
            let out = c.dispatch(echo(j, "hpp"), 0).expect("a live fleet runs it");
            assert!(out.compiled());
            assert!(c.take_result(j).is_none(), "dispatch collected it");
            let span = c.span(j).expect("traced");
            assert_eq!(span.phases[0].0, JobPhase::Queued);
            assert!(span.is_complete() && span.is_ordered(), "{span:?}");
        }
        assert_eq!(c.completed(), 3);
        assert_eq!(obs.histogram(Timer::QueueWaitRounds).count, 3);
    }

    #[test]
    fn dispatch_goes_through_the_books_on_push() {
        let obs = Arc::new(Recorder::traced());
        dispatch_goes_through_the_books(traced(&obs).build_v1(), &obs);
    }

    #[test]
    fn dispatch_goes_through_the_books_on_pull() {
        let obs = Arc::new(Recorder::traced());
        dispatch_goes_through_the_books(traced(&obs).build_v2(), &obs);
    }

    /// A `dispatch` no worker can take gives up without failing the
    /// job: it stays queued, runs once `unblock` lets a worker take it,
    /// and its span closes exactly once.
    fn dispatch_gives_up_but_keeps_the_job<D: Dispatch>(
        c: ControlPlane<D>,
        req: JobRequest,
        unblock: impl FnOnce(&ControlPlane<D>),
    ) {
        let job_id = req.job_id;
        let err = c.dispatch(req, 0).unwrap_err();
        assert!(matches!(err, WbError::Infra { .. }), "{err:?}");
        assert!(err.to_string().contains("still queued"), "{err}");
        assert_eq!(c.queue_depth(20_000), 1);
        unblock(&c);
        let done: usize = (20_000..20_020).map(|r| c.pump(r)).sum();
        assert_eq!(done, 1);
        assert!(c.take_result(job_id).expect("it ran").compiled());
        assert!(c.take_result(job_id).is_none(), "exactly once");
        let span = c.span(job_id).expect("traced");
        assert_eq!(span.terminal(), Some(JobPhase::Graded));
        assert!(span.is_complete() && span.is_ordered(), "{span:?}");
    }

    #[test]
    fn dispatch_gives_up_but_keeps_the_job_on_push() {
        let obs = Arc::new(Recorder::traced());
        let c = traced(&obs).build_v1();
        assert!(c.kill_worker(1) && c.kill_worker(2));
        dispatch_gives_up_but_keeps_the_job(c, echo(1, "hpp"), |c| {
            assert!(c.revive_worker(1) && c.revive_worker(2));
        });
    }

    #[test]
    fn dispatch_gives_up_but_keeps_the_job_on_pull() {
        let obs = Arc::new(Recorder::traced());
        dispatch_gives_up_but_keeps_the_job(traced(&obs).build_v2(), mpi_echo(1), |c| {
            c.config.update(|cfg| {
                cfg.capabilities.insert("mpi".into());
            });
        });
    }

    /// Fleet 2, a backlog budget of 4, both workers killed, then one
    /// job offered and pumped per round: a dead fleet releases nothing,
    /// so the backlog fills and admission sheds the rest. Pull's first
    /// round still hands one job to a preempting worker, which polls
    /// once before it goes dark, so pull admits one more than push.
    fn dead_fleet_sheds_past_the_budget<D: Dispatch>(
        build: fn(ClusterBuilder) -> ControlPlane<D>,
        admits: usize,
    ) {
        let c = build(builder(2).scheduler(crate::SchedConfig {
            backlog_budget: 4,
            ..Default::default()
        }));
        assert!(c.kill_worker(1) && c.kill_worker(2));
        let admitted = (0..50)
            .filter(|&j| {
                let ok = c.submit(echo(j, "hpp"), j).is_ok();
                c.pump(j);
                ok
            })
            .count();
        assert_eq!(admitted, admits, "the budget holds with the fleet down");
        assert_eq!(c.sched.total_backlog(), 4);
    }

    #[test]
    fn dead_fleet_sheds_past_the_budget_on_push() {
        dead_fleet_sheds_past_the_budget(ClusterBuilder::build_v1, 4);
    }

    #[test]
    fn dead_fleet_sheds_past_the_budget_on_pull() {
        dead_fleet_sheds_past_the_budget(ClusterBuilder::build_v2, 5);
    }

    /// What one run leaves behind.
    #[derive(Debug, PartialEq)]
    struct Replay {
        jobs_done: Vec<u64>,
        outcomes: Vec<JobOutcome>,
        health: Vec<HealthBeat>,
        waits: (u64, u64),
        cache: Option<CacheMetrics>,
    }

    /// Fleet 4 on two lanes, three courses and four distinct sources,
    /// so most jobs are byte-identical duplicates; one job is offered
    /// per round, and this thread does all the pumping.
    fn replay<D: Dispatch>(
        build: fn(ClusterBuilder) -> ControlPlane<D>,
        health: fn(&ControlPlane<D>) -> Vec<HealthBeat>,
    ) -> Replay {
        const JOBS: u64 = 24;
        let c = build(
            ClusterBuilder::new(DeviceConfig::test_small())
                .fleet(4)
                .shards(2),
        );
        for j in 0..JOBS {
            let mut req = echo(j, ["hpp", "ece408", "cs483"][j as usize % 3]);
            req.source.push_str(&format!("// variant {}\n", j % 4));
            c.submit(req, j).expect("default budget admits everything");
            c.pump(j);
        }
        let mut now = JOBS;
        while c.completed() < JOBS {
            c.pump(now);
            now += 1;
            assert!(now < 200, "platform failed to drain");
        }
        let waits = {
            let g = c.state.lock();
            (g.wait_sum, g.wait_count)
        };
        Replay {
            jobs_done: (0..c.fleet_size())
                .map(|i| c.worker(i).expect("in the roster").jobs_done())
                .collect(),
            outcomes: (0..JOBS)
                .map(|j| c.take_result(j).expect("every job has an outcome"))
                .collect(),
            health: health(&c),
            waits,
            cache: c.cache.as_ref().map(|m| m.metrics()),
        }
    }

    /// With one pumping thread nothing runs concurrently: two runs
    /// agree on everything, and no cache lookup ever waits on another.
    fn pumping_replays_identically<D: Dispatch>(
        build: fn(ClusterBuilder) -> ControlPlane<D>,
        health: fn(&ControlPlane<D>) -> Vec<HealthBeat>,
    ) {
        let first = replay(build, health);
        let cache = first.cache.expect("default builds are cached");
        assert_eq!(cache.compile.misses, 4, "one compile per distinct source");
        assert_eq!(cache.compile.coalesced + cache.grade.coalesced, 0);
        assert_eq!(first, replay(build, health));
    }

    #[test]
    fn pumping_replays_identically_on_push() {
        pumping_replays_identically(ClusterBuilder::build_v1, |_| Vec::new());
    }

    #[test]
    fn pumping_replays_identically_on_pull() {
        pumping_replays_identically(ClusterBuilder::build_v2, crate::ClusterV2::latest_health);
    }
}
