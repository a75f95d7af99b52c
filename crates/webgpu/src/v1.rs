//! The original WebGPU architecture (Fig. 2): web server ¬, database
//! servers ­, and workers ® — the web server pushes each job to a
//! chosen worker and evicts workers whose health checks go quiet.

use crate::fleet::Zone;
use crate::plane::{ControlPlane, Dispatch};
use minicuda::DeviceConfig;
use std::collections::HashMap;
use std::sync::Arc;
use wb_cache::CacheMetrics;
use wb_obs::sync::Mutex;
use wb_obs::{Annotation, Counter, JobPhase};
use wb_worker::{JobOutcome, JobRequest, WorkerConfig, WorkerNode};

/// Eviction threshold: a worker missing health checks for this many
/// virtual ms is dropped from the pool (§III-C).
pub const HEALTH_TIMEOUT_MS: u64 = 30_000;

/// Push dispatch: each pumped wave takes one job per live worker off
/// the fair-share scheduler and places it round-robin, retrying past
/// dead nodes. A synchronous `dispatch` is no exception: its job is
/// offered to the scheduler like any other and runs in the first wave
/// that reaches it. v1 predates multi-AZ: every node lives in the
/// primary zone, but spot vs on-demand still matters to the cost meter
/// and the chaos harness.
#[derive(Default)]
pub struct Push {
    book: Mutex<PushBook>,
}

#[derive(Default)]
struct PushBook {
    last_beat: HashMap<u64, u64>,
    evicted: Vec<u64>,
    rr_cursor: usize,
    dispatch_failures: u64,
}

/// The v1 push cluster.
pub type ClusterV1 = ControlPlane<Push>;

/// The image v1 nodes must carry. v1 had no job routing, so — per
/// §VI-A — every node must be "provisioned for the highest common
/// multiple of the system requirements of the labs": the full image
/// with every toolchain.
pub(crate) fn full_image_config() -> WorkerConfig {
    WorkerConfig {
        image: "webgpu/full".to_string(),
        capabilities: ["cuda", "opencl", "openacc", "mpi", "multi-gpu"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        ..WorkerConfig::default()
    }
}

impl Dispatch for Push {
    /// Release one fair-share wave — at most one job per live worker —
    /// and execute it job by job. With the whole pool down the wave is
    /// empty and admitted jobs wait in the scheduler, the way pull jobs
    /// wait in the broker. (A push kill crashes the node, so "not
    /// crashed" is "not killed and not crashed".)
    fn round(
        plane: &ClusterV1,
        workers: &[(usize, Arc<WorkerNode>)],
        _round: u64,
        now_ms: u64,
    ) -> Vec<JobOutcome> {
        let live = workers.iter().filter(|(_, w)| !w.is_crashed()).count();
        let wave = plane.sched.drain_rotating(live, now_ms);
        wave.iter()
            .filter_map(|(_, req)| plane.execute(req, now_ms))
            .collect()
    }

    fn kill(w: &WorkerNode) {
        w.crash();
    }

    fn zone(_requested: Zone) -> Zone {
        Zone::Primary
    }
}

impl ControlPlane<Push> {
    /// Boot a cluster with `n` full-image workers. For anything beyond
    /// the defaults, use [`ClusterBuilder`](crate::ClusterBuilder).
    pub fn new(n: usize, device: DeviceConfig) -> Self {
        crate::ClusterBuilder::new(device).fleet(n).build_v1()
    }

    /// Number of workers currently in the pool.
    pub fn pool_size(&self) -> usize {
        self.fleet_size()
    }

    /// Snapshot the cluster-wide submission-cache counters (all zeros
    /// when the cluster was booted uncached).
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.cache.as_ref().map(|c| c.metrics()).unwrap_or_default()
    }

    /// Worker ids evicted so far.
    pub fn evicted(&self) -> Vec<u64> {
        self.strategy.book.lock().evicted.clone()
    }

    /// Failed dispatch attempts (crashed worker chosen before eviction).
    pub fn dispatch_failures(&self) -> u64 {
        self.strategy.book.lock().dispatch_failures
    }

    /// Remove the most recently added worker (scale-in).
    pub fn remove_worker(&self) -> Option<u64> {
        let mut g = self.state.lock();
        let id = g.workers.pop()?.id();
        g.meta.remove(&id);
        self.strategy.book.lock().last_beat.remove(&id);
        Some(id)
    }

    /// Collect health checks and evict silent workers. Returns the ids
    /// evicted this round. A worker's health clock starts at the first
    /// sweep that sees it, so a worker that dies before its first beat
    /// still gets a full [`HEALTH_TIMEOUT_MS`].
    pub fn health_sweep(&self, now_ms: u64) -> Vec<u64> {
        let mut g = self.state.lock();
        let mut book = self.strategy.book.lock();
        for w in &g.workers {
            let last = book.last_beat.entry(w.id()).or_insert(now_ms);
            if let Some(beat) = w.health(now_ms) {
                *last = beat.at_ms;
            }
        }
        let mut evicted_now = Vec::new();
        g.workers.retain(|w| {
            let last = book.last_beat[&w.id()];
            let alive = now_ms.saturating_sub(last) < HEALTH_TIMEOUT_MS;
            if !alive {
                evicted_now.push(w.id());
            }
            alive
        });
        for &id in &evicted_now {
            self.obs.bump(Counter::WorkerEvictions);
            book.evicted.push(id);
            book.last_beat.remove(&id);
            g.meta.remove(&id);
        }
        evicted_now
    }

    /// Run one admitted job on the pool: round-robin over the roster,
    /// a dead node marking a dispatch failure and passing the job to
    /// the next (the retry students experienced as a slow attempt
    /// rather than an error page). `None`, with the span stamped
    /// `Failed`, when no node in the pool takes it.
    fn execute(&self, req: &JobRequest, now_ms: u64) -> Option<JobOutcome> {
        // Snapshot candidates to avoid holding the lock during a job.
        let candidates: Vec<Arc<WorkerNode>> = {
            let g = self.state.lock();
            let n = g.workers.len();
            let mut book = self.strategy.book.lock();
            let start = book.rr_cursor % n.max(1);
            book.rr_cursor = (start + 1) % n.max(1);
            (0..n)
                .map(|k| Arc::clone(&g.workers[(start + k) % n]))
                .collect()
        };
        for w in candidates {
            if let Some(outcome) = w.submit(req, now_ms) {
                return Some(outcome);
            }
            self.obs.annotate(req.job_id, Annotation::Retry, now_ms);
            self.strategy.book.lock().dispatch_failures += 1;
        }
        self.obs.phase(req.job_id, JobPhase::Failed, now_ms);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::WorkerDesc;
    use libwb::Dataset;
    use wb_server::JobDispatcher;
    use wb_worker::{DatasetCase, JobAction, LabSpec};

    fn echo(job_id: u64) -> JobRequest {
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
            spec: LabSpec::cuda_test("echo"),
            datasets: vec![DatasetCase {
                name: "d0".into(),
                inputs: vec![Dataset::Vector(vec![1.0])],
                expected: Dataset::Vector(vec![1.0]),
            }],
            action: JobAction::FullGrade,
        }
    }

    fn cluster(n: usize) -> ClusterV1 {
        ClusterV1::new(n, DeviceConfig::test_small())
    }

    #[test]
    fn jobs_round_robin_across_workers() {
        let c = cluster(3);
        for j in 0..6 {
            let out = c.dispatch(echo(j), 0).unwrap();
            assert!(out.compiled());
        }
        for i in 0..3 {
            assert_eq!(c.worker(i).unwrap().jobs_done(), 2, "even spread");
        }
    }

    #[test]
    fn duplicate_submissions_hit_the_cluster_cache() {
        let c = cluster(3);
        for j in 0..6 {
            assert!(c.dispatch(echo(j), 0).unwrap().compiled());
        }
        // Six identical sources spread round-robin over three workers:
        // one compile + one grade ran, the rest were cache hits — the
        // cache is cluster-wide, not per-node.
        let m = c.cache_metrics();
        assert_eq!(m.compile.misses, 1);
        assert_eq!(m.compile.hits, 5);
        assert_eq!(m.grade.misses, 1);
        assert_eq!(m.grade.hits, 5);
        assert!(m.total().hit_rate() > 0.8);
    }

    #[test]
    fn crashed_worker_is_skipped_with_retry() {
        let c = cluster(2);
        c.worker(0).unwrap().crash();
        for j in 0..4 {
            assert!(c.dispatch(echo(j), 0).is_ok());
        }
        assert!(c.dispatch_failures() > 0, "the dead node was tried");
        assert_eq!(c.worker(1).unwrap().jobs_done(), 4);
    }

    #[test]
    fn all_dead_reports_error() {
        let c = cluster(2);
        c.worker(0).unwrap().crash();
        c.worker(1).unwrap().crash();
        assert!(c.dispatch(echo(1), 0).is_err());
    }

    #[test]
    fn health_sweep_evicts_silent_workers() {
        let c = cluster(3);
        // t=0 everyone beats.
        assert!(c.health_sweep(0).is_empty());
        c.worker(1).unwrap().crash();
        // Within the timeout nothing is evicted.
        assert!(c.health_sweep(HEALTH_TIMEOUT_MS - 1).is_empty());
        // Past the timeout the crashed node goes.
        let evicted = c.health_sweep(HEALTH_TIMEOUT_MS + 1);
        assert_eq!(evicted.len(), 1);
        assert_eq!(c.pool_size(), 2);
        assert_eq!(c.evicted(), evicted);
    }

    #[test]
    fn recovered_worker_keeps_beating_until_evicted() {
        let c = cluster(2);
        c.worker(0).unwrap().crash();
        c.worker(0).unwrap().recover();
        // Recovery before the timeout: no eviction.
        assert!(c.health_sweep(HEALTH_TIMEOUT_MS + 1).is_empty());
        assert_eq!(c.pool_size(), 2);
    }

    #[test]
    fn a_spawned_worker_gets_a_full_health_timeout() {
        // The health clock starts at the first sweep that sees a
        // worker: one spawned late and killed before its first beat is
        // evicted a full timeout later, not at once.
        let c = cluster(1);
        assert!(c.health_sweep(100_000).is_empty());
        let id = c.spawn_worker(WorkerDesc::default());
        assert!(c.kill_worker(id));
        assert!(c.health_sweep(100_001).is_empty());
        assert_eq!(c.health_sweep(100_001 + HEALTH_TIMEOUT_MS), vec![id]);
    }

    #[test]
    fn scaling_in_and_out() {
        let c = cluster(1);
        let id = c.spawn_worker(WorkerDesc::default());
        assert_eq!(c.pool_size(), 2);
        assert_eq!(c.remove_worker(), Some(id));
        assert_eq!(c.pool_size(), 1);
    }

    #[test]
    fn empty_pool_rejects() {
        let c = cluster(1);
        c.remove_worker();
        assert!(c.dispatch(echo(1), 0).is_err());
    }

    #[test]
    fn jobs_queued_while_the_whole_pool_is_down_complete_exactly_once() {
        // With every worker down a wave releases nothing: the job
        // waits in the scheduler until a worker is back.
        let c = cluster(2);
        c.enqueue(echo(1), 0);
        assert!(c.kill_worker(1) && c.kill_worker(2));
        assert_eq!(c.pump(1), 0, "nobody alive: nothing released");
        assert_eq!(c.queue_depth(1), 1, "the job waits in the scheduler");
        assert!(c.revive_worker(1) && c.revive_worker(2));
        let done: usize = (2..10).map(|r| c.pump(r)).sum();
        assert_eq!(done, 1);
        assert_eq!(c.completed(), 1);
        assert!(c.take_result(1).expect("outcome filed").compiled());
        assert!(c.take_result(1).is_none(), "exactly once");
        assert_eq!(c.queue_depth(10), 0);
    }
}
