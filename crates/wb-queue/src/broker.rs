//! The core broker: tagged jobs, visibility timeouts, retries.

use crate::capability::CapabilitySet;
use std::collections::BTreeSet;
use std::sync::Arc;
use wb_obs::sync::Mutex;
use wb_obs::{Counter, Recorder};

/// Metadata carried by every job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMeta {
    /// Broker-assigned id.
    pub id: u64,
    /// Capability tags the worker must have (e.g. `mpi`, `multi-gpu`).
    pub tags: BTreeSet<String>,
    /// Virtual ms at enqueue.
    pub enqueued_at: u64,
    /// Delivery attempts so far.
    pub attempts: u32,
}

/// A delivered job: payload plus receipt handle for ack/nack.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<T> {
    /// Job metadata.
    pub meta: JobMeta,
    /// The payload.
    pub payload: T,
}

/// Counters for the operations dashboard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerMetrics {
    /// Jobs enqueued.
    pub enqueued: u64,
    /// Deliveries handed to workers (including redeliveries).
    pub delivered: u64,
    /// Jobs acknowledged.
    pub acked: u64,
    /// Explicit negative acknowledgements.
    pub nacked: u64,
    /// Deliveries that timed out and became visible again.
    pub timeouts: u64,
    /// Jobs moved to the dead-letter queue.
    pub dead_lettered: u64,
}

#[derive(Debug, Clone)]
struct QueuedJob<T> {
    meta: JobMeta,
    payload: T,
    /// When Some, the job is in flight and invisible until this time.
    invisible_until: Option<u64>,
}

struct Inner<T> {
    jobs: Vec<QueuedJob<T>>,
    dead: Vec<Delivery<T>>,
    next_id: u64,
    metrics: BrokerMetrics,
}

/// A single broker node.
pub struct Broker<T> {
    inner: Mutex<Inner<T>>,
    visibility_timeout_ms: u64,
    max_attempts: u32,
    /// Distance between consecutive ids this broker issues. A
    /// standalone broker strides by 1; a lane of a
    /// [`ShardedBroker`](crate::ShardedBroker) strides by the shard
    /// count, so ids identify their lane by residue and never collide
    /// across lanes.
    id_stride: u64,
    obs: Arc<Recorder>,
}

impl<T: Clone> Broker<T> {
    /// Broker with the given visibility timeout and retry budget.
    pub fn new(visibility_timeout_ms: u64, max_attempts: u32) -> Self {
        Broker::with_recorder(
            visibility_timeout_ms,
            max_attempts,
            Arc::new(Recorder::noop()),
        )
    }

    /// Broker that reports queue traffic to a shared recorder.
    pub fn with_recorder(
        visibility_timeout_ms: u64,
        max_attempts: u32,
        obs: Arc<Recorder>,
    ) -> Self {
        Broker::with_id_stride(visibility_timeout_ms, max_attempts, obs, 1, 1)
    }

    /// Broker issuing ids from the arithmetic progression
    /// `first_id, first_id + stride, …` — the id-striping scheme that
    /// lets N shard lanes share one id space without coordination.
    pub fn with_id_stride(
        visibility_timeout_ms: u64,
        max_attempts: u32,
        obs: Arc<Recorder>,
        first_id: u64,
        stride: u64,
    ) -> Self {
        assert!(max_attempts >= 1, "at least one attempt");
        assert!(first_id >= 1, "ids start at 1");
        assert!(stride >= 1, "stride must advance");
        Broker {
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                dead: Vec::new(),
                next_id: first_id,
                metrics: BrokerMetrics::default(),
            }),
            visibility_timeout_ms,
            max_attempts,
            id_stride: stride,
            obs,
        }
    }

    /// Enqueue a job with capability tags; returns the job id.
    pub fn enqueue(&self, payload: T, tags: BTreeSet<String>, now_ms: u64) -> u64 {
        let mut g = self.inner.lock();
        let id = g.next_id;
        g.next_id += self.id_stride;
        g.metrics.enqueued += 1;
        g.jobs.push(QueuedJob {
            meta: JobMeta {
                id,
                tags,
                enqueued_at: now_ms,
                attempts: 0,
            },
            payload,
            invisible_until: None,
        });
        self.obs.bump(Counter::QueueEnqueued);
        id
    }

    /// Reclaim expired deliveries and dead-letter jobs that exhausted
    /// their retry budget. Every observation of the queue (`poll`,
    /// `depth`, `in_flight`) sweeps first so autoscalers never see
    /// phantom depth from jobs that can no longer be delivered.
    fn sweep(g: &mut Inner<T>, now_ms: u64, max_attempts: u32, obs: &Recorder) {
        // Reclaim expired deliveries.
        let mut timeouts = 0;
        for j in g.jobs.iter_mut() {
            if let Some(t) = j.invisible_until {
                if t <= now_ms {
                    j.invisible_until = None;
                    timeouts += 1;
                }
            }
        }
        g.metrics.timeouts += timeouts;
        obs.add(Counter::QueueTimeouts, timeouts);

        // Dead-letter jobs that exhausted their attempts.
        let mut k = 0;
        while k < g.jobs.len() {
            if g.jobs[k].invisible_until.is_none() && g.jobs[k].meta.attempts >= max_attempts {
                let j = g.jobs.remove(k);
                g.metrics.dead_lettered += 1;
                obs.dead_letter(j.meta.id, now_ms);
                g.dead.push(Delivery {
                    meta: j.meta,
                    payload: j.payload,
                });
            } else {
                k += 1;
            }
        }
    }

    /// Worker poll: the oldest visible job whose tags are all within
    /// `capabilities`. In-flight jobs whose visibility expired are
    /// reclaimed first.
    pub fn poll(&self, capabilities: &CapabilitySet, now_ms: u64) -> Option<Delivery<T>> {
        let mut g = self.inner.lock();
        Self::sweep(&mut g, now_ms, self.max_attempts, &self.obs);
        let idx = g.jobs.iter().position(|j| {
            j.invisible_until.is_none() && capabilities.satisfies(j.meta.tags.iter())
        })?;
        let job = &mut g.jobs[idx];
        job.meta.attempts += 1;
        job.invisible_until = Some(now_ms + self.visibility_timeout_ms);
        let d = Delivery {
            meta: job.meta.clone(),
            payload: job.payload.clone(),
        };
        g.metrics.delivered += 1;
        self.obs.bump(Counter::QueueDelivered);
        Some(d)
    }

    /// Acknowledge successful completion; removes the job.
    pub fn ack(&self, job_id: u64) -> bool {
        let removed = self.ack_untracked(job_id);
        if removed {
            self.obs.bump(Counter::QueueAcked);
        }
        removed
    }

    /// Ack without reporting to the recorder — the mirror uses this on
    /// the passive zone so a fanned-out ack is counted once.
    pub(crate) fn ack_untracked(&self, job_id: u64) -> bool {
        let mut g = self.inner.lock();
        let before = g.jobs.len();
        g.jobs.retain(|j| j.meta.id != job_id);
        let removed = g.jobs.len() < before;
        if removed {
            g.metrics.acked += 1;
        }
        removed
    }

    /// Negative acknowledgement: the job becomes visible immediately
    /// (e.g. the worker noticed it cannot run it after all).
    pub fn nack(&self, job_id: u64) -> bool {
        let mut g = self.inner.lock();
        for j in g.jobs.iter_mut() {
            if j.meta.id == job_id {
                j.invisible_until = None;
                g.metrics.nacked += 1;
                self.obs.bump(Counter::QueueNacked);
                return true;
            }
        }
        false
    }

    /// Jobs currently visible to a hypothetical all-capable worker.
    /// Sweeps first: expired deliveries count again, but jobs whose
    /// attempts are exhausted are dead-lettered rather than reported as
    /// depth (a poisoned job must not trigger scale-out forever).
    pub fn depth(&self, now_ms: u64) -> usize {
        let mut g = self.inner.lock();
        Self::sweep(&mut g, now_ms, self.max_attempts, &self.obs);
        g.jobs
            .iter()
            .filter(|j| j.invisible_until.is_none())
            .count()
    }

    /// Jobs in flight (delivered, not yet acked or expired).
    pub fn in_flight(&self, now_ms: u64) -> usize {
        let mut g = self.inner.lock();
        Self::sweep(&mut g, now_ms, self.max_attempts, &self.obs);
        g.jobs
            .iter()
            .filter(|j| j.invisible_until.is_some())
            .count()
    }

    /// Dead-letter queue contents.
    pub fn dead_letters(&self) -> Vec<Delivery<T>> {
        self.inner.lock().dead.clone()
    }

    /// Drain the dead-letter queue, handing the letters to the caller
    /// (e.g. an operator re-driving poisoned jobs after a fix).
    pub fn take_dead_letters(&self) -> Vec<Delivery<T>> {
        std::mem::take(&mut self.inner.lock().dead)
    }

    /// Ids of dead-lettered jobs (mirror reconciliation support).
    pub(crate) fn dead_ids(&self) -> Vec<u64> {
        self.inner.lock().dead.iter().map(|d| d.meta.id).collect()
    }

    /// Overwrite the dead-letter queue (mirror heal support): the
    /// healed zone adopts the active zone's dead queue wholesale, so a
    /// letter drained on one zone can never resurface from the other.
    pub(crate) fn replace_dead(&self, dead: Vec<Delivery<T>>) {
        self.inner.lock().dead = dead;
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> BrokerMetrics {
        self.inner.lock().metrics
    }

    /// All pending jobs (mirroring/failover support).
    pub(crate) fn drain_state(&self) -> Vec<(JobMeta, T)> {
        self.inner
            .lock()
            .jobs
            .iter()
            .map(|j| (j.meta.clone(), j.payload.clone()))
            .collect()
    }

    /// Restore jobs (mirroring/failover support).
    pub(crate) fn restore_state(&self, jobs: Vec<(JobMeta, T)>) {
        let mut g = self.inner.lock();
        for (meta, payload) in jobs {
            // Advance past the restored id while staying on this
            // broker's id residue class (mirrored zones share a class,
            // so the standby continues the primary's sequence exactly).
            while g.next_id <= meta.id {
                g.next_id += self.id_stride;
            }
            g.jobs.push(QueuedJob {
                meta,
                payload,
                invisible_until: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(list: &[&str]) -> BTreeSet<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn caps(list: &[&str]) -> CapabilitySet {
        list.iter().copied().collect()
    }

    fn basic_worker() -> CapabilitySet {
        caps(&["cuda"])
    }

    #[test]
    fn fifo_delivery_and_ack() {
        let b: Broker<&str> = Broker::new(1000, 3);
        b.enqueue("first", tags(&[]), 0);
        b.enqueue("second", tags(&[]), 0);
        let d1 = b.poll(&basic_worker(), 10).unwrap();
        assert_eq!(d1.payload, "first");
        assert!(b.ack(d1.meta.id));
        let d2 = b.poll(&basic_worker(), 11).unwrap();
        assert_eq!(d2.payload, "second");
        assert!(b.ack(d2.meta.id));
        assert!(b.poll(&basic_worker(), 12).is_none());
        let m = b.metrics();
        assert_eq!((m.enqueued, m.delivered, m.acked), (2, 2, 2));
    }

    #[test]
    fn tags_route_to_capable_workers_only() {
        let b: Broker<&str> = Broker::new(1000, 3);
        b.enqueue("mpi job", tags(&["mpi"]), 0);
        b.enqueue("plain job", tags(&[]), 0);
        // A plain CUDA worker skips the MPI job but gets the plain one.
        let d = b.poll(&basic_worker(), 1).unwrap();
        assert_eq!(d.payload, "plain job");
        // An MPI-capable worker gets the MPI job.
        let d2 = b.poll(&caps(&["cuda", "mpi"]), 2).unwrap();
        assert_eq!(d2.payload, "mpi job");
    }

    #[test]
    fn in_flight_jobs_are_invisible() {
        let b: Broker<&str> = Broker::new(1000, 3);
        b.enqueue("job", tags(&[]), 0);
        let _d = b.poll(&basic_worker(), 0).unwrap();
        assert!(b.poll(&basic_worker(), 10).is_none());
        assert_eq!(b.in_flight(10), 1);
        assert_eq!(b.depth(10), 0);
    }

    #[test]
    fn visibility_timeout_redelivers() {
        let b: Broker<&str> = Broker::new(100, 3);
        b.enqueue("job", tags(&[]), 0);
        let d1 = b.poll(&basic_worker(), 0).unwrap();
        assert_eq!(d1.meta.attempts, 1);
        // Worker dies; at t=100 the job is visible again.
        let d2 = b.poll(&basic_worker(), 100).unwrap();
        assert_eq!(d2.meta.attempts, 2);
        assert_eq!(b.metrics().timeouts, 1);
    }

    #[test]
    fn nack_makes_job_immediately_visible() {
        let b: Broker<&str> = Broker::new(10_000, 3);
        b.enqueue("job", tags(&[]), 0);
        let d = b.poll(&basic_worker(), 0).unwrap();
        assert!(b.nack(d.meta.id));
        let d2 = b.poll(&basic_worker(), 1).unwrap();
        assert_eq!(d2.meta.attempts, 2);
    }

    #[test]
    fn exhausted_retries_dead_letter() {
        let b: Broker<&str> = Broker::new(10, 2);
        b.enqueue("poison", tags(&[]), 0);
        let mut t = 0;
        for _ in 0..2 {
            let d = b.poll(&basic_worker(), t);
            assert!(d.is_some());
            t += 10; // let visibility expire
        }
        // Third poll dead-letters instead of delivering.
        assert!(b.poll(&basic_worker(), t).is_none());
        let dead = b.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].payload, "poison");
        assert_eq!(b.metrics().dead_lettered, 1);
    }

    #[test]
    fn ack_unknown_job_is_false() {
        let b: Broker<&str> = Broker::new(100, 3);
        assert!(!b.ack(42));
        assert!(!b.nack(42));
    }

    #[test]
    fn depth_counts_visible_jobs() {
        let b: Broker<&str> = Broker::new(100, 3);
        for _ in 0..5 {
            b.enqueue("j", tags(&[]), 0);
        }
        assert_eq!(b.depth(0), 5);
        let _d = b.poll(&basic_worker(), 0).unwrap();
        assert_eq!(b.depth(1), 4);
        // After timeout the in-flight one counts again.
        assert_eq!(b.depth(200), 5);
    }

    #[test]
    fn exhausted_job_stops_counting_as_depth() {
        // A poisoned job (delivered max_attempts times, never acked)
        // must not inflate depth once its visibility lapses — lazy
        // dead-lettering used to leave it counted until the next poll,
        // driving spurious autoscale-out.
        let b: Broker<&str> = Broker::new(10, 1);
        b.enqueue("poison", tags(&[]), 0);
        let _d = b.poll(&basic_worker(), 0).unwrap();
        // In flight: not visible, not dead.
        assert_eq!(b.depth(5), 0);
        assert_eq!(b.in_flight(5), 1);
        // Visibility expired, attempts exhausted: dead-lettered by the
        // very observation, with no poll needed.
        assert_eq!(b.depth(10), 0);
        assert_eq!(b.in_flight(10), 0);
        assert_eq!(b.metrics().dead_lettered, 1);
        assert_eq!(b.dead_letters().len(), 1);
    }

    #[test]
    fn many_workers_share_the_queue() {
        let b: std::sync::Arc<Broker<u64>> = std::sync::Arc::new(Broker::new(10_000, 3));
        for i in 0..100 {
            b.enqueue(i, tags(&[]), 0);
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = std::sync::Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let caps = basic_worker();
                let mut got = 0;
                while let Some(d) = b.poll(&caps, 1) {
                    b.ack(d.meta.id);
                    got += 1;
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100, "every job delivered exactly once");
    }
}
