//! One zone's queue: tagged jobs, visibility timeouts, retries, and the
//! dead-letter queue a job lands in when its attempts run out.

use crate::capability::CapabilitySet;
use std::collections::BTreeSet;
use std::sync::Arc;
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
#[derive(Debug, PartialEq)]
pub struct Delivery<T> {
    /// Job metadata.
    pub meta: JobMeta,
    /// The payload, shared with the job's queued copies in both zones.
    pub payload: Arc<T>,
}

// Not derived: the derive would demand a cloneable payload, which a
// shared one never needs.
impl<T> Clone for Delivery<T> {
    fn clone(&self) -> Self {
        Delivery {
            meta: self.meta.clone(),
            payload: Arc::clone(&self.payload),
        }
    }
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

#[derive(Debug)]
struct QueuedJob<T> {
    meta: JobMeta,
    payload: Arc<T>,
    /// When Some, the job is in flight and invisible until this time.
    invisible_until: Option<u64>,
}

/// One zone's copy of a lane: its jobs, dead letters, and counters. A
/// zone counts every job it takes in, mirrored copies included, and
/// every job it lets go: `enqueued == acked + dead_lettered + held`.
/// Only the serving zone sweeps, delivers, and reports to the recorder.
pub(crate) struct Queue<T> {
    jobs: Vec<QueuedJob<T>>,
    pub(crate) dead: Vec<Delivery<T>>,
    pub(crate) metrics: BrokerMetrics,
}

// Not derived: the derive would demand `T: Default`, which the payload
// never needs.
impl<T> Default for Queue<T> {
    fn default() -> Self {
        Queue {
            jobs: Vec::new(),
            dead: Vec::new(),
            metrics: BrokerMetrics::default(),
        }
    }
}

impl<T> Queue<T> {
    /// Take a job in, visible.
    pub(crate) fn push(&mut self, meta: JobMeta, payload: Arc<T>) {
        self.metrics.enqueued += 1;
        self.jobs.push(QueuedJob {
            meta,
            payload,
            invisible_until: None,
        });
    }

    /// Reclaim expired deliveries and dead-letter jobs that exhausted
    /// their retry budget. Every observation of the queue (`poll`,
    /// `depth`, `in_flight`) sweeps first so autoscalers never see
    /// phantom depth from jobs that can no longer be delivered. Returns
    /// the letters this call made.
    pub(crate) fn sweep(
        &mut self,
        now_ms: u64,
        max_attempts: u32,
        obs: &Recorder,
    ) -> &[Delivery<T>] {
        let mut timeouts = 0;
        for j in &mut self.jobs {
            if j.invisible_until.is_some_and(|t| t <= now_ms) {
                j.invisible_until = None;
                timeouts += 1;
            }
        }
        self.metrics.timeouts += timeouts;
        obs.add(Counter::QueueTimeouts, timeouts);

        let before = self.dead.len();
        let mut k = 0;
        while k < self.jobs.len() {
            let j = &self.jobs[k];
            if j.invisible_until.is_none() && j.meta.attempts >= max_attempts {
                let j = self.jobs.remove(k);
                self.metrics.dead_lettered += 1;
                obs.dead_letter(j.meta.id, now_ms);
                self.dead.push(Delivery {
                    meta: j.meta,
                    payload: j.payload,
                });
            } else {
                k += 1;
            }
        }
        &self.dead[before..]
    }

    /// Deliver the oldest visible job whose tags are all within
    /// `capabilities`, marking it in flight until the timeout lapses.
    pub(crate) fn deliver(
        &mut self,
        capabilities: &CapabilitySet,
        now_ms: u64,
        visibility_timeout_ms: u64,
        obs: &Recorder,
    ) -> Option<Delivery<T>> {
        let job = self
            .jobs
            .iter_mut()
            .find(|j| j.invisible_until.is_none() && capabilities.satisfies(j.meta.tags.iter()))?;
        job.meta.attempts += 1;
        job.invisible_until = Some(now_ms + visibility_timeout_ms);
        let d = Delivery {
            meta: job.meta.clone(),
            payload: Arc::clone(&job.payload),
        };
        self.metrics.delivered += 1;
        obs.bump(Counter::QueueDelivered);
        Some(d)
    }

    /// Let a job go (an ack, or the mirror dropping its copy); false
    /// when this zone does not hold it.
    pub(crate) fn remove(&mut self, job_id: u64) -> bool {
        let Some(k) = self.jobs.iter().position(|j| j.meta.id == job_id) else {
            return false;
        };
        self.jobs.remove(k);
        self.metrics.acked += 1;
        true
    }

    /// Make a held job visible again immediately.
    pub(crate) fn nack(&mut self, job_id: u64, obs: &Recorder) -> bool {
        let Some(j) = self.jobs.iter_mut().find(|j| j.meta.id == job_id) else {
            return false;
        };
        j.invisible_until = None;
        self.metrics.nacked += 1;
        obs.bump(Counter::QueueNacked);
        true
    }

    /// Held jobs that are visible.
    pub(crate) fn visible(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.invisible_until.is_none())
            .count()
    }

    /// Held jobs that are in flight.
    pub(crate) fn in_flight(&self) -> usize {
        self.jobs.len() - self.visible()
    }

    /// Replace this zone's jobs with visible copies of `from`'s (the
    /// heal rebuild): every dropped copy counts as let go, every
    /// adopted one as taken in.
    pub(crate) fn copy_jobs(&mut self, from: &Queue<T>) {
        self.metrics.acked += self.jobs.len() as u64;
        self.jobs.clear();
        for j in &from.jobs {
            self.push(j.meta.clone(), Arc::clone(&j.payload));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ShardedBroker;
    use std::collections::BTreeSet;

    fn tags(list: &[&str]) -> BTreeSet<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn caps(list: &[&str]) -> crate::CapabilitySet {
        list.iter().copied().collect()
    }

    fn basic_worker() -> crate::CapabilitySet {
        caps(&["cuda"])
    }

    /// One lane: the single queue every test here drives.
    fn broker<T>(visibility_timeout_ms: u64, max_attempts: u32) -> ShardedBroker<T> {
        ShardedBroker::new(1, visibility_timeout_ms, max_attempts)
    }

    #[test]
    fn fifo_delivery_and_ack() {
        let b = broker(1000, 3);
        b.enqueue_to(0, "first", tags(&[]), 0);
        b.enqueue_to(0, "second", tags(&[]), 0);
        let d1 = b.poll_from(0, &basic_worker(), 10).unwrap();
        assert_eq!(*d1.payload, "first");
        assert!(b.ack(d1.meta.id));
        let d2 = b.poll_from(0, &basic_worker(), 11).unwrap();
        assert_eq!(*d2.payload, "second");
        assert!(b.ack(d2.meta.id));
        assert!(b.poll_from(0, &basic_worker(), 12).is_none());
        let m = b.metrics();
        assert_eq!((m.enqueued, m.delivered, m.acked), (2, 2, 2));
    }

    #[test]
    fn tags_route_to_capable_workers_only() {
        let b = broker(1000, 3);
        b.enqueue_to(0, "mpi job", tags(&["mpi"]), 0);
        b.enqueue_to(0, "plain job", tags(&[]), 0);
        // A plain CUDA worker skips the MPI job but gets the plain one.
        let d = b.poll_from(0, &basic_worker(), 1).unwrap();
        assert_eq!(*d.payload, "plain job");
        // An MPI-capable worker gets the MPI job.
        let d2 = b.poll_from(0, &caps(&["cuda", "mpi"]), 2).unwrap();
        assert_eq!(*d2.payload, "mpi job");
    }

    #[test]
    fn in_flight_jobs_are_invisible() {
        let b = broker(1000, 3);
        b.enqueue_to(0, "job", tags(&[]), 0);
        let _d = b.poll_from(0, &basic_worker(), 0).unwrap();
        assert!(b.poll_from(0, &basic_worker(), 10).is_none());
        assert_eq!(b.in_flight(10), 1);
        assert_eq!(b.depth(10), 0);
    }

    #[test]
    fn visibility_timeout_redelivers() {
        let b = broker(100, 3);
        b.enqueue_to(0, "job", tags(&[]), 0);
        let d1 = b.poll_from(0, &basic_worker(), 0).unwrap();
        assert_eq!(d1.meta.attempts, 1);
        // Worker dies; at t=100 the job is visible again.
        let d2 = b.poll_from(0, &basic_worker(), 100).unwrap();
        assert_eq!(d2.meta.attempts, 2);
        assert_eq!(b.metrics().timeouts, 1);
    }

    #[test]
    fn nack_makes_job_immediately_visible() {
        let b = broker(10_000, 3);
        b.enqueue_to(0, "job", tags(&[]), 0);
        let d = b.poll_from(0, &basic_worker(), 0).unwrap();
        assert!(b.nack(d.meta.id));
        let d2 = b.poll_from(0, &basic_worker(), 1).unwrap();
        assert_eq!(d2.meta.attempts, 2);
    }

    #[test]
    fn exhausted_retries_dead_letter() {
        let b = broker(10, 2);
        b.enqueue_to(0, "poison", tags(&[]), 0);
        let mut t = 0;
        for _ in 0..2 {
            let d = b.poll_from(0, &basic_worker(), t);
            assert!(d.is_some());
            t += 10; // let visibility expire
        }
        // Third poll dead-letters instead of delivering.
        assert!(b.poll_from(0, &basic_worker(), t).is_none());
        assert_eq!(b.metrics().dead_lettered, 1);
        let dead = b.drain_dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(*dead[0].payload, "poison");
    }

    #[test]
    fn ack_unknown_job_is_false() {
        let b: ShardedBroker<&str> = broker(100, 3);
        assert!(!b.ack(42));
        assert!(!b.nack(42));
    }

    #[test]
    fn depth_counts_visible_jobs() {
        let b = broker(100, 3);
        for _ in 0..5 {
            b.enqueue_to(0, "j", tags(&[]), 0);
        }
        assert_eq!(b.depth(0), 5);
        let _d = b.poll_from(0, &basic_worker(), 0).unwrap();
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
        let b = broker(10, 1);
        b.enqueue_to(0, "poison", tags(&[]), 0);
        let _d = b.poll_from(0, &basic_worker(), 0).unwrap();
        // In flight: not visible, not dead.
        assert_eq!(b.depth(5), 0);
        assert_eq!(b.in_flight(5), 1);
        // Visibility expired, attempts exhausted: dead-lettered by the
        // very observation, with no poll needed.
        assert_eq!(b.depth(10), 0);
        assert_eq!(b.in_flight(10), 0);
        assert_eq!(b.metrics().dead_lettered, 1);
        assert_eq!(b.drain_dead_letters().len(), 1);
    }

    #[test]
    fn many_workers_share_the_queue() {
        let b = std::sync::Arc::new(broker::<u64>(10_000, 3));
        for i in 0..100 {
            b.enqueue_to(0, i, tags(&[]), 0);
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = std::sync::Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let caps = basic_worker();
                let mut got = 0;
                while let Some(d) = b.poll_from(0, &caps, 1) {
                    b.ack(d.meta.id);
                    got += 1;
                }
                got
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100, "every job delivered exactly once");
    }

    /// A payload that cannot be cloned: the broker compiles over it
    /// only because it never copies one.
    #[derive(Debug, PartialEq)]
    struct Unclonable(u32);

    #[test]
    fn payload_is_shared_never_copied() {
        use crate::Zone;
        use std::sync::Arc;
        let b = broker(10, 2);
        b.enqueue_to(0, Unclonable(7), tags(&[]), 0);
        let first = b.poll_from(0, &basic_worker(), 0).unwrap();
        assert_eq!(*first.payload, Unclonable(7));
        assert_eq!(
            Arc::strong_count(&first.payload),
            3,
            "the two zones and the delivery hold one allocation"
        );
        let same = |d: &crate::Delivery<Unclonable>| Arc::ptr_eq(&first.payload, &d.payload);

        let redelivered = b.poll_from(0, &basic_worker(), 10).unwrap();
        assert_eq!(redelivered.meta.attempts, 2);
        assert!(same(&redelivered), "redelivery after the timeout");

        b.failover();
        let standby = b.poll_from(0, &basic_worker(), 11).unwrap();
        assert_eq!(standby.meta.attempts, 1, "the standby's own copy");
        assert!(same(&standby), "the standby's delivery");

        assert!(b.partition(Zone::Primary));
        assert!(b.heal(Zone::Primary));
        b.failover();
        assert_eq!(b.active_zone(), Zone::Primary);
        let rebuilt = b.poll_from(0, &basic_worker(), 12).unwrap();
        assert!(same(&rebuilt), "the copy heal rebuilt");

        assert_eq!(b.depth(22), 0, "attempts exhausted: dead-lettered");
        let dead = b.drain_dead_letters();
        assert_eq!(dead.len(), 1);
        assert!(same(&dead[0]), "the drained dead letter");
        assert_eq!(
            Arc::strong_count(&first.payload),
            5,
            "after the drain only the four deliveries and the letter hold it"
        );
    }
}
