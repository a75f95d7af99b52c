//! [`ShardedBroker`] — `N` mirrored course lanes behind one id space
//! and one zone state.
//!
//! One mutex per lane spreads enqueue/poll/ack contention across cores:
//!
//! * **Lane selection** is by course ([`shard_for_course`]), so one
//!   course's jobs stay FIFO within a lane.
//! * **Id striping**: lane `i` issues ids `i+1, i+1+N, …`, so an id
//!   names its lane by residue and acks route without a shared map.
//! * **Work stealing on poll**: a worker polls its home lane first and
//!   then the others, so an idle lane's worker drains a loaded sibling.
//! * **One zone state**, held once: lanes fail over, partition, and
//!   heal together, and every lane operation runs under one reading of
//!   it — an enqueue and its mirror write, or an ack and its fan-out,
//!   never straddle a zone change.
//!
//! Depth, in-flight, and metrics aggregate across lanes, so the
//! autoscaler and the books see one logical queue.

use crate::broker::{BrokerMetrics, Delivery};
use crate::capability::CapabilitySet;
use crate::mirror::{Lane, Tuning, Zone, Zones};
use std::collections::BTreeSet;
use std::sync::Arc;
use wb_obs::sync::{Mutex, RwLock};
use wb_obs::Recorder;

/// Stable lane for a course: FNV-1a over the course id, mod `shards`.
/// The hash is fixed (not `DefaultHasher`) so lane placement is
/// reproducible across runs and processes — replayed traces land on
/// the same lanes, and the scheduler's shard for a course is its
/// broker lane.
pub fn shard_for_course(course: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "at least one shard");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in course.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// `N` mirrored broker lanes sharing one striped id space.
pub struct ShardedBroker<T> {
    lanes: Vec<Mutex<Lane<T>>>,
    /// Lock order: `zones` before any lane.
    zones: RwLock<Zones>,
    tuning: Tuning,
}

impl<T: Clone> ShardedBroker<T> {
    /// Sharded broker with `shards` lanes (clamped to at least 1).
    pub fn new(shards: usize, visibility_timeout_ms: u64, max_attempts: u32) -> Self {
        ShardedBroker::with_recorder(
            shards,
            visibility_timeout_ms,
            max_attempts,
            Arc::new(Recorder::noop()),
        )
    }

    /// Sharded broker reporting queue traffic to a shared recorder. The
    /// serving zone reports; mirrored enqueues and fanned-out acks are
    /// counted once.
    pub fn with_recorder(
        shards: usize,
        visibility_timeout_ms: u64,
        max_attempts: u32,
        obs: Arc<Recorder>,
    ) -> Self {
        assert!(max_attempts >= 1, "at least one attempt");
        let n = shards.max(1);
        ShardedBroker {
            lanes: (0..n)
                .map(|i| Mutex::new(Lane::new(i as u64 + 1)))
                .collect(),
            zones: RwLock::new(Zones {
                active: Zone::Primary,
                partitioned: None,
            }),
            tuning: Tuning {
                visibility_timeout_ms,
                max_attempts,
                stride: n as u64,
                obs,
            },
        }
    }

    /// Lane that issued `job_id` (ids start at 1 and stripe by lane).
    fn lane_of(&self, job_id: u64) -> usize {
        debug_assert!(job_id >= 1, "broker ids start at 1");
        ((job_id - 1) % self.lanes.len() as u64) as usize
    }

    /// Run `op` on one lane under one reading of the zone state.
    fn on_lane<R>(&self, lane: usize, op: impl FnOnce(&mut Lane<T>, Zones, &Tuning) -> R) -> R {
        let z = self.zones.read();
        op(&mut self.lanes[lane].lock(), *z, &self.tuning)
    }

    /// Run `op` on every lane in turn under one reading of the zone
    /// state.
    fn each_lane<R>(&self, mut op: impl FnMut(&mut Lane<T>, Zones, &Tuning) -> R) -> Vec<R> {
        let z = self.zones.read();
        let lanes = self.lanes.iter();
        lanes.map(|l| op(&mut l.lock(), *z, &self.tuning)).collect()
    }

    /// Enqueue into an explicit lane; returns the striped job id.
    pub fn enqueue_to(&self, lane: usize, payload: T, tags: BTreeSet<String>, now_ms: u64) -> u64 {
        let lane = lane % self.lanes.len();
        self.on_lane(lane, |l, z, t| l.enqueue(z, t, payload, tags, now_ms))
    }

    /// Poll starting at `home`: the oldest visible job whose tags are
    /// all within `capabilities`, stealing from the other lanes in ring
    /// order if the home lane has nothing deliverable.
    pub fn poll_from(
        &self,
        home: usize,
        capabilities: &CapabilitySet,
        now_ms: u64,
    ) -> Option<Delivery<T>> {
        let (z, t, n) = (self.zones.read(), &self.tuning, self.lanes.len());
        (0..n).find_map(|k| {
            let mut lane = self.lanes[(home + k) % n].lock();
            let queue = lane.observe(*z, t, now_ms);
            queue.deliver(capabilities, now_ms, t.visibility_timeout_ms, &t.obs)
        })
    }

    /// Acknowledge successful completion on both zones of the issuing
    /// lane; the job is removed and never redelivered.
    pub fn ack(&self, job_id: u64) -> bool {
        self.on_lane(self.lane_of(job_id), |l, z, t| l.ack(z, t, job_id))
    }

    /// Negative acknowledgement: the job becomes visible again
    /// immediately.
    pub fn nack(&self, job_id: u64) -> bool {
        self.on_lane(self.lane_of(job_id), |l, z, t| l.nack(z, t, job_id))
    }

    /// Jobs visible to an all-capable worker, over all lanes. Sweeps
    /// first: expired deliveries count again, but exhausted jobs are
    /// dead-lettered, so a poisoned job never drives scale-out.
    pub fn depth(&self, now_ms: u64) -> usize {
        let depths = self.each_lane(|l, z, t| l.observe(z, t, now_ms).visible());
        depths.iter().sum()
    }

    /// Jobs in flight (delivered, not yet acked or expired), over all
    /// lanes. Sweeps first, like [`depth`](Self::depth).
    pub fn in_flight(&self, now_ms: u64) -> usize {
        let counts = self.each_lane(|l, z, t| l.observe(z, t, now_ms).in_flight());
        counts.iter().sum()
    }

    /// The serving zone's metrics, summed field-wise over all lanes, so
    /// the books reconcile cluster-wide exactly as they do for one lane.
    pub fn metrics(&self) -> BrokerMetrics {
        let mut total = BrokerMetrics::default();
        for m in self.each_lane(|l, z, _| l.metrics(z)) {
            total.enqueued += m.enqueued;
            total.delivered += m.delivered;
            total.acked += m.acked;
            total.nacked += m.nacked;
            total.timeouts += m.timeouts;
            total.dead_lettered += m.dead_lettered;
        }
        total
    }

    /// Fail every lane over to the other zone. Unacked jobs survive, and
    /// in-flight ones are redelivered. Failing over *into* a partitioned
    /// zone would serve from queues that missed every mirror since the
    /// cut, so the swap is refused (no-op) until the zone heals.
    pub fn failover(&self) {
        let mut z = self.zones.write();
        let target = z.active.other();
        if z.partitioned != Some(target) {
            z.active = target;
        }
    }

    /// Cut `zone` off on every lane, failing over first if it was
    /// serving — the surviving zone already holds every unacked job.
    /// False (and nothing changes) when a zone is already cut: the first
    /// partition must heal before another can start.
    pub fn partition(&self, zone: Zone) -> bool {
        let mut z = self.zones.write();
        if z.partitioned.is_some() {
            return false;
        }
        if z.active == zone {
            z.active = zone.other();
        }
        z.partitioned = Some(zone);
        true
    }

    /// Heal a partitioned zone: reconnect it and rebuild every lane's
    /// copy from the serving zone (which saw every enqueue and ack
    /// during the cut). Returns false when `zone` was not partitioned.
    pub fn heal(&self, zone: Zone) -> bool {
        let mut z = self.zones.write();
        if z.partitioned != Some(zone) {
            return false;
        }
        z.partitioned = None;
        for l in &self.lanes {
            l.lock().rebuild_passive(*z);
        }
        true
    }

    /// The partitioned zone, if any.
    pub fn partitioned_zone(&self) -> Option<Zone> {
        self.zones.read().partitioned
    }

    /// The serving zone.
    pub fn active_zone(&self) -> Zone {
        self.zones.read().active
    }

    /// Drain the dead-letter queue, handing the letters to the caller
    /// (e.g. an operator re-driving poisoned jobs after a fix). Ids are
    /// unique across lanes, and each lane hands a letter out once
    /// across its zones.
    pub fn drain_dead_letters(&self) -> Vec<Delivery<T>> {
        self.each_lane(|l, z, _| l.drain_dead_letters(z))
            .into_iter()
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(list: &[&str]) -> BTreeSet<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn caps() -> CapabilitySet {
        ["cuda"].into()
    }

    #[test]
    fn course_hash_is_stable_and_in_range() {
        for shards in 1..9 {
            for course in ["cs100", "ece408", "hpp", ""] {
                let s = shard_for_course(course, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_course(course, shards), "deterministic");
            }
        }
    }

    #[test]
    fn ids_stripe_by_lane_and_never_collide() {
        let b: ShardedBroker<u64> = ShardedBroker::new(4, 1000, 3);
        let mut seen = BTreeSet::new();
        for lane in 0..4 {
            for j in 0..8u64 {
                let id = b.enqueue_to(lane, j, tags(&[]), 0);
                assert_eq!(b.lane_of(id), lane, "id {id} names its lane");
                assert!(seen.insert(id), "id {id} issued twice");
            }
        }
    }

    #[test]
    fn acks_route_across_lanes() {
        let b: ShardedBroker<&str> = ShardedBroker::new(3, 1000, 3);
        let mut ids = Vec::new();
        for lane in 0..3 {
            ids.push(b.enqueue_to(lane, "job", tags(&[]), 0));
        }
        // Deliver everything through one worker's stealing polls, then
        // ack: each receipt must reach the lane that issued it.
        let mut delivered = Vec::new();
        while let Some(d) = b.poll_from(1, &caps(), 0) {
            delivered.push(d.meta.id);
        }
        assert_eq!(delivered.len(), 3);
        for id in delivered {
            assert!(b.ack(id), "ack {id} routed to its lane");
        }
        assert_eq!(b.depth(1), 0);
        assert_eq!(b.in_flight(1), 0);
        let m = b.metrics();
        assert_eq!((m.enqueued, m.delivered, m.acked), (3, 3, 3));
        assert!(ids.iter().all(|&id| !b.ack(id)), "nothing acks twice");
    }

    #[test]
    fn home_lane_drains_before_stealing() {
        let b: ShardedBroker<&str> = ShardedBroker::new(2, 1000, 3);
        b.enqueue_to(0, "other lane", tags(&[]), 0);
        b.enqueue_to(1, "home lane", tags(&[]), 0);
        let first = b.poll_from(1, &caps(), 0).unwrap();
        assert_eq!(first.payload, "home lane");
        let second = b.poll_from(1, &caps(), 0).unwrap();
        assert_eq!(second.payload, "other lane", "idle home steals");
    }

    #[test]
    fn stealing_respects_capability_tags() {
        let b: ShardedBroker<&str> = ShardedBroker::new(2, 1000, 3);
        b.enqueue_to(0, "mpi job", tags(&["mpi"]), 0);
        assert!(
            b.poll_from(1, &caps(), 0).is_none(),
            "steal can't ignore tags"
        );
        let d = b.poll_from(1, &["cuda", "mpi"].into(), 1).unwrap();
        assert_eq!(d.payload, "mpi job");
    }

    #[test]
    fn failover_fans_to_every_lane() {
        let b: ShardedBroker<&str> = ShardedBroker::new(4, 60_000, 3);
        for lane in 0..4 {
            b.enqueue_to(lane, "survives", tags(&[]), 0);
        }
        // One delivery in flight on lane 0; zones die everywhere.
        let d = b.poll_from(0, &caps(), 0).unwrap();
        b.failover();
        // The in-flight job is redelivered by its standby; nothing lost.
        assert_eq!(b.depth(1), 4);
        assert_eq!(b.lane_of(d.meta.id), 0);
    }

    #[test]
    fn course_routed_enqueue_keeps_a_course_on_one_lane() {
        let b: ShardedBroker<u64> = ShardedBroker::new(4, 1000, 3);
        let lane = shard_for_course("cs100", 4);
        for j in 0..6 {
            let id = b.enqueue_to(lane, j, tags(&[]), 0);
            assert_eq!(b.lane_of(id), lane, "course stays on its lane");
        }
        // FIFO within the course: the lane preserves offer order.
        for expect in 0..6 {
            let d = b.poll_from(lane, &caps(), 1).unwrap();
            assert_eq!(d.payload, expect);
            b.ack(d.meta.id);
        }
    }

    #[test]
    fn single_lane_degenerates_to_the_plain_mirror() {
        let b: ShardedBroker<&str> = ShardedBroker::new(1, 1000, 3);
        let id1 = b.enqueue_to(shard_for_course("any", 1), "a", tags(&[]), 0);
        let id2 = b.enqueue_to(shard_for_course("other", 1), "b", tags(&[]), 0);
        assert_eq!((id1, id2), (1, 2), "stride 1: dense ids");
        assert_eq!(b.depth(0), 2);
    }
}
