//! Mirrored broker with failover across availability zones.
//!
//! §VI-A: the broker *"can be replicated across Amazon availability
//! zones — offering resiliency against faults"*. The mirrored broker
//! duplicates every enqueue to a standby; acknowledgements propagate
//! too. On failover the standby already holds every unacked job, so
//! nothing is lost (at-least-once: in-flight jobs are redelivered).

use crate::broker::{Broker, BrokerMetrics, Delivery};
use crate::capability::CapabilitySet;
use std::collections::BTreeSet;
use std::sync::Arc;
use wb_obs::sync::Mutex;
use wb_obs::Recorder;

/// Which zone is currently serving traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveZone {
    /// The primary AZ.
    Primary,
    /// The standby AZ after failover.
    Standby,
}

impl ActiveZone {
    /// The opposite zone.
    pub fn other(self) -> ActiveZone {
        match self {
            ActiveZone::Primary => ActiveZone::Standby,
            ActiveZone::Standby => ActiveZone::Primary,
        }
    }
}

/// A primary broker with a hot standby.
pub struct MirroredBroker<T> {
    primary: Broker<T>,
    standby: Broker<T>,
    active: Mutex<ActiveZone>,
    /// A zone cut off by a network partition. At most one zone can be
    /// partitioned, and it is always the passive one —
    /// [`MirroredBroker::partition`] fails over first when the cut
    /// zone was serving traffic. While set, enqueues are not mirrored
    /// to and acks are not fanned to that zone; [`MirroredBroker::heal`]
    /// rebuilds it from the active zone.
    partitioned: Mutex<Option<ActiveZone>>,
}

impl<T: Clone> MirroredBroker<T> {
    /// Build a mirrored pair with identical configuration.
    pub fn new(visibility_timeout_ms: u64, max_attempts: u32) -> Self {
        MirroredBroker::with_recorder(
            visibility_timeout_ms,
            max_attempts,
            Arc::new(Recorder::noop()),
        )
    }

    /// Mirrored pair reporting to a shared recorder. Both zones share
    /// it; passive-zone bookkeeping stays silent so fanned-out acks and
    /// mirrored enqueues are counted exactly once.
    pub fn with_recorder(
        visibility_timeout_ms: u64,
        max_attempts: u32,
        obs: Arc<Recorder>,
    ) -> Self {
        MirroredBroker::with_id_stride(visibility_timeout_ms, max_attempts, obs, 1, 1)
    }

    /// Mirrored pair whose zones both issue ids from the progression
    /// `first_id, first_id + stride, …` — one lane of a
    /// [`ShardedBroker`](crate::ShardedBroker). Both zones share the
    /// residue class, so the standby continues the primary's id
    /// sequence after failover.
    pub fn with_id_stride(
        visibility_timeout_ms: u64,
        max_attempts: u32,
        obs: Arc<Recorder>,
        first_id: u64,
        stride: u64,
    ) -> Self {
        MirroredBroker {
            primary: Broker::with_id_stride(
                visibility_timeout_ms,
                max_attempts,
                Arc::clone(&obs),
                first_id,
                stride,
            ),
            standby: Broker::with_id_stride(
                visibility_timeout_ms,
                max_attempts,
                obs,
                first_id,
                stride,
            ),
            active: Mutex::new(ActiveZone::Primary),
            partitioned: Mutex::new(None),
        }
    }

    /// Currently active zone.
    pub fn active_zone(&self) -> ActiveZone {
        *self.active.lock()
    }

    /// Borrow the currently active zone's broker for inspection
    /// (metrics, dead letters). Consumers must NOT poll/ack through
    /// this handle: an ack that only reaches the active zone leaves the
    /// standby holding the job, and a failover would redeliver — and
    /// re-execute — completed work. Poll and ack through the
    /// [`BrokerHandle`](crate::BrokerHandle) impl on the mirror itself.
    pub fn active_broker(&self) -> &Broker<T> {
        self.active()
    }

    fn active(&self) -> &Broker<T> {
        match *self.active.lock() {
            ActiveZone::Primary => &self.primary,
            ActiveZone::Standby => &self.standby,
        }
    }

    fn passive(&self) -> &Broker<T> {
        match *self.active.lock() {
            ActiveZone::Primary => &self.standby,
            ActiveZone::Standby => &self.primary,
        }
    }

    /// True when the passive zone is reachable for mirroring.
    fn passive_reachable(&self) -> bool {
        self.partitioned.lock().is_none()
    }

    /// Drop the passive zone's live copy of every job the active zone
    /// has dead-lettered. Without this, the standby keeps a
    /// never-delivered copy (mirrored at enqueue, dead-letters are not
    /// acked), and a later failover would re-run a poisoned job from
    /// scratch — and dead-letter it a second time, double-counting it
    /// in the books. Called on every active-zone observation; the dead
    /// queue is almost always empty, so the scan is effectively free.
    fn reconcile_dead(&self) {
        if !self.passive_reachable() {
            return;
        }
        for id in self.active().dead_ids() {
            self.passive().ack_untracked(id);
        }
    }

    /// Enqueue to the active zone and mirror to the standby.
    pub fn enqueue(&self, payload: T, tags: BTreeSet<String>, now_ms: u64) -> u64 {
        let id = self.active().enqueue(payload.clone(), tags.clone(), now_ms);
        // Mirror under the same id semantics: the standby assigns its
        // own ids, so we mirror payload+tags and reconcile on ack by
        // payload identity — to keep it simple and exact we instead
        // mirror via state restore with the primary's id. A partitioned
        // standby misses the mirror; `heal` rebuilds it wholesale.
        if self.passive_reachable() {
            self.passive().restore_state(vec![(
                crate::broker::JobMeta {
                    id,
                    tags,
                    enqueued_at: now_ms,
                    attempts: 0,
                },
                payload,
            )]);
        }
        id
    }

    /// Poll the active zone.
    pub fn poll(&self, capabilities: &CapabilitySet, now_ms: u64) -> Option<Delivery<T>> {
        let d = self.active().poll(capabilities, now_ms);
        self.reconcile_dead();
        d
    }

    /// Ack on both zones so the standby drops completed jobs.
    pub fn ack(&self, job_id: u64) -> bool {
        let ok = self.active().ack(job_id);
        if self.passive_reachable() {
            self.passive().ack_untracked(job_id);
        }
        ok
    }

    /// Negative-ack on the active zone.
    pub fn nack(&self, job_id: u64) -> bool {
        self.active().nack(job_id)
    }

    /// Visible depth in the active zone.
    pub fn depth(&self, now_ms: u64) -> usize {
        let d = self.active().depth(now_ms);
        self.reconcile_dead();
        d
    }

    /// Jobs in flight in the active zone.
    pub fn in_flight(&self, now_ms: u64) -> usize {
        self.active().in_flight(now_ms)
    }

    /// Metrics of the active zone.
    pub fn metrics(&self) -> BrokerMetrics {
        self.active().metrics()
    }

    /// Fail over to the standby. Unacked jobs survive; in-flight jobs
    /// on the failed zone are redelivered by the standby (they were
    /// mirrored at enqueue and never acked). Failing over *into* a
    /// partitioned zone would serve from a broker that missed every
    /// mirror since the cut, so the swap is refused (no-op) until the
    /// zone heals.
    pub fn failover(&self) {
        let mut g = self.active.lock();
        let target = g.other();
        if *self.partitioned.lock() == Some(target) {
            return;
        }
        *g = target;
    }

    /// Cut a zone off. If the cut zone was serving traffic, the mirror
    /// fails over first — the surviving zone already holds every
    /// unacked job. Returns false (and changes nothing) when a zone is
    /// already partitioned: with both zones cut there would be nobody
    /// left to serve, so the first partition must heal before another
    /// can start.
    pub fn partition(&self, zone: ActiveZone) -> bool {
        let mut part = self.partitioned.lock();
        if part.is_some() {
            return false;
        }
        {
            let mut g = self.active.lock();
            if *g == zone {
                *g = zone.other();
            }
        }
        *part = Some(zone);
        true
    }

    /// The currently partitioned zone, if any.
    pub fn partitioned_zone(&self) -> Option<ActiveZone> {
        *self.partitioned.lock()
    }

    /// Heal a partitioned zone: reconnect it and rebuild its state
    /// from the active zone (which saw every enqueue and ack during
    /// the cut). Returns false when `zone` was not partitioned.
    pub fn heal(&self, zone: ActiveZone) -> bool {
        {
            let mut part = self.partitioned.lock();
            if *part != Some(zone) {
                return false;
            }
            *part = None;
        }
        self.rebuild_passive();
        true
    }

    /// Drain dead letters from every reachable zone, deduplicated by
    /// job id — a job that dead-lettered on both zones (once per
    /// active stint) is handed out once and removed from both.
    pub fn drain_dead_letters(&self) -> Vec<Delivery<T>> {
        let mut out = self.active().take_dead_letters();
        if self.passive_reachable() {
            let known: BTreeSet<u64> = out.iter().map(|d| d.meta.id).collect();
            for d in self.passive().take_dead_letters() {
                if !known.contains(&d.meta.id) {
                    out.push(d);
                }
            }
        }
        out
    }

    /// Re-mirror the active zone's pending jobs into a fresh standby
    /// (recovery after the failed zone returns).
    pub fn resync_standby(&self) {
        self.rebuild_passive();
    }

    /// Rebuild the passive zone from the active one: pending jobs are
    /// replaced wholesale, and dead letters are merged — a letter held
    /// only by the returning zone (it dead-lettered there before the
    /// cut) is adopted by the active zone rather than wiped, so it
    /// stays drainable; a letter already drained from the active zone
    /// cannot resurface because both queues end up identical.
    fn rebuild_passive(&self) {
        // The passive broker may hold stale copies; rebuilding from the
        // active state keeps the pair consistent. (A fresh broker would
        // be used in production; restore into the existing one after
        // acking everything it knows is equivalent here because ids
        // are unique and monotonically increasing.)
        for (meta, _) in self.passive().drain_state() {
            self.passive().ack_untracked(meta.id);
        }
        self.passive().restore_state(self.active().drain_state());
        let mut dead = self.active().dead_letters();
        let known: BTreeSet<u64> = dead.iter().map(|d| d.meta.id).collect();
        for d in self.passive().take_dead_letters() {
            if !known.contains(&d.meta.id) {
                dead.push(d);
            }
        }
        self.active().replace_dead(dead.clone());
        self.passive().replace_dead(dead);
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

    #[test]
    fn mirror_receives_enqueues() {
        let m: MirroredBroker<&str> = MirroredBroker::new(1000, 3);
        m.enqueue("a", tags(&[]), 0);
        m.enqueue("b", tags(&[]), 0);
        assert_eq!(m.depth(0), 2);
        m.failover();
        assert_eq!(m.active_zone(), ActiveZone::Standby);
        // Both jobs survive the failover.
        assert_eq!(m.depth(0), 2);
    }

    #[test]
    fn acked_jobs_do_not_reappear_after_failover() {
        let m: MirroredBroker<&str> = MirroredBroker::new(1000, 3);
        m.enqueue("done", tags(&[]), 0);
        m.enqueue("pending", tags(&[]), 0);
        let caps = caps(&["cuda"]);
        let d = m.poll(&caps, 0).unwrap();
        assert_eq!(d.payload, "done");
        m.ack(d.meta.id);
        m.failover();
        let d2 = m.poll(&caps, 1).unwrap();
        assert_eq!(d2.payload, "pending", "only the unacked job remains");
        m.ack(d2.meta.id);
        assert!(m.poll(&caps, 2).is_none());
    }

    #[test]
    fn in_flight_jobs_redelivered_after_failover() {
        let m: MirroredBroker<&str> = MirroredBroker::new(60_000, 3);
        m.enqueue("crash victim", tags(&[]), 0);
        let caps = caps(&["cuda"]);
        let _d = m.poll(&caps, 0).unwrap();
        // Primary zone dies before the worker acks.
        m.failover();
        let d2 = m.poll(&caps, 1).expect("standby redelivers");
        assert_eq!(d2.payload, "crash victim");
    }

    #[test]
    fn ids_stay_consistent_across_zones() {
        let m: MirroredBroker<&str> = MirroredBroker::new(1000, 3);
        let id1 = m.enqueue("a", tags(&[]), 0);
        m.failover();
        let id2 = m.enqueue("b", tags(&[]), 0);
        assert_ne!(id1, id2, "standby continues the id sequence");
    }

    #[test]
    fn resync_after_recovery() {
        let m: MirroredBroker<&str> = MirroredBroker::new(1000, 3);
        m.enqueue("x", tags(&[]), 0);
        m.failover(); // standby now active
        m.enqueue("y", tags(&[]), 0);
        m.resync_standby(); // old primary rebuilt from standby
        m.failover(); // back to primary
        assert_eq!(m.depth(0), 2);
    }

    #[test]
    fn partition_of_active_zone_fails_over_first() {
        let m: MirroredBroker<&str> = MirroredBroker::new(1000, 3);
        m.enqueue("survivor", tags(&[]), 0);
        assert!(m.partition(ActiveZone::Primary));
        assert_eq!(m.active_zone(), ActiveZone::Standby);
        assert_eq!(m.partitioned_zone(), Some(ActiveZone::Primary));
        // The job was mirrored before the cut and survives on standby.
        let d = m.poll(&caps(&[]), 1).unwrap();
        assert_eq!(d.payload, "survivor");
        // A second partition is refused; failing back into the cut
        // zone is a no-op.
        assert!(!m.partition(ActiveZone::Standby));
        m.failover();
        assert_eq!(m.active_zone(), ActiveZone::Standby);
    }

    #[test]
    fn heal_rebuilds_the_cut_zone() {
        let m: MirroredBroker<&str> = MirroredBroker::new(1000, 3);
        m.enqueue("before", tags(&[]), 0);
        m.partition(ActiveZone::Standby);
        // Enqueued during the cut: only the active zone has it.
        m.enqueue("during", tags(&[]), 1);
        // Completed during the cut: the ack cannot fan to standby.
        let d = m.poll(&caps(&[]), 2).unwrap();
        assert_eq!(d.payload, "before");
        m.ack(d.meta.id);
        assert!(m.heal(ActiveZone::Standby));
        assert!(!m.heal(ActiveZone::Standby), "already healed");
        m.failover();
        // The healed zone serves exactly the surviving job — the cut
        // enqueue is present, the cut ack did not resurrect "before".
        let d2 = m.poll(&caps(&[]), 3).unwrap();
        assert_eq!(d2.payload, "during");
        m.ack(d2.meta.id);
        assert!(m.poll(&caps(&[]), 4).is_none());
    }

    #[test]
    fn dead_letter_is_not_rerun_by_the_standby_after_failover() {
        // Regression: the standby's mirrored copy of a job is never
        // acked when the job dead-letters on the active zone, so a
        // failover used to redeliver a poisoned job from scratch and
        // dead-letter it a second time. Reconciliation on observation
        // must drop the standby copy.
        let m: MirroredBroker<&str> = MirroredBroker::new(10, 1);
        m.enqueue("poison", tags(&[]), 0);
        let _d = m.poll(&caps(&[]), 0).unwrap();
        // Visibility lapses; the observation dead-letters on primary
        // and reconciles the standby.
        assert_eq!(m.depth(10), 0);
        m.failover();
        assert!(
            m.poll(&caps(&[]), 11).is_none(),
            "standby must not re-run a dead-lettered job"
        );
        let drained = m.drain_dead_letters();
        assert_eq!(drained.len(), 1, "exactly one letter across both zones");
        assert_eq!(drained[0].payload, "poison");
        assert!(m.drain_dead_letters().is_empty(), "drain removes from both");
    }

    #[test]
    fn dead_letter_on_partitioned_zone_is_drainable_after_heal() {
        // A job dead-letters on the active zone, which is then
        // partitioned before anyone drains the letter. While cut off,
        // the letter is unreachable; heal must carry it back into the
        // serving side instead of wiping the returning zone's queue.
        let m: MirroredBroker<&str> = MirroredBroker::new(10, 1);
        m.enqueue("poison", tags(&[]), 0);
        let _d = m.poll(&caps(&[]), 0).unwrap();
        assert_eq!(m.depth(10), 0); // dead-letters on primary
        m.partition(ActiveZone::Primary); // letter now unreachable
        assert!(m.drain_dead_letters().is_empty());
        assert!(m.heal(ActiveZone::Primary));
        let drained = m.drain_dead_letters();
        assert_eq!(drained.len(), 1, "healed letter drains exactly once");
        assert_eq!(drained[0].payload, "poison");
        assert!(m.drain_dead_letters().is_empty(), "no duplicate remains");
    }
}
