//! Zones and the mirrored lane.
//!
//! §VI-A: the broker *"can be replicated across Amazon availability
//! zones — offering resiliency against faults"*. A lane holds both
//! zones' queues under one lock: every enqueue is mirrored to the
//! standby and every ack fans out to it, so on failover the standby
//! already holds every unacked job and nothing is lost (at-least-once:
//! in-flight jobs are redelivered).

use crate::broker::{BrokerMetrics, Delivery, JobMeta, Queue};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use wb_obs::{Counter, Recorder};

/// An availability zone: one side of the mirrored broker, and where a
/// worker lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Zone {
    /// The zone the broker starts out serving from.
    Primary,
    /// The hot-standby zone.
    Standby,
}

impl Zone {
    /// Both zones, for iteration.
    pub const ALL: [Zone; 2] = [Zone::Primary, Zone::Standby];

    /// The opposite zone.
    pub fn other(self) -> Zone {
        match self {
            Zone::Primary => Zone::Standby,
            Zone::Standby => Zone::Primary,
        }
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Zone::Primary => "primary",
            Zone::Standby => "standby",
        })
    }
}

/// Which zone serves, and which one a network partition has cut off
/// (never the serving one). A cut zone misses mirrored enqueues and
/// fanned-out acks until heal rebuilds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Zones {
    pub(crate) active: Zone,
    pub(crate) partitioned: Option<Zone>,
}

/// The settings every lane operation needs, held once per broker.
pub(crate) struct Tuning {
    pub(crate) visibility_timeout_ms: u64,
    pub(crate) max_attempts: u32,
    /// Distance between consecutive ids a lane issues: the lane count,
    /// so ids name their lane by residue and never collide.
    pub(crate) stride: u64,
    pub(crate) obs: Arc<Recorder>,
}

/// One lane: both zones' queues and the lane's id sequence.
pub(crate) struct Lane<T> {
    /// Indexed by [`Zone`]: primary, standby.
    zones: [Queue<T>; 2],
    next_id: u64,
    /// Dead letters handed out while the other zone was cut off. That
    /// zone may still hold them; heal must not hand them out again.
    drained_while_cut: BTreeSet<u64>,
}

impl<T: Clone> Lane<T> {
    pub(crate) fn new(first_id: u64) -> Self {
        Lane {
            zones: [Queue::default(), Queue::default()],
            next_id: first_id,
            drained_while_cut: BTreeSet::new(),
        }
    }

    /// The serving zone's queue, and the other zone's when it is
    /// reachable.
    fn sides(&mut self, z: Zones) -> (&mut Queue<T>, Option<&mut Queue<T>>) {
        let [primary, standby] = &mut self.zones;
        let (active, passive) = match z.active {
            Zone::Primary => (primary, standby),
            Zone::Standby => (standby, primary),
        };
        (active, z.partitioned.is_none().then_some(passive))
    }

    /// Enqueue to the serving zone and mirror to the other.
    pub(crate) fn enqueue(
        &mut self,
        z: Zones,
        t: &Tuning,
        payload: T,
        tags: BTreeSet<String>,
        now_ms: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += t.stride;
        let meta = JobMeta {
            id,
            tags,
            enqueued_at: now_ms,
            attempts: 0,
        };
        let (active, passive) = self.sides(z);
        if let Some(p) = passive {
            p.push(meta.clone(), payload.clone());
        }
        active.push(meta, payload);
        t.obs.bump(Counter::QueueEnqueued);
        id
    }

    /// Sweep the serving zone, then drop the other zone's live copy of
    /// every job it has dead-lettered, and hand back the serving zone.
    /// The standby's copy of a job is never acked when the job
    /// dead-letters, so without this a failover would re-run a poisoned
    /// job from scratch and dead-letter it a second time. Every
    /// observation (`poll`, `depth`, `in_flight`) comes through here.
    pub(crate) fn observe(&mut self, z: Zones, t: &Tuning, now_ms: u64) -> &mut Queue<T> {
        let (active, passive) = self.sides(z);
        active.sweep(now_ms, t.max_attempts, &t.obs);
        if let Some(p) = passive {
            for d in &active.dead {
                p.remove(d.meta.id);
            }
        }
        active
    }

    /// Ack on both zones so the standby drops completed jobs; the
    /// recorder counts it once.
    pub(crate) fn ack(&mut self, z: Zones, t: &Tuning, job_id: u64) -> bool {
        let (active, passive) = self.sides(z);
        if let Some(p) = passive {
            p.remove(job_id);
        }
        let ok = active.remove(job_id);
        if ok {
            t.obs.bump(Counter::QueueAcked);
        }
        ok
    }

    pub(crate) fn nack(&mut self, z: Zones, t: &Tuning, job_id: u64) -> bool {
        self.sides(z).0.nack(job_id, &t.obs)
    }

    /// The serving zone's counters.
    pub(crate) fn metrics(&self, z: Zones) -> BrokerMetrics {
        self.zones[z.active as usize].metrics
    }

    /// Hand out every dead letter once: the serving zone's, plus those
    /// only the other zone holds when it is reachable.
    pub(crate) fn drain_dead_letters(&mut self, z: Zones) -> Vec<Delivery<T>> {
        let (active, passive) = self.sides(z);
        let mut out = std::mem::take(&mut active.dead);
        match passive {
            Some(p) => merge(&mut out, std::mem::take(&mut p.dead)),
            None => self.drained_while_cut.extend(out.iter().map(|d| d.meta.id)),
        }
        out
    }

    /// Rebuild the just-healed passive zone from the serving one, which
    /// saw every enqueue and ack during the cut. Pending jobs are
    /// replaced wholesale. Dead letters are merged: a letter held only
    /// by the returning zone (it dead-lettered there before the cut) is
    /// adopted, so it stays drainable; one already handed out is not.
    pub(crate) fn rebuild_passive(&mut self, z: Zones) {
        let handed_out = std::mem::take(&mut self.drained_while_cut);
        let (active, Some(passive)) = self.sides(z) else {
            unreachable!("a healed zone is reachable");
        };
        passive.copy_jobs(active);
        passive.dead.retain(|d| !handed_out.contains(&d.meta.id));
        merge(&mut active.dead, std::mem::take(&mut passive.dead));
        passive.dead = active.dead.clone();
    }
}

/// Append the letters of `more` whose ids `out` lacks.
fn merge<T>(out: &mut Vec<Delivery<T>>, more: Vec<Delivery<T>>) {
    let known: BTreeSet<u64> = out.iter().map(|d| d.meta.id).collect();
    out.extend(more.into_iter().filter(|d| !known.contains(&d.meta.id)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CapabilitySet, ShardedBroker};

    fn tags(list: &[&str]) -> BTreeSet<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn caps(list: &[&str]) -> CapabilitySet {
        list.iter().copied().collect()
    }

    /// A one-lane broker: one mirrored pair.
    fn mirror(visibility_timeout_ms: u64, max_attempts: u32) -> ShardedBroker<&'static str> {
        ShardedBroker::new(1, visibility_timeout_ms, max_attempts)
    }

    fn enqueue(m: &ShardedBroker<&'static str>, payload: &'static str, now_ms: u64) -> u64 {
        m.enqueue_to(0, payload, tags(&[]), now_ms)
    }

    fn poll(m: &ShardedBroker<&'static str>, now_ms: u64) -> Option<Delivery<&'static str>> {
        m.poll_from(0, &caps(&["cuda"]), now_ms)
    }

    #[test]
    fn zones_pair_up_and_print() {
        for z in Zone::ALL {
            assert_eq!(z.other().other(), z);
            assert_ne!(z.other(), z);
        }
        assert_eq!(Zone::Primary.to_string(), "primary");
        assert_eq!(Zone::Standby.to_string(), "standby");
    }

    #[test]
    fn mirror_receives_enqueues() {
        let m = mirror(1000, 3);
        enqueue(&m, "a", 0);
        enqueue(&m, "b", 0);
        assert_eq!(m.depth(0), 2);
        m.failover();
        assert_eq!(m.active_zone(), Zone::Standby);
        // Both jobs survive the failover.
        assert_eq!(m.depth(0), 2);
    }

    #[test]
    fn acked_jobs_do_not_reappear_after_failover() {
        let m = mirror(1000, 3);
        enqueue(&m, "done", 0);
        enqueue(&m, "pending", 0);
        let d = poll(&m, 0).unwrap();
        assert_eq!(d.payload, "done");
        m.ack(d.meta.id);
        m.failover();
        let d2 = poll(&m, 1).unwrap();
        assert_eq!(d2.payload, "pending", "only the unacked job remains");
        m.ack(d2.meta.id);
        assert!(poll(&m, 2).is_none());
    }

    #[test]
    fn mirrored_acks_reach_the_standby() {
        let m = mirror(1000, 3);
        enqueue(&m, "x", 0);
        let d = poll(&m, 0).unwrap();
        assert!(m.ack(d.meta.id));
        // The ack went through the mirror: after failover the standby
        // has nothing left to deliver.
        m.failover();
        assert!(poll(&m, 1).is_none());
    }

    #[test]
    fn in_flight_jobs_redelivered_after_failover() {
        let m = mirror(60_000, 3);
        enqueue(&m, "crash victim", 0);
        let _d = poll(&m, 0).unwrap();
        // Primary zone dies before the worker acks.
        m.failover();
        let d2 = poll(&m, 1).expect("standby redelivers");
        assert_eq!(d2.payload, "crash victim");
    }

    #[test]
    fn ids_stay_consistent_across_zones() {
        let m = mirror(1000, 3);
        let id1 = enqueue(&m, "a", 0);
        m.failover();
        let id2 = enqueue(&m, "b", 0);
        assert_ne!(id1, id2, "standby continues the id sequence");
    }

    #[test]
    fn ids_stay_unique_across_partition_heal_and_failover() {
        // Regression: each zone kept its own id counter, and heal only
        // advanced the rebuilt zone's past the ids still pending. A job
        // issued and acked during the cut was forgotten, so after a
        // failover the healed zone issued its id a second time.
        let m = mirror(1000, 3);
        assert!(m.partition(Zone::Standby));
        let first = enqueue(&m, "during the cut", 0);
        let d = poll(&m, 1).unwrap();
        assert!(m.ack(d.meta.id));
        assert!(m.heal(Zone::Standby));
        m.failover();
        let second = enqueue(&m, "after failover", 2);
        assert_ne!(first, second, "an id is never issued twice");
    }

    #[test]
    fn resync_after_recovery() {
        let m = mirror(1000, 3);
        enqueue(&m, "x", 0);
        m.partition(Zone::Primary); // standby now active
        enqueue(&m, "y", 0);
        m.heal(Zone::Primary); // old primary rebuilt from standby
        m.failover(); // back to primary
        assert_eq!(m.depth(0), 2);
    }

    #[test]
    fn partition_of_active_zone_fails_over_first() {
        let m = mirror(1000, 3);
        enqueue(&m, "survivor", 0);
        assert!(m.partition(Zone::Primary));
        assert_eq!(m.active_zone(), Zone::Standby);
        assert_eq!(m.partitioned_zone(), Some(Zone::Primary));
        // The job was mirrored before the cut and survives on standby.
        let d = m.poll_from(0, &caps(&[]), 1).unwrap();
        assert_eq!(d.payload, "survivor");
        // A second partition is refused; failing back into the cut
        // zone is a no-op.
        assert!(!m.partition(Zone::Standby));
        m.failover();
        assert_eq!(m.active_zone(), Zone::Standby);
    }

    #[test]
    fn heal_rebuilds_the_cut_zone() {
        let m = mirror(1000, 3);
        enqueue(&m, "before", 0);
        m.partition(Zone::Standby);
        // Enqueued during the cut: only the active zone has it.
        enqueue(&m, "during", 1);
        // Completed during the cut: the ack cannot fan to standby.
        let d = m.poll_from(0, &caps(&[]), 2).unwrap();
        assert_eq!(d.payload, "before");
        m.ack(d.meta.id);
        assert!(m.heal(Zone::Standby));
        assert!(!m.heal(Zone::Standby), "already healed");
        m.failover();
        // The healed zone serves exactly the surviving job — the cut
        // enqueue is present, the cut ack did not resurrect "before".
        let d2 = m.poll_from(0, &caps(&[]), 3).unwrap();
        assert_eq!(d2.payload, "during");
        m.ack(d2.meta.id);
        assert!(m.poll_from(0, &caps(&[]), 4).is_none());
    }

    #[test]
    fn dead_letter_is_not_rerun_by_the_standby_after_failover() {
        // Regression: the standby's mirrored copy of a job is never
        // acked when the job dead-letters on the active zone, so a
        // failover used to redeliver a poisoned job from scratch and
        // dead-letter it a second time. Reconciliation on observation
        // must drop the standby copy.
        let m = mirror(10, 1);
        enqueue(&m, "poison", 0);
        let _d = m.poll_from(0, &caps(&[]), 0).unwrap();
        // Visibility lapses; the observation dead-letters on primary
        // and reconciles the standby.
        assert_eq!(m.depth(10), 0);
        m.failover();
        assert!(
            m.poll_from(0, &caps(&[]), 11).is_none(),
            "standby must not re-run a dead-lettered job"
        );
        let drained = m.drain_dead_letters();
        assert_eq!(drained.len(), 1, "exactly one letter across both zones");
        assert_eq!(drained[0].payload, "poison");
        assert!(m.drain_dead_letters().is_empty(), "drain removes from both");
    }

    #[test]
    fn in_flight_read_does_not_let_the_standby_rerun_a_dead_letter() {
        // Regression: `in_flight` swept the active zone, which can
        // dead-letter an exhausted delivery, but never reconciled the
        // standby, so a failover re-ran the poisoned job.
        let m = mirror(10, 1);
        enqueue(&m, "poison", 0);
        let _d = m.poll_from(0, &caps(&[]), 0).unwrap();
        assert_eq!(m.in_flight(10), 0);
        m.failover();
        assert!(
            m.poll_from(0, &caps(&[]), 11).is_none(),
            "standby must not re-run a dead-lettered job"
        );
    }

    #[test]
    fn dead_letter_on_partitioned_zone_is_drainable_after_heal() {
        // A job dead-letters on the active zone, which is then
        // partitioned before anyone drains the letter. While cut off,
        // the letter is unreachable; heal must carry it back into the
        // serving side instead of wiping the returning zone's queue.
        let m = mirror(10, 1);
        enqueue(&m, "poison", 0);
        let _d = m.poll_from(0, &caps(&[]), 0).unwrap();
        assert_eq!(m.depth(10), 0); // dead-letters on primary
        m.partition(Zone::Primary); // letter now unreachable
        assert!(m.drain_dead_letters().is_empty());
        assert!(m.heal(Zone::Primary));
        let drained = m.drain_dead_letters();
        assert_eq!(drained.len(), 1, "healed letter drains exactly once");
        assert_eq!(drained[0].payload, "poison");
        assert!(m.drain_dead_letters().is_empty(), "no duplicate remains");
    }

    #[test]
    fn letter_drained_during_a_cut_does_not_resurface_after_heal() {
        // Regression: after a heal both zones hold the same letters. A
        // drain while the standby is cut off empties only the serving
        // zone, and the next heal used to adopt the standby's copy as
        // a letter only it held, handing the same job out twice.
        let m = mirror(10, 1);
        enqueue(&m, "poison", 0);
        let _d = m.poll_from(0, &caps(&[]), 0).unwrap();
        assert_eq!(m.depth(10), 0); // dead-letters on primary
        m.partition(Zone::Standby);
        assert!(m.heal(Zone::Standby)); // standby adopts the letter
        m.partition(Zone::Standby);
        assert_eq!(m.drain_dead_letters().len(), 1);
        assert!(m.heal(Zone::Standby));
        assert!(
            m.drain_dead_letters().is_empty(),
            "a drained letter is handed out once"
        );
    }

    #[test]
    fn a_zone_counts_the_jobs_mirrored_into_it() {
        // Regression, shrunk by `metrics_are_consistent`: mirrored
        // copies entered the standby uncounted, so after a failover its
        // metrics showed acks, deliveries and dead letters of jobs it
        // had never taken in.
        let m = mirror(10, 1);
        enqueue(&m, "done", 0);
        enqueue(&m, "poison", 0);
        let d = poll(&m, 0).unwrap();
        assert!(m.ack(d.meta.id));
        m.failover();
        assert_eq!(poll(&m, 1).unwrap().payload, "poison");
        assert_eq!(m.depth(11), 0); // dead-letters on standby
        let s = m.metrics();
        assert_eq!(
            (s.enqueued, s.delivered, s.acked, s.dead_lettered),
            (2, 1, 1, 1),
            "the standby's books balance"
        );
    }
}
