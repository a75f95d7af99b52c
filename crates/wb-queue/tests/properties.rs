//! Property-based tests: at-least-once delivery invariants of the
//! broker under arbitrary interleavings of operations, time, and zone
//! failures, on any lane count.

use std::collections::{BTreeSet, HashMap};
use wb_prop::Gen;
use wb_queue::{CapabilitySet, ShardedBroker, Zone};

#[derive(Debug, Clone)]
enum Op {
    Enqueue(u8, usize),
    Poll(usize),
    Ack(u8),
    Nack(u8),
    Advance(u16),
    Failover,
    Partition(Zone),
    Heal(Zone),
}

fn op(g: &mut Gen) -> Op {
    match g.below(8) {
        0 => Op::Enqueue(g.int(0..=u8::MAX), g.int(0..4usize)),
        1 => Op::Poll(g.int(0..4usize)),
        2 => Op::Ack(g.int(0..=u8::MAX)),
        3 => Op::Nack(g.int(0..=u8::MAX)),
        4 => Op::Advance(g.int(1..2000)),
        5 => Op::Failover,
        6 => Op::Partition(*g.pick(&Zone::ALL)),
        _ => Op::Heal(*g.pick(&Zone::ALL)),
    }
}

/// Apply a zone transition; the other ops are the caller's.
fn zone_op(broker: &ShardedBroker<u8>, op: &Op) {
    match *op {
        Op::Failover => broker.failover(),
        Op::Partition(z) => _ = broker.partition(z),
        Op::Heal(z) => _ = broker.heal(z),
        _ => {}
    }
}

/// Across any operation sequence: every enqueued payload is either
/// still pending, in flight, acked, or dead-lettered — never lost,
/// never issued an id twice, and never acked twice.
#[test]
fn no_job_is_lost_or_double_acked() {
    wb_prop::check(256, |g| {
        let lanes = g.int(1..=4usize);
        let ops = g.vec(0..80, op);
        let broker: ShardedBroker<u8> = ShardedBroker::new(lanes, 500, 3);
        let caps: CapabilitySet = ["cuda"].into();
        let mut now: u64 = 0;
        let mut enqueued: HashMap<u64, u8> = HashMap::new();
        let mut delivered_ids: Vec<u64> = Vec::new();
        let mut acked: BTreeSet<u64> = BTreeSet::new();
        let nth = |ids: &[u64], k: u8| ids.get(k as usize % ids.len().max(1)).copied();

        for op in ops {
            match op {
                Op::Enqueue(p, lane) => {
                    let id = broker.enqueue_to(lane, p, BTreeSet::new(), now);
                    assert!(!enqueued.contains_key(&id), "ids unique");
                    enqueued.insert(id, p);
                }
                Op::Poll(home) => {
                    if let Some(d) = broker.poll_from(home, &caps, now) {
                        assert_eq!(
                            enqueued.get(&d.meta.id).copied(),
                            Some(d.payload),
                            "payload matches enqueue"
                        );
                        assert!(!acked.contains(&d.meta.id), "acked jobs never redelivered");
                        delivered_ids.push(d.meta.id);
                    }
                }
                Op::Ack(k) => {
                    let Some(id) = nth(&delivered_ids, k) else {
                        continue;
                    };
                    let ok = broker.ack(id);
                    if ok {
                        assert!(!acked.contains(&id), "double ack must return false");
                        acked.insert(id);
                    }
                }
                Op::Nack(k) => {
                    let Some(id) = nth(&delivered_ids, k) else {
                        continue;
                    };
                    let _ = broker.nack(id);
                }
                Op::Advance(dt) => {
                    now += dt as u64;
                }
                _ => zone_op(&broker, &op),
            }
        }

        // Conservation: enqueued = acked + (visible + in-flight + dead).
        // Reconnect any cut zone, then drain what's left with generous
        // time and retries.
        if let Some(z) = broker.partitioned_zone() {
            assert!(broker.heal(z));
        }
        let mut live = 0usize;
        now += 10_000;
        while let Some(d) = broker.poll_from(0, &caps, now) {
            live += 1;
            broker.ack(d.meta.id);
            assert!(live <= enqueued.len() * 4, "drain terminates");
        }
        let dead = broker.drain_dead_letters().len();
        let (acked, enqueued) = (acked.len(), enqueued.len());
        assert_eq!(
            acked + live + dead,
            enqueued,
            "every job accounted for: acked {acked} + drained {live} + dead {dead} vs {enqueued}"
        );
    });
}

/// The serving zone's metrics are internally consistent after any
/// sequence. A zone counts every job it takes in, mirrored copies
/// included, so its removals never outnumber its intake and every
/// delivery follows an intake, a timeout, or a nack. (A standby can
/// ack a delivery its peer made, so acks are bounded by intake, not by
/// its own deliveries.)
#[test]
fn metrics_are_consistent() {
    wb_prop::check(256, |g| {
        let lanes = g.int(1..=4usize);
        let ops = g.vec(0..60, op);
        let broker: ShardedBroker<u8> = ShardedBroker::new(lanes, 300, 2);
        let caps = CapabilitySet::new();
        let mut now = 0u64;
        let mut delivered = Vec::new();
        for op in ops {
            match op {
                Op::Enqueue(p, lane) => _ = broker.enqueue_to(lane, p, BTreeSet::new(), now),
                Op::Poll(home) => {
                    if let Some(d) = broker.poll_from(home, &caps, now) {
                        delivered.push(d.meta.id);
                    }
                }
                Op::Ack(k) if !delivered.is_empty() => {
                    broker.ack(delivered[k as usize % delivered.len()]);
                }
                Op::Nack(k) if !delivered.is_empty() => {
                    broker.nack(delivered[k as usize % delivered.len()]);
                }
                Op::Advance(dt) => now += dt as u64,
                _ => zone_op(&broker, &op),
            }
            let m = broker.metrics();
            assert!(
                m.acked + m.dead_lettered <= m.enqueued,
                "removals bounded by intake: {m:?}"
            );
            assert!(
                m.delivered <= m.enqueued + m.timeouts + m.nacked,
                "deliveries bounded by intake plus redeliveries: {m:?}"
            );
        }
    });
}
