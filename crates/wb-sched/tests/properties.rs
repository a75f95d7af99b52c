//! Property-based tests: fairness and conservation invariants of the
//! deficit-round-robin scheduler under adversarial arrival mixes.

use std::collections::BTreeMap;
use std::sync::Arc;
use wb_obs::Recorder;
use wb_sched::{Admission, GradeClass, SchedConfig, ShardedScheduler};

const COURSES: [&str; 4] = ["ece408", "ece598", "hpp", "pumps"];

/// A one-lane scheduler: every course shares the one DRR ring.
fn sched_with_weights(weights: &[u64]) -> ShardedScheduler<u64> {
    let mut cfg = SchedConfig {
        backlog_budget: 10_000,
        ..SchedConfig::default()
    };
    for (i, w) in weights.iter().enumerate() {
        cfg = cfg.with_course_weight(COURSES[i], *w);
    }
    ShardedScheduler::new(1, cfg, Arc::new(Recorder::noop()))
}

/// Conservation and order: across any arrival mix, draining one
/// slot at a time releases every admitted job exactly once, in
/// FIFO order within each course, and terminates within one drain
/// per job (every drain over a non-empty backlog makes progress).
#[test]
fn every_admitted_job_drains_exactly_once() {
    wb_prop::check(256, |g| {
        let arrivals = g.vec(1..120, |g| g.int(0..4usize));
        let weights = g.vec(4..5, |g| g.int(1..9u64));
        let s = sched_with_weights(&weights);
        let mut offered: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for (job_id, course) in arrivals.iter().enumerate() {
            let adm = s.offer(
                COURSES[*course],
                job_id as u64,
                job_id as u64,
                GradeClass::Light,
                0,
                |_| {},
            );
            assert!(adm.admitted(), "budget is generous in this mix");
            offered.entry(*course).or_default().push(job_id as u64);
        }
        let total = arrivals.len();
        let mut drained: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for round in 0..total {
            let got = s.drain_stealing(0, 1, round as u64);
            assert_eq!(got.len(), 1, "non-empty backlog always progresses");
            for (course, job) in got {
                drained.entry(course).or_default().push(job);
            }
        }
        assert_eq!(s.total_backlog(), 0, "exactly one drain per job empties it");
        assert!(s.drain_stealing(0, 1, total as u64).is_empty());
        for (i, name) in COURSES.iter().enumerate() {
            let want = offered.remove(&i).unwrap_or_default();
            let got = drained.remove(*name).unwrap_or_default();
            assert_eq!(got, want, "course {} is FIFO and loses nothing", name);
        }
    });
}

/// No starvation: when each drain's capacity covers the weight sum,
/// every course with a non-empty backlog releases at least one job
/// on every single round, no matter how lopsided the weights or the
/// arrival mix are.
#[test]
fn no_course_starves_under_adversarial_mixes() {
    wb_prop::check(256, |g| {
        let backlogs = g.vec(4..5, |g| g.int(1..40usize));
        let weights = g.vec(4..5, |g| g.int(1..9u64));
        let rounds = g.int(1..30u64);
        let s = sched_with_weights(&weights);
        let mut job = 0u64;
        for (i, n) in backlogs.iter().enumerate() {
            for _ in 0..*n {
                s.offer(COURSES[i], job, job, GradeClass::Light, 0, |_| {});
                job += 1;
            }
        }
        let capacity: u64 = weights.iter().sum();
        let mut left: Vec<usize> = backlogs.clone();
        for round in 0..rounds {
            let got = s.drain_stealing(0, capacity as usize, round);
            let mut served = [0usize; 4];
            for (course, _) in &got {
                let i = COURSES.iter().position(|c| c == course).unwrap();
                served[i] += 1;
            }
            for i in 0..4 {
                if left[i] > 0 {
                    assert!(
                        served[i] >= 1,
                        "course {} starved on round {round} (served {served:?}, left {left:?})",
                        COURSES[i]
                    );
                }
                left[i] -= served[i].min(left[i]);
            }
        }
    });
}

/// Pinned from the property's first run: `pumps` (weight 6), cut off
/// by capacity with 4 credits unspent, spent them in the next drain and
/// took 10 of its 11 slots while `ece598` waited.
#[test]
fn capacity_cut_credit_does_not_starve_the_next_drain() {
    let s = sched_with_weights(&[1, 1, 3, 6]);
    let backlogs = COURSES.iter().zip([3, 4, 3, 24]);
    let arrivals = backlogs.flat_map(|(course, n)| std::iter::repeat_n(*course, n));
    for (job, course) in (0u64..).zip(arrivals) {
        s.offer(course, job, job, GradeClass::Light, 0, |_| {});
    }
    for round in 0..3 {
        let got = s.drain_stealing(0, 11, round);
        assert!(got.iter().any(|(c, _)| c == "ece598"), "{round}: {got:?}");
    }
}

/// Weighted share: with two contending backlogged courses and the
/// drain capacity equal to the weight sum, one round splits the
/// capacity exactly by weight.
#[test]
fn contended_capacity_splits_by_weight() {
    wb_prop::check(256, |g| {
        let (w0, w1) = (g.int(1..9u64), g.int(1..9u64));
        let s = sched_with_weights(&[w0, w1, 1, 1]);
        for job in 0..40u64 {
            for (course, id) in [(COURSES[0], job), (COURSES[1], 100 + job)] {
                s.offer(course, id, id, GradeClass::Light, 0, |_| {});
            }
        }
        let got = s.drain_stealing(0, (w0 + w1) as usize, 0);
        let c0 = got.iter().filter(|(c, _)| c == COURSES[0]).count() as u64;
        let c1 = got.iter().filter(|(c, _)| c == COURSES[1]).count() as u64;
        assert_eq!((c0, c1), (w0, w1));
    });
}

/// Admission control: for any budget, offers admit whole below the
/// brown-out band, downgrade inside it, and shed with a finite
/// retry-after hint past the budget — in that order.
#[test]
fn admission_bands_are_ordered() {
    wb_prop::check(256, |g| {
        let (budget, offers) = (g.int(1..50usize), g.int(1..120usize));
        let cfg = SchedConfig {
            backlog_budget: budget,
            ..SchedConfig::default()
        };
        let s = ShardedScheduler::new(1, cfg, Arc::new(Recorder::noop()));
        let band = ((budget as f64) * 0.75).ceil() as usize;
        for j in 0..offers {
            let adm = s.offer("hpp", j as u64, j as u64, GradeClass::Full, 0, |_| {});
            match adm {
                Admission::Admitted { browned_out } => {
                    assert!(j < budget, "admitted only under budget");
                    assert_eq!(browned_out, j >= band, "band at {} (offer {})", band, j);
                }
                Admission::Shed { retry_after_s } => {
                    assert!(j >= budget, "shed only past budget");
                    assert!(retry_after_s.is_finite() && retry_after_s > 0.0);
                }
            }
        }
        assert_eq!(s.backlog("hpp"), offers.min(budget));
    });
}

/// Cross-shard conservation: for any lane count, adversarial
/// arrival mix, anchor-shard sequence, and wave width, stealing
/// drains release every admitted job exactly once, keep each
/// course FIFO (a course's queue lives on one home shard, whoever
/// drains it), always make progress while any shard holds work,
/// and the recorder's per-course dequeue books reconcile with the
/// offers.
#[test]
fn stealing_drains_release_every_job_exactly_once_across_shards() {
    wb_prop::check(256, |g| {
        let shards = g.int(1..8usize);
        let arrivals = g.vec(1..150, |g| g.int(0..4usize));
        let homes = g.vec(1..40, |g| g.int(0..8usize));
        let wave = g.int(1..9usize);
        let obs = Arc::new(Recorder::traced());
        let cfg = SchedConfig {
            backlog_budget: 10_000,
            ..SchedConfig::default()
        };
        let s: ShardedScheduler<u64> = ShardedScheduler::new(shards, cfg, Arc::clone(&obs));
        let mut offered: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for (job_id, course) in arrivals.iter().enumerate() {
            let adm = s.offer(
                COURSES[*course],
                job_id as u64,
                job_id as u64,
                GradeClass::Light,
                0,
                |_| {},
            );
            assert!(adm.admitted(), "budget is generous in this mix");
            offered.entry(*course).or_default().push(job_id as u64);
        }
        let mut drained: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut round = 0u64;
        let mut anchors = homes.iter().cycle();
        while s.total_backlog() > 0 {
            assert!(round < 10_000, "stealing drains must terminate");
            let home = *anchors.next().unwrap() % shards;
            let got = s.drain_stealing(home, wave, round);
            assert!(
                !got.is_empty(),
                "backlog {} but the wave anchored at {home} released nothing",
                s.total_backlog()
            );
            for (course, job) in got {
                drained.entry(course).or_default().push(job);
            }
            round += 1;
        }
        let mut released = 0usize;
        for (i, name) in COURSES.iter().enumerate() {
            let want = offered.remove(&i).unwrap_or_default();
            let got = drained.remove(*name).unwrap_or_default();
            released += got.len();
            assert_eq!(
                obs.scoped(&format!("sched/dequeued/{}", name)),
                got.len() as u64,
                "course {} books reconcile across lanes",
                name
            );
            assert_eq!(got, want, "course {} is FIFO and loses nothing", name);
        }
        assert_eq!(released, arrivals.len(), "exactly once, cluster-wide");
    });
}
