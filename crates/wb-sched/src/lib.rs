//! Deadline-aware per-course fair-share scheduling with admission
//! control (§VI, Figure 1).
//!
//! The platform's defining load is the Wednesday pre-deadline rush:
//! one course's submission rate spikes an order of magnitude while
//! several courses share a small GPU fleet. A strictly FIFO broker
//! lets that surge inflate every course's p99 wait without bound.
//! This crate arbitrates *before* the broker:
//!
//! - **Weighted deficit-round-robin dequeue** — each course owns a
//!   FIFO backlog; every drain round a non-empty course earns its
//!   (deadline-boosted) weight in credits and spends [`SchedConfig::quantum`]
//!   credits per job released to the execution layer.
//! - **Priority aging** — a head-of-line job that has waited
//!   [`SchedConfig::age_promote_rounds`] drain rounds is promoted ahead
//!   of the deficit accounting, in course rotation, so no course
//!   starves regardless of the weight mix.
//! - **Deadline-proximity boost** — a course whose configured deadline
//!   falls inside [`SchedConfig::deadline_boost_window_ms`] has its
//!   weight multiplied by [`SchedConfig::deadline_boost`]: labs due
//!   soonest drain first during a rush.
//! - **Admission control** — each course's backlog is bounded by a
//!   budget. Inside the brown-out band (the top of the budget) a
//!   full-grade request is downgraded to compile-only; past the budget
//!   the job is shed with a finite retry-after hint.
//!
//! Every decision is recorded on the shared [`Recorder`]: admissions,
//! sheds, brown-outs, aged promotions and dequeues as counters, the
//! per-course dequeue tally as scoped counters, and brown-outs/sheds
//! as span annotations on the affected job.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wb_obs::sync::Mutex;
use wb_obs::{Annotation, Counter, Recorder};
use wb_queue::shard_for_course;

/// Per-course scheduling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CourseConfig {
    /// Relative share of the fleet (credits earned per drain round).
    pub weight: u64,
    /// The course's next lab deadline in virtual ms, if known.
    pub deadline_ms: Option<u64>,
    /// Backlog budget override; `None` uses [`SchedConfig::backlog_budget`].
    pub backlog_budget: Option<usize>,
}

impl Default for CourseConfig {
    fn default() -> Self {
        CourseConfig {
            weight: 1,
            deadline_ms: None,
            backlog_budget: None,
        }
    }
}

/// Scheduler-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedConfig {
    /// Credits one dequeue costs. A course with weight `w` releases
    /// `w / quantum` jobs per drain round once backlogged.
    pub quantum: u64,
    /// Default per-course backlog budget; offers beyond it are shed.
    /// The default is effectively unbounded — admission control is
    /// opt-in, a deployment sizes the budget to its fleet.
    pub backlog_budget: usize,
    /// Fraction of the budget where the brown-out band begins:
    /// full-grade offers landing at or past `brownout_start * budget`
    /// are downgraded to compile-only instead of queued whole.
    pub brownout_start: f64,
    /// Drain rounds a head-of-line job may wait before it is promoted
    /// ahead of the deficit accounting.
    pub age_promote_rounds: u64,
    /// How close (virtual ms) a course deadline must be to earn the
    /// proximity boost.
    pub deadline_boost_window_ms: u64,
    /// Weight multiplier applied inside the boost window.
    pub deadline_boost: u64,
    /// Base retry-after hint (seconds) returned with a shed. The hint
    /// scales with backlog but is always finite.
    pub shed_retry_after_s: f64,
    /// Per-course overrides, keyed by course id.
    pub courses: BTreeMap<String, CourseConfig>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            quantum: 1,
            backlog_budget: usize::MAX / 2,
            brownout_start: 0.75,
            age_promote_rounds: 8,
            deadline_boost_window_ms: 48 * 3_600_000,
            deadline_boost: 2,
            shed_retry_after_s: 30.0,
            courses: BTreeMap::new(),
        }
    }
}

impl SchedConfig {
    /// Set (or create) a course's weight, returning `self` for chaining.
    pub fn with_course_weight(mut self, course: &str, weight: u64) -> Self {
        self.courses.entry(course.to_string()).or_default().weight = weight;
        self
    }

    /// Set a course's deadline, returning `self` for chaining.
    pub fn with_course_deadline(mut self, course: &str, deadline_ms: u64) -> Self {
        self.courses
            .entry(course.to_string())
            .or_default()
            .deadline_ms = Some(deadline_ms);
        self
    }

    /// Effective backlog budget for a course (always at least 1).
    pub fn budget_for(&self, course: &str) -> usize {
        self.courses
            .get(course)
            .and_then(|c| c.backlog_budget)
            .unwrap_or(self.backlog_budget)
            .max(1)
    }

    /// A course's current weight: its configured share, multiplied by
    /// the boost when its deadline is inside the proximity window.
    pub fn effective_weight(&self, course: &str, now_ms: u64) -> u64 {
        let cc = self.courses.get(course);
        let base = cc.map(|c| c.weight).unwrap_or(1).max(1);
        if let Some(deadline) = cc.and_then(|c| c.deadline_ms) {
            if now_ms <= deadline && deadline - now_ms <= self.deadline_boost_window_ms {
                return base.saturating_mul(self.deadline_boost.max(1));
            }
        }
        base
    }

    /// The band an offer of `class` lands in when its course already
    /// holds `backlog` jobs: shed past the budget, browned out (full
    /// grades only) from the brown-out start, admitted whole below it.
    fn judge(&self, course: &str, backlog: usize, class: GradeClass) -> Admission {
        let budget = self.budget_for(course);
        if backlog >= budget {
            let retry_after_s = self.shed_retry_after_s * (1.0 + backlog as f64 / budget as f64);
            return Admission::Shed { retry_after_s };
        }
        let brownout_at = ((budget as f64) * self.brownout_start).ceil() as usize;
        Admission::Admitted {
            browned_out: class == GradeClass::Full && backlog >= brownout_at,
        }
    }
}

/// How expensive the offered job is if admitted whole — full grading
/// runs every dataset; everything else is light.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradeClass {
    /// A full grading run, eligible for brown-out downgrade.
    Full,
    /// Compile-only or single-dataset work; never downgraded.
    Light,
}

/// The admission decision for one offered job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Queued. `browned_out` is true when a full-grade request was
    /// downgraded to compile-only inside the brown-out band.
    Admitted {
        /// Whether the brown-out downgrade was applied.
        browned_out: bool,
    },
    /// Refused: the course's backlog budget is exhausted. The caller
    /// should surface the (finite) retry-after hint to the submitter.
    Shed {
        /// Suggested client back-off in seconds.
        retry_after_s: f64,
    },
}

impl Admission {
    /// True for either admitted variant.
    pub fn admitted(&self) -> bool {
        matches!(self, Admission::Admitted { .. })
    }
}

/// One course's backlog row in a [`SchedSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CourseBacklog {
    /// Course id.
    pub course: String,
    /// Jobs admitted and not yet released to the execution layer.
    pub backlog: usize,
    /// Unspent deficit-round-robin credits.
    pub deficit: u64,
}

/// Plain-data view of the scheduler's queues, for dashboards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchedSnapshot {
    /// Total jobs held across all courses.
    pub total_backlog: usize,
    /// Per-course rows, in course-id order.
    pub courses: Vec<CourseBacklog>,
}

struct Entry<T> {
    payload: T,
    offered_round: u64,
}

struct CourseQueue<T> {
    q: VecDeque<Entry<T>>,
    deficit: u64,
}

// Not derived: the derive would demand `T: Default`, which the payload
// never needs.
impl<T> Default for CourseQueue<T> {
    fn default() -> Self {
        CourseQueue {
            q: VecDeque::new(),
            deficit: 0,
        }
    }
}

/// One scheduler lane: the backlogs of the courses that hash to it,
/// with its own rotation ring and aging clock.
struct SchedState<T> {
    courses: BTreeMap<String, CourseQueue<T>>,
    /// Courses in first-offer order — the persistent rotation ring.
    /// The cursor indexes this ring, never a freshly collected list of
    /// non-empty courses: positional indexing shifted under the cursor
    /// whenever a course emptied mid-ring, skipping the successor's
    /// turn for a round.
    ring: Vec<String>,
    /// Rotation offset shared by the aging and DRR passes; advances
    /// once per drain so ties never favour a fixed course.
    cursor: usize,
    /// Drain rounds elapsed — the aging clock.
    round: u64,
}

impl<T> SchedState<T> {
    /// A course's queue; a course joins the ring when first offered.
    fn course(&mut self, course: &str) -> &mut CourseQueue<T> {
        if !self.courses.contains_key(course) {
            self.ring.push(course.to_string());
        }
        self.courses.entry(course.to_string()).or_default()
    }

    fn backlog(&self, course: &str) -> usize {
        self.courses.get(course).map_or(0, |cq| cq.q.len())
    }

    fn total_backlog(&self) -> usize {
        self.courses.values().map(|cq| cq.q.len()).sum()
    }

    /// Release up to `max` jobs in fair-share order: aged head-of-line
    /// jobs first (course rotation), then deficit-round-robin over the
    /// remaining backlogs. Also returns the number of aged promotions.
    fn drain(&mut self, cfg: &SchedConfig, max: usize, now_ms: u64) -> (Vec<(String, T)>, u64) {
        let mut out = Vec::new();
        let mut aged_promotions = 0u64;
        self.round += 1;
        let round = self.round;
        let len = self.ring.len();
        let start = if len == 0 { 0 } else { self.cursor % len };

        // Aging pass: any course whose head has waited past the
        // promotion threshold releases one job, in rotation over the
        // persistent ring (key-stable: an emptied course is skipped in
        // place, it never shifts the others' turns).
        for i in 0..len {
            if out.len() >= max {
                break;
            }
            let name = self.ring[(start + i) % len].clone();
            let Some(cq) = self.courses.get_mut(&name) else {
                continue;
            };
            let aged =
                cq.q.front()
                    .is_some_and(|e| round - e.offered_round >= cfg.age_promote_rounds);
            if !aged {
                continue;
            }
            let e = cq.q.pop_front().unwrap();
            if cq.q.is_empty() {
                cq.deficit = 0;
            }
            aged_promotions += 1;
            out.push((name, e.payload));
        }

        // Deficit-round-robin: cycle over the ring until capacity fills
        // or every backlog empties. Each visit earns a non-empty course
        // its weight; a dequeue spends `quantum`. Contended capacity
        // therefore divides by weight, while spare capacity still
        // drains every backlog (work conserving).
        'drr: while out.len() < max {
            let mut all_empty = true;
            for i in 0..len {
                if out.len() >= max {
                    break 'drr;
                }
                let name = self.ring[(start + i) % len].clone();
                let w = cfg.effective_weight(&name, now_ms);
                let Some(cq) = self.courses.get_mut(&name) else {
                    continue;
                };
                if cq.q.is_empty() {
                    continue;
                }
                all_empty = false;
                cq.deficit += w;
                while cq.deficit >= cfg.quantum && !cq.q.is_empty() && out.len() < max {
                    cq.deficit -= cfg.quantum;
                    let e = cq.q.pop_front().unwrap();
                    out.push((name.clone(), e.payload));
                }
                // An emptied course keeps no credit, and one that capacity
                // cut off only its sub-quantum remainder: credit it could
                // not spend would be spent next drain ahead of courses
                // still owed a turn.
                let left = if cq.q.is_empty() { 0 } else { cq.deficit };
                cq.deficit = left.min(cfg.quantum.saturating_sub(1));
            }
            if all_empty {
                break;
            }
        }
        self.cursor = self.cursor.wrapping_add(1);
        (out, aged_promotions)
    }
}

/// The fair-share scheduler: `N` lanes with course-hashed routing and
/// a work-stealing drain. `T` is the queued payload (the clusters use
/// `JobRequest`); the scheduler only needs the platform job id to
/// annotate spans.
///
/// Each course lives wholly on one lane, the same one its jobs take in
/// the broker ([`wb_queue::shard_for_course`]), so per-course FIFO
/// order, backlog budgets, brown-out bands, and the deficit accounting
/// do not depend on the lane count. What lanes buy is lock spread:
/// offers and drains for different courses contend on different
/// mutexes.
///
/// The drain steals: a lane asked for `max` jobs serves its own
/// backlog first, then pulls the remainder from the most-loaded
/// sibling lanes. Stolen jobs are released through the victim's own
/// fair-share drain, so course order and fairness survive migration.
pub struct ShardedScheduler<T> {
    lanes: Vec<Mutex<SchedState<T>>>,
    config: SchedConfig,
    obs: Arc<Recorder>,
    /// Rotating home for callers without a natural lane (the v1 wave
    /// drain), so successive waves start at successive lanes.
    next_home: AtomicUsize,
}

impl<T> ShardedScheduler<T> {
    /// A scheduler with `shards` lanes (clamped to at least 1),
    /// recording onto `obs` (pass [`Recorder::noop`] when tracing is
    /// off).
    pub fn new(shards: usize, config: SchedConfig, obs: Arc<Recorder>) -> Self {
        let lane = || {
            Mutex::new(SchedState {
                courses: BTreeMap::new(),
                ring: Vec::new(),
                cursor: 0,
                round: 0,
            })
        };
        ShardedScheduler {
            lanes: (0..shards.max(1)).map(|_| lane()).collect(),
            config,
            obs,
            next_home: AtomicUsize::new(0),
        }
    }

    /// The lane a course's jobs are routed to.
    fn shard_for(&self, course: &str) -> usize {
        shard_for_course(course, self.lanes.len())
    }

    /// Offer one job for admission on its course's lane — the one
    /// admission path, whether the job was submitted queued or
    /// synchronously. On admission the payload is queued (after
    /// `downgrade` is applied if the offer lands in the brown-out
    /// band); on shed it is dropped and the caller should return
    /// [`Admission::Shed`]'s retry hint to the submitter.
    pub fn offer(
        &self,
        course: &str,
        job_id: u64,
        mut payload: T,
        class: GradeClass,
        now_ms: u64,
        downgrade: impl FnOnce(&mut T),
    ) -> Admission {
        let adm = {
            let mut st = self.lanes[self.shard_for(course)].lock();
            let offered_round = st.round;
            let cq = st.course(course);
            let adm = self.config.judge(course, cq.q.len(), class);
            if let Admission::Admitted { browned_out } = adm {
                if browned_out {
                    downgrade(&mut payload);
                }
                cq.q.push_back(Entry {
                    payload,
                    offered_round,
                });
            }
            adm
        };
        match adm {
            Admission::Shed { .. } => self.obs.annotate(job_id, Annotation::Shed, now_ms),
            Admission::Admitted { browned_out } => {
                self.obs.bump(Counter::SchedAdmitted);
                if browned_out {
                    self.obs.annotate(job_id, Annotation::BrownOut, now_ms);
                }
            }
        }
        adm
    }

    /// Release up to `max` jobs from one lane, recording the dequeues.
    fn drain(&self, lane: usize, max: usize, now_ms: u64) -> Vec<(String, T)> {
        let (out, aged) = self.lanes[lane].lock().drain(&self.config, max, now_ms);
        self.obs.add(Counter::SchedDequeues, out.len() as u64);
        self.obs.add(Counter::SchedAgedPromotions, aged);
        for (course, _) in &out {
            self.obs.bump_scoped(&format!("sched/dequeued/{course}"));
        }
        out
    }

    fn lane_backlog(&self, lane: usize) -> usize {
        self.lanes[lane].lock().total_backlog()
    }

    /// Release up to `max` jobs anchored at lane `home`: the home lane
    /// drains first (its aging clock ticks even when `max` is 0), then
    /// the remainder is stolen from the other lanes in
    /// descending-backlog order. A victim only ticks when it actually
    /// has work, so idle lanes don't age from their siblings' drains.
    pub fn drain_stealing(&self, home: usize, max: usize, now_ms: u64) -> Vec<(String, T)> {
        let n = self.lanes.len();
        let home = home % n;
        let mut out = self.drain(home, max, now_ms);
        if out.len() >= max || n == 1 {
            return out;
        }
        let mut victims: Vec<usize> = (0..n).filter(|&i| i != home).collect();
        victims.sort_by_key(|&i| Reverse(self.lane_backlog(i)));
        for v in victims {
            if out.len() >= max {
                break;
            }
            if self.lane_backlog(v) == 0 {
                continue;
            }
            out.extend(self.drain(v, max - out.len(), now_ms));
        }
        out
    }

    /// Release up to `max` jobs from a rotating home lane — the drain
    /// for callers that pump the whole cluster rather than one lane.
    pub fn drain_rotating(&self, max: usize, now_ms: u64) -> Vec<(String, T)> {
        let home = self.next_home.fetch_add(1, Ordering::Relaxed);
        self.drain_stealing(home % self.lanes.len(), max, now_ms)
    }

    /// Jobs a course holds that have not yet been released.
    pub fn backlog(&self, course: &str) -> usize {
        self.lanes[self.shard_for(course)].lock().backlog(course)
    }

    /// Total unreleased jobs across every lane.
    pub fn total_backlog(&self) -> usize {
        (0..self.lanes.len()).map(|i| self.lane_backlog(i)).sum()
    }

    /// The largest single-course backlog — the signal a one-course
    /// rush raises long before the global queue depth moves.
    pub fn max_course_backlog(&self) -> usize {
        let lanes = self.lanes.iter();
        let per_lane = lanes.filter_map(|l| l.lock().courses.values().map(|cq| cq.q.len()).max());
        per_lane.max().unwrap_or(0)
    }

    /// Plain-data per-course view for dashboards: every non-empty
    /// course, in course-id order.
    pub fn snapshot(&self) -> SchedSnapshot {
        let mut courses = Vec::new();
        for lane in &self.lanes {
            let st = lane.lock();
            let rows = st.courses.iter().filter(|(_, cq)| !cq.q.is_empty());
            courses.extend(rows.map(|(name, cq)| CourseBacklog {
                course: name.clone(),
                backlog: cq.q.len(),
                deficit: cq.deficit,
            }));
        }
        courses.sort_by(|a, b| a.course.cmp(&b.course));
        SchedSnapshot {
            total_backlog: courses.iter().map(|c| c.backlog).sum(),
            courses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One lane: the plain fair-share scheduler.
    fn sched(config: SchedConfig) -> ShardedScheduler<u64> {
        ShardedScheduler::new(1, config, Arc::new(Recorder::noop()))
    }

    fn offer_light(s: &ShardedScheduler<u64>, course: &str, job: u64) -> Admission {
        s.offer(course, job, job, GradeClass::Light, 0, |_| {})
    }

    fn drain(s: &ShardedScheduler<u64>, max: usize, now_ms: u64) -> Vec<(String, u64)> {
        s.drain_stealing(0, max, now_ms)
    }

    #[test]
    fn drains_fifo_within_a_course() {
        let s = sched(SchedConfig::default());
        for j in 0..5 {
            assert!(offer_light(&s, "hpp", j).admitted());
        }
        let got: Vec<u64> = drain(&s, 10, 0).into_iter().map(|(_, j)| j).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.total_backlog(), 0);
    }

    #[test]
    fn equal_weights_interleave_courses() {
        let s = sched(SchedConfig::default());
        for j in 0..4 {
            offer_light(&s, "hpp", j);
            offer_light(&s, "ece408", 100 + j);
        }
        // Capacity 2 per round: each course releases exactly one job.
        for round in 0..4 {
            let got = drain(&s, 2, round);
            let courses: Vec<&str> = got.iter().map(|(c, _)| c.as_str()).collect();
            assert!(
                courses.contains(&"hpp") && courses.contains(&"ece408"),
                "{courses:?}"
            );
        }
        assert_eq!(s.total_backlog(), 0);
    }

    #[test]
    fn weights_set_the_share() {
        let cfg = SchedConfig::default()
            .with_course_weight("big", 3)
            .with_course_weight("small", 1);
        let s = sched(cfg);
        for j in 0..30 {
            offer_light(&s, "big", j);
            offer_light(&s, "small", 100 + j);
        }
        let mut big = 0;
        let mut small = 0;
        for round in 0..6 {
            for (c, _) in drain(&s, 4, round) {
                if c == "big" {
                    big += 1;
                } else {
                    small += 1;
                }
            }
        }
        // 3:1 share at capacity 4: the big course gets three slots.
        assert_eq!(big, 18);
        assert_eq!(small, 6);
    }

    #[test]
    fn deadline_boost_prefers_the_due_course() {
        let cfg = SchedConfig {
            deadline_boost: 3,
            deadline_boost_window_ms: 1_000,
            ..SchedConfig::default()
        }
        .with_course_deadline("due", 500);
        let s = sched(cfg);
        assert_eq!(s.config.effective_weight("due", 0), 3);
        assert_eq!(
            s.config.effective_weight("due", 2_000),
            1,
            "past the deadline"
        );
        assert_eq!(s.config.effective_weight("other", 0), 1);
        for j in 0..12 {
            offer_light(&s, "due", j);
            offer_light(&s, "other", 100 + j);
        }
        let got = drain(&s, 4, 0);
        let due = got.iter().filter(|(c, _)| c == "due").count();
        assert_eq!(due, 3, "boosted course takes 3 of 4 slots: {got:?}");
    }

    #[test]
    fn aged_heads_jump_the_weight_order() {
        // A weight-9 flood against a weight-1 course: without aging the
        // small course gets 1 slot in 10; with aging its head is
        // promoted once it has waited 3 rounds.
        let cfg = SchedConfig {
            age_promote_rounds: 3,
            ..SchedConfig::default()
        }
        .with_course_weight("flood", 9);
        let s = sched(cfg);
        for j in 0..90 {
            offer_light(&s, "flood", j);
        }
        for j in 0..6 {
            offer_light(&s, "tiny", 1_000 + j);
        }
        let mut tiny_by_round = Vec::new();
        for round in 0..6 {
            let tiny = drain(&s, 5, round)
                .iter()
                .filter(|(c, _)| c == "tiny")
                .count();
            tiny_by_round.push(tiny);
        }
        // Once aged (round 3+), "tiny" is served every round even though
        // its weight share at capacity 5 rounds to zero slots.
        assert!(
            tiny_by_round[3..].iter().all(|&n| n >= 1),
            "aged promotion must serve the starved course: {tiny_by_round:?}"
        );
    }

    #[test]
    fn admission_state_machine_walks_admit_brownout_shed() {
        // Budget 8, brown-out from 6 (0.75 * 8): offers 0-5 admit
        // whole, 6-7 brown out, 8+ shed — and draining reopens the
        // course in the same order.
        let cfg = SchedConfig {
            backlog_budget: 8,
            ..SchedConfig::default()
        };
        let s = ShardedScheduler::new(1, cfg, Arc::new(Recorder::traced()));
        let mut downgrades = Vec::new();
        for j in 0..10u64 {
            let adm = s.offer("hpp", j, j, GradeClass::Full, 0, |p| {
                downgrades.push(*p);
            });
            match j {
                0..=5 => assert_eq!(adm, Admission::Admitted { browned_out: false }, "job {j}"),
                6..=7 => assert_eq!(adm, Admission::Admitted { browned_out: true }, "job {j}"),
                _ => {
                    let Admission::Shed { retry_after_s } = adm else {
                        panic!("job {j} must shed, got {adm:?}");
                    };
                    assert!(retry_after_s.is_finite() && retry_after_s > 0.0);
                }
            }
        }
        assert_eq!(
            downgrades,
            vec![6, 7],
            "exactly the brown-out band downgraded"
        );
        assert_eq!(s.backlog("hpp"), 8);
        // Draining below the band reopens whole-grade admission.
        drain(&s, 3, 0);
        let adm = s.offer("hpp", 20, 20, GradeClass::Full, 0, |_| {
            panic!("below the band")
        });
        assert_eq!(adm, Admission::Admitted { browned_out: false });
        // The decisions landed on the recorder.
        let obs = &s.obs;
        assert_eq!(obs.counter(Counter::SchedAdmitted), 9);
        assert_eq!(obs.counter(Counter::SchedShed), 2);
        assert_eq!(obs.counter(Counter::SchedBrownOuts), 2);
        assert_eq!(obs.counter(Counter::SchedDequeues), 3);
        assert!(obs.span(6).unwrap().has(Annotation::BrownOut));
        assert!(obs.span(8).unwrap().has(Annotation::Shed));
    }

    #[test]
    fn light_class_is_admitted_in_band_without_downgrade() {
        let cfg = SchedConfig {
            backlog_budget: 4,
            ..SchedConfig::default()
        };
        let s = sched(cfg);
        for j in 0..3 {
            offer_light(&s, "c", j);
        }
        // Backlog 3 of 4: inside the band (3 >= ceil(3)), but light
        // work is admitted untouched and never reported browned out.
        let adm = s.offer("c", 9, 9, GradeClass::Light, 0, |_| {
            panic!("light never downgrades")
        });
        assert_eq!(adm, Admission::Admitted { browned_out: false });
    }

    #[test]
    fn shed_retry_hint_is_finite_even_with_tiny_budget() {
        let cfg = SchedConfig {
            backlog_budget: 0, // clamped to 1 internally
            shed_retry_after_s: 10.0,
            ..SchedConfig::default()
        };
        let s = sched(cfg);
        assert!(offer_light(&s, "c", 0).admitted());
        let Admission::Shed { retry_after_s } = offer_light(&s, "c", 1) else {
            panic!("budget exhausted");
        };
        assert!(retry_after_s.is_finite() && retry_after_s >= 10.0);
    }

    #[test]
    fn cursor_survives_an_emptied_mid_ring_course() {
        // Regression: the rotating cursor used to index a freshly
        // collected list of non-empty courses, so a course emptying
        // mid-ring compacted the list under the cursor and the next
        // course's turn was skipped for a round. With courses a, b, c
        // and capacity 1, emptying b must hand the next round to its
        // ring successor c — the positional cursor served a again.
        let s = sched(SchedConfig::default());
        offer_light(&s, "a", 0);
        offer_light(&s, "a", 1);
        offer_light(&s, "b", 10);
        offer_light(&s, "c", 20);
        offer_light(&s, "c", 21);
        let turn = |round: u64| {
            let got = drain(&s, 1, round);
            assert_eq!(got.len(), 1, "round {round} must release one job");
            got[0].0.clone()
        };
        assert_eq!(turn(0), "a");
        assert_eq!(turn(1), "b", "b empties mid-ring here");
        assert_eq!(turn(2), "c", "b's successor drains next, not a again");
        assert_eq!(turn(3), "a");
        assert_eq!(turn(4), "c", "emptied b is skipped in place");
        assert_eq!(s.total_backlog(), 0);
    }

    #[test]
    fn sharded_routing_keeps_a_course_on_one_shard() {
        let s: ShardedScheduler<u64> =
            ShardedScheduler::new(4, SchedConfig::default(), Arc::new(Recorder::noop()));
        for j in 0..8 {
            assert!(s
                .offer("cs100", j, j, GradeClass::Light, 0, |_| {})
                .admitted());
        }
        let home = s.shard_for("cs100");
        assert_eq!(s.lanes[home].lock().backlog("cs100"), 8);
        for i in (0..4).filter(|&i| i != home) {
            assert_eq!(s.lane_backlog(i), 0, "course leaked to shard {i}");
        }
        assert_eq!(s.backlog("cs100"), 8);
        assert_eq!(s.total_backlog(), 8);
        // FIFO survives the shard hop: home drain releases offer order.
        let got: Vec<u64> = s
            .drain_stealing(home, 8, 0)
            .into_iter()
            .map(|(_, j)| j)
            .collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn idle_shards_steal_from_loaded_ones() {
        let s: ShardedScheduler<u64> =
            ShardedScheduler::new(4, SchedConfig::default(), Arc::new(Recorder::noop()));
        for j in 0..12 {
            s.offer("cs100", j, j, GradeClass::Light, 0, |_| {});
        }
        let home = s.shard_for("cs100");
        let idle = (home + 1) % 4;
        // A drain anchored on an idle shard must pull the full quota
        // from the loaded sibling.
        let got = s.drain_stealing(idle, 4, 0);
        assert_eq!(got.len(), 4, "idle shard steals the whole quota");
        assert_eq!(s.total_backlog(), 8);
        // Stolen work drains in the victim's FIFO order.
        let ids: Vec<u64> = got.into_iter().map(|(_, j)| j).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rotating_waves_are_work_conserving_and_starve_no_course() {
        // Two courses, wherever the hash lands them on 3 shards. Every
        // rotating wave must come back full while any backlog remains
        // (an idle home steals), and both courses must be fully served
        // by the time capacity has covered the offered load — no course
        // starves behind a shard boundary.
        let s: ShardedScheduler<u64> =
            ShardedScheduler::new(3, SchedConfig::default(), Arc::new(Recorder::noop()));
        for j in 0..6 {
            s.offer("hpp", j, j, GradeClass::Light, 0, |_| {});
            s.offer("ece408", 100 + j, 100 + j, GradeClass::Light, 0, |_| {});
        }
        let mut served: BTreeMap<String, usize> = BTreeMap::new();
        for round in 0..6 {
            let got = s.drain_rotating(2, round);
            assert_eq!(
                got.len(),
                2,
                "round {round}: a wave never runs short while backlog remains"
            );
            for (c, _) in got {
                *served.entry(c).or_insert(0) += 1;
            }
        }
        assert_eq!(s.total_backlog(), 0, "work conserving across shards");
        assert_eq!(served.get("hpp"), Some(&6));
        assert_eq!(served.get("ece408"), Some(&6));
    }

    #[test]
    fn single_shard_degenerates_to_the_plain_scheduler() {
        let s: ShardedScheduler<u64> =
            ShardedScheduler::new(1, SchedConfig::default(), Arc::new(Recorder::noop()));
        for j in 0..4 {
            s.offer("c", j, j, GradeClass::Light, 0, |_| {});
        }
        let got: Vec<u64> = s
            .drain_stealing(0, 10, 0)
            .into_iter()
            .map(|(_, j)| j)
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sharded_snapshot_merges_sorted_by_course() {
        let s: ShardedScheduler<u64> =
            ShardedScheduler::new(4, SchedConfig::default(), Arc::new(Recorder::noop()));
        s.offer("zeta", 0, 0, GradeClass::Light, 0, |_| {});
        s.offer("alpha", 1, 1, GradeClass::Light, 0, |_| {});
        s.offer("alpha", 2, 2, GradeClass::Light, 0, |_| {});
        let snap = s.snapshot();
        assert_eq!(snap.total_backlog, 3);
        let names: Vec<&str> = snap.courses.iter().map(|c| c.course.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(snap.courses[0].backlog, 2);
        assert_eq!(s.max_course_backlog(), 2);
    }

    #[test]
    fn sharded_admission_budgets_are_per_course_not_per_shard() {
        // Budget 2 per course: the third offer for one course sheds on
        // its shard even though the other shards are empty.
        let cfg = SchedConfig {
            backlog_budget: 2,
            ..SchedConfig::default()
        };
        let s: ShardedScheduler<u64> = ShardedScheduler::new(4, cfg, Arc::new(Recorder::noop()));
        assert!(s.offer("c", 0, 0, GradeClass::Light, 0, |_| {}).admitted());
        assert!(s.offer("c", 1, 1, GradeClass::Light, 0, |_| {}).admitted());
        let Admission::Shed { retry_after_s } = s.offer("c", 2, 2, GradeClass::Light, 0, |_| {})
        else {
            panic!("budget exhausted must shed across shards too");
        };
        assert!(retry_after_s.is_finite() && retry_after_s > 0.0);
    }

    #[test]
    fn snapshot_lists_nonempty_courses() {
        let s = sched(SchedConfig::default());
        offer_light(&s, "b", 0);
        offer_light(&s, "a", 1);
        offer_light(&s, "a", 2);
        let snap = s.snapshot();
        assert_eq!(snap.total_backlog, 3);
        assert_eq!(snap.courses.len(), 2);
        assert_eq!(snap.courses[0].course, "a");
        assert_eq!(snap.courses[0].backlog, 2);
        assert_eq!(s.max_course_backlog(), 2);
        drain(&s, 10, 0);
        assert!(s.snapshot().courses.is_empty());
    }
}
