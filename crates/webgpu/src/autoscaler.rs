//! Autoscaling policies.
//!
//! §II-C: *"a statically-provisioned computing resource large enough
//! for the beginning of the course will be mostly idle by the end"*;
//! §III: *"We increased the number of GPUs available to WebGPU the day
//! before the deadline."* Three policies capture the design space:
//!
//! * [`AutoscalePolicy::Static`] — the over-provisioned baseline;
//! * [`AutoscalePolicy::Reactive`] — scale to the queue;
//! * [`AutoscalePolicy::Scheduled`] — the paper's manual pre-deadline
//!   bump, automated: reactive plus a floor in a window before each
//!   deadline;
//! * [`AutoscalePolicy::SpotAware`] — reactive, but backlog above an
//!   on-demand floor is absorbed by cheap preemptible capacity
//!   ([`crate::fleet::ReliabilityClass::Spot`]): the floor is held
//!   on-demand so a mass preemption can never take the fleet to zero,
//!   and everything above it rides the spot market.

/// Instantaneous fleet observations the policy decides from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Jobs visible in the broker queue.
    pub queue_depth: usize,
    /// Jobs the fair-share scheduler holds across all courses, not yet
    /// released to the broker. A rush accumulates here first: the pump
    /// only releases fleet-sized batches, so broker depth alone stays
    /// flat while a course's backlog explodes.
    pub sched_backlog: usize,
    /// The largest single-course backlog in the scheduler — the
    /// early-warning signal of a one-course deadline rush.
    pub max_course_backlog: usize,
    /// Current fleet size.
    pub fleet_size: usize,
    /// Virtual now.
    pub now_ms: u64,
}

impl FleetMetrics {
    /// Everything waiting anywhere: broker depth plus scheduler
    /// backlog. The reactive policies scale to this, so a single-course
    /// rush held at the scheduler triggers growth before the broker's
    /// global depth ever moves.
    pub fn total_pending(&self) -> usize {
        self.queue_depth + self.sched_backlog
    }
}

/// A scaling policy.
#[derive(Debug, Clone, PartialEq)]
pub enum AutoscalePolicy {
    /// Fixed fleet.
    Static(usize),
    /// Keep roughly `jobs_per_worker` queued jobs per worker, within
    /// `[min, max]`.
    Reactive {
        /// Queue depth each worker is expected to absorb.
        jobs_per_worker: usize,
        /// Fleet floor.
        min: usize,
        /// Fleet ceiling.
        max: usize,
    },
    /// Reactive, plus a pre-deadline floor: within `window_ms` before
    /// any deadline in `deadlines_ms`, the fleet never drops below
    /// `floor`.
    Scheduled {
        /// Queue depth each worker is expected to absorb.
        jobs_per_worker: usize,
        /// Fleet floor outside deadline windows.
        min: usize,
        /// Fleet ceiling.
        max: usize,
        /// Deadline instants (virtual ms).
        deadlines_ms: Vec<u64>,
        /// How long before each deadline the floor applies.
        window_ms: u64,
        /// Fleet floor inside a deadline window.
        floor: usize,
    },
    /// Reactive with a class split: hold `on_demand_floor` workers
    /// on-demand, absorb everything above it with spot capacity.
    SpotAware {
        /// Queue depth each worker is expected to absorb.
        jobs_per_worker: usize,
        /// Workers always kept on full-price capacity (also the fleet
        /// floor).
        on_demand_floor: usize,
        /// Fleet ceiling across both classes.
        max: usize,
    },
}

/// A fleet-size decision split by reliability class — what
/// [`Autoscaler::desired_mix`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTarget {
    /// Full-price workers.
    pub on_demand: usize,
    /// Preemptible workers.
    pub spot: usize,
}

impl FleetTarget {
    /// A target with no spot component (every legacy policy).
    pub fn all_on_demand(n: usize) -> FleetTarget {
        FleetTarget {
            on_demand: n,
            spot: 0,
        }
    }

    /// Total fleet size across both classes.
    pub fn total(&self) -> usize {
        self.on_demand + self.spot
    }
}

/// Applies a policy with hysteresis: scale-out is immediate (students
/// are waiting), scale-in happens only after `cooldown` consecutive
/// low-load decisions (so a momentary lull doesn't thrash the fleet).
#[derive(Debug)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    current: usize,
    low_streak: u32,
    cooldown: u32,
}

impl Autoscaler {
    /// Build with the default cooldown of 3 decisions.
    pub fn new(policy: AutoscalePolicy, initial: usize) -> Self {
        Autoscaler {
            policy,
            current: initial,
            low_streak: 0,
            cooldown: 3,
        }
    }

    /// Desired fleet size for the observed metrics.
    pub fn desired(&mut self, m: &FleetMetrics) -> usize {
        let target = match &self.policy {
            AutoscalePolicy::Static(n) => *n,
            AutoscalePolicy::Reactive {
                jobs_per_worker,
                min,
                max,
            } => reactive_target(m.total_pending(), *jobs_per_worker, *min, *max),
            AutoscalePolicy::Scheduled {
                jobs_per_worker,
                min,
                max,
                deadlines_ms,
                window_ms,
                floor,
            } => {
                let base = reactive_target(m.total_pending(), *jobs_per_worker, *min, *max);
                let in_window = deadlines_ms
                    .iter()
                    .any(|&d| m.now_ms < d && d - m.now_ms <= *window_ms);
                if in_window {
                    base.max(*floor).min(*max)
                } else {
                    base
                }
            }
            AutoscalePolicy::SpotAware {
                jobs_per_worker,
                on_demand_floor,
                max,
            } => reactive_target(m.total_pending(), *jobs_per_worker, *on_demand_floor, *max),
        };
        if target > self.current {
            self.current = target;
            self.low_streak = 0;
        } else if target < self.current {
            self.low_streak += 1;
            if self.low_streak >= self.cooldown {
                self.current = target;
                self.low_streak = 0;
            }
        } else {
            self.low_streak = 0;
        }
        self.current
    }

    /// [`desired`](Self::desired), split by reliability class. Legacy
    /// policies come back all on-demand (byte-identical fleet
    /// behaviour); [`AutoscalePolicy::SpotAware`] holds its floor
    /// on-demand and fills the rest with spot. Hysteresis applies to
    /// the total, so the split can shift class without thrash.
    pub fn desired_mix(&mut self, m: &FleetMetrics) -> FleetTarget {
        let total = self.desired(m);
        match &self.policy {
            AutoscalePolicy::SpotAware {
                on_demand_floor, ..
            } => {
                let on_demand = (*on_demand_floor).min(total);
                FleetTarget {
                    on_demand,
                    spot: total - on_demand,
                }
            }
            _ => FleetTarget::all_on_demand(total),
        }
    }
}

fn reactive_target(depth: usize, jobs_per_worker: usize, min: usize, max: usize) -> usize {
    let jpw = jobs_per_worker.max(1);
    depth.div_ceil(jpw).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(depth: usize, now: u64) -> FleetMetrics {
        FleetMetrics {
            queue_depth: depth,
            sched_backlog: 0,
            max_course_backlog: 0,
            fleet_size: 0,
            now_ms: now,
        }
    }

    #[test]
    fn single_course_rush_in_the_scheduler_scales_out() {
        // The broker shows nothing — the rush is entirely held in one
        // course's scheduler backlog — and reactive growth still fires.
        let mut a = Autoscaler::new(
            AutoscalePolicy::Reactive {
                jobs_per_worker: 4,
                min: 1,
                max: 10,
            },
            1,
        );
        let m = FleetMetrics {
            queue_depth: 0,
            sched_backlog: 24,
            max_course_backlog: 24,
            fleet_size: 1,
            now_ms: 0,
        };
        assert_eq!(m.total_pending(), 24);
        assert_eq!(a.desired(&m), 6, "scheduler backlog drives scale-out");
    }

    #[test]
    fn static_policy_never_moves() {
        let mut a = Autoscaler::new(AutoscalePolicy::Static(5), 5);
        assert_eq!(a.desired(&metrics(1000, 0)), 5);
        assert_eq!(a.desired(&metrics(0, 1)), 5);
    }

    #[test]
    fn reactive_scales_out_immediately() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::Reactive {
                jobs_per_worker: 4,
                min: 1,
                max: 10,
            },
            1,
        );
        assert_eq!(a.desired(&metrics(20, 0)), 5);
        assert_eq!(a.desired(&metrics(100, 1)), 10, "capped at max");
    }

    #[test]
    fn reactive_scales_in_after_cooldown() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::Reactive {
                jobs_per_worker: 4,
                min: 1,
                max: 10,
            },
            8,
        );
        // Two quiet rounds: held by hysteresis.
        assert_eq!(a.desired(&metrics(0, 0)), 8);
        assert_eq!(a.desired(&metrics(0, 1)), 8);
        // Third quiet round: scale in.
        assert_eq!(a.desired(&metrics(0, 2)), 1);
    }

    #[test]
    fn burst_resets_the_cooldown() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::Reactive {
                jobs_per_worker: 1,
                min: 1,
                max: 10,
            },
            5,
        );
        a.desired(&metrics(0, 0));
        a.desired(&metrics(0, 1));
        assert_eq!(a.desired(&metrics(7, 2)), 7, "burst scales out");
        // The low streak starts over.
        a.desired(&metrics(0, 3));
        a.desired(&metrics(0, 4));
        assert_eq!(a.desired(&metrics(0, 5)), 1);
    }

    #[test]
    fn scheduled_floor_applies_only_in_window() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::Scheduled {
                jobs_per_worker: 4,
                min: 1,
                max: 20,
                deadlines_ms: vec![100_000],
                window_ms: 10_000,
                floor: 12,
            },
            1,
        );
        // Far from the deadline: reactive only.
        assert_eq!(a.desired(&metrics(0, 50_000)), 1);
        // Inside the window: the floor kicks in even with no queue.
        assert_eq!(a.desired(&metrics(0, 95_000)), 12);
        // After the deadline: back to reactive (with cooldown).
        a.desired(&metrics(0, 101_000));
        a.desired(&metrics(0, 102_000));
        assert_eq!(a.desired(&metrics(0, 103_000)), 1);
    }

    #[test]
    fn scheduled_floor_does_not_cap_reactive_growth() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::Scheduled {
                jobs_per_worker: 1,
                min: 1,
                max: 20,
                deadlines_ms: vec![100_000],
                window_ms: 10_000,
                floor: 5,
            },
            1,
        );
        assert_eq!(a.desired(&metrics(15, 95_000)), 15, "queue beats floor");
    }

    #[test]
    fn spot_aware_fills_bursts_with_spot_above_the_floor() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::SpotAware {
                jobs_per_worker: 2,
                on_demand_floor: 2,
                max: 10,
            },
            2,
        );
        let t = a.desired_mix(&metrics(12, 0));
        assert_eq!(
            t,
            FleetTarget {
                on_demand: 2,
                spot: 4
            }
        );
        assert_eq!(t.total(), 6);
        // A bigger burst caps at max, floor still on-demand.
        let t = a.desired_mix(&metrics(100, 1));
        assert_eq!(
            t,
            FleetTarget {
                on_demand: 2,
                spot: 8
            }
        );
    }

    #[test]
    fn spot_aware_holds_the_on_demand_floor_when_idle() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::SpotAware {
                jobs_per_worker: 2,
                on_demand_floor: 3,
                max: 10,
            },
            8,
        );
        // Cooldown: two quiet decisions hold, the third scales in —
        // to the floor, all on-demand.
        a.desired_mix(&metrics(0, 0));
        a.desired_mix(&metrics(0, 1));
        let t = a.desired_mix(&metrics(0, 2));
        assert_eq!(
            t,
            FleetTarget {
                on_demand: 3,
                spot: 0
            }
        );
    }

    #[test]
    fn legacy_policies_mix_to_all_on_demand() {
        let mut a = Autoscaler::new(
            AutoscalePolicy::Reactive {
                jobs_per_worker: 4,
                min: 1,
                max: 10,
            },
            1,
        );
        assert_eq!(
            a.desired_mix(&metrics(20, 0)),
            FleetTarget::all_on_demand(5)
        );
        let mut s = Autoscaler::new(AutoscalePolicy::Static(4), 4);
        assert_eq!(
            s.desired_mix(&metrics(999, 0)),
            FleetTarget::all_on_demand(4)
        );
    }
}
