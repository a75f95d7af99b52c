//! Experiment S3 — provisioning cost over the full course (§II-C):
//! a statically peak-sized fleet vs reactive vs deadline-aware
//! scheduled scaling, replayed over the Figure-1 load trace, plus a
//! spot-aware vs all-on-demand pair over a 120-hour deadline-rush
//! segment. Every replay is deterministic arithmetic, so the cost
//! claims (demand-following beats peak provisioning; spot capacity
//! beats on-demand at equal backlog) are asserted.

use webgpu::autoscaler::{AutoscalePolicy, Autoscaler, FleetMetrics};
use webgpu::cost::{CostMeter, CostModel, CostReport};
use webgpu::sim::population::LoadModel;

/// Jobs one worker absorbs per hour on the Figure-1 trace.
const JOBS_PER_WORKER_HOUR: usize = 12;
/// Jobs one worker absorbs per hour on the rush segment.
const RUSH_JOBS_PER_WORKER_HOUR: usize = 40;
/// One in this many spot workers is preempted each hour.
const SPOT_PREEMPT_EVERY: usize = 8;
/// Jobs requeued when a spot worker vanishes mid-hour.
const REWORK_PER_PREEMPT: f64 = 10.0;

/// Replay hourly `arrivals` under `policy`; returns the bill and the
/// mean end-of-hour backlog. Spot preemptions cost capacity (the
/// worker does half an hour of work before vanishing) plus requeued
/// rework; policies that buy no spot are unaffected.
fn replay(
    policy: AutoscalePolicy,
    arrivals: &[f64],
    jobs_per_worker_hour: usize,
) -> (CostReport, f64) {
    let per_worker = jobs_per_worker_hour as f64;
    let mut scaler = Autoscaler::new(policy, 1);
    let mut meter = CostMeter::new(CostModel::default());
    let mut backlog = 0f64;
    let mut backlog_hours = 0f64;
    for (h, &arriving) in arrivals.iter().enumerate() {
        backlog += arriving;
        let fleet = scaler.desired_mix(&FleetMetrics {
            queue_depth: backlog.ceil() as usize,
            sched_backlog: 0,
            max_course_backlog: 0,
            fleet_size: 0,
            now_ms: h as u64 * 3_600_000,
        });
        let preempted = fleet.spot / SPOT_PREEMPT_EVERY;
        backlog += preempted as f64 * REWORK_PER_PREEMPT;
        let capacity =
            (fleet.total() - preempted) as f64 * per_worker + preempted as f64 * per_worker / 2.0;
        let served = backlog.min(capacity);
        backlog -= served;
        backlog_hours += backlog;
        let busy = if capacity == 0.0 {
            0.0
        } else {
            served / capacity
        };
        meter.record_hour_mixed(fleet.on_demand, fleet.spot, busy);
    }
    (meter.finish(), backlog_hours / arrivals.len() as f64)
}

fn print_row(label: &str, report: &CostReport, mean_backlog: f64, note: &str) {
    println!(
        "{:<26} {:>10.0} {:>10} {:>12.2} {:>12.1} {:>14.1}{note}",
        label,
        report.gpu_hours,
        report.peak_fleet,
        report.dollars,
        100.0 * report.utilization(),
        mean_backlog,
    );
}

fn main() {
    let model = LoadModel::default();
    // Each active student submits about one job per hour.
    let series: Vec<f64> = model
        .hourly_series(2015)
        .into_iter()
        .map(f64::from)
        .collect();
    // The course's Thursday deadlines (day 4 of each week, end of day).
    let deadlines: Vec<u64> = (0..model.days / 7)
        .map(|w| ((w * 7 + 5) * 24) as u64 * 3_600_000)
        .collect();

    // Peak sizing for the static fleet: enough for the biggest hour.
    let peak = series.iter().cloned().fold(0.0, f64::max) as usize;
    let static_fleet = peak.div_ceil(JOBS_PER_WORKER_HOUR);

    println!(
        "provisioning the 67-day course (load trace from Figure 1, {} jobs/worker/hour)\n",
        JOBS_PER_WORKER_HOUR
    );
    println!(
        "{:<26} {:>10} {:>10} {:>12} {:>12} {:>14}",
        "policy", "gpu-hours", "peak", "cost ($)", "util (%)", "mean backlog"
    );

    let (static_report, static_backlog) = replay(
        AutoscalePolicy::Static(static_fleet),
        &series,
        JOBS_PER_WORKER_HOUR,
    );
    print_row(
        &format!("static (peak = {static_fleet})"),
        &static_report,
        static_backlog,
        "",
    );
    let mut reactive_cost = f64::INFINITY;
    for (label, policy) in [
        (
            "reactive",
            AutoscalePolicy::Reactive {
                jobs_per_worker: JOBS_PER_WORKER_HOUR,
                min: 1,
                max: static_fleet,
            },
        ),
        (
            "scheduled (pre-deadline)",
            AutoscalePolicy::Scheduled {
                jobs_per_worker: JOBS_PER_WORKER_HOUR,
                min: 1,
                max: static_fleet,
                deadlines_ms: deadlines,
                window_ms: 36 * 3_600_000,
                floor: static_fleet / 2,
            },
        ),
    ] {
        let (report, mean_backlog) = replay(policy, &series, JOBS_PER_WORKER_HOUR);
        if label == "reactive" {
            reactive_cost = report.dollars;
        }
        let note = format!(" ({:.1}x cheaper)", static_report.dollars / report.dollars);
        print_row(label, &report, mean_backlog, &note);
    }

    // A 120-hour segment with the deadline rush at hours 72–96,
    // all-on-demand vs spot-aware. The spot fleet targets ~14% more
    // capacity (35 vs 40 jobs per worker) as preemption headroom —
    // matching the on-demand backlog with extra *cheap* workers is
    // exactly the spot trade.
    let rush: Vec<f64> = (0..120u64)
        .map(|h| {
            if (72..96).contains(&h) {
                400.0
            } else if (8..=22).contains(&(h % 24)) {
                60.0
            } else {
                40.0
            }
        })
        .collect();
    let (on_demand, on_demand_backlog) = replay(
        AutoscalePolicy::Reactive {
            jobs_per_worker: 40,
            min: 2,
            max: 20,
        },
        &rush,
        RUSH_JOBS_PER_WORKER_HOUR,
    );
    print_row("rush 120 h: on-demand", &on_demand, on_demand_backlog, "");
    let (spot, spot_backlog) = replay(
        AutoscalePolicy::SpotAware {
            jobs_per_worker: 35,
            on_demand_floor: 2,
            max: 20,
        },
        &rush,
        RUSH_JOBS_PER_WORKER_HOUR,
    );
    let note = format!(
        " ({:.1}% cheaper, {:.0}% spot hours)",
        (on_demand.dollars - spot.dollars) / on_demand.dollars * 100.0,
        spot.spot_gpu_hours / spot.gpu_hours * 100.0
    );
    print_row("rush 120 h: spot-aware", &spot, spot_backlog, &note);

    println!(
        "\nShape check (§II-C): the statically peak-provisioned fleet is \
mostly idle\nonce participation collapses; demand-following policies cut \
GPU spend several-fold\nwhile the scheduled floor keeps deadline-eve \
backlogs short — the automated version\nof \"we increased the number of \
GPUs available the day before the deadline\"."
    );

    assert!(
        static_report.dollars / reactive_cost >= 2.0,
        "reactive scaling must at least halve the static fleet's bill"
    );
    assert!(
        spot.dollars < on_demand.dollars && spot_backlog <= on_demand_backlog,
        "spot-aware capacity must undercut all-on-demand at no extra backlog"
    );
}
