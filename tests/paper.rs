//! The paper's tables and figures as tests (see DESIGN.md's experiment
//! index and EXPERIMENTS.md).
//!
//! Each test prints its table and then `assert!`s the deterministic
//! invariant the artifact stands on. To see the tables:
//! `cargo test -p webgpu --test paper -- --nocapture --test-threads 1`.
//! Nothing here times anything: `wb-ledger` is the repo's one timing
//! instrument.
//!
//! | Test | Paper artifact |
//! |---|---|
//! | `table1` | Table I — registrations/completions/certificates |
//! | `figure1` | Figure 1 — active students per hour |
//! | `table2` | Table II — labs × courses matrix |
//! | `arch_v1` | Fig. 2 — v1 push architecture characterization |
//! | `arch_v2` | Fig. 6 — v1 vs v2 under heterogeneous tagged jobs |
//! | `container_overhead` | Fig. 7 / ref. 18 — container pool overhead |
//! | `provisioning` | §II-C — static vs reactive vs scheduled vs spot-aware fleets |
//! | `peer_review` | §IV-D — review starvation vs dropout |
//! | `faults` | §III — fault injection and recovery |
//!
//! [`semester`] replays Figure 1 at a multiple of the 2012 load through
//! the full stack; `semester_replay` holds its contracts.

#[path = "paper/semester.rs"]
mod semester;
#[path = "paper/semester_replay.rs"]
mod semester_replay;

use minicuda::DeviceConfig;
use wb_labs::{catalog, LabScale};
use wb_sandbox::{ContainerPool, Image};
use wb_server::{peer, JobDispatcher, ServerState};
use wb_worker::{execute, JobAction, JobRequest, RunCtx};
use webgpu::autoscaler::{Autoscaler, FleetMetrics};
use webgpu::cost::{CostMeter, CostModel, CostReport};
use webgpu::sim::population::{load_stats, simulate_cohort, CohortParams, LoadModel};
use webgpu::{AutoscalePolicy, ClusterBuilder, Zone};

/// Build a grading job for a catalog lab's reference solution.
fn reference_job(lab_id: &str, job_id: u64, scale: LabScale, action: JobAction) -> JobRequest {
    let lab = wb_labs::definition(lab_id, scale).expect("catalog lab");
    JobRequest {
        job_id,
        user: "bench".into(),
        source: wb_labs::solution(lab_id)
            .expect("catalog solution")
            .to_string(),
        spec: lab.spec,
        datasets: lab.datasets,
        action,
    }
}

/// A fixed-width ASCII sparkline for terminal figures.
fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    let bucket = values.len().div_ceil(width);
    values
        .chunks(bucket)
        .map(|c| {
            let v = c.iter().cloned().fold(0.0f64, f64::max);
            let idx = ((v / max) * (GLYPHS.len() as f64 - 1.0)).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

/// Experiment T1 — regenerate Table I: registered users, completions,
/// completion rates, and certificates for the three Coursera
/// offerings, from the cohort survival model.
// The 2014 completion rate happens to be 3.14% — the paper's number,
// not an approximation of π.
#[test]
#[allow(clippy::approx_constant)]
fn table1() {
    struct PaperRow {
        year: u32,
        registered: u32,
        completions: u32,
        rate_pct: f64,
        certificates: Option<u32>,
    }

    let paper = [
        PaperRow {
            year: 2013,
            registered: 36_896,
            completions: 2_729,
            rate_pct: 7.40,
            certificates: None,
        },
        PaperRow {
            year: 2014,
            registered: 33_818,
            completions: 1_061,
            rate_pct: 3.14,
            certificates: Some(286),
        },
        PaperRow {
            year: 2015,
            registered: 35_940,
            completions: 1_141,
            rate_pct: 3.15,
            certificates: Some(442),
        },
    ];
    let params = [
        CohortParams::year_2013(),
        CohortParams::year_2014(),
        CohortParams::year_2015(),
    ];

    println!("Table I — registered users, completion rates, certificates");
    println!("(paper value / simulated value)\n");
    println!(
        "{:<6} {:>19} {:>17} {:>17} {:>15}",
        "Year", "Registered", "Completions", "Rate", "Certificates"
    );
    let mut sim_rates = Vec::new();
    for (row, p) in paper.iter().zip(&params) {
        let s = simulate_cohort(p, row.year as u64);
        sim_rates.push(100.0 * s.completion_rate());
        println!(
            "{:<6} {:>9} / {:>7} {:>7} / {:>7} {:>7.2}% / {:>5.2}% {:>6} / {:>6}",
            row.year,
            row.registered,
            s.registered,
            row.completions,
            s.completions,
            row.rate_pct,
            100.0 * s.completion_rate(),
            row.certificates
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            if s.certificates == 0 {
                "-".to_string()
            } else {
                s.certificates.to_string()
            },
        );
    }
    println!("\nWeekly survivors (2015 cohort):");
    let s = simulate_cohort(&CohortParams::year_2015(), 2015);
    for (w, n) in s.weekly_active.iter().enumerate() {
        println!("  week {:>2}: {:>6}", w + 1, n);
    }
    println!(
        "\nShape check: completion ≈ start_fraction × continue^(weeks-1); \
the 2014 policy change (certificates, harder pace) halves the rate, \
matching the 7.4% → 3.1% drop."
    );

    // The cohort model is seeded per year, so the table and this shape
    // check are deterministic: the 2014 policy change must cut the
    // completion rate to well under 70% of the 2013 rate.
    let ratio = sim_rates[1] / sim_rates[0];
    assert!(
        ratio <= 0.7,
        "2014/2013 completion-rate ratio {ratio:.2} must be at most 0.7"
    );
}

/// Experiment F1 — regenerate Figure 1: the number of active students
/// per hour from February 8th to April 15th 2015, with the weekly
/// Wednesday spikes before the Thursday lab deadlines.
#[test]
fn figure1() {
    const DOW: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];

    let model = LoadModel::default();
    let series = model.hourly_series(2015);
    let stats = load_stats(&model, &series);

    println!("Figure 1 — active students per hour, Feb 8 – Apr 15 2015\n");
    let daily: Vec<f64> = stats.daily_peaks.iter().map(|&v| v as f64).collect();
    println!("daily peak active students ({} days):", daily.len());
    println!("  {}", sparkline(&daily, 67));
    println!("  day 0 = Sunday Feb 8; ticks at weekly Wednesday spikes\n");

    let (peak, peak_hour) = stats.peak;
    let peak_day = peak_hour / 24;
    println!(
        "peak:   {:>4} active students on day {:>2} ({}), hour {:02}:00  [paper: 112 on Feb 18, a Wednesday]",
        peak,
        peak_day,
        DOW[model.dow(peak_hour)],
        peak_hour % 24
    );
    let (min_peak, min_day) = stats.min_daily_peak;
    println!(
        "trough: {:>4} peak active students on day {:>2} ({})        [paper: 8 on Apr 9]",
        min_peak,
        min_day,
        DOW[model.dow(min_day * 24)]
    );

    println!("\nweekly spike day-of-week histogram:");
    for (d, count) in stats.spike_dow_histogram.iter().enumerate() {
        println!("  {} {:>2} {}", DOW[d], count, "#".repeat(*count as usize));
    }
    println!(
        "\n(paper: \"A spike occurs every Wednesday as students rush to\ncomplete the lab\"; Thursday was the deadline)"
    );

    // The §II-B in-text statistic rides along with the load model.
    let mut rng = libwb::rng::SplitMix64::new(2015);
    let logins = 50_000;
    let mobile = (0..logins)
        .filter(|_| {
            !matches!(
                webgpu::sim::population::sample_device(&mut rng),
                wb_server::DeviceKind::Desktop
            )
        })
        .count();
    println!(
        "\nS1 — device mix: {:.2}% of {} simulated logins from tablets/phones [paper: ~2%]",
        100.0 * mobile as f64 / logins as f64,
        logins
    );

    // Wednesday is day-of-week 3; the spike histogram's mode landing
    // there is the figure's defining feature, and it is deterministic
    // under the fixed seed.
    let spike_mode = stats
        .spike_dow_histogram
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map_or(0, |(d, _)| d);
    assert_eq!(spike_mode, 3, "weekly spikes must land on Wednesday");
}

/// Experiment T2 — regenerate Table II: the labs × courses matrix.
/// Every `x` cell is *earned*: the lab's reference solution is
/// compiled, executed, and graded on a worker configured for that
/// course before the cell is printed.
/// The test fails unless every offered cell grades to 100%.
#[test]
fn table2() {
    let courses = catalog::courses();
    println!("Table II — WebGPU-hosted labs and the courses they are used for");
    println!("(each x = reference solution graded to 100% on a simulated worker)\n");
    println!(
        "{:<28} {:<52} {:>4} {:>4} {:>4} {:>6}",
        "Lab", "Description", "HPP", "408", "598", "PUMPS"
    );

    let device = DeviceConfig::test_small();
    let mut job_id = 0;
    let mut failed = 0u64;
    for entry in catalog::table() {
        let mut cells = Vec::new();
        for course in &courses {
            if !entry.courses[course.column] {
                cells.push(" ".to_string());
                continue;
            }
            job_id += 1;
            let req = reference_job(entry.id, job_id, LabScale::Small, JobAction::FullGrade);
            let out = execute(&req, &RunCtx::new(&device));
            let ok = out.compiled() && out.passed_count() == out.datasets.len();
            if !ok {
                failed += 1;
            }
            cells.push(if ok {
                "x".to_string()
            } else {
                "FAIL".to_string()
            });
        }
        println!(
            "{:<28} {:<52} {:>4} {:>4} {:>4} {:>6}",
            entry.name, entry.teaches, cells[0], cells[1], cells[2], cells[3]
        );
    }

    println!("\ncourse offerings:");
    for c in courses {
        println!(
            "  {:<7} {} — {} labs, {} weeks{}",
            c.id,
            c.name,
            catalog::labs_for_course(c.id).len(),
            c.weeks,
            if c.peer_review { ", peer review" } else { "" }
        );
    }

    assert_eq!(failed, 0, "every offered cell must grade to 100%");
}

/// Experiment F2 — characterize the v1 push architecture (Fig. 2):
/// load spread as the pool grows, and the health-check eviction path
/// under a crash. The fault-path counts are deterministic and asserted
/// exactly.
#[test]
fn arch_v1() {
    println!("v1 architecture (web server pushes jobs to a worker pool)\n");

    // Load spread: the same 60-job batch over growing pools.
    println!("{:>8} {:>10} {:>16}", "workers", "jobs", "jobs/worker max");
    for workers in [1usize, 2, 4, 8] {
        let cluster = ClusterBuilder::new(DeviceConfig::default())
            .fleet(workers)
            .build_v1();
        let jobs = 60;
        for j in 0..jobs {
            let req = reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0));
            cluster.dispatch(req, 0).expect("job runs");
        }
        let max_share = (0..workers)
            .map(|i| cluster.worker(i).unwrap().jobs_done())
            .max()
            .unwrap();
        println!("{workers:>8} {jobs:>10} {max_share:>16}");
    }
    println!("(round-robin keeps the per-worker share flat as the pool grows)\n");

    // Fault path: crash one of four workers mid-batch.
    let cluster = ClusterBuilder::new(DeviceConfig::default())
        .fleet(4)
        .build_v1();
    let mut completed = 0;
    for j in 0..20 {
        if j == 10 {
            cluster.worker(2).unwrap().crash();
        }
        if cluster
            .dispatch(
                reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0)),
                0,
            )
            .is_ok()
        {
            completed += 1;
        }
    }
    cluster.health_sweep(0);
    let evicted = cluster.health_sweep(webgpu::v1::HEALTH_TIMEOUT_MS + 1);
    println!("fault injection: crashed worker 3 of 4 after job 10");
    println!(
        "  jobs completed: {completed}/20 (dispatch retries absorbed the crash: {} failures logged)",
        cluster.dispatch_failures()
    );
    println!(
        "  health sweep evicted {:?}; pool now {} workers",
        evicted,
        cluster.pool_size()
    );

    assert_eq!(completed, 20, "dispatch retries must absorb the crash");
    assert_eq!(
        evicted.len(),
        1,
        "the sweep evicts exactly the crashed node"
    );
    assert_eq!(cluster.pool_size(), 3);
}

/// Experiment F6 — v1 push vs v2 pull (Fig. 6) under a heterogeneous
/// job mix: mostly cheap CUDA labs plus tagged MPI jobs only some
/// workers can run.
///
/// The paper's motivation for the rewrite: *"we do not need to
/// provision our worker nodes to have the resources for the highest
/// common multiple of the system requirements of the labs."* The
/// experiment shows (a) a tag-blind push fleet on the thin image fails
/// every MPI run outright, while (b) v2's pull queue holds tagged jobs
/// — failing nothing — until the config service upgrades the fleet,
/// at which point the drivers restart into the fat image and drain the
/// backlog. The fat image is paid for only while MPI demand exists,
/// not all semester on every node.
///
/// Every count is deterministic (an MPI job on a CUDA-only image
/// always fails, tag routing always holds it back) and asserted
/// exactly.
#[test]
fn arch_v2() {
    let total_jobs = 40u64;
    let mpi_every = 8; // every 8th job is the tagged MPI lab
    let mpi_jobs = total_jobs / mpi_every;

    // ---- v1: push, tag-blind -------------------------------------------
    // In v1 the server pushes to any worker. Give the pool thin
    // CUDA-only images: an MPI job landing on one fails ("toolchain
    // not installed") — exactly why v1 had to provision every node for
    // the most demanding lab.
    let v1 = ClusterBuilder::new(DeviceConfig::default())
        .fleet(4)
        .worker_config(wb_worker::WorkerConfig::default()) // webgpu/cuda image
        .build_v1();
    let mut v1_failed = 0;
    for j in 0..total_jobs {
        let req = if j % mpi_every == 0 {
            reference_job("mpi-stencil", j, LabScale::Small, JobAction::RunDataset(0))
        } else {
            reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0))
        };
        let out = v1.dispatch(req, 0).expect("pool alive");
        if !out.compiled() || !out.datasets.iter().all(|d| d.passed()) {
            v1_failed += 1;
        }
    }

    // ---- v2: pull with capability tags ---------------------------------
    // Phase 1: the whole fleet runs the thin CUDA image. Tagged MPI
    // jobs are not routed to anyone — they wait in the mirrored queue
    // instead of failing on an incapable node.
    let v2 = ClusterBuilder::new(DeviceConfig::default())
        .fleet(4)
        .policy(AutoscalePolicy::Static(4))
        .build_v2();
    for j in 0..total_jobs {
        let req = if j % mpi_every == 0 {
            reference_job("mpi-stencil", j, LabScale::Small, JobAction::RunDataset(0))
        } else {
            reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0))
        };
        v2.enqueue(req, j);
    }
    let mut rounds = 0u64;
    while v2.completed() < total_jobs - mpi_jobs && rounds < 10_000 {
        v2.pump(total_jobs + rounds);
        rounds += 1;
    }
    let completed_thin = v2.completed();
    let waiting_thin = v2.queue_depth((total_jobs + rounds) * 10);

    // Phase 2: MPI demand is real, so push the fat image through the
    // config service. Every worker restarts into it on its next pump
    // and the tagged backlog drains.
    v2.config.update(|c| {
        c.capabilities.insert("mpi".into());
        c.capabilities.insert("multi-gpu".into());
        c.image = "webgpu/full".to_string();
    });
    while v2.completed() < total_jobs && rounds < 10_000 {
        v2.pump(total_jobs + rounds);
        rounds += 1;
    }
    let restarts: u64 = (0..4).map(|i| v2.worker(i).unwrap().restarts()).sum();

    let mut v2_failed = 0;
    for j in 0..total_jobs {
        if let Some(out) = v2.take_result(j) {
            if !out.compiled() || !out.datasets.iter().all(|d| d.passed()) {
                v2_failed += 1;
            }
        }
    }

    println!("heterogeneous mix: {total_jobs} jobs, every {mpi_every}th is the tagged MPI lab\n");
    println!("{:<36} {:>10} {:>10}", "", "v1 push", "v2 pull");
    println!(
        "{:<36} {:>10} {:>10}",
        "failed student runs", v1_failed, v2_failed
    );
    println!(
        "{:<36} {:>10} {:>10}",
        "fat image provisioned", "all semester", "on demand"
    );
    println!(
        "\nthin-image phase: {completed_thin}/{total_jobs} CUDA jobs done, {waiting_thin} tagged MPI\n\
jobs waiting (0 failed); config push restarted {restarts} drivers into the\n\
fat image and the backlog drained."
    );
    println!(
        "\nv1 must equip *every* node for the most demanding lab all semester\n\
(or fail {v1_failed} runs, as above); v2's tag routing holds tagged work in\n\
the queue until the fleet is upgraded, finishing the same mix with\n\
{v2_failed} failures — the §VI-A cost argument."
    );

    assert_eq!(v1_failed, mpi_jobs, "tag-blind v1 fails every MPI job");
    assert_eq!(
        waiting_thin as u64, mpi_jobs,
        "the thin fleet holds every tagged job in the queue"
    );
    assert_eq!(v2_failed, 0);
    assert_eq!(v2.completed(), total_jobs);
}

/// Experiment F7 — container-pool overhead (Fig. 7 internals).
///
/// The paper cites Špaček et al. (ref. 18): Docker adds no measurable
/// overhead to GPU code, *provided a container is ready*. The real
/// cost is the boot; the pool hides it. This test measures the
/// per-job container wait under three worker setups. Waits are virtual
/// milliseconds, so every number is deterministic and the
/// pooled-beats-cold ordering is asserted.
#[test]
fn container_overhead() {
    let jobs = 50;

    println!("container acquisition wait per job (virtual ms)\n");
    println!(
        "{:<28} {:>10} {:>12} {:>12}",
        "setup", "jobs", "total wait", "mean wait"
    );

    // Warm pool (production): replenished in the background.
    let pool = ContainerPool::new(Image::cuda(), 4);
    let mut total = 0;
    for _ in 0..jobs {
        let (c, wait) = pool.checkout();
        total += wait;
        pool.destroy(c);
    }
    println!(
        "{:<28} {:>10} {:>12} {:>12.1}",
        "pooled (target 4)",
        jobs,
        total,
        total as f64 / jobs as f64
    );
    let s = pool.stats();
    println!(
        "{:<28} warm hits {} / cold boots {} / boot-ms paid in background: {}",
        "", s.warm_hits, s.cold_boots, s.boot_ms_total
    );
    let pooled_mean = total as f64 / jobs as f64;

    // Cold start per job (the ablation baseline).
    let cold = ContainerPool::cold_start_only(Image::cuda());
    let mut total = 0;
    for _ in 0..jobs {
        let (c, wait) = cold.checkout();
        total += wait;
        cold.destroy(c);
    }
    println!(
        "{:<28} {:>10} {:>12} {:>12.1}",
        "cold start per job",
        jobs,
        total,
        total as f64 / jobs as f64
    );
    let cold_mean = total as f64 / jobs as f64;

    // Cold starts of the fat image are even worse.
    let fat = ContainerPool::cold_start_only(Image::full());
    let (c, wait) = fat.checkout();
    fat.destroy(c);
    println!(
        "{:<28} {:>10} {:>12} {:>12.1}",
        "cold start, full image", 1, wait, wait as f64
    );

    // And the execution itself is identical either way — the [18]
    // claim — because the container is pure setup in this model: run
    // the same job twice and compare device cycles.
    let req = reference_job("vecadd", 1, LabScale::Small, JobAction::RunDataset(0));
    let device = DeviceConfig::test_small();
    let a = execute(&req, &RunCtx::new(&device));
    let waited = RunCtx {
        container_wait_ms: 900,
        ..RunCtx::new(&device)
    };
    let b = execute(&req, &waited);
    println!(
        "\nGPU work is container-independent: {} vs {} device cycles (identical)",
        a.datasets[0].elapsed_cycles, b.datasets[0].elapsed_cycles
    );
    assert_eq!(a.datasets[0].elapsed_cycles, b.datasets[0].elapsed_cycles);
    assert!(
        pooled_mean <= 0.5 * cold_mean.max(1.0),
        "the pool must hide at least half the cold-start wait"
    );
}

/// Experiment S3 — provisioning cost over the full course (§II-C):
/// a statically peak-sized fleet vs reactive vs deadline-aware
/// scheduled scaling, replayed over the Figure-1 load trace, plus a
/// spot-aware vs all-on-demand pair over a 120-hour deadline-rush
/// segment. Every replay is deterministic arithmetic, so the cost
/// claims (demand-following beats peak provisioning; spot capacity
/// beats on-demand at equal backlog) are asserted.
#[test]
fn provisioning() {
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
            let capacity = (fleet.total() - preempted) as f64 * per_worker
                + preempted as f64 * per_worker / 2.0;
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

/// Experiment S2 — peer-review starvation (§IV-D): with 3 random
/// reviews per student, what fraction of still-active students receive
/// at least one completed review as the course's dropout deepens?
///
/// The paper: assignments were random; heavy early dropout meant many
/// active students "were offering reviews without receiving them",
/// the weight was cut from 10% to 5%, and the feature was removed.
/// The assignment is seeded, so the starvation curve is deterministic.
#[test]
fn peer_review() {
    let cohort: Vec<String> = (0..300).map(|i| format!("s{i}")).collect();
    let k = 3;

    println!(
        "peer review starvation: {} students, {k} reviews each, only active\nstudents complete their assigned reviews\n",
        cohort.len()
    );
    println!(
        "{:>14} {:>24} {:>26}",
        "active (%)", "active reviewed (%)", "reviews received by active"
    );

    let mut coverage_by_pct = Vec::new();
    for active_pct in [100usize, 50, 25, 10, 5, 3] {
        let st = ServerState::new();
        peer::assign_reviews(&st, "mp", &cohort, k, 1234);
        let n_active = (cohort.len() * active_pct).div_ceil(100);
        let active: Vec<String> = cohort[..n_active].to_vec();
        for s in &active {
            let ids = st
                .peer_reviews
                .find("by_reviewer_lab", &format!("{s}/mp"))
                .unwrap();
            for id in ids {
                let r = st.peer_reviews.get(id).unwrap();
                peer::complete_review(&st, "mp", s, &r.reviewee, "completed");
            }
        }
        let covered = peer::received_review_fraction(&st, "mp", &active);
        // Mean completed reviews received per active student.
        let mut total = 0usize;
        for s in &active {
            total += st
                .peer_reviews
                .find("by_reviewee_lab", &format!("{s}/mp"))
                .unwrap()
                .iter()
                .filter(|&&id| st.peer_reviews.get(id).unwrap().review.is_some())
                .count();
        }
        println!(
            "{:>14} {:>24.1} {:>26.2}",
            active_pct,
            100.0 * covered,
            total as f64 / active.len() as f64
        );
        coverage_by_pct.push(100.0 * covered);
    }

    println!(
        "\nAt MOOC dropout levels (≈3% complete, Table I) an active student's\n\
expected completed-reviews-received falls toward {k} × active%, so most\n\
reviewers get nothing back — the observed inequity that forced the\n\
10% → 5% → removed progression of the feature."
    );

    // The starvation claim: coverage at MOOC dropout levels (3% active)
    // must sit far below the full-participation coverage.
    let full = coverage_by_pct[0];
    let starved = coverage_by_pct[coverage_by_pct.len() - 1];
    assert!(
        starved <= full / 2.0,
        "coverage at 3% active ({starved:.1}%) must be under half of full participation ({full:.1}%)"
    );
}

/// Experiment S4 — fault injection across both architectures: kill
/// workers and cut a broker zone mid-load and account for every job.
///
/// Both architectures are driven through the control plane's fleet
/// surface (`kill_worker`, `partition_zone`, …) — the same API the
/// chaos harness and the autoscaler use — rather than poking worker
/// handles directly. Every count below is
/// deterministic, so the exactly-once accounting is asserted.
#[test]
fn faults() {
    println!("fault injection: 30 jobs, kill 2 of 4 workers after job 10\n");

    // ---- v1 ----
    let v1 = ClusterBuilder::new(DeviceConfig::default())
        .fleet(4)
        .build_v1();
    let v1_ids: Vec<u64> = v1.describe_fleet().workers.iter().map(|w| w.id).collect();
    let mut ok = 0;
    for j in 0..30 {
        if j == 10 {
            assert!(v1.kill_worker(v1_ids[0]));
            assert!(v1.kill_worker(v1_ids[1]));
        }
        if v1
            .dispatch(
                reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0)),
                0,
            )
            .is_ok()
        {
            ok += 1;
        }
    }
    v1.health_sweep(0);
    let evicted = v1.health_sweep(webgpu::v1::HEALTH_TIMEOUT_MS + 1);
    println!(
        "v1 push: {ok}/30 jobs completed, {} dispatch retries, evicted {:?}, pool now {}",
        v1.dispatch_failures(),
        evicted,
        v1.pool_size()
    );

    // ---- v2 ----
    // Short visibility timeout: a killed pull-worker takes any job in
    // hand dark until the broker reclaims it, so the redelivery clock
    // has to fit inside the pump budget.
    let v2 = ClusterBuilder::new(DeviceConfig::default())
        .fleet(4)
        .policy(AutoscalePolicy::Static(4))
        .broker_tuning(200, 10)
        .build_v2();
    let v2_ids: Vec<u64> = v2.describe_fleet().workers.iter().map(|w| w.id).collect();
    for j in 0..30 {
        v2.enqueue(
            reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0)),
            j,
        );
    }
    let mut rounds = 0u64;
    let mut killed = false;
    let mut zone_cut = false;
    let mut zone_healed = false;
    while v2.completed() < 30 && rounds < 10_000 {
        if v2.completed() >= 10 && !killed {
            // One victim per zone (ids alternate primary/standby).
            assert!(v2.kill_worker(v2_ids[0]));
            assert!(v2.kill_worker(v2_ids[1]));
            killed = true;
        }
        if v2.completed() >= 20 && !zone_cut {
            // Cutting the active zone forces a broker failover; the
            // cut zone's surviving worker sits out until the heal.
            assert!(v2.partition_zone(Zone::Primary));
            zone_cut = true;
        }
        if v2.completed() >= 25 && zone_cut && !zone_healed {
            assert!(v2.heal_zone(Zone::Primary));
            zone_healed = true;
        }
        v2.pump(100 + rounds);
        rounds += 1;
    }
    if zone_cut && !zone_healed {
        // The partition outlived the load; heal for a clean exit.
        v2.heal_zone(Zone::Primary);
    }
    println!(
        "v2 pull: {}/30 jobs completed through 2 worker kills AND a zone\n         partition + heal, in {rounds} pump rounds",
        v2.completed()
    );
    println!("\nNo job was lost in either architecture; v2 additionally needed no\ndispatcher retries — stranded deliveries were reclaimed by the broker's\nvisibility timeout and re-polled from the surviving zone.");

    assert_eq!(ok, 30, "v1 lost a job");
    assert_eq!(evicted.len(), 2, "the sweep evicts exactly the killed pair");
    assert_eq!(v2.completed(), 30, "v2 lost a job");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_job_builds() {
        let j = reference_job("vecadd", 7, LabScale::Small, JobAction::FullGrade);
        assert_eq!(j.job_id, 7);
        assert!(!j.datasets.is_empty());
    }

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0.0, 0.5, 1.0], 3);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[], 10), "");
    }
}
