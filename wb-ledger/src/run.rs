//! One run of one workload: set up, measure, check, report.

use crate::drive::{Books, Calls, Driver};
use crate::host;
use crate::json::Json;
use crate::metrics::{self, Metric};
use crate::replay;
use crate::workloads::{self, Size, Workload};
use crate::yardstick::{Yardstick, REFERENCE};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How much a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Whole units until this much wall time has passed — the untraced,
    /// end-to-end mode.
    Seconds(f64),
    /// This fraction of the workload's reference size, at least one unit
    /// (an even number on traced runs, which alternate units with the span
    /// recorder on and off): a fixed amount of work, so count metrics
    /// repeat exactly.
    Fraction(f64),
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Set-ups performed; `setup_s` is their median, the last one is
    /// measured on.
    pub setups: usize,
    /// Where `trace-<workload>.json` goes on traced runs.
    pub trace_dir: Option<std::path::PathBuf>,
    pub size: Size,
}

/// What a run found. `metrics` holds every end-to-end metric on untraced
/// runs and every per-layer metric on traced ones.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub books: Books,
    pub units: u64,
    pub measured_s: f64,
    pub input_digest: u64,
    /// Share of the traced units' wall time the spans account for.
    pub accounted_fraction: f64,
    /// Units that had completed when `peak_rss_mb` was read.
    pub rss_after_units: u64,
    /// How long the yardstick took between units, as a multiple of its
    /// reference time (median; 1.3 means the host ran a third slower than
    /// the undisturbed reference box). For flagging a disturbed run; no
    /// metric is adjusted by it.
    pub host_speed: f64,
    /// Unit by unit: jobs per second, and the yardstick multiple around it.
    pub unit_jobs_per_s: Vec<f64>,
    pub unit_host_speed: Vec<f64>,
}

/// What one unit measured.
struct UnitStat {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    jobs: u64,
    p50_ms: f64,
    p95_ms: f64,
    /// Mean of the yardstick calls just before and just after the unit,
    /// as a multiple of the reference time.
    host_speed: f64,
}

impl UnitStat {
    fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }

    fn cpu_us_per_job(&self) -> f64 {
        self.cpu_s * 1e6 / self.jobs as f64
    }
}

/// The window the workloads' reference sizes were calibrated for.
pub const REFERENCE_SECONDS: f64 = 20.0;
/// `peak_rss_mb` is read once this share of the units a run of this
/// length holds on the reference box has completed, so that it reports
/// memory after a fixed amount of work and not after however much a
/// disturbed run got through.
const RSS_SHARE: f64 = 0.4;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Percentile of a sorted sample, interpolating linearly between order
/// statistics (a unit of 15 jobs has no 95th job to point at).
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * (pos - lo as f64)
}

pub fn run(cfg: &RunConfig, process_start: Instant) -> Result<Report, String> {
    // Set-up, several times: process start (first time only), stack
    // build, lab deployment, registration, and the warm-up pass.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for i in 0..cfg.setups.max(1) {
        drop(workload.take()); // tearing the previous stack down is not set-up
        let started = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        workload = Some(
            workloads::build(&cfg.workload, cfg.seed, cfg.trace, cfg.size)
                .ok_or_else(|| format!("unknown workload {:?}", cfg.workload))?,
        );
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");

    let units_wanted = match cfg.budget {
        Budget::Seconds(_) => u64::MAX,
        Budget::Fraction(f) => {
            let units = ((w.reference_units() as f64 * f).round() as u64).max(1);
            // Traced runs need as many units traced as not.
            units + u64::from(cfg.trace && units % 2 == 1)
        }
    };
    let deadline = match cfg.budget {
        Budget::Seconds(s) => Duration::from_secs_f64(s),
        Budget::Fraction(_) => Duration::MAX,
    };
    let rss_after = match cfg.budget {
        Budget::Seconds(s) => {
            (w.reference_units() as f64 * RSS_SHARE * s / REFERENCE_SECONDS).round() as u64
        }
        Budget::Fraction(_) => u64::MAX,
    }
    .max(1);

    // Every unit is measured on its own and the end-to-end metrics are
    // medians over units, so a unit that a neighbour on the host slowed
    // does not move them. The yardstick runs between units, outside what
    // is timed. Traced runs alternate units with the span recorder on and
    // off; the difference between the two halves is what tracing costs.
    let mut rss_mb = None;
    let mut stats: Vec<UnitStat> = Vec::new();
    let mut yardstick = Yardstick::default();
    yardstick.measure(); // bring its table into cache
    let mut yard = || yardstick.measure().as_secs_f64() / REFERENCE.as_secs_f64();
    let started = Instant::now();
    // The yardstick sample at a unit boundary serves both neighbours.
    let mut edge = yard();
    while (stats.len() as u64) < units_wanted && started.elapsed() < deadline {
        let traced = cfg.trace && stats.len().is_multiple_of(2);
        let d = w.driver();
        d.spans.enabled = traced;
        let (reaped_before, samples_before) = (d.books.reaped, d.turnaround_ns.len());
        let cpu_before = host::process_cpu_seconds();
        let unit_started = Instant::now();
        d.spans.enter("unit", 0);
        w.unit();
        let d = w.driver();
        d.spans.exit();
        let wall_s = unit_started.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_seconds() - cpu_before;
        let after = yard();
        let mut turnaround = d.turnaround_ns[samples_before..].to_vec();
        turnaround.sort_unstable();
        stats.push(UnitStat {
            traced,
            wall_s,
            cpu_s,
            jobs: d.books.reaped - reaped_before,
            p50_ms: percentile(&turnaround, 0.50) / 1e6,
            p95_ms: percentile(&turnaround, 0.95) / 1e6,
            host_speed: (edge + after) / 2.0,
        });
        edge = after;
        if stats.len() as u64 == rss_after {
            rss_mb = Some(host::peak_rss_mb());
        }
    }
    w.driver().spans.enabled = false;
    let drain_started = Instant::now();
    w.drain();
    // The window as the workload saw it: yardstick calls are not in it.
    let measured_s =
        stats.iter().map(|u| u.wall_s).sum::<f64>() + drain_started.elapsed().as_secs_f64();
    let units = stats.len() as u64;

    let d = w.driver();
    let books = d.books;
    let correct = books.mismatches == 0
        && books.infra == 0
        && books.rejected == 0
        && books.balanced()
        && d.pending() == 0
        && books.reaped > 0;
    let over_units = |of: fn(&UnitStat) -> f64, traced: Option<bool>| {
        median(
            stats
                .iter()
                .filter(|u| u.jobs > 0 && traced.is_none_or(|t| u.traced == t))
                .map(of)
                .collect(),
        )
    };

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut accounted_fraction = 0.0;
    if cfg.trace {
        // The traced units' wall time, by the clock and by the spans:
        // the three calls plus the unit spans' own time.
        let in_calls: u64 = ["submit_queued", "advance", "reap_queued"]
            .iter()
            .map(|call| d.spans.total_under("unit", call))
            .sum();
        let unit_self = d.spans.totals().get("unit").map_or(0, |t| t.self_ns);
        let traced_wall: f64 = stats.iter().filter(|u| u.traced).map(|u| u.wall_s).sum();
        if traced_wall > 0.0 {
            accounted_fraction = (in_calls + unit_self) as f64 / 1e9 / traced_wall;
        }
        let (untraced, traced) = (
            over_units(UnitStat::jobs_per_s, Some(false)),
            over_units(UnitStat::jobs_per_s, Some(true)),
        );
        let trace_overhead = if untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        };
        layer_metrics(d, measured_s, trace_overhead, &mut metrics);
        d.spans.enabled = true;
        replay::run(d, &mut metrics);
        if let Some(dir) = &cfg.trace_dir {
            let path = dir.join(format!("trace-{}.json", cfg.workload));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, d.spans.to_json().render()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    } else {
        metrics.insert("setup_s", median(setup_s));
        metrics.insert("jobs_per_s", over_units(UnitStat::jobs_per_s, None));
        metrics.insert("cpu_us_per_job", over_units(UnitStat::cpu_us_per_job, None));
        metrics.insert("turnaround_p50_ms", over_units(|u| u.p50_ms, None));
        metrics.insert("turnaround_p95_ms", over_units(|u| u.p95_ms, None));
        metrics.insert("peak_rss_mb", rss_mb.unwrap_or_else(host::peak_rss_mb));
    }

    let expected: &[Metric] = if cfg.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for m in expected {
        if !metrics.contains_key(m.name) {
            return Err(format!("internal: metric {} was not produced", m.name));
        }
    }

    Ok(Report {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        trace: cfg.trace,
        correct,
        attempted: books.offered,
        failed: books.failed() + d.pending() as u64,
        metrics,
        books,
        units,
        measured_s,
        input_digest: d.digest.0,
        accounted_fraction,
        rss_after_units: rss_mb.map_or(units, |_| rss_after),
        host_speed: median(stats.iter().map(|u| u.host_speed).collect()),
        unit_jobs_per_s: stats.iter().map(UnitStat::jobs_per_s).collect(),
        unit_host_speed: stats.iter().map(|u| u.host_speed).collect(),
    })
}

/// Per-layer metrics read off the measured window itself: the harness's
/// own call timers and the product's public snapshots.
fn layer_metrics(
    d: &Driver,
    measured_s: f64,
    trace_overhead: f64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let books = d.books;
    let jobs = books.reaped.max(1) as f64;
    let Calls {
        submit_ns,
        advance_ns,
        reap_ns,
        advances,
        reaps,
    } = d.calls;
    let us_per_job = |ns: u64| ns as f64 / 1e3 / jobs;
    out.insert("wb-server.submit_us_per_job", us_per_job(submit_ns));
    out.insert("wb-server.reap_us_per_job", us_per_job(reap_ns));
    out.insert("wb-server.reap_polls_per_job", reaps as f64 / jobs);
    out.insert("webgpu.advance_us_per_job", us_per_job(advance_ns));
    out.insert("webgpu.rounds_per_job", advances as f64 / jobs);
    out.insert("webgpu.worker_rounds_per_job", d.fleet_rounds as f64 / jobs);
    out.insert("webgpu.peak_fleet", d.peak_fleet as f64);
    out.insert("webgpu.build_ms", d.build_ms);
    let offered = books.offered.max(1) as f64;
    out.insert(
        "wb-sched.brown_out_fraction",
        books.brown_outs as f64 / offered,
    );
    out.insert("wb-sched.peak_course_backlog", d.peak_course_backlog as f64);
    let snap = d.snapshot();
    out.insert(
        "wb-sched.wait_rounds_p50",
        snap.queue_wait_rounds.p50 as f64,
    );
    out.insert(
        "wb-sched.wait_rounds_p95",
        snap.queue_wait_rounds.p95 as f64,
    );
    out.insert("wb-queue.redeliveries", d.cluster.redeliveries() as f64);
    let cache = d.cluster.cache_metrics().total();
    let lookups = cache.lookups().max(1) as f64;
    out.insert(
        "wb-cache.reuse_rate",
        (cache.hits + cache.coalesced) as f64 / lookups,
    );
    out.insert("wb-cache.misses", cache.misses as f64);
    out.insert("wb-cache.evictions", cache.evictions as f64);
    out.insert("wb-obs.events_dropped", snap.dropped_events as f64);
    out.insert(
        "wb-labs.definition_ms",
        d.definition_ms / d.labs_defined.max(1) as f64,
    );
    // Wall time outside the product's three calls.
    let accounted_s = (submit_ns + advance_ns + reap_ns) as f64 / 1e9;
    out.insert(
        "harness.overhead_fraction",
        ((measured_s - accounted_s) / measured_s).max(0.0),
    );
    out.insert("harness.trace_overhead_fraction", trace_overhead);
}

/// A per-unit series, four significant decimals being plenty for a log.
fn series(values: &[f64]) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|v| Json::Num((v * 1e4).round() / 1e4))
            .collect(),
    )
}

impl Report {
    /// The result line the driver reads.
    pub fn result_line(&self) -> Json {
        let units: BTreeMap<&str, &str> = metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .map(|m| (m.name, m.unit))
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(units.get(name).copied().unwrap_or(""))),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Everything else worth a line: the books and what the run covered.
    pub fn detail_line(&self) -> Json {
        let b = &self.books;
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Int(self.seed)),
            ("trace", Json::Bool(self.trace)),
            ("units", Json::Int(self.units)),
            ("measured_s", Json::Num(self.measured_s)),
            (
                "input_digest",
                Json::str(format!("{:016x}", self.input_digest)),
            ),
            ("offered", Json::Int(b.offered)),
            ("admitted", Json::Int(b.admitted)),
            ("shed", Json::Int(b.shed)),
            ("rate_limited", Json::Int(b.rate_limited)),
            ("reaped", Json::Int(b.reaped)),
            ("infra_errors", Json::Int(b.infra)),
            ("verdict_mismatches", Json::Int(b.mismatches)),
            ("brown_outs", Json::Int(b.brown_outs)),
            ("turnaround_samples", Json::Int(b.reaped)),
            // Arrivals follow a virtual clock, so the generator is never late.
            ("generator_lateness_ms", Json::Int(0)),
            ("accounted_fraction", Json::Num(self.accounted_fraction)),
            ("rss_after_units", Json::Int(self.rss_after_units)),
            ("host_speed", Json::Num(self.host_speed)),
            ("unit_jobs_per_s", series(&self.unit_jobs_per_s)),
            ("unit_host_speed", series(&self.unit_host_speed)),
        ])
    }
}
