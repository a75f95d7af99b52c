//! `wb-ledger` — the repo's one benchmark. See README.md.
//!
//! ```text
//! wb-ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! wb-ledger all   [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! wb-ledger noise [--seconds S] [--runs N]
//! ```

use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use wb_ledger::json::Json;
use wb_ledger::metrics::{self, Metric};
use wb_ledger::run::{self, Budget, RunConfig};
use wb_ledger::{host, workloads};

/// A run's measured window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = run::REFERENCE_SECONDS;
const DEFAULT_SEED: u64 = 20160523;
/// A traced run does this share of the work an untraced one of the same
/// `--seconds` does on the reference box; the replays take the rest.
const TRACED_SHARE: f64 = 0.25;
const SMOKE_SHARE: f64 = 1.0 / 50.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "run" | "all" | "noise" => args.command = arg,
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|n| (2..=50).contains(n))
                    .ok_or("--runs takes a whole number from 2 to 50")?
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// A line on stdout. A reader that hung up (`| head`) is not an error
/// worth a panic.
fn say(line: impl std::fmt::Display) {
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wb-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "all" => all(&args),
        "noise" => noise(&args),
        _ => single(&args, process_start),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wb-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process. Prints a detail line, then the result
/// line; `Ok(false)` when the outputs were wrong.
fn single(args: &Args, process_start: Instant) -> Result<bool, String> {
    let workload = args
        .workload
        .clone()
        .ok_or_else(|| format!("--workload is one of {:?}", workloads::NAMES))?;
    let budget = if args.smoke {
        Budget::Fraction(SMOKE_SHARE)
    } else if args.trace {
        Budget::Fraction(TRACED_SHARE * args.seconds / DEFAULT_SECONDS)
    } else {
        Budget::Seconds(args.seconds)
    };
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()));
    let report = run::run(
        &RunConfig {
            workload,
            seed: args.seed,
            budget,
            trace: args.trace,
            setups: if args.trace || args.smoke { 1 } else { SETUPS },
            trace_dir: exe_dir,
            size: workloads::Size::Full,
        },
        process_start,
    )?;
    say(report.detail_line().render());
    say(report.result_line().render());
    Ok(report.correct)
}

/// Run this executable again for one workload and return its last two
/// stdout lines (detail, result) parsed.
fn child(args: &Args, workload: &str, seed: u64) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or(format!("{workload}: no result line"))?;
    let detail = lines.next().unwrap_or("null");
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}: {result}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok((Json::parse(detail)?, Json::parse(result)?))
}

fn host_facts() -> Json {
    Json::obj([
        ("nproc", Json::Int(host::nproc() as u64)),
        (
            "rustc",
            Json::str(host::first_line_of("rustc", &["--version"])),
        ),
        (
            "git_commit",
            Json::str(host::first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Every workload, each in a fresh child process; one JSON document.
fn all(args: &Args) -> Result<bool, String> {
    let mut runs = Vec::new();
    for name in workloads::NAMES {
        if args.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        let (detail, result) = child(args, name, args.seed)?;
        runs.push((name, Json::obj([("detail", detail), ("result", result)])));
    }
    say(Json::obj([
        ("host", host_facts()),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("workloads", Json::obj(runs)),
    ])
    .render());
    Ok(true)
}

fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The exclusive method, as Python's statistics.quantiles(n=4).
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64 - 1.0;
        let lo = (pos.floor().max(0.0) as usize).min(v.len() - 1);
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Two interleaved sets of `--runs` untraced runs per workload (A B A B…,
/// the same seeds in both sets): the gap between the sets' medians is
/// what identical code differs by, and must stay inside each bound.
fn noise(args: &Args) -> Result<bool, String> {
    let mut samples: Vec<[Vec<Vec<f64>>; 2]> = workloads::NAMES
        .iter()
        .map(|_| {
            [
                vec![Vec::new(); metrics::END_TO_END.len()],
                vec![Vec::new(); metrics::END_TO_END.len()],
            ]
        })
        .collect();
    for i in 0..args.runs {
        for set in 0..2 {
            for (w, name) in workloads::NAMES.iter().enumerate() {
                let (_, result) = child(args, name, args.seed + i as u64)?;
                for (m, metric) in metrics::END_TO_END.iter().enumerate() {
                    let value = result
                        .get("metrics")
                        .and_then(|ms| ms.get(metric.name))
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or(format!("{name}: no {}", metric.name))?;
                    samples[w][set][m].push(value);
                }
                eprintln!("noise: run {} set {} {name} done", i + 1, ["A", "B"][set]);
            }
        }
    }
    say(host_facts().render());
    say("| workload | metric | median A | median B | A/B gap | spread (IQR/median) | bound | ok |");
    say("|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for (w, name) in workloads::NAMES.iter().enumerate() {
        for (m, metric) in metrics::END_TO_END.iter().enumerate() {
            let Metric { bound, .. } = *metric;
            let (_, med_a, _) = quartiles(&samples[w][0][m]);
            let (_, med_b, _) = quartiles(&samples[w][1][m]);
            let both: Vec<f64> = samples[w].iter().flat_map(|s| s[m].clone()).collect();
            let (q1, med, q3) = quartiles(&both);
            let gap = (med_b - med_a).abs() / med_a;
            let spread = (q3 - q1) / med;
            let within = gap <= bound && (metric.name == "setup_s" || spread <= bound);
            ok &= within;
            say(format_args!(
                "| {name} | {} ({}) | {med_a:.4} | {med_b:.4} | {:.2} % | {:.2} % | {:.0} % | {} |",
                metric.name,
                metric.unit,
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                if within { "yes" } else { "NO" },
            ));
        }
    }
    Ok(ok)
}
