//! Test-sized runs of every workload, and the contract with
//! `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::time::Instant;
use wb_ledger::json::Json;
use wb_ledger::metrics::{self, Metric};
use wb_ledger::run::{run, Budget, Report, RunConfig};
use wb_ledger::workloads::{self, Size};

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    run(
        &RunConfig {
            workload: workload.to_string(),
            seed,
            // A two-hundredth of the reference size rounds to one unit
            // (two when traced); at `Size::Tiny` a unit is a sixteenth.
            budget: Budget::Fraction(1.0 / 200.0),
            trace,
            setups: 1,
            trace_dir: None,
            size: Size::Tiny,
        },
        Instant::now(),
    )
    .expect("the run completes")
}

fn names(metrics: &[Metric]) -> BTreeSet<&'static str> {
    metrics.iter().map(|m| m.name).collect()
}

/// Metrics that count things; these must not depend on timing.
fn counts(report: &Report) -> Vec<(&'static str, f64)> {
    metrics::PER_LAYER
        .iter()
        .filter(|m| matches!(m.unit, "count" | "fraction") && !m.name.starts_with("harness."))
        .map(|m| (m.name, report.metrics[m.name]))
        .collect()
}

/// Four test-sized runs of one workload: untraced on two seeds, traced
/// twice on one.
fn check(name: &str) {
    let (plain, other) = (tiny(name, 7, false), tiny(name, 8, false));
    let (a, b) = (tiny(name, 11, true), tiny(name, 11, true));
    for r in [&plain, &other, &a, &b] {
        assert!(r.correct, "{name}: {:?}", r.books);
        assert_eq!(r.failed, 0, "{name}: {:?}", r.books);
        assert!(r.attempted > 0, "{name} offered nothing");
    }

    assert_eq!(
        plain.metrics.keys().copied().collect::<BTreeSet<_>>(),
        names(metrics::END_TO_END),
        "{name}"
    );
    for (metric, value) in &plain.metrics {
        assert!(
            *value > 0.0,
            "{name}.{metric} is {value}; metrics are never 0"
        );
    }
    assert_ne!(
        plain.input_digest, other.input_digest,
        "{name}: the seed steers inputs"
    );

    assert_eq!(
        a.input_digest, b.input_digest,
        "{name}: same seed, same inputs"
    );
    assert_eq!(a.books, b.books, "{name}: same seed, same books");
    assert_eq!(counts(&a), counts(&b), "{name}: same seed, same counts");
    assert_eq!(
        a.metrics.keys().copied().collect::<BTreeSet<_>>(),
        names(metrics::PER_LAYER),
        "{name}"
    );
    assert!(
        a.accounted_fraction >= 0.95,
        "{name}: spans account for {} of the traced wall",
        a.accounted_fraction
    );
}

#[test]
fn semester_hot_is_correct_and_seeded() {
    check("semester_hot");
}

#[test]
fn rush_v1_is_correct_and_seeded() {
    check("rush_v1");
}

#[test]
fn cold_compile_is_correct_and_seeded() {
    check("cold_compile");
}

#[test]
fn kernel_full_is_correct_and_seeded() {
    check("kernel_full");
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `BENCHMARK.json` lists exactly what the harness emits.
#[test]
fn benchmark_json_and_the_harness_agree() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");

    let listed: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(listed, workloads::NAMES);

    for (key, ours) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let theirs = doc.get(key).expect(key).as_arr();
        assert_eq!(theirs.len(), ours.len(), "{key}: same number of metrics");
        for (listed, metric) in theirs.iter().zip(ours) {
            let field = |f: &str| listed.get(f).and_then(Json::as_str).unwrap_or("");
            assert_eq!(field("name"), metric.name, "{key}: same order");
            assert!(valid_name(metric.name), "{}", metric.name);
            assert_eq!(field("unit"), metric.unit, "{}", metric.name);
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field("better"), better, "{}", metric.name);
            if key == "end_to_end" {
                let bound = listed.get("bound").and_then(Json::as_f64).expect("bound");
                assert_eq!(bound, metric.bound, "{}", metric.name);
                assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
            }
        }
    }
    for name in listed {
        assert!(valid_name(name), "{name}");
    }
    assert!(metrics::END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}
