//! Every metric the harness emits, with its unit. `BENCHMARK.json` lists
//! the same names; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Regression bound as a share of the parent's median; per-layer
    /// metrics have none.
    pub bound: f64,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        bound,
        higher_is_better: higher,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        bound: 0.0,
        higher_is_better: higher,
    }
}

/// The untraced run's metrics: what a student or an operator sees.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25, false),
    e2e("jobs_per_s", "1/s", 0.25, true),
    e2e("cpu_us_per_job", "us", 0.25, false),
    e2e("turnaround_p50_ms", "ms", 0.25, false),
    e2e("turnaround_p95_ms", "ms", 0.25, false),
    e2e("peak_rss_mb", "MiB", 0.05, false),
];

/// The traced run's metrics, `<crate>.<metric>`.
pub const PER_LAYER: &[Metric] = &[
    layer("wb-server.submit_us_per_job", "us", false),
    layer("wb-server.reap_us_per_job", "us", false),
    layer("wb-server.reap_polls_per_job", "count", false),
    layer("webgpu.advance_us_per_job", "us", false),
    layer("webgpu.rounds_per_job", "count", false),
    layer("webgpu.worker_rounds_per_job", "count", false),
    layer("webgpu.peak_fleet", "count", false),
    layer("webgpu.build_ms", "ms", false),
    layer("wb-sched.offer_us_per_job", "us", false),
    layer("wb-sched.drain_us_per_job", "us", false),
    layer("wb-sched.brown_out_fraction", "fraction", false),
    layer("wb-sched.peak_course_backlog", "count", false),
    layer("wb-sched.wait_rounds_p50", "count", false),
    layer("wb-sched.wait_rounds_p95", "count", false),
    layer("wb-queue.enqueue_us_per_job", "us", false),
    layer("wb-queue.poll_ack_us_per_job", "us", false),
    layer("wb-queue.redeliveries", "count", false),
    layer("wb-cache.key_derive_us_per_job", "us", false),
    layer("wb-cache.bytes_hashed_per_job", "count", false),
    layer("wb-cache.lookup_hit_us", "us", false),
    layer("wb-cache.insert_us", "us", false),
    layer("wb-cache.reuse_rate", "fraction", true),
    layer("wb-cache.misses", "count", false),
    layer("wb-cache.evictions", "count", false),
    layer("minicuda.preprocess_us", "us", false),
    layer("minicuda.lex_us", "us", false),
    layer("minicuda.parse_us", "us", false),
    layer("minicuda.sema_us", "us", false),
    layer("minicuda.lower_us", "us", false),
    layer("minicuda.passes_us", "us", false),
    layer("minicuda.analyze_us", "us", false),
    layer("minicuda.compile_us", "us", false),
    layer("minicuda.source_bytes_per_compile", "count", false),
    layer("minicuda.exec_us_per_dataset", "us", false),
    layer("minicuda.warp_instructions_per_job", "count", false),
    layer("minicuda.global_transactions_per_job", "count", false),
    layer("minicuda.host_steps_per_job", "count", false),
    layer("minicuda.warp_instr_per_us", "1/us", true),
    layer("libwb.check_us_per_dataset", "us", false),
    layer("libwb.values_compared_per_job", "count", false),
    layer("wb-sandbox.scan_us_per_compile", "us", false),
    layer("wb-sandbox.jobdir_us_per_compile", "us", false),
    layer("wb-worker.execute_us_per_job", "us", false),
    layer("wb-obs.record_us_per_job", "us", false),
    layer("wb-obs.events_dropped", "count", false),
    layer("wb-db.insert_us_per_job", "us", false),
    layer("wb-labs.definition_ms", "ms", false),
    layer("harness.overhead_fraction", "fraction", false),
    layer("harness.trace_overhead_fraction", "fraction", false),
];
