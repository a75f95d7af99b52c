//! Experiment F7 — container-pool overhead (Fig. 7 internals).
//!
//! The paper cites Špaček et al. (ref. 18): Docker adds no measurable
//! overhead to GPU code, *provided a container is ready*. The real
//! cost is the boot; the pool hides it. This binary measures the
//! per-job container wait under three worker setups. Waits are virtual
//! milliseconds, so every number is deterministic and the
//! pooled-beats-cold ordering is asserted.

use wb_bench::reference_job;
use wb_labs::LabScale;
use wb_sandbox::{ContainerPool, Image};
use wb_worker::{execute, JobAction, RunCtx};

fn main() {
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
    let device = minicuda::DeviceConfig::test_small();
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
