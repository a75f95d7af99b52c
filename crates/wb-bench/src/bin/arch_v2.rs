//! Experiment F6 — v1 push vs v2 pull (Fig. 6) under a heterogeneous
//! job mix: mostly cheap CUDA labs plus tagged MPI jobs only some
//! workers can run.
//!
//! The paper's motivation for the rewrite: *"we do not need to
//! provision our worker nodes to have the resources for the highest
//! common multiple of the system requirements of the labs."* The
//! experiment shows (a) a tag-blind push fleet on the thin image fails
//! every MPI run outright, while (b) v2's pull queue holds tagged jobs
//! — failing nothing — until the config service upgrades the fleet,
//! at which point the drivers restart into the fat image and drain the
//! backlog. The fat image is paid for only while MPI demand exists,
//! not all semester on every node.
//!
//! Every count is deterministic (an MPI job on a CUDA-only image
//! always fails, tag routing always holds it back) and asserted
//! exactly.

use wb_bench::reference_job;
use wb_labs::LabScale;
use wb_worker::JobAction;
use webgpu::{AutoscalePolicy, ClusterBuilder};

fn main() {
    let total_jobs = 40u64;
    let mpi_every = 8; // every 8th job is the tagged MPI lab
    let mpi_jobs = total_jobs / mpi_every;

    // ---- v1: push, tag-blind -------------------------------------------
    // In v1 the server pushes to any worker. Give the pool thin
    // CUDA-only images: an MPI job landing on one fails ("toolchain
    // not installed") — exactly why v1 had to provision every node for
    // the most demanding lab.
    let v1 = ClusterBuilder::new(minicuda::DeviceConfig::default())
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
        let out = v1.submit(&req, 0).expect("pool alive");
        if !out.compiled() || !out.datasets.iter().all(|d| d.passed()) {
            v1_failed += 1;
        }
    }

    // ---- v2: pull with capability tags ---------------------------------
    // Phase 1: the whole fleet runs the thin CUDA image. Tagged MPI
    // jobs are not routed to anyone — they wait in the mirrored queue
    // instead of failing on an incapable node.
    let v2 = ClusterBuilder::new(minicuda::DeviceConfig::default())
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
