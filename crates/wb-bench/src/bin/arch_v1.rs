//! Experiment F2 — characterize the v1 push architecture (Fig. 2):
//! load spread as the pool grows, and the health-check eviction path
//! under a crash. The fault-path counts are deterministic and asserted
//! exactly.

use wb_bench::reference_job;
use wb_labs::LabScale;
use wb_worker::JobAction;
use webgpu::ClusterBuilder;

fn main() {
    println!("v1 architecture (web server pushes jobs to a worker pool)\n");

    // Load spread: the same 60-job batch over growing pools.
    println!("{:>8} {:>10} {:>16}", "workers", "jobs", "jobs/worker max");
    for workers in [1usize, 2, 4, 8] {
        let cluster = ClusterBuilder::new(minicuda::DeviceConfig::default())
            .fleet(workers)
            .build_v1();
        let jobs = 60;
        for j in 0..jobs {
            let req = reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0));
            cluster.submit(&req, 0).expect("job runs");
        }
        let max_share = (0..workers)
            .map(|i| cluster.worker(i).unwrap().jobs_done())
            .max()
            .unwrap();
        println!("{workers:>8} {jobs:>10} {max_share:>16}");
    }
    println!("(round-robin keeps the per-worker share flat as the pool grows)\n");

    // Fault path: crash one of four workers mid-batch.
    let cluster = ClusterBuilder::new(minicuda::DeviceConfig::default())
        .fleet(4)
        .build_v1();
    let mut completed = 0;
    for j in 0..20 {
        if j == 10 {
            cluster.worker(2).unwrap().crash();
        }
        if cluster
            .submit(
                &reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0)),
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
