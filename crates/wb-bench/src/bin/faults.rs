//! Experiment S4 — fault injection across both architectures: kill
//! workers and cut a broker zone mid-load and account for every job.
//!
//! Both architectures are driven through the [`webgpu::FleetControl`]
//! surface — the same API the chaos harness and the autoscaler use —
//! rather than poking worker handles directly. Every count below is
//! deterministic, so the exactly-once accounting is asserted.

use wb_bench::reference_job;
use wb_labs::LabScale;
use wb_worker::JobAction;
use webgpu::{AutoscalePolicy, ClusterBuilder, FleetControl, Zone};

fn main() {
    println!("fault injection: 30 jobs, kill 2 of 4 workers after job 10\n");

    // ---- v1 ----
    let v1 = ClusterBuilder::new(minicuda::DeviceConfig::default())
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
            .submit(
                &reference_job("vecadd", j, LabScale::Small, JobAction::RunDataset(0)),
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
    let v2 = ClusterBuilder::new(minicuda::DeviceConfig::default())
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
