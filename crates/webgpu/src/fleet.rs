//! `FleetControl` — one typed surface for every fleet mutation.
//!
//! Fleet changes used to be smeared across cluster internals: benches
//! reached through [`crate::ClusterV2::worker`] to `crash()` nodes,
//! the autoscaler pushed and popped the worker vec directly, and zone
//! faults went straight at the broker. [`FleetControl`] collects the
//! whole mutation surface — spawn, kill, revive, partition, heal,
//! describe — behind one trait both architectures implement, so the
//! chaos harness, the autoscaler, and fault benches all drive the
//! fleet through the same door.
//!
//! Workers are described by [`WorkerDesc`]: an availability [`Zone`],
//! an optional capability override, and a [`ReliabilityClass`]
//! (on-demand vs spot). The class does not change how a worker runs
//! jobs — it changes what the worker *costs* (see [`crate::cost`]) and
//! how often chaos campaigns preempt it (spot instances die young).

use std::fmt;
use wb_queue::{ActiveZone, CapabilitySet};

/// An availability zone a worker (and one side of the mirrored
/// broker) lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Zone {
    /// The zone the broker starts out serving from.
    Primary,
    /// The hot-standby zone.
    Standby,
}

impl Zone {
    /// Both zones, for iteration.
    pub const ALL: [Zone; 2] = [Zone::Primary, Zone::Standby];

    /// The other zone.
    pub fn other(self) -> Zone {
        match self {
            Zone::Primary => Zone::Standby,
            Zone::Standby => Zone::Primary,
        }
    }

    /// The broker-level zone this fleet zone maps onto.
    pub fn broker_zone(self) -> ActiveZone {
        match self {
            Zone::Primary => ActiveZone::Primary,
            Zone::Standby => ActiveZone::Standby,
        }
    }

    /// The fleet zone for a broker-level zone.
    pub fn from_broker(z: ActiveZone) -> Zone {
        match z {
            ActiveZone::Primary => Zone::Primary,
            ActiveZone::Standby => Zone::Standby,
        }
    }

    /// Default placement for worker `id`: odd ids land in the primary
    /// zone, even ids in the standby, so any fleet of two or more
    /// straddles both zones out of the box.
    pub fn for_index(id: u64) -> Zone {
        if id % 2 == 1 {
            Zone::Primary
        } else {
            Zone::Standby
        }
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Zone::Primary => "primary",
            Zone::Standby => "standby",
        })
    }
}

/// How durable (and how priced) a worker's underlying instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReliabilityClass {
    /// Full-price capacity that stays up until the platform takes it
    /// down.
    OnDemand,
    /// Discounted preemptible capacity the provider may reclaim at any
    /// moment (priced by [`crate::cost::CostModel::spot_worker_hour`]).
    Spot,
}

impl fmt::Display for ReliabilityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReliabilityClass::OnDemand => "on-demand",
            ReliabilityClass::Spot => "spot",
        })
    }
}

/// Everything [`FleetControl::spawn_worker`] needs to place a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerDesc {
    /// Availability zone the worker lands in.
    pub zone: Zone,
    /// Capability tags the worker advertises; `None` inherits the
    /// fleet's remote [`wb_worker::WorkerConfig`]. An override holds
    /// until the next fleet-wide config publish (the remote config
    /// service configures workers *uniformly*, §VI-B).
    pub capabilities: Option<CapabilitySet>,
    /// On-demand or spot.
    pub reliability_class: ReliabilityClass,
}

impl Default for WorkerDesc {
    fn default() -> Self {
        WorkerDesc::on_demand(Zone::Primary)
    }
}

impl WorkerDesc {
    /// An on-demand worker inheriting the fleet config.
    pub fn on_demand(zone: Zone) -> WorkerDesc {
        WorkerDesc {
            zone,
            capabilities: None,
            reliability_class: ReliabilityClass::OnDemand,
        }
    }

    /// A spot worker inheriting the fleet config.
    pub fn spot(zone: Zone) -> WorkerDesc {
        WorkerDesc {
            reliability_class: ReliabilityClass::Spot,
            ..WorkerDesc::on_demand(zone)
        }
    }

    /// Override the advertised capability tags.
    pub fn with_capabilities(mut self, caps: CapabilitySet) -> WorkerDesc {
        self.capabilities = Some(caps);
        self
    }
}

/// One worker's row in [`FleetView`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerInfo {
    /// Platform-wide worker id.
    pub id: u64,
    /// Zone the worker was placed in.
    pub zone: Zone,
    /// On-demand or spot.
    pub reliability_class: ReliabilityClass,
    /// Capability tags the worker advertises.
    pub capabilities: CapabilitySet,
    /// False once killed (or crashed) and not yet revived.
    pub alive: bool,
    /// Jobs this worker completed.
    pub jobs_done: u64,
}

/// A point-in-time description of the fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetView {
    /// Every worker the platform knows about, dead or alive.
    pub workers: Vec<WorkerInfo>,
    /// The zone currently cut off by a network partition, if any.
    pub partitioned: Option<Zone>,
}

impl FleetView {
    /// Workers currently able to take jobs.
    pub fn alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Alive workers in `zone`.
    pub fn alive_in_zone(&self, zone: Zone) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive && w.zone == zone)
            .count()
    }

    /// Alive workers of `class`.
    pub fn alive_of_class(&self, class: ReliabilityClass) -> usize {
        self.workers
            .iter()
            .filter(|w| w.alive && w.reliability_class == class)
            .count()
    }

    /// Total fleet size, dead workers included.
    pub fn total(&self) -> usize {
        self.workers.len()
    }
}

/// The fleet mutation surface both cluster architectures implement.
///
/// Liveness changes take effect at the platform's own cadence: v1
/// pushes, so a killed worker refuses the very next dispatch; v2
/// pulls, so a killed worker vanishes at its next poll — taking any
/// matching delivery dark with it, exactly like a real spot
/// preemption — and the visibility timeout later reclaims the job.
pub trait FleetControl {
    /// Boot a worker into the fleet; returns its id.
    fn spawn_worker(&self, desc: WorkerDesc) -> u64;

    /// Kill worker `id` (spot preemption / hardware loss). The worker
    /// stays in the fleet roster, dark, until revived or scaled in.
    /// False when the id is unknown or the worker is already dead.
    fn kill_worker(&self, id: u64) -> bool;

    /// Bring a killed worker back. False when the id is unknown or
    /// the worker is already alive.
    fn revive_worker(&self, id: u64) -> bool;

    /// Cut `zone` off by a network partition. When the cut zone was
    /// serving broker traffic, the broker fails over first — pending
    /// jobs get `Failover` span annotations, nothing is lost. False
    /// when a zone is already partitioned (or the architecture has no
    /// zones).
    fn partition_zone(&self, zone: Zone) -> bool;

    /// Heal a partition: the cut zone's broker side is rebuilt from
    /// the surviving zone (dead letters held only by the cut zone are
    /// carried back, not duplicated). False unless `zone` is the one
    /// partitioned.
    fn heal_zone(&self, zone: Zone) -> bool;

    /// Snapshot the fleet roster and partition state.
    fn describe_fleet(&self) -> FleetView;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_maps_onto_the_broker_and_back() {
        for z in Zone::ALL {
            assert_eq!(Zone::from_broker(z.broker_zone()), z);
            assert_eq!(z.other().other(), z);
            assert_ne!(z.other(), z);
        }
        assert_eq!(Zone::Primary.to_string(), "primary");
        assert_eq!(Zone::Standby.to_string(), "standby");
    }

    #[test]
    fn default_placement_straddles_both_zones() {
        assert_eq!(Zone::for_index(1), Zone::Primary);
        assert_eq!(Zone::for_index(2), Zone::Standby);
        let zones: std::collections::BTreeSet<Zone> = (1..=4).map(Zone::for_index).collect();
        assert_eq!(zones.len(), 2, "any fleet of 2+ covers both zones");
    }

    #[test]
    fn desc_builders_set_class_and_caps() {
        let d = WorkerDesc::spot(Zone::Standby).with_capabilities(["cuda", "mpi"].into());
        assert_eq!(d.reliability_class, ReliabilityClass::Spot);
        assert_eq!(d.zone, Zone::Standby);
        assert!(d.capabilities.unwrap().contains("mpi"));
        let d = WorkerDesc::default();
        assert_eq!(d.reliability_class, ReliabilityClass::OnDemand);
        assert!(d.capabilities.is_none());
    }

    #[test]
    fn view_helpers_count_the_right_workers() {
        let view = FleetView {
            workers: vec![
                WorkerInfo {
                    id: 1,
                    zone: Zone::Primary,
                    reliability_class: ReliabilityClass::OnDemand,
                    capabilities: ["cuda"].into(),
                    alive: true,
                    jobs_done: 3,
                },
                WorkerInfo {
                    id: 2,
                    zone: Zone::Standby,
                    reliability_class: ReliabilityClass::Spot,
                    capabilities: ["cuda"].into(),
                    alive: false,
                    jobs_done: 0,
                },
                WorkerInfo {
                    id: 3,
                    zone: Zone::Primary,
                    reliability_class: ReliabilityClass::Spot,
                    capabilities: ["cuda"].into(),
                    alive: true,
                    jobs_done: 1,
                },
            ],
            partitioned: Some(Zone::Standby),
        };
        assert_eq!(view.total(), 3);
        assert_eq!(view.alive(), 2);
        assert_eq!(view.alive_in_zone(Zone::Primary), 2);
        assert_eq!(view.alive_in_zone(Zone::Standby), 0);
        assert_eq!(view.alive_of_class(ReliabilityClass::Spot), 1);
        assert_eq!(view.partitioned, Some(Zone::Standby));
    }
}
