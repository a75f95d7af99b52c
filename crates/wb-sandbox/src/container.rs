//! Docker-like container images and the per-worker container pool.
//!
//! §VI-B: *"The driver maintains a pool of Docker containers which are
//! mapped onto a fixed number of GPUs. Each time a job is accepted from
//! the queue, the driver selects the appropriate Docker container (the
//! containers are configured to have the essential tools required for
//! the lab — a CUDA lab will not, for example, have the PGI OpenACC
//! tools) and run the job in the container. … Because we maintain a
//! pool of containers, we can delete a container after a job completes
//! and start a new container to replenish the pool."*
//!
//! Container "boot" is modeled as a virtual-millisecond charge so the
//! pool-vs-cold-start ablation (`container_overhead` in wb-bench) has a
//! measurable axis.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use wb_obs::sync::Mutex;

/// A container image: a named set of installed toolchains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Image name, e.g. `webgpu/cuda:8.0`.
    pub name: String,
    /// Toolchains baked in (`cuda`, `opencl`, `openacc`, `mpi`).
    pub toolchains: BTreeSet<String>,
    /// Virtual milliseconds to boot a fresh container from this image.
    pub boot_ms: u64,
}

impl Image {
    /// The CUDA-only image used by most labs.
    pub fn cuda() -> Self {
        Image {
            name: "webgpu/cuda".to_string(),
            toolchains: ["cuda", "opencl"].iter().map(|s| s.to_string()).collect(),
            boot_ms: 900,
        }
    }

    /// The full image with PGI OpenACC and MPI (bigger, slower to boot).
    pub fn full() -> Self {
        Image {
            name: "webgpu/full".to_string(),
            toolchains: ["cuda", "opencl", "openacc", "mpi"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            boot_ms: 2_400,
        }
    }

    /// Does this image contain a toolchain?
    pub fn has(&self, toolchain: &str) -> bool {
        self.toolchains.contains(toolchain)
    }
}

/// A booted container, checked out for exactly one job.
#[derive(Debug, PartialEq, Eq)]
pub struct Container {
    /// Unique container id.
    pub id: u64,
    /// Image it was booted from.
    pub image: Image,
}

/// Pool statistics for the dashboard / benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Containers handed out.
    pub checkouts: u64,
    /// Jobs that found a warm container waiting.
    pub warm_hits: u64,
    /// Jobs that had to boot a container on demand.
    pub cold_boots: u64,
    /// Containers destroyed after use.
    pub destroyed: u64,
    /// Total virtual milliseconds spent booting.
    pub boot_ms_total: u64,
}

/// A pool of pre-booted containers for one image, replenished in the
/// background after each job (modeled as replenish-on-checkout).
#[derive(Debug)]
pub struct ContainerPool {
    image: Image,
    target: usize,
    warm: Mutex<Vec<Container>>,
    next_id: AtomicU64,
    stats: Mutex<PoolStats>,
    /// When false, the pool keeps nothing warm: every job boots its own
    /// container (the cold-start baseline for the ablation).
    pooling_enabled: bool,
}

impl ContainerPool {
    /// Create a pool that keeps `target` warm containers of `image`.
    pub fn new(image: Image, target: usize) -> Self {
        let pool = ContainerPool {
            image,
            target,
            warm: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            stats: Mutex::new(PoolStats::default()),
            pooling_enabled: true,
        };
        pool.replenish();
        pool
    }

    /// A pool with pooling disabled: every checkout is a cold boot.
    pub fn cold_start_only(image: Image) -> Self {
        ContainerPool {
            image,
            target: 0,
            warm: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            stats: Mutex::new(PoolStats::default()),
            pooling_enabled: false,
        }
    }

    /// The pool's image.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Warm containers currently available.
    pub fn warm_count(&self) -> usize {
        self.warm.lock().len()
    }

    fn boot(&self) -> Container {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut st = self.stats.lock();
        st.boot_ms_total += self.image.boot_ms;
        Container {
            id,
            image: self.image.clone(),
        }
    }

    /// Top the warm set back up to the target.
    pub fn replenish(&self) {
        if !self.pooling_enabled {
            return;
        }
        let mut warm = self.warm.lock();
        while warm.len() < self.target {
            drop(warm);
            let c = self.boot();
            warm = self.warm.lock();
            warm.push(c);
        }
    }

    /// Check out a container for a job. Returns the container and the
    /// virtual milliseconds the job waited for it (0 on a warm hit).
    pub fn checkout(&self) -> (Container, u64) {
        let mut st = self.stats.lock();
        st.checkouts += 1;
        drop(st);
        if self.pooling_enabled {
            // Bind the pop result so the lock guard drops before
            // `replenish` re-locks the pool.
            let popped = {
                let mut warm = self.warm.lock();
                warm.pop()
            };
            if let Some(c) = popped {
                self.stats.lock().warm_hits += 1;
                // Replenishment happens concurrently on the real system;
                // modeled as immediate background boot (not charged to
                // this job's latency).
                self.replenish();
                return (c, 0);
            }
        }
        let c = self.boot();
        self.stats.lock().cold_boots += 1;
        let wait = self.image.boot_ms;
        (c, wait)
    }

    /// Destroy a container after its job completes (§VI-B: one job per
    /// container, then delete).
    pub fn destroy(&self, container: Container) {
        drop(container);
        self.stats.lock().destroyed += 1;
        self.replenish();
    }

    /// Snapshot statistics.
    pub fn stats(&self) -> PoolStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn images_know_their_toolchains() {
        assert!(Image::cuda().has("cuda"));
        assert!(!Image::cuda().has("openacc"));
        assert!(Image::full().has("openacc"));
        assert!(Image::full().has("mpi"));
        assert!(Image::full().boot_ms > Image::cuda().boot_ms);
    }

    #[test]
    fn warm_pool_gives_zero_wait() {
        let pool = ContainerPool::new(Image::cuda(), 2);
        assert_eq!(pool.warm_count(), 2);
        let (c, wait) = pool.checkout();
        assert_eq!(wait, 0);
        pool.destroy(c);
        assert_eq!(pool.stats().warm_hits, 1);
        assert_eq!(pool.stats().destroyed, 1);
        // Replenished back to target.
        assert_eq!(pool.warm_count(), 2);
    }

    #[test]
    fn container_used_once_then_destroyed() {
        let pool = ContainerPool::new(Image::cuda(), 1);
        let (a, _) = pool.checkout();
        let id_a = a.id;
        pool.destroy(a);
        let (b, _) = pool.checkout();
        assert_ne!(id_a, b.id, "containers are never reused");
        pool.destroy(b);
    }

    #[test]
    fn cold_start_pool_always_boots() {
        let pool = ContainerPool::cold_start_only(Image::cuda());
        assert_eq!(pool.warm_count(), 0);
        let (c, wait) = pool.checkout();
        assert_eq!(wait, Image::cuda().boot_ms);
        pool.destroy(c);
        assert_eq!(pool.warm_count(), 0);
        assert_eq!(pool.stats().cold_boots, 1);
        assert_eq!(pool.stats().warm_hits, 0);
    }

    #[test]
    fn boot_time_accounted() {
        let pool = ContainerPool::new(Image::cuda(), 3);
        // Three boots at construction.
        assert_eq!(pool.stats().boot_ms_total, 3 * Image::cuda().boot_ms);
    }

    #[test]
    fn exhausted_pool_falls_back_to_cold_boot() {
        let pool = ContainerPool::new(Image::cuda(), 1);
        let (a, w1) = pool.checkout();
        assert_eq!(w1, 0);
        // Pool auto-replenished, so the next checkout is warm again;
        // verify by draining without destroying.
        let (b, w2) = pool.checkout();
        assert_eq!(w2, 0);
        pool.destroy(a);
        pool.destroy(b);
    }
}
