//! MPI-like rank communication for the Multi-GPU lab.
//!
//! The paper's final lab ("Multi-GPU Stencil with MPI") runs one host
//! process per GPU and exchanges halos over MPI. Here each rank is a
//! host-interpreter thread with its own simulated device; ranks
//! exchange `f32` messages over `std::sync::mpsc` channels and synchronize on a
//! barrier.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// A communicator for a fixed-size world. Clone one handle per rank
/// with [`CommWorld::into_rank_comms`].
pub struct CommWorld {
    size: usize,
    // senders[src][dst], receivers[dst][src]
    senders: Vec<Vec<Sender<Vec<f32>>>>,
    receivers: Vec<Vec<Receiver<Vec<f32>>>>,
    barrier: Arc<Barrier>,
}

impl CommWorld {
    /// Build a world of `size` ranks.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "world needs at least one rank");
        let mut senders: Vec<Vec<Sender<Vec<f32>>>> = (0..size).map(|_| Vec::new()).collect();
        let mut receivers: Vec<Vec<Receiver<Vec<f32>>>> = (0..size).map(|_| Vec::new()).collect();
        // Channel for every ordered (src, dst) pair.
        let mut rx_grid: Vec<Vec<Option<Receiver<Vec<f32>>>>> = (0..size)
            .map(|_| (0..size).map(|_| None).collect())
            .collect();
        for (src, sender_row) in senders.iter_mut().enumerate() {
            for rx_row in rx_grid.iter_mut() {
                let (tx, rx) = channel();
                sender_row.push(tx);
                rx_row[src] = Some(rx);
            }
        }
        for (dst, row) in rx_grid.into_iter().enumerate() {
            receivers[dst] = row.into_iter().map(|r| r.expect("filled")).collect();
        }
        CommWorld {
            size,
            senders,
            receivers,
            barrier: Arc::new(Barrier::new(size)),
        }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Extract the per-rank communicator handles (consumes the world).
    pub fn into_rank_comms(self) -> Vec<RankComm> {
        let barrier = self.barrier;
        let size = self.size;
        self.senders
            .into_iter()
            .zip(self.receivers)
            .enumerate()
            .map(|(rank, (senders, receivers))| RankComm {
                rank,
                size,
                senders,
                receivers,
                barrier: Arc::clone(&barrier),
            })
            .collect()
    }
}

/// One rank's communicator.
pub struct RankComm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Vec<f32>>>,
    receivers: Vec<Receiver<Vec<f32>>>,
    barrier: Arc<Barrier>,
}

impl RankComm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send a float buffer to `dst`. Errors on an invalid destination
    /// or a hung-up peer.
    pub fn send(&self, dst: usize, data: Vec<f32>) -> Result<(), String> {
        if dst >= self.size {
            return Err(format!(
                "send to invalid rank {dst} (world size {})",
                self.size
            ));
        }
        if dst == self.rank {
            return Err("send to self would deadlock".to_string());
        }
        self.senders[dst]
            .send(data)
            .map_err(|_| format!("rank {dst} is gone"))
    }

    /// Receive the next float buffer from `src` (blocking).
    pub fn recv(&self, src: usize) -> Result<Vec<f32>, String> {
        if src >= self.size {
            return Err(format!(
                "receive from invalid rank {src} (world size {})",
                self.size
            ));
        }
        if src == self.rank {
            return Err("receive from self would deadlock".to_string());
        }
        self.receivers[src]
            .recv()
            .map_err(|_| format!("rank {src} exited without sending"))
    }

    /// Block until every rank reaches the barrier.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_ranks_exchange() {
        let comms = CommWorld::new(2).into_rank_comms();
        let mut it = comms.into_iter();
        let c0 = it.next().unwrap();
        let c1 = it.next().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                c0.send(1, vec![1.0, 2.0]).unwrap();
                assert_eq!(c0.recv(1).unwrap(), vec![3.0]);
            });
            s.spawn(move || {
                assert_eq!(c1.recv(0).unwrap(), vec![1.0, 2.0]);
                c1.send(0, vec![3.0]).unwrap();
            });
        });
    }

    #[test]
    fn invalid_ranks_rejected() {
        let comms = CommWorld::new(2).into_rank_comms();
        let c0 = &comms[0];
        assert!(c0.send(5, vec![]).is_err());
        assert!(c0.send(0, vec![]).is_err());
        assert!(c0.recv(9).is_err());
        assert!(c0.recv(0).is_err());
    }

    #[test]
    fn barrier_synchronizes() {
        let comms = CommWorld::new(3).into_rank_comms();
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let counter = &counter;
        std::thread::scope(|s| {
            // Each rank owns its communicator (an mpsc receiver is not
            // `Sync`), as each interpreter thread does.
            for c in comms {
                s.spawn(move || {
                    counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    c.barrier();
                    // After the barrier everyone must have incremented.
                    assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 3);
                });
            }
        });
    }

    #[test]
    fn world_size_accessors() {
        let w = CommWorld::new(4);
        assert_eq!(w.size(), 4);
        let comms = w.into_rank_comms();
        assert_eq!(comms[2].rank(), 2);
        assert_eq!(comms[2].size(), 4);
    }
}
