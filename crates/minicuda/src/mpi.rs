//! MPI-like rank communication for the Multi-GPU lab.
//!
//! The paper's final lab ("Multi-GPU Stencil with MPI") runs one host
//! process per GPU and exchanges halos over MPI. Here each rank is a
//! host-interpreter thread with its own simulated device. The world
//! keeps its state under one lock: the `f32` messages in flight between
//! each ordered pair of ranks, the barrier, and what each rank is doing.
//!
//! A rank that would wait first checks whether any rank can still move.
//! When none can, no wait can ever end: the world records a deadlock,
//! and every waiting call fails with one diagnostic that names each rank
//! and its call. This is the wait-for check of MUST (Hilbrich et al.,
//! "MPI Runtime Error Detection with MUST: Advances in Deadlock
//! Detection", SC 2012), exact here because the whole world is in one
//! process. It covers receives that wait on each other and a barrier
//! that a finished rank can never reach.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A communicator for a fixed-size world. Clone one handle per rank
/// with [`CommWorld::into_rank_comms`].
pub struct CommWorld {
    size: usize,
    world: Arc<World>,
}

/// The state every rank shares, and the signal that it changed.
struct World {
    state: Mutex<State>,
    changed: Condvar,
}

struct State {
    size: usize,
    /// `queues[src * size + dst]`: messages sent and not yet received.
    queues: Vec<VecDeque<Vec<f32>>>,
    ranks: Vec<Activity>,
    /// Ranks waiting in the current barrier round.
    arrived: usize,
    /// Barrier rounds completed.
    rounds: u64,
    /// Set once no rank can move; every wait then fails with it.
    deadlock: Option<String>,
}

/// What a rank is doing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Activity {
    Running,
    /// Waiting in `wbMPI_recvFloat` for a message from this rank.
    Recv(usize),
    /// Waiting in `wbMPI_barrier` for this round to complete.
    Barrier(u64),
    Finished,
}

impl State {
    /// Whether rank `r` runs or has what its wait waits for.
    fn can_move(&self, r: usize) -> bool {
        match self.ranks[r] {
            Activity::Running => true,
            Activity::Recv(src) => {
                !self.queues[src * self.size + r].is_empty()
                    || self.ranks[src] == Activity::Finished
            }
            Activity::Barrier(round) => self.rounds != round,
            Activity::Finished => false,
        }
    }

    /// Record a deadlock when some rank waits and no rank can move.
    fn check_deadlock(&mut self) {
        let waiting = self
            .ranks
            .iter()
            .any(|a| matches!(a, Activity::Recv(_) | Activity::Barrier(_)));
        if self.deadlock.is_some() || !waiting || (0..self.size).any(|r| self.can_move(r)) {
            return;
        }
        let calls: Vec<String> = (0..self.size)
            .map(|r| match self.ranks[r] {
                Activity::Recv(src) => format!("rank {r} waits in wbMPI_recvFloat for rank {src}"),
                Activity::Barrier(_) => format!("rank {r} waits in wbMPI_barrier"),
                _ => format!("rank {r} has finished"),
            })
            .collect();
        self.deadlock = Some(format!(
            "MPI deadlock: no rank can continue ({})",
            calls.join("; ")
        ));
    }
}

impl World {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CommWorld {
    /// Build a world of `size` ranks.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "world needs at least one rank");
        let state = State {
            size,
            queues: (0..size * size).map(|_| VecDeque::new()).collect(),
            ranks: vec![Activity::Running; size],
            arrived: 0,
            rounds: 0,
            deadlock: None,
        };
        CommWorld {
            size,
            world: Arc::new(World {
                state: Mutex::new(state),
                changed: Condvar::new(),
            }),
        }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Extract the per-rank communicator handles (consumes the world).
    pub fn into_rank_comms(self) -> Vec<RankComm> {
        (0..self.size)
            .map(|rank| RankComm {
                rank,
                size: self.size,
                world: Arc::clone(&self.world),
            })
            .collect()
    }
}

/// One rank's communicator. Dropping it finishes the rank.
pub struct RankComm {
    rank: usize,
    size: usize,
    world: Arc<World>,
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
    /// or a finished peer.
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
        let mut st = self.world.lock();
        if st.ranks[dst] == Activity::Finished {
            return Err(format!("rank {dst} is gone"));
        }
        st.queues[self.rank * self.size + dst].push_back(data);
        self.world.changed.notify_all();
        Ok(())
    }

    /// Receive the next float buffer from `src`, waiting for it. Fails
    /// when `src` finished without sending it, or when no rank can
    /// move.
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
        let queue = src * self.size + self.rank;
        let st = self.world.lock();
        self.wait(st, Activity::Recv(src), |st| {
            if let Some(data) = st.queues[queue].pop_front() {
                Some(Ok(data))
            } else if st.ranks[src] == Activity::Finished {
                Some(Err(format!("rank {src} exited without sending")))
            } else {
                None
            }
        })
    }

    /// Wait until every rank reaches the barrier. Fails when no rank
    /// can move, which includes a rank that finished without reaching
    /// it.
    pub fn barrier(&self) -> Result<(), String> {
        let mut st = self.world.lock();
        let round = st.rounds;
        st.arrived += 1;
        if st.arrived == self.size {
            st.arrived = 0;
            st.rounds += 1;
            self.world.changed.notify_all();
            return Ok(());
        }
        self.wait(st, Activity::Barrier(round), |st| {
            (st.rounds != round).then_some(Ok(()))
        })
    }

    /// Wait, marked as `doing`, until `ready` yields this call's result
    /// or the world deadlocks.
    fn wait<T>(
        &self,
        mut st: MutexGuard<'_, State>,
        doing: Activity,
        mut ready: impl FnMut(&mut State) -> Option<Result<T, String>>,
    ) -> Result<T, String> {
        loop {
            // A deadlock is recorded only when no rank could move, so it
            // is the answer to every wait, whatever has happened since.
            if let Some(message) = &st.deadlock {
                return Err(message.clone());
            }
            if let Some(result) = ready(&mut st) {
                st.ranks[self.rank] = Activity::Running;
                return result;
            }
            st.ranks[self.rank] = doing;
            st.check_deadlock();
            if st.deadlock.is_some() {
                self.world.changed.notify_all();
                continue;
            }
            st = self
                .world
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for RankComm {
    fn drop(&mut self) {
        let mut st = self.world.lock();
        st.ranks[self.rank] = Activity::Finished;
        st.check_deadlock();
        self.world.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, Dialect, RunOptions};

    #[test]
    fn two_ranks_exchange() {
        // Sends never wait, so one thread can play both ranks.
        let comms = CommWorld::new(2).into_rank_comms();
        comms[0].send(1, vec![1.0, 2.0]).unwrap();
        assert_eq!(comms[1].recv(0).unwrap(), vec![1.0, 2.0]);
        comms[1].send(0, vec![3.0]).unwrap();
        assert_eq!(comms[0].recv(1).unwrap(), vec![3.0]);
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
    fn a_finished_ranks_messages_arrive_and_then_its_absence_is_reported() {
        let mut comms = CommWorld::new(2).into_rank_comms();
        let c1 = comms.pop().unwrap();
        c1.send(0, vec![4.0]).unwrap();
        drop(c1);
        assert_eq!(comms[0].send(1, vec![]).unwrap_err(), "rank 1 is gone");
        assert_eq!(comms[0].recv(1).unwrap(), vec![4.0]);
        assert_eq!(
            comms[0].recv(1).unwrap_err(),
            "rank 1 exited without sending"
        );
        assert_eq!(
            comms[0].barrier().unwrap_err(),
            "MPI deadlock: no rank can continue (rank 0 waits in wbMPI_barrier; rank 1 has finished)"
        );
    }

    #[test]
    fn barrier_synchronizes() {
        // Each rank sends to the next only after the first barrier and
        // receives from the previous only after the second, so every
        // receive finds its message; a rank that skips the second
        // barrier leaves the others waiting in it for good. The
        // skipping rank takes its message first: had it finished
        // before its sender sent, that send would fail instead.
        let run = |skip: &str| {
            let src = format!(
                "int main() {{
                    float* h = (float*) malloc(4);
                    int r = wbMPI_rank();
                    h[0] = r;
                    wbMPI_barrier();
                    wbMPI_sendFloat((r + 1) % 3, h, 1);
                    if ({skip}) {{ wbMPI_recvFloat((r + 2) % 3, h, 1); return 0; }}
                    wbMPI_barrier();
                    wbMPI_recvFloat((r + 2) % 3, h, 1);
                    if (h[0] != (r + 2) % 3) {{ return 1 / 0; }}
                    return 0;
                }}"
            );
            let program = compile(&src, Dialect::Cuda).unwrap_or_else(|d| panic!("{d}"));
            let opts = RunOptions {
                world_size: 3,
                ..Default::default()
            };
            crate::run(&program, &[], &opts)
        };
        let out = run("0");
        assert!(out.ok(), "{:?}", out.error);
        let err = run("r == 2").error.expect("deadlock");
        assert_eq!(
            err.message,
            "MPI deadlock: no rank can continue (rank 0 waits in wbMPI_barrier; \
             rank 1 waits in wbMPI_barrier; rank 2 has finished)"
        );
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
