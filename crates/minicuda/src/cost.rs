//! Device cost model.
//!
//! The simulator does not try to be cycle-accurate for any particular
//! GPU; it charges costs whose *ratios* match the phenomena the labs
//! teach: uncoalesced global accesses cost proportionally more
//! transactions, shared-memory bank conflicts serialize, atomics
//! serialize per lane, and divergence multiplies issue slots. Tiled
//! matrix multiply therefore beats the naive kernel by roughly the
//! reuse factor, which is exactly the signal WebGPU's timing report
//! gives students.
//!
//! # Instruction accounting is IR-based
//!
//! `warp_instructions` (and the `issue` cycles charged for them) count
//! **kernel-IR instructions executed per active warp** by the batched
//! executor (`batch`), not source AST nodes: one `Bin` is one issue,
//! one `Load` is one issue plus its memory transactions, and an
//! expression the optimizer folded or hoisted out of a loop is never
//! charged inside it. Instruction counts therefore *drop* when the
//! middle-end optimizes a kernel — that is the observable the
//! opt-level exists to improve — while every memory-system counter
//! (`global_transactions`, `shared_conflicts`, `barriers`, `atomics`,
//! `divergent_branches`, access counts) is bit-identical across
//! executors and opt levels, because passes never create, delete, or
//! move a memory or control instruction. The `O0` tree-walk fallback
//! (`simt`) approximates the same accounting by charging per evaluated
//! expression/statement node, which is why cycle totals — but nothing
//! else — differ between levels.

/// Tunable cycle charges.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Issue cost per warp-instruction.
    pub issue: u64,
    /// Cycles per 128-byte global memory transaction.
    pub global_transaction: u64,
    /// Cycles per conflict-free shared access (per warp).
    pub shared_access: u64,
    /// Extra cycles per additional conflicting access on the worst bank.
    pub shared_conflict: u64,
    /// Cycles per lane for a global atomic.
    pub atomic: u64,
    /// Cycles per `__syncthreads`.
    pub barrier: u64,
    /// Cycles per special-function (sqrt/exp/…) warp-instruction.
    pub sfu: u64,
    /// Fixed cycles per kernel launch.
    pub launch_overhead: u64,
    /// Fixed cycles per block (scheduling).
    pub block_overhead: u64,
    /// Host↔device copy: cycles per 32-bit word.
    pub copy_word: u64,
    /// Cycles per interpreted host statement.
    pub host_step: u64,
    /// Number of banks in shared memory.
    pub shared_banks: usize,
    /// Words per global memory transaction (128 B / 4 B).
    pub transaction_words: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            issue: 4,
            global_transaction: 100,
            shared_access: 4,
            shared_conflict: 4,
            atomic: 40,
            barrier: 16,
            sfu: 16,
            launch_overhead: 2_000,
            block_overhead: 100,
            copy_word: 1,
            host_step: 10,
            shared_banks: 32,
            transaction_words: 32,
        }
    }
}

/// Counters accumulated over a run (per block, then merged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSummary {
    /// Warp-instructions issued.
    pub warp_instructions: u64,
    /// Global memory transactions (coalescing-aware).
    pub global_transactions: u64,
    /// Individual global accesses (lanes).
    pub global_accesses: u64,
    /// Shared memory accesses (warp-level).
    pub shared_accesses: u64,
    /// Extra serialized shared accesses from bank conflicts.
    pub shared_conflicts: u64,
    /// Atomic operations (lanes).
    pub atomics: u64,
    /// Barriers executed (warp-level).
    pub barriers: u64,
    /// Branches where a warp's lanes diverged.
    pub divergent_branches: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Words copied host→device.
    pub words_h2d: u64,
    /// Words copied device→host.
    pub words_d2h: u64,
    /// Interpreted host statements.
    pub host_steps: u64,
    /// Total device cycles (sum over blocks — wall-clock cycles are
    /// computed by the SM scheduler in `device`).
    pub device_cycles: u64,
}

impl CostSummary {
    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &CostSummary) {
        self.warp_instructions += other.warp_instructions;
        self.global_transactions += other.global_transactions;
        self.global_accesses += other.global_accesses;
        self.shared_accesses += other.shared_accesses;
        self.shared_conflicts += other.shared_conflicts;
        self.atomics += other.atomics;
        self.barriers += other.barriers;
        self.divergent_branches += other.divergent_branches;
        self.kernel_launches += other.kernel_launches;
        self.words_h2d += other.words_h2d;
        self.words_d2h += other.words_d2h;
        self.host_steps += other.host_steps;
        self.device_cycles += other.device_cycles;
    }

    /// Average global accesses per transaction — 32 means perfectly
    /// coalesced, 1 means fully scattered.
    pub fn coalescing_ratio(&self) -> f64 {
        if self.global_transactions == 0 {
            return 0.0;
        }
        self.global_accesses as f64 / self.global_transactions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = CostSummary {
            warp_instructions: 10,
            device_cycles: 100,
            ..Default::default()
        };
        let b = CostSummary {
            warp_instructions: 5,
            device_cycles: 50,
            atomics: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.warp_instructions, 15);
        assert_eq!(a.device_cycles, 150);
        assert_eq!(a.atomics, 3);
    }

    #[test]
    fn coalescing_ratio() {
        let s = CostSummary {
            global_accesses: 64,
            global_transactions: 2,
            ..Default::default()
        };
        assert_eq!(s.coalescing_ratio(), 32.0);
        assert_eq!(CostSummary::default().coalescing_ratio(), 0.0);
    }

    #[test]
    fn default_model_ratios_teach_the_right_lessons() {
        let m = CostModel::default();
        // Global traffic must dominate arithmetic, or tiling labs
        // would show no speedup.
        assert!(m.global_transaction > 10 * m.issue);
        // Shared must be much cheaper than global.
        assert!(m.global_transaction > 10 * m.shared_access);
    }
}
