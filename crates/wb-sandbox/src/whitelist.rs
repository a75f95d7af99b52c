//! Runtime syscall whitelist — the seccomp-bpf analogue.
//!
//! Instructors provide a per-lab whitelist of calls (§III-D). In the
//! simulated toolchain, the "syscalls" are minicuda hostcalls; this
//! type implements `minicuda::HostcallPolicy` so the host interpreter
//! kills the run at the first non-whitelisted call, like seccomp's
//! `SECCOMP_RET_KILL`.

use minicuda::HostcallPolicy;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An instructor-provided whitelist of allowed hostcalls. Clones share
/// the call set until one of them is edited; equality compares
/// contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallWhitelist {
    name: String,
    allowed: Arc<BTreeSet<String>>,
}

impl SyscallWhitelist {
    /// Build from an explicit list.
    pub fn new(name: impl Into<String>, calls: impl IntoIterator<Item = String>) -> Self {
        SyscallWhitelist {
            name: name.into(),
            allowed: Arc::new(calls.into_iter().collect()),
        }
    }

    /// The default profile for single-GPU CUDA labs: memory, CUDA API,
    /// dataset import/export, logging, timing — no MPI.
    pub fn cuda_default() -> Self {
        SyscallWhitelist::new(
            "cuda-default",
            [
                "malloc",
                "free",
                "cudaMalloc",
                "cudaFree",
                "cudaMemcpy",
                "cudaMemcpyToSymbol",
                "cudaDeviceSynchronize",
                "cudaGetLastError",
                "cudaSetDevice",
                "cudaGetDeviceCount",
                "kernelLaunch",
                "wbImportVector",
                "wbImportIntVector",
                "wbImportMatrix",
                "wbImportImage",
                "wbImportCsrRowPtr",
                "wbImportCsrColIdx",
                "wbImportCsrValues",
                "wbImportGraphRowPtr",
                "wbImportGraphNeighbors",
                "wbImportScalar",
                "wbSolution",
                "wbSolutionInt",
                "wbSolutionMatrix",
                "wbSolutionImage",
                "wbSolutionScalar",
                "wbLog",
                "wbTime_start",
                "wbTime_stop",
                "exit",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
    }

    /// The MPI profile: the CUDA profile plus the `wbMPI_*` calls, used
    /// only by labs tagged as requiring MPI.
    pub fn mpi_profile() -> Self {
        let mut w = Self::cuda_default();
        w.name = "mpi-profile".to_string();
        let allowed = Arc::make_mut(&mut w.allowed);
        for c in [
            "wbMPI_rank",
            "wbMPI_size",
            "wbMPI_sendFloat",
            "wbMPI_recvFloat",
            "wbMPI_barrier",
        ] {
            allowed.insert(c.to_string());
        }
        w
    }

    /// Add a call to the whitelist. (Named `add` rather than `allow`
    /// because the `HostcallPolicy` trait already claims `allow` for
    /// the read path and would win method resolution on `&self`.)
    pub fn add(&mut self, call: impl Into<String>) {
        Arc::make_mut(&mut self.allowed).insert(call.into());
    }

    /// Remove a call from the whitelist.
    pub fn remove(&mut self, call: &str) {
        Arc::make_mut(&mut self.allowed).remove(call);
    }

    /// Number of whitelisted calls.
    pub fn len(&self) -> usize {
        self.allowed.len()
    }

    /// True when nothing is whitelisted.
    pub fn is_empty(&self) -> bool {
        self.allowed.is_empty()
    }

    /// The whitelisted calls, in sorted order (BTreeSet iteration),
    /// which makes the sequence stable for content hashing.
    pub fn calls(&self) -> impl Iterator<Item = &str> {
        self.allowed.iter().map(|s| s.as_str())
    }
}

impl HostcallPolicy for SyscallWhitelist {
    fn allow(&self, call: &str) -> bool {
        self.allowed.contains(call)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libwb::Dataset;
    use minicuda::{compile, Dialect, RunOptions};

    #[test]
    fn default_profile_allows_cuda_denies_mpi() {
        let w = SyscallWhitelist::cuda_default();
        assert!(HostcallPolicy::allow(&w, "cudaMalloc"));
        assert!(HostcallPolicy::allow(&w, "kernelLaunch"));
        assert!(!HostcallPolicy::allow(&w, "wbMPI_sendFloat"));
        assert_eq!(w.name(), "cuda-default");
    }

    #[test]
    fn mpi_profile_extends_cuda() {
        let w = SyscallWhitelist::mpi_profile();
        assert!(HostcallPolicy::allow(&w, "wbMPI_barrier"));
        assert!(HostcallPolicy::allow(&w, "cudaMemcpy"));
    }

    #[test]
    fn allow_and_deny_mutate() {
        let mut w = SyscallWhitelist::new("t", std::iter::empty());
        assert!(w.is_empty());
        w.add("foo");
        assert!(HostcallPolicy::allow(&w, "foo"));
        assert_eq!(w.len(), 1);
        w.remove("foo");
        assert!(!HostcallPolicy::allow(&w, "foo"));
    }

    #[test]
    fn editing_a_clone_leaves_the_original() {
        let original = SyscallWhitelist::cuda_default();
        let mut copy = original.clone();
        assert_eq!(copy, original);
        copy.add("wbMPI_rank");
        copy.remove("malloc");
        assert!(HostcallPolicy::allow(&copy, "wbMPI_rank"));
        assert!(!HostcallPolicy::allow(&copy, "malloc"));
        assert!(!HostcallPolicy::allow(&original, "wbMPI_rank"));
        assert!(HostcallPolicy::allow(&original, "malloc"));
        assert_eq!(original, SyscallWhitelist::cuda_default(), "unchanged");
        assert_ne!(copy, original);
        // Equality compares contents, not the shared table: undoing the
        // edits on the clone's own table makes it equal again.
        copy.remove("wbMPI_rank");
        copy.add("malloc");
        assert_eq!(copy, original);
    }

    #[test]
    fn enforced_end_to_end_by_interpreter() {
        // An MPI call under the CUDA profile must die with a security
        // diagnostic, exactly like a seccomp kill.
        let src = "int main() { int r = wbMPI_rank(); return 0; }";
        let program = compile(src, Dialect::Cuda).unwrap();
        let w = SyscallWhitelist::cuda_default();
        let out =
            minicuda::run_with_policy(&program, &[] as &[Dataset], &RunOptions::default(), &w);
        let err = out.error.expect("must be killed");
        assert_eq!(err.phase, minicuda::Phase::Security);
        assert!(err.message.contains("wbMPI_rank"));
    }

    #[test]
    fn whitelisted_program_runs_clean() {
        let src = "int main() { wbLog(INFO, \"ok\"); return 0; }";
        let program = compile(src, Dialect::Cuda).unwrap();
        let w = SyscallWhitelist::cuda_default();
        let out =
            minicuda::run_with_policy(&program, &[] as &[Dataset], &RunOptions::default(), &w);
        assert!(out.ok(), "{:?}", out.error);
    }
}
