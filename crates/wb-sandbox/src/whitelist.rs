//! Runtime syscall whitelist — the seccomp-bpf analogue.
//!
//! Instructors provide a per-lab whitelist of calls (§III-D). In the
//! simulated toolchain, the "syscalls" are minicuda hostcalls; this
//! type implements `minicuda::HostcallPolicy` so the host interpreter
//! kills the run at the first non-whitelisted call, like seccomp's
//! `SECCOMP_RET_KILL`.

use libwb::hash::{ContentHash, ContentHasher};
use minicuda::intrinsic::{Intrinsic, Op};
use minicuda::{HostcallPolicy, KERNEL_LAUNCH};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An instructor-provided whitelist of allowed hostcalls. Clones share
/// the profile name, the call set and its digest until one of them is
/// edited; equality compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallWhitelist {
    table: Arc<Table>,
}

/// The part of a whitelist its clones share.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Table {
    name: String,
    allowed: BTreeSet<String>,
    /// Content digest of `name` and `allowed`, kept current by every
    /// edit.
    digest: ContentHash,
}

/// Content digest of a profile: its name, then its calls in order.
fn digest(name: &str, allowed: &BTreeSet<String>) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_str(name);
    h.write_u64(allowed.len() as u64);
    for c in allowed {
        h.write_str(c);
    }
    h.finish()
}

/// The spellings of the built-in table's host calls: the MPI ones, or
/// all the others.
fn host_calls(mpi: bool) -> impl Iterator<Item = String> {
    Intrinsic::all().filter_map(move |b| match b.op() {
        Op::Host(op) if op.is_mpi() == mpi => Some(b.name().to_string()),
        _ => None,
    })
}

impl SyscallWhitelist {
    /// Build from an explicit list.
    pub fn new(name: impl Into<String>, calls: impl IntoIterator<Item = String>) -> Self {
        let (name, allowed) = (name.into(), calls.into_iter().collect());
        let digest = digest(&name, &allowed);
        let table = Arc::new(Table {
            name,
            allowed,
            digest,
        });
        SyscallWhitelist { table }
    }

    /// Edit this whitelist's own copy of the table (copying it first if
    /// a clone shares it), then bring the digest up to date.
    fn edit(&mut self, f: impl FnOnce(&mut Table)) {
        let table = Arc::make_mut(&mut self.table);
        f(table);
        table.digest = digest(&table.name, &table.allowed);
    }

    /// The default profile for single-GPU CUDA labs: every host call of
    /// the built-in table but the MPI ones (memory, the CUDA API,
    /// dataset import/export, logging, timing), and kernel launches.
    pub fn cuda_default() -> Self {
        let calls = host_calls(false).chain([KERNEL_LAUNCH.to_string()]);
        SyscallWhitelist::new("cuda-default", calls)
    }

    /// The MPI profile: the CUDA profile plus the table's MPI calls, used
    /// only by labs tagged as requiring MPI.
    pub fn mpi_profile() -> Self {
        let mut w = Self::cuda_default();
        w.edit(|t| {
            t.name = "mpi-profile".to_string();
            t.allowed.extend(host_calls(true));
        });
        w
    }

    /// Add a call to the whitelist. (Named `add` rather than `allow`
    /// because the `HostcallPolicy` trait already claims `allow` for
    /// the read path and would win method resolution on `&self`.)
    pub fn add(&mut self, call: impl Into<String>) {
        let call = call.into();
        self.edit(|t| {
            t.allowed.insert(call);
        });
    }

    /// Remove a call from the whitelist.
    pub fn remove(&mut self, call: &str) {
        self.edit(|t| {
            t.allowed.remove(call);
        });
    }

    /// Number of whitelisted calls.
    pub fn len(&self) -> usize {
        self.table.allowed.len()
    }

    /// True when nothing is whitelisted.
    pub fn is_empty(&self) -> bool {
        self.table.allowed.is_empty()
    }

    /// The whitelisted calls, in sorted order (BTreeSet iteration).
    pub fn calls(&self) -> impl Iterator<Item = &str> {
        self.table.allowed.iter().map(|s| s.as_str())
    }

    /// Content digest of the profile name and the call set, current
    /// after every edit: what a cache key folds in for the whitelist.
    pub fn digest(&self) -> ContentHash {
        self.table.digest
    }
}

impl HostcallPolicy for SyscallWhitelist {
    fn allow(&self, call: &str) -> bool {
        self.table.allowed.contains(call)
    }

    fn name(&self) -> &str {
        &self.table.name
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
    fn the_built_in_profiles_hold_exactly_these_calls() {
        let cuda = SyscallWhitelist::cuda_default();
        assert_eq!(
            cuda.calls().collect::<Vec<_>>().join(" "),
            "cudaDeviceSynchronize cudaFree cudaGetDeviceCount cudaGetLastError cudaMalloc \
             cudaMemcpy cudaMemcpyToSymbol cudaSetDevice exit free kernelLaunch malloc \
             wbImportCsrColIdx wbImportCsrRowPtr wbImportCsrValues wbImportGraphNeighbors \
             wbImportGraphRowPtr wbImportImage wbImportIntVector wbImportMatrix wbImportScalar \
             wbImportVector wbLog wbSolution wbSolutionImage wbSolutionInt wbSolutionMatrix \
             wbSolutionScalar wbTime_start wbTime_stop"
        );
        assert_eq!(
            cuda.digest().to_string(),
            "91ed99ad9d988cb47b9d530f629e035d"
        );
        let mpi = SyscallWhitelist::mpi_profile();
        let extra: Vec<_> = mpi
            .calls()
            .filter(|c| !HostcallPolicy::allow(&cuda, c))
            .collect();
        assert_eq!(
            extra.join(" "),
            "wbMPI_barrier wbMPI_rank wbMPI_recvFloat wbMPI_sendFloat wbMPI_size"
        );
        assert_eq!(mpi.len(), cuda.len() + extra.len());
        assert_eq!(mpi.digest().to_string(), "e7530d8b4656c00ab92eee0f6714f869");
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
        assert_ne!(copy.digest(), original.digest());
        assert_eq!(original.digest(), SyscallWhitelist::cuda_default().digest());
        // Equality compares contents, not the shared table: undoing the
        // edits on the clone's own table makes it equal again, digest
        // included.
        copy.remove("wbMPI_rank");
        copy.add("malloc");
        assert!(!Arc::ptr_eq(&copy.table, &original.table));
        assert_eq!(copy, original);
        assert_eq!(copy.digest(), original.digest());
    }

    #[test]
    fn clones_share_name_calls_and_digest() {
        let original = SyscallWhitelist::mpi_profile();
        let copy = original.clone();
        assert!(Arc::ptr_eq(&copy.table, &original.table));
        assert_eq!(Arc::strong_count(&original.table), 2);
        assert_eq!(
            std::mem::size_of::<SyscallWhitelist>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn digest_covers_name_and_calls() {
        let calls = || ["a".to_string(), "b".to_string()];
        let base = SyscallWhitelist::new("p", calls()).digest();
        assert_eq!(
            base,
            SyscallWhitelist::new("p", calls().into_iter().rev()).digest()
        );
        assert_ne!(base, SyscallWhitelist::new("q", calls()).digest());
        assert_ne!(
            base,
            SyscallWhitelist::new("p", ["ab".to_string()]).digest()
        );
        let mut edited = SyscallWhitelist::new("p", calls());
        edited.add("b");
        assert_eq!(edited.digest(), base, "re-adding a call is no edit");
        edited.remove("b");
        assert_eq!(
            edited.digest(),
            SyscallWhitelist::new("p", ["a".to_string()]).digest()
        );
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
