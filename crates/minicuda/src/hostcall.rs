//! Hostcall policy: the enforcement point for the sandbox whitelist.
//!
//! The paper (§III-D): *"we utilize the Linux kernel's seccomp
//! facilities … a whitelist of posix calls that are allowed to be run
//! by a process. The whitelist is provided by the instructor on a per
//! lab basis."* In the simulated toolchain every interaction a student
//! program has with the outside world goes through a named hostcall
//! (`malloc`, `cudaMemcpy`, `wbImportVector`, …), so a whitelist over
//! hostcall names is the faithful analogue of a seccomp-bpf program
//! over syscall numbers. `wb-sandbox` implements [`HostcallPolicy`] from
//! instructor lab configuration.

/// The hostcall every kernel launch makes: the one a policy sees that
/// is not a built-in host call of [`crate::intrinsic`].
pub const KERNEL_LAUNCH: &str = "kernelLaunch";

/// Decides whether a host program may perform a named hostcall.
pub trait HostcallPolicy: Sync {
    /// Return `true` to allow the call. A `false` aborts the run with a
    /// security diagnostic, mirroring seccomp's kill-on-violation.
    fn allow(&self, call: &str) -> bool;

    /// Human-readable policy name for diagnostics.
    fn name(&self) -> &str {
        "policy"
    }
}

/// Permissive policy used by tests and offline development.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllowAll;

impl HostcallPolicy for AllowAll {
    fn allow(&self, _call: &str) -> bool {
        true
    }

    fn name(&self) -> &str {
        "allow-all"
    }
}

/// Policy denying an explicit set of calls (testing helper).
#[derive(Debug, Default, Clone)]
pub struct DenyList(pub Vec<String>);

impl HostcallPolicy for DenyList {
    fn allow(&self, call: &str) -> bool {
        !self.0.iter().any(|c| c == call)
    }

    fn name(&self) -> &str {
        "deny-list"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_all_allows() {
        assert!(AllowAll.allow("cudaMalloc"));
        assert_eq!(AllowAll.name(), "allow-all");
    }

    #[test]
    fn deny_list_denies() {
        let p = DenyList(vec!["malloc".into()]);
        assert!(!p.allow("malloc"));
        assert!(p.allow("cudaMalloc"));
    }
}
