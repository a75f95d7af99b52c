//! `wb-sandbox` — the two-layer security model of WebGPU (§III-D) plus
//! the WebGPU 2.0 container pool (§VI-B).
//!
//! The paper's production system combines:
//!
//! 1. **compile-time black listing**: a textual scan of the *unparsed*
//!    student code rejecting strings like `asm(` — including inside
//!    comments, a documented false-positive trade-off ([`blacklist`]);
//! 2. **run-time white listing**: a seccomp-bpf whitelist of POSIX
//!    calls, provided by the instructor per lab ([`whitelist`] — wired
//!    into the simulated toolchain through `minicuda`'s
//!    `HostcallPolicy`);
//! 3. **unprivileged execution** in a unique temporary directory via
//!    `setuid` ([`jobdir`]);
//! 4. (v2) a pool of **Docker containers** per worker, one fresh
//!    container per job, image chosen by the lab's toolchain
//!    ([`container`]).
//!
//! All four are reimplemented against the simulated toolchain; the
//! enforcement *points* are identical even though the mechanisms are
//! in-process.

pub mod blacklist;
pub mod container;
pub mod jobdir;
pub mod limits;
pub mod whitelist;

pub use blacklist::{Blacklist, PatternError, ScanMode, Violation};
pub use container::{ContainerPool, Image, PoolStats};
pub use jobdir::{live_dir_count, JobDir};
pub use limits::ResourceLimits;
pub use whitelist::SyscallWhitelist;
