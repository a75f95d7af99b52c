//! wb-cache: content-addressed compile/grade cache with single-flight
//! deduplication.
//!
//! The paper's load profile is dominated by deadline rushes in which
//! many students submit the *same bytes* against the *same datasets*
//! within minutes (resubmissions, shared starter code, last-minute
//! copies). Because the grading toolchain is deterministic, any two
//! submissions with identical inputs produce identical outcomes — so
//! the cluster can execute each distinct (source, lab-config, dataset)
//! combination once and serve every duplicate from cache.
//!
//! The crate is two layers:
//!
//! * [`key`] — the key-derivation rules over `libwb`'s 128-bit content
//!   hasher (re-exported here as [`ContentHasher`]): [`CompileKey`]
//!   covers everything that can change a compile result, [`GradeKey`]
//!   everything that can change a dataset grade.
//! * [`cache`] — one table per tier ([`CachedMap`]): a byte-budgeted,
//!   sharded LRU whose slots are either resident values or in-flight
//!   computations, so a lookup decides hit, coalesce or lead under one
//!   lock and each key computes once. [`SubmissionCache`] bundles the
//!   compile and grade tiers with hit/miss/coalesced/eviction counters
//!   ([`CacheMetrics`]).
//!
//! The worker crate instantiates `SubmissionCache<DatasetOutcome>` and
//! both cluster implementations share one instance fleet-wide.

pub mod cache;
pub mod key;

pub use cache::{
    CacheConfig, CacheMetrics, CachedMap, CompiledEntry, LookupOutcome, MapMetrics, SubmissionCache,
};
pub use key::{CompileKey, GradeKey};
pub use libwb::hash::{hash_bytes, ContentHash, ContentHasher};
