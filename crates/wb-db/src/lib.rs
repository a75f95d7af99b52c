//! `wb-db` — the database substrate.
//!
//! WebGPU 1.0 stored "all user records such as user profile, program
//! submissions, and grades" in MySQL, later Amazon Aurora (§III-B).
//! This crate rebuilds exactly the slice of database behaviour the
//! platform depends on:
//!
//! * typed **tables** with u64 primary keys and **secondary indexes**,
//!   keeping each distinct long text once where a table asks
//!   ([`table`]);
//! * a keyed **blob store** standing in for the S3 dataset bucket of
//!   WebGPU 2.0 ([`blob`]).

pub mod blob;
pub mod table;

pub use blob::BlobStore;
pub use table::{Kept, Table, TableError, Texts};
