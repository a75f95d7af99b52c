//! `wb-db` — the database substrate.
//!
//! WebGPU 1.0 stored "all user records such as user profile, program
//! submissions, and grades" in MySQL, later Amazon Aurora (§III-B).
//! This crate rebuilds exactly the slice of database behaviour the
//! platform depends on:
//!
//! * typed **tables** over [`Encode`] records with u64 primary keys and
//!   **secondary indexes** ([`table`]);
//! * a compact **binary codec** — one `Encode` trait, a macro for
//!   structs and fieldless enums — in which rows are stored ([`codec`]);
//! * a keyed **blob store** standing in for the S3 dataset bucket of
//!   WebGPU 2.0 ([`blob`]).

pub mod blob;
pub mod codec;
pub mod table;

pub use blob::BlobStore;
pub use codec::{decode, encode, CodecError, Decoder, Encode};
pub use table::{Table, TableError};
