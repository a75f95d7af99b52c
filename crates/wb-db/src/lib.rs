//! `wb-db` — the database substrate.
//!
//! WebGPU 1.0 stored "all user records such as user profile, program
//! submissions, and grades" in MySQL, later Amazon Aurora (§III-B), and
//! the web server kept a connection pool to it. WebGPU 2.0 replicates
//! the database across availability zones (§VI-A). This crate rebuilds
//! exactly the slice of database behaviour the platform depends on:
//!
//! * typed **tables** over [`Encode`] records with u64 primary keys and
//!   **secondary indexes** ([`table`]);
//! * a compact **binary codec** — one `Encode` trait, a macro for
//!   structs and fieldless enums — in which rows, WAL records and
//!   replication frames are written ([`codec`]);
//! * a **write-ahead log + snapshot** story for durability ([`wal`]);
//! * a **connection pool** with checkout accounting ([`pool`]);
//! * **primary → replica replication** with measurable lag ([`replica`]);
//! * a content-addressed **blob store** standing in for the S3 dataset
//!   bucket of WebGPU 2.0 ([`blob`]).

pub mod blob;
pub mod codec;
pub mod pool;
pub mod replica;
pub mod table;
pub mod wal;

pub use blob::BlobStore;
pub use codec::{decode, encode, CodecError, Decoder, Encode};
pub use pool::{ConnectionPool, PoolGuard};
pub use replica::ReplicatedTable;
pub use table::{Table, TableError};
pub use wal::{Wal, WalRecord};
