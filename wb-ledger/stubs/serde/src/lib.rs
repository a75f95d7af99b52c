//! Offline stand-in for `serde` 1: the published crate's trait shapes —
//! enough of the data model for `wb-db`'s binary codec and the derives the
//! product crates use — with none of its optional surface (no 128-bit
//! integers, no `rc`, no borrowed `Cow`, no flatten/tag attributes).

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
