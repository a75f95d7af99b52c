//! Offline stand-in for `bytes` 1: a refcounted immutable byte buffer.

use std::ops::Deref;
use std::sync::Arc;

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes(data.into())
    }

    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes(data.into())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(v.into())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes(v.into())
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes(v.as_bytes().into())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes(v.into_bytes().into())
    }
}
