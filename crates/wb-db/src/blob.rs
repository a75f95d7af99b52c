//! Keyed blob store — the S3 dataset bucket of WebGPU 2.0.
//!
//! §VI-A: *"Lab datasets are stored on an Amazon S3 Bucket which is
//! accessible by both the OpenEdx instructor and the worker nodes."*
//! Blobs are addressed by a caller-chosen key, like an S3 object key.

use std::collections::HashMap;
use std::sync::Arc;
use wb_obs::sync::RwLock;

/// An in-memory object store: put and get by key.
#[derive(Debug, Default)]
pub struct BlobStore {
    objects: RwLock<HashMap<String, Arc<[u8]>>>,
}

impl BlobStore {
    /// Empty store.
    pub fn new() -> Self {
        BlobStore::default()
    }

    /// Store an object, replacing any previous one under `key`.
    pub fn put(&self, key: impl Into<String>, data: impl Into<Arc<[u8]>>) {
        self.objects.write().insert(key.into(), data.into());
    }

    /// Fetch an object (cheap clone — the payload is refcounted).
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        self.objects.read().get(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = BlobStore::new();
        s.put("labs/vecadd/input0.raw", &b"vector 3\n1 2 3\n"[..]);
        assert_eq!(
            &*s.get("labs/vecadd/input0.raw").unwrap(),
            b"vector 3\n1 2 3\n"
        );
        assert!(s.get("missing").is_none());
        s.put("labs/vecadd/input0.raw", &b"swapped"[..]);
        assert_eq!(&*s.get("labs/vecadd/input0.raw").unwrap(), b"swapped");
    }
}
