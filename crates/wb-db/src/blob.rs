//! Content-addressed blob store — the S3 dataset bucket of WebGPU 2.0.
//!
//! §VI-A: *"Lab datasets are stored on an Amazon S3 Bucket which is
//! accessible by both the OpenEdx instructor and the worker nodes."*
//! Blobs are addressed both by a caller-chosen key (like an S3 object
//! key) and verified by a content hash (ETag-style), so a worker can
//! detect a corrupted or swapped dataset before grading against it.

use std::collections::BTreeMap;
use std::sync::Arc;
use wb_obs::sync::RwLock;

/// A stored object's metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobMeta {
    /// Object key.
    pub key: String,
    /// Size in bytes.
    pub size: usize,
    /// FNV-1a content hash (the "ETag").
    pub etag: u64,
}

/// An in-memory object store with S3-like semantics: put/get/list by
/// key prefix, content hashes, and conditional get.
#[derive(Debug, Default)]
pub struct BlobStore {
    objects: RwLock<BTreeMap<String, Arc<[u8]>>>,
}

impl BlobStore {
    /// Empty store.
    pub fn new() -> Self {
        BlobStore::default()
    }

    /// Store an object; returns its metadata.
    pub fn put(&self, key: impl Into<String>, data: impl Into<Arc<[u8]>>) -> BlobMeta {
        let key = key.into();
        let data = data.into();
        let meta = BlobMeta {
            key: key.clone(),
            size: data.len(),
            etag: fnv64(&data),
        };
        self.objects.write().insert(key, data);
        meta
    }

    /// Fetch an object (cheap clone — the payload is refcounted).
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        self.objects.read().get(key).cloned()
    }

    /// Fetch only when the content hash matches (integrity check).
    pub fn get_verified(&self, key: &str, etag: u64) -> Result<Arc<[u8]>, String> {
        let data = self
            .get(key)
            .ok_or_else(|| format!("no object with key {key:?}"))?;
        let actual = fnv64(&data);
        if actual != etag {
            return Err(format!(
                "object {key:?} failed integrity check (expected {etag:#x}, got {actual:#x})"
            ));
        }
        Ok(data)
    }

    /// Metadata without the payload.
    pub fn head(&self, key: &str) -> Option<BlobMeta> {
        self.objects.read().get(key).map(|d| BlobMeta {
            key: key.to_string(),
            size: d.len(),
            etag: fnv64(d),
        })
    }

    /// Keys under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.objects
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Delete an object; true when it existed.
    pub fn delete(&self, key: &str) -> bool {
        self.objects.write().remove(key).is_some()
    }

    /// Total objects stored.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> usize {
        self.objects.read().values().map(|d| d.len()).sum()
    }
}

fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = BlobStore::new();
        let meta = s.put("labs/vecadd/input0.raw", &b"vector 3\n1 2 3\n"[..]);
        assert_eq!(meta.size, 15);
        assert_eq!(
            &*s.get("labs/vecadd/input0.raw").unwrap(),
            b"vector 3\n1 2 3\n"
        );
        assert!(s.get("missing").is_none());
    }

    #[test]
    fn etag_detects_tampering() {
        let s = BlobStore::new();
        let meta = s.put("k", &b"original"[..]);
        assert!(s.get_verified("k", meta.etag).is_ok());
        s.put("k", &b"swapped!"[..]);
        let err = s.get_verified("k", meta.etag).unwrap_err();
        assert!(err.contains("integrity"));
    }

    #[test]
    fn head_reports_metadata() {
        let s = BlobStore::new();
        let put_meta = s.put("a", &b"xyz"[..]);
        let head_meta = s.head("a").unwrap();
        assert_eq!(put_meta, head_meta);
        assert!(s.head("b").is_none());
    }

    #[test]
    fn list_by_prefix() {
        let s = BlobStore::new();
        s.put("labs/a/input0", &b""[..]);
        s.put("labs/a/output", &b""[..]);
        s.put("labs/b/input0", &b""[..]);
        s.put("users/alice", &b""[..]);
        assert_eq!(
            s.list("labs/a/"),
            vec!["labs/a/input0".to_string(), "labs/a/output".to_string()]
        );
        assert_eq!(s.list("labs/").len(), 3);
        assert_eq!(s.list("").len(), 4);
        assert!(s.list("zzz").is_empty());
    }

    #[test]
    fn delete_and_counters() {
        let s = BlobStore::new();
        s.put("x", &b"1234"[..]);
        assert_eq!(s.total_bytes(), 4);
        assert!(s.delete("x"));
        assert!(!s.delete("x"));
        assert!(s.is_empty());
    }
}
