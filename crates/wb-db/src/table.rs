//! Typed tables with primary keys and secondary indexes.
//!
//! The web server stores user profiles, code submissions, attempts, and
//! grades (§III-B, §IV). Records are any [`Encode`] type; the table
//! assigns `u64` primary keys and maintains instructor-defined
//! secondary indexes (e.g. submissions by `(user, lab)`), which is what
//! the roster and history views query.

use crate::codec::{decode, encode, Encode};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use wb_obs::sync::RwLock;

/// Table errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Primary key not present.
    NotFound(u64),
    /// Serialization failed.
    Codec(String),
    /// Optimistic update conflict: the row changed since it was read.
    Conflict(u64),
    /// Named index does not exist.
    NoSuchIndex(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::NotFound(id) => write!(f, "row {id} not found"),
            TableError::Codec(m) => write!(f, "encoding failure: {m}"),
            TableError::Conflict(id) => write!(f, "row {id} was modified concurrently"),
            TableError::NoSuchIndex(n) => write!(f, "no index named {n:?}"),
        }
    }
}

impl std::error::Error for TableError {}

type KeyFn<T> = Box<dyn Fn(&T) -> String + Send + Sync>;

struct Row {
    bytes: Vec<u8>,
    version: u64,
}

struct Index<T> {
    key_fn: KeyFn<T>,
    map: BTreeMap<String, Vec<u64>>,
}

struct Inner<T> {
    rows: HashMap<u64, Row>,
    indexes: HashMap<String, Index<T>>,
    next_id: u64,
    writes: u64,
}

/// A thread-safe typed table. Rows are stored encoded, so reads return
/// fresh decoded copies (no aliasing into the store).
pub struct Table<T> {
    inner: RwLock<Inner<T>>,
}

impl<T: Encode> Default for Table<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Encode> Table<T> {
    /// Create an empty table.
    pub fn new() -> Self {
        Table {
            inner: RwLock::new(Inner {
                rows: HashMap::new(),
                indexes: HashMap::new(),
                next_id: 1,
                writes: 0,
            }),
        }
    }

    /// Register a secondary index computed from each record. Existing
    /// rows are re-indexed.
    pub fn create_index(
        &self,
        name: impl Into<String>,
        key_fn: impl Fn(&T) -> String + Send + Sync + 'static,
    ) {
        let mut g = self.inner.write();
        let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let pairs: Vec<(u64, T)> = g
            .rows
            .iter()
            .filter_map(|(&id, row)| decode::<T>(&row.bytes).ok().map(|v| (id, v)))
            .collect();
        for (id, v) in &pairs {
            map.entry(key_fn(v)).or_default().push(*id);
        }
        for ids in map.values_mut() {
            ids.sort_unstable();
        }
        g.indexes.insert(
            name.into(),
            Index {
                key_fn: Box::new(key_fn),
                map,
            },
        );
    }

    /// Insert a record, returning its primary key.
    pub fn insert(&self, value: &T) -> Result<u64, TableError> {
        let bytes = encode(value).map_err(|e| TableError::Codec(e.0))?;
        let mut g = self.inner.write();
        let id = g.next_id;
        g.next_id += 1;
        g.writes += 1;
        g.rows.insert(id, Row { bytes, version: 1 });
        for idx in g.indexes.values_mut() {
            let key = (idx.key_fn)(value);
            let ids = idx.map.entry(key).or_default();
            ids.push(id);
            ids.sort_unstable();
        }
        Ok(id)
    }

    /// Insert a record under an explicit primary key. Used by
    /// replication snapshots, which must reproduce the primary's ids
    /// exactly; `next_id` advances past `id`. Fails on a duplicate key.
    pub fn insert_with_id(&self, id: u64, value: &T) -> Result<(), TableError> {
        let bytes = encode(value).map_err(|e| TableError::Codec(e.0))?;
        let mut g = self.inner.write();
        if g.rows.contains_key(&id) {
            return Err(TableError::Conflict(id));
        }
        g.next_id = g.next_id.max(id + 1);
        g.writes += 1;
        g.rows.insert(id, Row { bytes, version: 1 });
        for idx in g.indexes.values_mut() {
            let key = (idx.key_fn)(value);
            let ids = idx.map.entry(key).or_default();
            ids.push(id);
            ids.sort_unstable();
        }
        Ok(())
    }

    /// Fetch a record by primary key.
    pub fn get(&self, id: u64) -> Result<T, TableError> {
        let g = self.inner.read();
        let row = g.rows.get(&id).ok_or(TableError::NotFound(id))?;
        decode(&row.bytes).map_err(|e| TableError::Codec(e.0))
    }

    /// Fetch a record together with its version (for optimistic update).
    pub fn get_versioned(&self, id: u64) -> Result<(T, u64), TableError> {
        let g = self.inner.read();
        let row = g.rows.get(&id).ok_or(TableError::NotFound(id))?;
        let v = decode(&row.bytes).map_err(|e| TableError::Codec(e.0))?;
        Ok((v, row.version))
    }

    /// Unconditional update.
    pub fn update(&self, id: u64, value: &T) -> Result<(), TableError> {
        self.update_inner(id, value, None)
    }

    /// Optimistic update: fails with [`TableError::Conflict`] when the
    /// row's version no longer matches `expected_version`.
    pub fn update_if(&self, id: u64, value: &T, expected_version: u64) -> Result<(), TableError> {
        self.update_inner(id, value, Some(expected_version))
    }

    fn update_inner(&self, id: u64, value: &T, expected: Option<u64>) -> Result<(), TableError> {
        let bytes = encode(value).map_err(|e| TableError::Codec(e.0))?;
        let mut g = self.inner.write();
        // Decode the old value first for index maintenance.
        let old = {
            let row = g.rows.get(&id).ok_or(TableError::NotFound(id))?;
            if let Some(want) = expected {
                if row.version != want {
                    return Err(TableError::Conflict(id));
                }
            }
            decode::<T>(&row.bytes).map_err(|e| TableError::Codec(e.0))?
        };
        for idx in g.indexes.values_mut() {
            let old_key = (idx.key_fn)(&old);
            let new_key = (idx.key_fn)(value);
            if old_key != new_key {
                if let Some(ids) = idx.map.get_mut(&old_key) {
                    ids.retain(|&x| x != id);
                    if ids.is_empty() {
                        idx.map.remove(&old_key);
                    }
                }
                let ids = idx.map.entry(new_key).or_default();
                ids.push(id);
                ids.sort_unstable();
            }
        }
        let row = g.rows.get_mut(&id).expect("checked above");
        row.bytes = bytes;
        row.version += 1;
        g.writes += 1;
        Ok(())
    }

    /// Delete a record.
    pub fn delete(&self, id: u64) -> Result<(), TableError> {
        let mut g = self.inner.write();
        let row = g.rows.remove(&id).ok_or(TableError::NotFound(id))?;
        if let Ok(old) = decode::<T>(&row.bytes) {
            for idx in g.indexes.values_mut() {
                let key = (idx.key_fn)(&old);
                if let Some(ids) = idx.map.get_mut(&key) {
                    ids.retain(|&x| x != id);
                    if ids.is_empty() {
                        idx.map.remove(&key);
                    }
                }
            }
        }
        g.writes += 1;
        Ok(())
    }

    /// Primary keys matching an index key.
    pub fn find(&self, index: &str, key: &str) -> Result<Vec<u64>, TableError> {
        let g = self.inner.read();
        let idx = g
            .indexes
            .get(index)
            .ok_or_else(|| TableError::NoSuchIndex(index.to_string()))?;
        Ok(idx.map.get(key).cloned().unwrap_or_default())
    }

    /// All `(id, record)` pairs, ordered by id (full scan).
    pub fn scan(&self) -> Vec<(u64, T)> {
        let g = self.inner.read();
        let mut out: Vec<(u64, T)> = g
            .rows
            .iter()
            .filter_map(|(&id, row)| decode(&row.bytes).ok().map(|v| (id, v)))
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.read().rows.len()
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total writes performed (insert/update/delete) — replication and
    /// WAL bookkeeping.
    pub fn write_count(&self) -> u64 {
        self.inner.read().writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Submission {
        user: String,
        lab: String,
        score: f32,
    }
    crate::impl_encode!(struct Submission { user, lab, score });

    fn sub(user: &str, lab: &str, score: f32) -> Submission {
        Submission {
            user: user.into(),
            lab: lab.into(),
            score,
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = Table::new();
        let id = t.insert(&sub("alice", "vecadd", 90.0)).unwrap();
        assert_eq!(t.get(id).unwrap(), sub("alice", "vecadd", 90.0));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn missing_row_errors() {
        let t: Table<Submission> = Table::new();
        assert_eq!(t.get(99).unwrap_err(), TableError::NotFound(99));
        assert_eq!(t.delete(99).unwrap_err(), TableError::NotFound(99));
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let t = Table::new();
        let a = t.insert(&sub("a", "l", 0.0)).unwrap();
        let b = t.insert(&sub("b", "l", 0.0)).unwrap();
        assert_ne!(a, b);
        assert!(b > a);
    }

    #[test]
    fn secondary_index_finds_rows() {
        let t = Table::new();
        t.create_index("by_user", |s: &Submission| s.user.clone());
        let a1 = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        let _b = t.insert(&sub("bob", "vecadd", 2.0)).unwrap();
        let a2 = t.insert(&sub("alice", "matmul", 3.0)).unwrap();
        assert_eq!(t.find("by_user", "alice").unwrap(), vec![a1, a2]);
        assert_eq!(t.find("by_user", "carol").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn index_created_after_rows_backfills() {
        let t = Table::new();
        let id = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        t.create_index("by_lab", |s: &Submission| s.lab.clone());
        assert_eq!(t.find("by_lab", "vecadd").unwrap(), vec![id]);
    }

    #[test]
    fn update_maintains_indexes() {
        let t = Table::new();
        t.create_index("by_lab", |s: &Submission| s.lab.clone());
        let id = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        t.update(id, &sub("alice", "matmul", 1.0)).unwrap();
        assert!(t.find("by_lab", "vecadd").unwrap().is_empty());
        assert_eq!(t.find("by_lab", "matmul").unwrap(), vec![id]);
    }

    #[test]
    fn delete_maintains_indexes() {
        let t = Table::new();
        t.create_index("by_user", |s: &Submission| s.user.clone());
        let id = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        t.delete(id).unwrap();
        assert!(t.find("by_user", "alice").unwrap().is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn optimistic_update_detects_conflicts() {
        let t = Table::new();
        let id = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        let (_, v1) = t.get_versioned(id).unwrap();
        // A concurrent writer bumps the version.
        t.update(id, &sub("alice", "vecadd", 2.0)).unwrap();
        let r = t.update_if(id, &sub("alice", "vecadd", 3.0), v1);
        assert_eq!(r.unwrap_err(), TableError::Conflict(id));
        // Retrying with the fresh version succeeds.
        let (_, v2) = t.get_versioned(id).unwrap();
        t.update_if(id, &sub("alice", "vecadd", 3.0), v2).unwrap();
        assert_eq!(t.get(id).unwrap().score, 3.0);
    }

    #[test]
    fn scan_orders_by_id() {
        let t = Table::new();
        for i in 0..5 {
            t.insert(&sub(&format!("u{i}"), "l", i as f32)).unwrap();
        }
        let all = t.scan();
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn unknown_index_errors() {
        let t: Table<Submission> = Table::new();
        assert!(matches!(
            t.find("nope", "x"),
            Err(TableError::NoSuchIndex(_))
        ));
    }

    #[test]
    fn write_count_tracks_mutations() {
        let t = Table::new();
        let id = t.insert(&sub("a", "l", 0.0)).unwrap();
        t.update(id, &sub("a", "l", 1.0)).unwrap();
        t.delete(id).unwrap();
        assert_eq!(t.write_count(), 3);
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let t = Table::new();
        t.create_index("by_user", |s: &Submission| s.user.clone());
        std::thread::scope(|s| {
            for w in 0..8 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..50 {
                        t.insert(&sub(&format!("u{w}"), &format!("l{i}"), 0.0))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(), 8 * 50);
    }
}
