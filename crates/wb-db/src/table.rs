//! Typed tables with primary keys and secondary indexes.
//!
//! The web server stores user profiles, code submissions, attempts, and
//! grades (§III-B, §IV). Records are any `Clone` type; the table
//! assigns `u64` primary keys and maintains instructor-defined
//! secondary indexes (e.g. submissions by `(user, lab)`), which is what
//! the roster and history views query.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use wb_obs::sync::RwLock;

/// Table errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Primary key not present.
    NotFound(u64),
    /// Named index does not exist.
    NoSuchIndex(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::NotFound(id) => write!(f, "row {id} not found"),
            TableError::NoSuchIndex(n) => write!(f, "no index named {n:?}"),
        }
    }
}

impl std::error::Error for TableError {}

type KeyFn<T> = Box<dyn Fn(&T) -> String + Send + Sync>;

struct Index<T> {
    key_fn: KeyFn<T>,
    map: BTreeMap<String, Vec<u64>>,
}

struct Inner<T> {
    rows: HashMap<u64, T>,
    indexes: HashMap<String, Index<T>>,
    next_id: u64,
}

/// A thread-safe typed table. Reads return clones, so a caller never
/// aliases the store.
pub struct Table<T> {
    inner: RwLock<Inner<T>>,
}

impl<T: Clone> Default for Table<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Table<T> {
    /// Create an empty table.
    pub fn new() -> Self {
        Table {
            inner: RwLock::new(Inner {
                rows: HashMap::new(),
                indexes: HashMap::new(),
                next_id: 1,
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
        for (&id, v) in &g.rows {
            map.entry(key_fn(v)).or_default().push(id);
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

    /// Insert a record, returning its primary key. Ids only grow, so
    /// pushing the new id keeps every index list ascending. Never fails;
    /// the `Result` keeps callers that check it compiling.
    pub fn insert(&self, value: &T) -> Result<u64, TableError> {
        let row = value.clone();
        let mut g = self.inner.write();
        let id = g.next_id;
        g.next_id += 1;
        g.rows.insert(id, row);
        for idx in g.indexes.values_mut() {
            idx.map.entry((idx.key_fn)(value)).or_default().push(id);
        }
        Ok(id)
    }

    /// Fetch a record by primary key.
    pub fn get(&self, id: u64) -> Result<T, TableError> {
        let g = self.inner.read();
        g.rows.get(&id).cloned().ok_or(TableError::NotFound(id))
    }

    /// Replace a record. A row whose index key changes is inserted into
    /// its new key's list at its sorted position: `find` returns ids
    /// ascending, and callers take the last as the newest.
    pub fn update(&self, id: u64, value: &T) -> Result<(), TableError> {
        let row = value.clone();
        let mut g = self.inner.write();
        let Inner { rows, indexes, .. } = &mut *g;
        let old = rows.get_mut(&id).ok_or(TableError::NotFound(id))?;
        for idx in indexes.values_mut() {
            let old_key = (idx.key_fn)(old);
            let new_key = (idx.key_fn)(value);
            if old_key != new_key {
                unindex(&mut idx.map, &old_key, id);
                let ids = idx.map.entry(new_key).or_default();
                ids.insert(ids.partition_point(|&x| x < id), id);
            }
        }
        *old = row;
        Ok(())
    }

    /// Delete a record.
    pub fn delete(&self, id: u64) -> Result<(), TableError> {
        let mut g = self.inner.write();
        let old = g.rows.remove(&id).ok_or(TableError::NotFound(id))?;
        for idx in g.indexes.values_mut() {
            unindex(&mut idx.map, &(idx.key_fn)(&old), id);
        }
        Ok(())
    }

    /// Primary keys matching an index key, ascending.
    pub fn find(&self, index: &str, key: &str) -> Result<Vec<u64>, TableError> {
        let g = self.inner.read();
        let idx = g
            .indexes
            .get(index)
            .ok_or_else(|| TableError::NoSuchIndex(index.to_string()))?;
        Ok(idx.map.get(key).cloned().unwrap_or_default())
    }

    /// Apply `f` to the newest record (the highest id) under an index
    /// key, borrowing it in place: `None` when the key has no rows.
    /// Unlike [`find`](Self::find) + [`get`](Self::get), it copies
    /// neither the id list nor the record.
    pub fn with_last<R>(
        &self,
        index: &str,
        key: &str,
        f: impl FnOnce(&T) -> R,
    ) -> Result<Option<R>, TableError> {
        let g = self.inner.read();
        let idx = g
            .indexes
            .get(index)
            .ok_or_else(|| TableError::NoSuchIndex(index.to_string()))?;
        let last = idx.map.get(key).and_then(|ids| ids.last());
        Ok(last.and_then(|id| g.rows.get(id)).map(f))
    }

    /// All `(id, record)` pairs, ordered by id (full scan).
    pub fn scan(&self) -> Vec<(u64, T)> {
        let g = self.inner.read();
        let mut out: Vec<(u64, T)> = g.rows.iter().map(|(&id, v)| (id, v.clone())).collect();
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
}

/// Drop `id` from `key`'s list, and the key once its list is empty.
fn unindex(map: &mut BTreeMap<String, Vec<u64>>, key: &str, id: u64) {
    if let Some(ids) = map.get_mut(key) {
        ids.retain(|&x| x != id);
        if ids.is_empty() {
            map.remove(key);
        }
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
    fn rekeyed_row_keeps_index_order() {
        let t = Table::new();
        t.create_index("by_lab", |s: &Submission| s.lab.clone());
        let old = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        let newer = t.insert(&sub("alice", "matmul", 2.0)).unwrap();
        let newest = t.insert(&sub("alice", "matmul", 3.0)).unwrap();
        // The older row moves into a key that already holds newer ones.
        t.update(old, &sub("alice", "matmul", 1.0)).unwrap();
        assert_eq!(
            t.find("by_lab", "matmul").unwrap(),
            vec![old, newer, newest]
        );
        assert!(t.find("by_lab", "vecadd").unwrap().is_empty());
    }

    #[test]
    fn with_last_borrows_the_newest_row_under_a_key() {
        let t = Table::new();
        t.create_index("by_user", |s: &Submission| s.user.clone());
        assert_eq!(t.with_last("by_user", "alice", |s| s.score), Ok(None));
        let old = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        t.insert(&sub("bob", "vecadd", 2.0)).unwrap();
        t.insert(&sub("alice", "matmul", 3.0)).unwrap();
        assert_eq!(t.with_last("by_user", "alice", |s| s.score), Ok(Some(3.0)));
        // Ids order the rows, not insertion: a re-keyed older row is not
        // the newest.
        t.update(old, &sub("bob", "vecadd", 4.0)).unwrap();
        assert_eq!(t.with_last("by_user", "bob", |s| s.score), Ok(Some(2.0)));
        assert!(matches!(
            t.with_last("nope", "x", |s| s.score),
            Err(TableError::NoSuchIndex(_))
        ));
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
