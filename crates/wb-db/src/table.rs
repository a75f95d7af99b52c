//! Typed tables with primary keys and secondary indexes.
//!
//! The web server stores user profiles, code submissions, attempts, and
//! grades (§III-B, §IV). Records are any `Clone` type; the table
//! assigns `u64` primary keys and maintains instructor-defined
//! secondary indexes (e.g. submissions by `(user, lab)`), which is what
//! the roster and history views query.
//!
//! A `Table<T, K>` keeps each row as a `K`, its [`Kept`] form. By
//! default `K` is `T` and a row is kept as given. A table whose rows
//! carry long texts that many rows repeat (the attempts and submissions
//! tables keep each row's source) names a kept form that holds those
//! texts as `Arc<str>`s from the table's [`Texts`], one per distinct
//! text, taken when a row is inserted or updated. A text leaves the set
//! when the last row holding it is deleted or updated to another text.
//! Reads copy rows back out as `T`, so what `get`, `scan`, `find` and
//! `with_last` see does not depend on the kept form.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
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

/// The form a table keeps a row of `T` in.
pub trait Kept<T: Clone> {
    /// The kept form of `row`, holding its long texts through `texts`.
    fn keep(row: &T, texts: &mut Texts) -> Self;
    /// The row this form holds: borrowed where the row is kept as is.
    fn row(&self) -> Cow<'_, T>;
    /// Hand this form's texts back to `texts` as the row leaves.
    fn release_texts(self, texts: &mut Texts);
}

/// Every table whose kept form is the row itself.
impl<T: Clone> Kept<T> for T {
    fn keep(row: &T, _: &mut Texts) -> T {
        row.clone()
    }

    fn row(&self) -> Cow<'_, T> {
        Cow::Borrowed(self)
    }

    fn release_texts(self, _: &mut Texts) {}
}

/// A table's distinct texts: one `Arc<str>` per text, found by a hash
/// taken once per [`share`](Self::share), so the set grows without
/// hashing a stored text again. Two unequal texts with one hash keep
/// the first shared and the second as a private copy. Kept texts never
/// leave their table (reads copy them out), so a set entry's strong
/// count is one for the set and one per row holding it.
#[derive(Debug, Default)]
pub struct Texts {
    by_hash: HashMap<u64, Arc<str>>,
}

impl Texts {
    /// The set's copy of `text`, added if the set holds no equal text.
    pub fn share(&mut self, text: &str) -> Arc<str> {
        match self.by_hash.entry(text_hash(text)) {
            Entry::Occupied(e) if *e.get().as_ref() == *text => Arc::clone(e.get()),
            Entry::Occupied(_) => Arc::from(text),
            Entry::Vacant(e) => Arc::clone(e.insert(Arc::from(text))),
        }
    }

    /// Drop one row's hold on `text`; the set drops its copy with the
    /// last row's.
    pub fn release(&mut self, text: Arc<str>) {
        let hash = text_hash(&text);
        let last = self
            .by_hash
            .get(&hash)
            .is_some_and(|kept| Arc::ptr_eq(kept, &text) && Arc::strong_count(kept) == 2);
        if last {
            self.by_hash.remove(&hash);
        }
    }
}

fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

type KeyFn<T> = Box<dyn Fn(&T) -> String + Send + Sync>;

struct Index<T> {
    key_fn: KeyFn<T>,
    map: BTreeMap<String, Vec<u64>>,
}

struct Inner<T, K> {
    rows: HashMap<u64, K>,
    indexes: HashMap<String, Index<T>>,
    texts: Texts,
    next_id: u64,
}

/// A thread-safe typed table of `T` rows, each kept as a `K` (see the
/// module doc). Reads return clones, so a caller never aliases the
/// store.
pub struct Table<T, K = T> {
    inner: RwLock<Inner<T, K>>,
}

impl<T: Clone, K: Kept<T>> Default for Table<T, K> {
    fn default() -> Self {
        Table {
            inner: RwLock::new(Inner {
                rows: HashMap::new(),
                indexes: HashMap::new(),
                texts: Texts::default(),
                next_id: 1,
            }),
        }
    }
}

impl<T: Clone> Table<T> {
    /// Create an empty table that keeps rows as given. A table with
    /// another kept form is made with `Table::default()`.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: Clone, K: Kept<T>> Table<T, K> {
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
            map.entry(key_fn(&v.row())).or_default().push(id);
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
        let mut g = self.inner.write();
        let Inner {
            rows,
            indexes,
            texts,
            next_id,
        } = &mut *g;
        let id = *next_id;
        *next_id += 1;
        rows.insert(id, K::keep(value, texts));
        for idx in indexes.values_mut() {
            idx.map.entry((idx.key_fn)(value)).or_default().push(id);
        }
        Ok(id)
    }

    /// Fetch a record by primary key.
    pub fn get(&self, id: u64) -> Result<T, TableError> {
        let g = self.inner.read();
        g.rows
            .get(&id)
            .map(|k| k.row().into_owned())
            .ok_or(TableError::NotFound(id))
    }

    /// Replace a record. A row whose index key changes is inserted into
    /// its new key's list at its sorted position: `find` returns ids
    /// ascending, and callers take the last as the newest. The new row
    /// is kept before the old one releases its texts, so a text both
    /// hold stays in the set.
    pub fn update(&self, id: u64, value: &T) -> Result<(), TableError> {
        let mut g = self.inner.write();
        let Inner {
            rows,
            indexes,
            texts,
            ..
        } = &mut *g;
        let kept = rows.get_mut(&id).ok_or(TableError::NotFound(id))?;
        let old = kept.row();
        for idx in indexes.values_mut() {
            let old_key = (idx.key_fn)(&old);
            let new_key = (idx.key_fn)(value);
            if old_key != new_key {
                unindex(&mut idx.map, &old_key, id);
                let ids = idx.map.entry(new_key).or_default();
                ids.insert(ids.partition_point(|&x| x < id), id);
            }
        }
        drop(old);
        std::mem::replace(kept, K::keep(value, texts)).release_texts(texts);
        Ok(())
    }

    /// Delete a record.
    pub fn delete(&self, id: u64) -> Result<(), TableError> {
        let mut g = self.inner.write();
        let Inner {
            rows,
            indexes,
            texts,
            ..
        } = &mut *g;
        let kept = rows.remove(&id).ok_or(TableError::NotFound(id))?;
        let old = kept.row();
        for idx in indexes.values_mut() {
            unindex(&mut idx.map, &(idx.key_fn)(&old), id);
        }
        drop(old);
        kept.release_texts(texts);
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
    /// key: `None` when the key has no rows. Unlike [`find`](Self::find)
    /// and then [`get`](Self::get), it copies neither the id list nor,
    /// where the table keeps rows as given, the record.
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
        Ok(last.and_then(|id| g.rows.get(id)).map(|k| f(&k.row())))
    }

    /// All `(id, record)` pairs, ordered by id (full scan).
    pub fn scan(&self) -> Vec<(u64, T)> {
        let g = self.inner.read();
        let mut out: Vec<(u64, T)> = g
            .rows
            .iter()
            .map(|(&id, k)| (id, k.row().into_owned()))
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

    /// A row with a long text, and the kept form that shares it.
    #[derive(Debug, Clone, PartialEq)]
    struct Note {
        user: String,
        text: String,
    }

    struct KeptNote {
        user: String,
        text: Arc<str>,
    }

    impl Kept<Note> for KeptNote {
        fn keep(row: &Note, texts: &mut Texts) -> Self {
            KeptNote {
                user: row.user.clone(),
                text: texts.share(&row.text),
            }
        }

        fn row(&self) -> Cow<'_, Note> {
            Cow::Owned(Note {
                user: self.user.clone(),
                text: self.text.to_string(),
            })
        }

        fn release_texts(self, texts: &mut Texts) {
            texts.release(self.text);
        }
    }

    fn note(user: &str, text: &str) -> Note {
        Note {
            user: user.into(),
            text: text.into(),
        }
    }

    fn notes() -> Table<Note, KeptNote> {
        let t = Table::default();
        t.create_index("by_user", |n: &Note| n.user.clone());
        t
    }

    /// The distinct texts `t`'s set holds.
    fn shared<T: Clone, K: Kept<T>>(t: &Table<T, K>) -> usize {
        t.inner.read().texts.by_hash.len()
    }

    /// Holders of row `id`'s text: the set (when shared) and each row.
    fn holders(t: &Table<Note, KeptNote>, id: u64) -> usize {
        Arc::strong_count(&t.inner.read().rows[&id].text)
    }

    /// Do rows `a` and `b` hold one copy of their text?
    fn one_copy(t: &Table<Note, KeptNote>, a: u64, b: u64) -> bool {
        let g = t.inner.read();
        Arc::ptr_eq(&g.rows[&a].text, &g.rows[&b].text)
    }

    #[test]
    fn kept_rows_read_back_as_inserted() {
        let t = notes();
        let a = t.insert(&note("alice", "kernel v1")).unwrap();
        let b = t.insert(&note("bob", "kernel v1")).unwrap();
        let c = t.insert(&note("alice", "")).unwrap();
        assert_eq!(t.get(a).unwrap(), note("alice", "kernel v1"));
        assert_eq!(t.get(b).unwrap(), note("bob", "kernel v1"));
        assert_eq!(t.get(c).unwrap(), note("alice", ""));
        assert_eq!(
            t.scan(),
            vec![
                (a, note("alice", "kernel v1")),
                (b, note("bob", "kernel v1")),
                (c, note("alice", "")),
            ]
        );
        assert_eq!(t.find("by_user", "alice").unwrap(), vec![a, c]);
        assert_eq!(
            t.with_last("by_user", "bob", |n| n.clone()),
            Ok(Some(note("bob", "kernel v1")))
        );
        // An index made after the rows reads their kept form.
        t.create_index("by_text", |n: &Note| n.text.clone());
        assert_eq!(t.find("by_text", "kernel v1").unwrap(), vec![a, b]);
        assert_eq!(t.get(99), Err(TableError::NotFound(99)));
    }

    #[test]
    fn kept_rows_keep_their_indexes_through_update_and_delete() {
        let t = notes();
        let a = t.insert(&note("alice", "x")).unwrap();
        let b = t.insert(&note("alice", "y")).unwrap();
        let c = t.insert(&note("bob", "x")).unwrap();
        t.update(a, &note("bob", "x")).unwrap();
        assert_eq!(t.find("by_user", "alice").unwrap(), vec![b]);
        assert_eq!(t.find("by_user", "bob").unwrap(), vec![a, c]);
        assert_eq!(t.get(a).unwrap(), note("bob", "x"));
        t.delete(b).unwrap();
        assert!(t.find("by_user", "alice").unwrap().is_empty());
        t.delete(c).unwrap();
        assert_eq!(t.find("by_user", "bob").unwrap(), vec![a]);
        assert_eq!(t.update(b, &note("a", "z")), Err(TableError::NotFound(b)));
        assert_eq!(t.delete(b), Err(TableError::NotFound(b)));
        assert_eq!(t.scan(), vec![(a, note("bob", "x"))]);
    }

    #[test]
    fn rows_with_one_text_hold_one_copy() {
        let t = notes();
        let text = "__global__ void k() {}\n".repeat(64);
        for i in 0..100 {
            t.insert(&note(&format!("u{i}"), &text)).unwrap();
        }
        assert_eq!(shared(&t), 1);
        assert!((2..=100).all(|id| one_copy(&t, 1, id)));
        assert_eq!(holders(&t, 1), 100 + 1, "the rows and the set");
    }

    #[test]
    fn an_update_that_keeps_the_text_adds_none() {
        let t = notes();
        let a = t.insert(&note("alice", "source")).unwrap();
        let b = t.insert(&note("bob", "source")).unwrap();
        t.update(a, &note("carol", "source")).unwrap();
        t.update(b, &note("bob", "source")).unwrap();
        assert_eq!(shared(&t), 1);
        assert!(one_copy(&t, a, b));
        assert_eq!(holders(&t, a), 2 + 1);
        assert_eq!(t.get(a).unwrap(), note("carol", "source"));
    }

    #[test]
    fn the_last_holder_releases_the_text() {
        let t = notes();
        let a = t.insert(&note("alice", "one")).unwrap();
        let b = t.insert(&note("bob", "one")).unwrap();
        let c = t.insert(&note("carol", "two")).unwrap();
        assert_eq!(shared(&t), 2);
        t.delete(a).unwrap();
        assert_eq!(shared(&t), 2, "bob still holds \"one\"");
        t.update(b, &note("bob", "three")).unwrap();
        assert_eq!(shared(&t), 2, "\"one\" went, \"three\" came");
        t.update(c, &note("carol", "three")).unwrap();
        assert_eq!(shared(&t), 1);
        assert!(one_copy(&t, b, c));
        t.delete(b).unwrap();
        assert_eq!(holders(&t, c), 1 + 1);
        t.delete(c).unwrap();
        assert_eq!(shared(&t), 0);
        assert!(t.is_empty());
        // A released text comes back as a fresh entry.
        let d = t.insert(&note("dave", "one")).unwrap();
        assert_eq!(shared(&t), 1);
        assert_eq!(holders(&t, d), 1 + 1);
    }

    #[test]
    fn a_hash_collision_keeps_a_private_copy() {
        let mut texts = Texts::default();
        // Plant "first" under "second"'s hash.
        let planted: Arc<str> = Arc::from("first");
        texts
            .by_hash
            .insert(text_hash("second"), Arc::clone(&planted));
        let second = texts.share("second");
        assert_eq!(&*second, "second");
        assert!(!Arc::ptr_eq(&second, &planted));
        assert_eq!(Arc::strong_count(&second), 1, "the set did not take it");
        texts.release(second);
        assert!(Arc::ptr_eq(&texts.by_hash[&text_hash("second")], &planted));
        // An equal text under its own hash is shared.
        let a = texts.share("third");
        let b = texts.share("third");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(texts.by_hash.len(), 2);
    }

    #[test]
    fn tables_that_keep_rows_as_given_share_nothing() {
        let t: Table<Submission> = Table::new();
        t.create_index("by_user", |s: &Submission| s.user.clone());
        let id = t.insert(&sub("alice", "vecadd", 1.0)).unwrap();
        t.update(id, &sub("alice", "vecadd", 2.0)).unwrap();
        assert_eq!(shared(&t), 0);
        // `with_last` lends the stored row itself.
        let stored: *const Submission = &t.inner.read().rows[&id];
        assert_eq!(
            t.with_last("by_user", "alice", |s| std::ptr::eq(s, stored)),
            Ok(Some(true))
        );
    }
}
