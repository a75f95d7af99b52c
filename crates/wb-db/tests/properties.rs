//! Property-based tests: model-checked tables.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use wb_db::{Kept, Table, Texts};
use wb_prop::Gen;

/// Model-based test: the Table agrees with a HashMap across arbitrary
/// operation sequences.
#[derive(Debug, Clone)]
enum Op {
    Insert(String),
    Update(u8, String),
    Delete(u8),
    Get(u8),
    Find(String),
    Scan,
}

fn op(g: &mut Gen) -> Op {
    match g.below(6) {
        0 => Op::Insert(g.text(0..8)),
        1 => Op::Update(g.int(0..=u8::MAX), g.text(0..8)),
        2 => Op::Delete(g.int(0..=u8::MAX)),
        3 => Op::Get(g.int(0..=u8::MAX)),
        4 => Op::Find(g.text(0..8)),
        _ => Op::Scan,
    }
}

/// A row kept as the table's shared copy of its text.
struct Shared(Arc<str>);

impl Kept<String> for Shared {
    fn keep(row: &String, texts: &mut Texts) -> Self {
        Shared(texts.share(row))
    }

    fn row(&self) -> Cow<'_, String> {
        Cow::Owned(self.0.to_string())
    }

    fn release_texts(self, texts: &mut Texts) {
        texts.release(self.0);
    }
}

#[test]
fn table_matches_model() {
    matches_model(Table::new);
}

/// Short texts repeat across rows, so updates and deletes release and
/// re-take shared texts.
#[test]
fn kept_table_matches_model() {
    matches_model(Table::<String, Shared>::default);
}

fn matches_model<K: Kept<String>>(new_table: fn() -> Table<String, K>) {
    wb_prop::check(256, |g| {
        let ops = g.vec(0..64, op);
        let table = new_table();
        table.create_index("by_value", |v: &String| v.clone());
        let mut model: BTreeMap<u64, String> = BTreeMap::new();
        let mut ids: Vec<u64> = Vec::new();
        let nth = |ids: &[u64], k: u8| ids.get(k as usize % ids.len().max(1)).copied();
        for op in ops {
            match op {
                Op::Insert(v) => {
                    let id = table.insert(&v).unwrap();
                    model.insert(id, v);
                    ids.push(id);
                }
                Op::Update(k, v) => {
                    let Some(id) = nth(&ids, k) else { continue };
                    assert_eq!(table.update(id, &v).is_ok(), model.contains_key(&id));
                    model.entry(id).and_modify(|mv| *mv = v);
                }
                Op::Delete(k) => {
                    let Some(id) = nth(&ids, k) else { continue };
                    assert_eq!(table.delete(id).is_ok(), model.remove(&id).is_some());
                }
                Op::Get(k) => {
                    let Some(id) = nth(&ids, k) else { continue };
                    assert_eq!(table.get(id).ok().as_ref(), model.get(&id));
                }
                Op::Find(v) => {
                    let want: Vec<u64> =
                        model.keys().copied().filter(|id| model[id] == v).collect();
                    assert_eq!(table.find("by_value", &v).unwrap(), want);
                }
                Op::Scan => {
                    let want: Vec<(u64, String)> =
                        model.iter().map(|(&id, v)| (id, v.clone())).collect();
                    assert_eq!(table.scan(), want);
                }
            }
            assert_eq!(table.len(), model.len());
        }
    });
}
