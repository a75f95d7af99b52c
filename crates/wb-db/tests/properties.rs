//! Property-based tests: codec round-trips, model-checked tables, WAL
//! recovery under arbitrary truncation.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use wb_db::{decode, encode, CodecError, Decoder, Encode, Table, Wal};

#[derive(Debug, Clone, PartialEq, proptest_derive::Arbitrary)]
struct Rec {
    id: u64,
    name: String,
    score: f32,
    tags: Vec<u32>,
    parent: Option<i64>,
    kind: Kind,
}

#[derive(Debug, Clone, PartialEq, proptest_derive::Arbitrary)]
enum Kind {
    Student,
    Instructor { courses: Vec<String> },
    Bot(u8, bool),
}

wb_db::impl_encode!(struct Rec { id, name, score, tags, parent, kind });

/// Hand-written: the one place a `u32` variant tag is followed by a
/// payload (the product's own enums are fieldless).
impl Encode for Kind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Kind::Student => 0u32.encode(out),
            Kind::Instructor { courses } => {
                1u32.encode(out);
                courses.encode(out);
            }
            Kind::Bot(id, on) => {
                2u32.encode(out);
                id.encode(out);
                on.encode(out);
            }
        }
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match input.variant()? {
            0 => Ok(Kind::Student),
            1 => Ok(Kind::Instructor {
                courses: Vec::decode(input)?,
            }),
            2 => Ok(Kind::Bot(u8::decode(input)?, bool::decode(input)?)),
            other => Err(CodecError(format!("invalid Kind variant {other}"))),
        }
    }
}

proptest! {
    /// The binary codec round-trips arbitrary nested values.
    #[test]
    fn codec_roundtrips_records(rec in any::<Rec>()) {
        // NaN-free floats only: NaN != NaN breaks equality, not codec.
        prop_assume!(!rec.score.is_nan());
        let bytes = encode(&rec).unwrap();
        let back: Rec = decode(&bytes).unwrap();
        prop_assert_eq!(back, rec);
    }

    /// Collections and maps round-trip.
    #[test]
    fn codec_roundtrips_maps(m in prop::collection::btree_map(any::<String>(), any::<u64>(), 0..16)) {
        let bytes = encode(&m).unwrap();
        let back: BTreeMap<String, u64> = decode(&bytes).unwrap();
        prop_assert_eq!(back, m);
    }

    /// Decoding random garbage never panics (errors are fine).
    #[test]
    fn codec_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _: Result<Rec, _> = decode(&bytes);
        let _: Result<Vec<String>, _> = decode(&bytes);
        let _: Result<(u64, Option<bool>), _> = decode(&bytes);
    }

    /// Truncating an encoding always fails to decode (no silent
    /// partial reads).
    #[test]
    fn codec_truncation_detected(rec in any::<Rec>(), cut in 1usize..64) {
        let bytes = encode(&rec).unwrap();
        prop_assume!(cut < bytes.len());
        let r: Result<Rec, _> = decode(&bytes[..bytes.len() - cut]);
        prop_assert!(r.is_err());
    }
}

/// Model-based test: the Table agrees with a HashMap across arbitrary
/// operation sequences.
#[derive(Debug, Clone, proptest_derive::Arbitrary)]
enum Op {
    Insert(String),
    Update(u8, String),
    Delete(u8),
    Get(u8),
    Find(String),
}

proptest! {
    #[test]
    fn table_matches_model(ops in prop::collection::vec(any::<Op>(), 0..64)) {
        let table: Table<String> = Table::new();
        table.create_index("by_value", |v: &String| v.clone());
        let mut model: HashMap<u64, String> = HashMap::new();
        let mut ids: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(v) => {
                    let id = table.insert(&v).unwrap();
                    model.insert(id, v);
                    ids.push(id);
                }
                Op::Update(k, v) => {
                    if ids.is_empty() { continue; }
                    let id = ids[k as usize % ids.len()];
                    let expect = model.contains_key(&id);
                    let got = table.update(id, &v).is_ok();
                    prop_assert_eq!(got, expect);
                    if expect { model.insert(id, v); }
                }
                Op::Delete(k) => {
                    if ids.is_empty() { continue; }
                    let id = ids[k as usize % ids.len()];
                    let expect = model.remove(&id).is_some();
                    prop_assert_eq!(table.delete(id).is_ok(), expect);
                }
                Op::Get(k) => {
                    if ids.is_empty() { continue; }
                    let id = ids[k as usize % ids.len()];
                    match model.get(&id) {
                        Some(v) => prop_assert_eq!(&table.get(id).unwrap(), v),
                        None => prop_assert!(table.get(id).is_err()),
                    }
                }
                Op::Find(v) => {
                    let found = table.find("by_value", &v).unwrap();
                    let mut expect: Vec<u64> = model
                        .iter()
                        .filter(|(_, mv)| **mv == v)
                        .map(|(k, _)| *k)
                        .collect();
                    expect.sort_unstable();
                    prop_assert_eq!(found, expect);
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
    }

    /// WAL recovery from any truncation point yields a prefix of the
    /// appended records, never garbage.
    #[test]
    fn wal_recovery_is_a_prefix(
        values in prop::collection::vec(any::<String>(), 1..16),
        cut in 0usize..512,
    ) {
        let mut wal = Wal::new();
        for v in &values {
            wal.append(v).unwrap();
        }
        let bytes = wal.raw_bytes();
        let cut = cut.min(bytes.len());
        let (_, recs) = Wal::recover::<String>(&bytes[..bytes.len() - cut]);
        prop_assert!(recs.len() <= values.len());
        for (i, rec) in recs.iter().enumerate() {
            prop_assert_eq!(rec.seq, i as u64);
            prop_assert_eq!(&rec.op, &values[i]);
        }
        // Untruncated input recovers everything.
        if cut == 0 {
            prop_assert_eq!(recs.len(), values.len());
        }
    }
}
