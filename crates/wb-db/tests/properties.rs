//! Property-based tests: codec round-trips and model-checked tables.

use std::collections::BTreeMap;
use wb_db::{decode, encode, CodecError, Decoder, Encode, Table};
use wb_prop::Gen;

#[derive(Debug, Clone, PartialEq)]
struct Rec {
    id: u64,
    name: String,
    score: f32,
    tags: Vec<u32>,
    parent: Option<i64>,
    kind: Kind,
}

#[derive(Debug, Clone, PartialEq)]
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

fn rec(g: &mut Gen) -> Rec {
    Rec {
        id: g.int(0..=u64::MAX),
        name: g.text(0..32),
        score: f32::from_bits(g.int(0..=u32::MAX)),
        tags: g.vec(0..16, |g| g.int(0..=u32::MAX)),
        parent: g.bool().then(|| g.int(i64::MIN..=i64::MAX)),
        kind: match g.below(3) {
            0 => Kind::Student,
            1 => Kind::Instructor {
                courses: g.vec(0..8, |g| g.text(0..16)),
            },
            _ => Kind::Bot(g.int(0..=u8::MAX), g.bool()),
        },
    }
}

/// The binary codec round-trips arbitrary nested values.
#[test]
fn codec_roundtrips_records() {
    wb_prop::check(256, |g| {
        let rec = rec(g);
        // NaN-free floats only: NaN != NaN breaks equality, not codec.
        if rec.score.is_nan() {
            return;
        }
        let bytes = encode(&rec).unwrap();
        let back: Rec = decode(&bytes).unwrap();
        assert_eq!(back, rec);
    });
}

/// Collections and maps round-trip.
#[test]
fn codec_roundtrips_maps() {
    wb_prop::check(256, |g| {
        let m = BTreeMap::from_iter(g.vec(0..16, |g| (g.text(0..16), g.int(0..=u64::MAX))));
        let bytes = encode(&m).unwrap();
        let back: BTreeMap<String, u64> = decode(&bytes).unwrap();
        assert_eq!(back, m);
    });
}

/// Decoding random garbage never panics (errors are fine).
#[test]
fn codec_decode_never_panics() {
    wb_prop::check(256, |g| {
        let bytes = g.vec(0..256, |g| g.int(0..=u8::MAX));
        let _: Result<Rec, _> = decode(&bytes);
        let _: Result<Vec<String>, _> = decode(&bytes);
        let _: Result<(u64, Option<bool>), _> = decode(&bytes);
    });
}

/// Truncating an encoding always fails to decode (no silent
/// partial reads).
#[test]
fn codec_truncation_detected() {
    wb_prop::check(256, |g| {
        let (rec, cut) = (rec(g), g.int(1..64));
        let bytes = encode(&rec).unwrap();
        if cut >= bytes.len() {
            return;
        }
        let r: Result<Rec, _> = decode(&bytes[..bytes.len() - cut]);
        assert!(r.is_err());
    });
}

/// Model-based test: the Table agrees with a HashMap across arbitrary
/// operation sequences.
#[derive(Debug, Clone)]
enum Op {
    Insert(String),
    Update(u8, String),
    Delete(u8),
    Get(u8),
    Find(String),
}

fn op(g: &mut Gen) -> Op {
    match g.below(5) {
        0 => Op::Insert(g.text(0..8)),
        1 => Op::Update(g.int(0..=u8::MAX), g.text(0..8)),
        2 => Op::Delete(g.int(0..=u8::MAX)),
        3 => Op::Get(g.int(0..=u8::MAX)),
        _ => Op::Find(g.text(0..8)),
    }
}

#[test]
fn table_matches_model() {
    wb_prop::check(256, |g| {
        let ops = g.vec(0..64, op);
        let table: Table<String> = Table::new();
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
            }
            assert_eq!(table.len(), model.len());
        }
    });
}
