//! The row codec: a compact, non-self-describing binary format.
//!
//! Every stored type implements [`Encode`] — both directions in one
//! trait, because every stored type needs both. The layout is
//! positional: integers widen to eight little-endian bytes (`i*` sign-
//! extended), `f32`/`f64` are their IEEE bits, `bool` and the `Option`
//! tag are one byte, strings, sequences and maps carry a `u64` length
//! prefix, a struct is its fields in declaration order, and an enum is
//! its `u32` variant index (widened like any integer) followed by the
//! variant's fields. There is no version tag: nothing encoded here
//! outlives the process. Table rows are written in it.
//!
//! Decoding trusts nothing: every length prefix is checked against the
//! bytes that remain before anything is sliced or reserved, so a
//! hostile or torn input ends in a [`CodecError`], never a panic or an
//! allocation sized by the attacker.

use std::collections::BTreeMap;
use std::fmt;

/// A type with a byte form: written by `encode`, read back by `decode`.
pub trait Encode: Sized {
    /// Append this value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Read one value from the front of `input`.
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError>;
}

/// Encode a value to bytes.
pub fn encode<T: Encode>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    value.encode(&mut out);
    Ok(out)
}

/// Decode a value produced by [`encode`]; the whole input must be used.
pub fn decode<T: Encode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut input = Decoder { input: bytes };
    let v = T::decode(&mut input)?;
    if !input.input.is_empty() {
        return Err(CodecError(format!(
            "{} trailing bytes after value",
            input.input.len()
        )));
    }
    Ok(v)
}

/// Encoding/decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// The unread remainder of an input.
pub struct Decoder<'a> {
    input: &'a [u8],
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.input.len() {
            return Err(CodecError("unexpected end of input".into()));
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// A length prefix, rejected unless at least that many bytes remain.
    /// Every element encodes to at least one byte, so an accepted length
    /// bounds both the decode loop and anything reserved for it.
    fn length_prefix(&mut self) -> Result<usize, CodecError> {
        let len = u64::decode(self)?;
        match usize::try_from(len) {
            Ok(n) if n <= self.input.len() => Ok(n),
            _ => Err(CodecError(format!(
                "length prefix {len} exceeds the {} bytes that remain",
                self.input.len()
            ))),
        }
    }

    /// An enum's variant index.
    pub fn variant(&mut self) -> Result<u32, CodecError> {
        u32::decode(self)
    }
}

/// The fixed-width scalars: their own little-endian bytes.
macro_rules! encode_le {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(input.array()?))
            }
        }
    )*};
}
encode_le!(u64, i64, f32, f64);

/// Narrower integers travel widened to eight bytes; a decoded value that
/// does not fit the type it is read into is corrupt, not truncated.
macro_rules! encode_narrow_int {
    ($($t:ty => $wide:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                (*self as $wide).encode(out);
            }
            fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
                <$t>::try_from(<$wide>::decode(input)?).map_err(|_| {
                    CodecError(concat!("integer out of range for ", stringify!($t)).into())
                })
            }
        }
    )*};
}
encode_narrow_int!(u8 => u64, u32 => u64, usize => u64, i32 => i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(input.take(1)?[0] != 0)
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = input.length_prefix()?;
        let s = std::str::from_utf8(input.take(len)?);
        Ok(s.map_err(|_| CodecError("invalid utf-8".into()))?
            .to_owned())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        match input.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            other => Err(CodecError(format!("invalid option tag {other}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        self.iter().for_each(|v| v.encode(out));
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = input.length_prefix()?;
        (0..len).map(|_| T::decode(input)).collect()
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let len = input.length_prefix()?;
        (0..len).map(|_| <(K, V)>::decode(input)).collect()
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

/// Implement [`Encode`] for a struct, field by field in the order
/// given (which must be declaration order to keep the byte layout), or
/// for a fieldless enum as its variant index in the order given.
#[macro_export]
macro_rules! impl_encode {
    (struct $t:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$field, out);)+
            }
            fn decode(input: &mut $crate::codec::Decoder<'_>) -> Result<Self, $crate::CodecError> {
                Ok(Self { $($field: $crate::codec::Encode::decode(input)?),+ })
            }
        }
    };
    (enum $t:ty { $($variant:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::codec::Encode::encode(&(*self as u32), out);
            }
            fn decode(input: &mut $crate::codec::Decoder<'_>) -> Result<Self, $crate::CodecError> {
                let tag = input.variant()?;
                $(if tag == <$t>::$variant as u32 {
                    return Ok(<$t>::$variant);
                })+
                Err($crate::CodecError(format!(
                    concat!("invalid ", stringify!($t), " variant {}"),
                    tag
                )))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = encode(v).expect("encode");
        let back: T = decode(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[derive(Debug, PartialEq)]
    struct Record {
        id: u64,
        name: String,
        score: f32,
        tags: Vec<String>,
        parent: Option<u64>,
        flags: (bool, i32),
    }
    impl_encode!(struct Record { id, name, score, tags, parent, flags });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Level {
        Low,
        High,
    }
    impl_encode!(
        enum Level {
            Low,
            High,
        }
    );

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&true);
        roundtrip(&42u64);
        roundtrip(&-17i32);
        roundtrip(&3.5f32);
        roundtrip(&2.25f64);
        roundtrip(&"hello λ".to_string());
    }

    #[test]
    fn struct_and_enum_roundtrip() {
        roundtrip(&Record {
            id: 9,
            name: "alice".into(),
            score: 97.5,
            tags: vec!["mpi".into(), "multi-gpu".into()],
            parent: Some(3),
            flags: (true, -1),
        });
        roundtrip(&vec![Level::Low, Level::High]);
        assert_eq!(encode(&Level::High).unwrap(), 1u64.to_le_bytes());
        assert!(decode::<Level>(&2u64.to_le_bytes()).is_err());
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<String>::new());
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        roundtrip(&m);
        roundtrip(&Some(vec![Some(1u8), None]));
    }

    #[test]
    fn truncated_and_trailing_input_fail() {
        let bytes = encode(&12345u64).unwrap();
        assert!(decode::<u64>(&bytes[..4]).is_err());
        let mut bytes = encode(&1u64).unwrap();
        bytes.push(0);
        assert!(decode::<u64>(&bytes).unwrap_err().0.contains("trailing"));
    }

    #[test]
    fn invalid_utf8_option_tag_and_narrow_int_fail() {
        let mut bytes = encode(&"ab".to_string()).unwrap();
        *bytes.last_mut().unwrap() = 0xFF;
        assert!(decode::<String>(&bytes).is_err());
        assert!(decode::<Option<u64>>(&[7]).is_err());
        assert!(decode::<u8>(&256u64.to_le_bytes()).is_err());
    }

    #[test]
    fn hostile_length_prefix_is_an_error() {
        // 7u64 ‖ u64::MAX: a prefix no input can satisfy.
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode::<(u64, String)>(&bytes).is_err());
        assert!(decode::<(u64, Vec<u64>)>(&bytes).is_err());
        assert!(decode::<Vec<String>>(&(1u64 << 40).to_le_bytes()).is_err());
        assert!(decode::<BTreeMap<u64, u64>>(&u64::MAX.to_le_bytes()).is_err());
    }

    #[test]
    fn special_floats_roundtrip() {
        roundtrip(&f32::INFINITY);
        roundtrip(&f32::MIN_POSITIVE);
        let back: f32 = decode(&encode(&f32::NAN).unwrap()).unwrap();
        assert!(back.is_nan());
    }
}
