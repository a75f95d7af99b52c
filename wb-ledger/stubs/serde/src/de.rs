use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::{self, Display};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

/// What a visitor was prepared to accept, for error messages.
pub trait Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl Expected for &str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

struct ExpectedOf<'a, V>(&'a V);

impl<'de, V: Visitor<'de>> Display for ExpectedOf<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.expecting(f)
    }
}

impl Display for dyn Expected + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self, f)
    }
}

pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;

    fn invalid_length(len: usize, exp: &dyn Expected) -> Self {
        Self::custom(format_args!("invalid length {len}, expected {exp}"))
    }

    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "unknown variant `{variant}`, expected one of {expected:?}"
        ))
    }

    fn missing_field(field: &'static str) -> Self {
        Self::custom(format_args!("missing field `{field}`"))
    }
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

pub trait DeserializeSeed<'de>: Sized {
    type Value;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

pub trait Deserializer<'de>: Sized {
    type Error: Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_default {
    ($($method:ident($t:ty) => $what:literal),*) => {$(
        fn $method<E: Error>(self, _v: $t) -> Result<Self::Value, E> {
            Err(unexpected(&self, $what))
        }
    )*};
}

macro_rules! visit_forward {
    ($($method:ident($t:ty) => $to:ident as $wide:ty),*) => {$(
        fn $method<E: Error>(self, v: $t) -> Result<Self::Value, E> {
            self.$to(v as $wide)
        }
    )*};
}

fn unexpected<'de, V: Visitor<'de>, E: Error>(visitor: &V, what: &str) -> E {
    E::custom(format_args!(
        "invalid type: {what}, expected {}",
        ExpectedOf(visitor)
    ))
}

pub trait Visitor<'de>: Sized {
    type Value;

    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;

    visit_default! {
        visit_bool(bool) => "boolean", visit_i64(i64) => "integer", visit_u64(u64) => "integer",
        visit_f64(f64) => "float", visit_str(&str) => "string", visit_bytes(&[u8]) => "bytes"
    }
    visit_forward! {
        visit_i8(i8) => visit_i64 as i64, visit_i16(i16) => visit_i64 as i64,
        visit_i32(i32) => visit_i64 as i64, visit_u8(u8) => visit_u64 as u64,
        visit_u16(u16) => visit_u64 as u64, visit_u32(u32) => visit_u64 as u64,
        visit_f32(f32) => visit_f64 as f64
    }

    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        self.visit_str(v.encode_utf8(&mut [0u8; 4]))
    }

    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }

    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }

    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }

    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }

    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(unexpected(&self, "none"))
    }

    fn visit_some<D: Deserializer<'de>>(self, _d: D) -> Result<Self::Value, D::Error> {
        Err(unexpected(&self, "some"))
    }

    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(unexpected(&self, "unit"))
    }

    fn visit_newtype_struct<D: Deserializer<'de>>(self, _d: D) -> Result<Self::Value, D::Error> {
        Err(unexpected(&self, "newtype struct"))
    }

    fn visit_seq<A: SeqAccess<'de>>(self, _seq: A) -> Result<Self::Value, A::Error> {
        Err(unexpected(&self, "sequence"))
    }

    fn visit_map<A: MapAccess<'de>>(self, _map: A) -> Result<Self::Value, A::Error> {
        Err(unexpected(&self, "map"))
    }

    fn visit_enum<A: EnumAccess<'de>>(self, _data: A) -> Result<Self::Value, A::Error> {
        Err(unexpected(&self, "enum"))
    }
}

pub trait SeqAccess<'de> {
    type Error: Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

pub trait MapAccess<'de> {
    type Error: Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        match self.next_key()? {
            Some(k) => Ok(Some((k, self.next_value()?))),
            None => Ok(None),
        }
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

pub trait EnumAccess<'de>: Sized {
    type Error: Error;
    type Variant: VariantAccess<'de, Error = Self::Error>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

pub trait VariantAccess<'de>: Sized {
    type Error: Error;

    fn unit_variant(self) -> Result<(), Self::Error>;

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;

    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

pub trait IntoDeserializer<'de, E: Error = value::Error> {
    type Deserializer: Deserializer<'de, Error = E>;
    fn into_deserializer(self) -> Self::Deserializer;
}

pub mod value {
    use super::{Deserializer, IntoDeserializer, Visitor};
    use std::fmt::{self, Display};
    use std::marker::PhantomData;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(String);

    impl Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    impl super::Error for Error {
        fn custom<T: Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    /// A deserializer holding one `u32` — how a binary format hands an enum
    /// variant index to the derived variant-tag visitor.
    pub struct U32Deserializer<E>(u32, PhantomData<E>);

    impl<'de, E: super::Error> IntoDeserializer<'de, E> for u32 {
        type Deserializer = U32Deserializer<E>;
        fn into_deserializer(self) -> U32Deserializer<E> {
            U32Deserializer(self, PhantomData)
        }
    }

    macro_rules! all_visit_u32 {
        ($($method:ident),*) => {$(
            fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                visitor.visit_u32(self.0)
            }
        )*};
    }

    impl<'de, E: super::Error> Deserializer<'de> for U32Deserializer<E> {
        type Error = E;

        all_visit_u32!(
            deserialize_any,
            deserialize_bool,
            deserialize_i8,
            deserialize_i16,
            deserialize_i32,
            deserialize_i64,
            deserialize_u8,
            deserialize_u16,
            deserialize_u32,
            deserialize_u64,
            deserialize_f32,
            deserialize_f64,
            deserialize_char,
            deserialize_str,
            deserialize_string,
            deserialize_bytes,
            deserialize_byte_buf,
            deserialize_option,
            deserialize_unit,
            deserialize_seq,
            deserialize_map,
            deserialize_identifier,
            deserialize_ignored_any
        );

        fn deserialize_unit_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.0)
        }

        fn deserialize_newtype_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.0)
        }

        fn deserialize_tuple<V: Visitor<'de>>(
            self,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.0)
        }

        fn deserialize_tuple_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.0)
        }

        fn deserialize_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.0)
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.0)
        }
    }
}

// ---- Deserialize for std types ---------------------------------------------

macro_rules! int {
    ($($t:ty => $method:ident),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<$t, D::Error> {
                struct V;
                impl Visitor<'_> for V {
                    type Value = $t;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($t))
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$t, E> {
                        <$t>::try_from(v).map_err(|_| E::custom(format_args!(
                            "{v} out of range for {}", stringify!($t))))
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$t, E> {
                        <$t>::try_from(v).map_err(|_| E::custom(format_args!(
                            "{v} out of range for {}", stringify!($t))))
                    }
                }
                d.$method(V)
            }
        }
    )*};
}
int!(i8 => deserialize_i8, i16 => deserialize_i16, i32 => deserialize_i32,
     i64 => deserialize_i64, isize => deserialize_i64,
     u8 => deserialize_u8, u16 => deserialize_u16, u32 => deserialize_u32,
     u64 => deserialize_u64, usize => deserialize_u64);

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<f32, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = f32;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("f32")
            }
            fn visit_f32<E: Error>(self, v: f32) -> Result<f32, E> {
                Ok(v)
            }
            fn visit_f64<E: Error>(self, v: f64) -> Result<f32, E> {
                Ok(v as f32)
            }
            fn visit_i64<E: Error>(self, v: i64) -> Result<f32, E> {
                Ok(v as f32)
            }
            fn visit_u64<E: Error>(self, v: u64) -> Result<f32, E> {
                Ok(v as f32)
            }
        }
        d.deserialize_f32(V)
    }
}

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = f64;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("f64")
            }
            fn visit_f64<E: Error>(self, v: f64) -> Result<f64, E> {
                Ok(v)
            }
            fn visit_i64<E: Error>(self, v: i64) -> Result<f64, E> {
                Ok(v as f64)
            }
            fn visit_u64<E: Error>(self, v: u64) -> Result<f64, E> {
                Ok(v as f64)
            }
        }
        d.deserialize_f64(V)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<bool, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = bool;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }
        d.deserialize_bool(V)
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<char, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = char;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a character")
            }
            fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
                let mut chars = v.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(E::custom("expected a single character")),
                }
            }
        }
        d.deserialize_char(V)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<String, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = String;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }
        d.deserialize_string(V)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a str {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<&'a str, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = &'de str;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a borrowed string")
            }
            fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<&'de str, E> {
                Ok(v)
            }
        }
        d.deserialize_str(V)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<(), D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        d.deserialize_unit(V)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Box<T>, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Option<T>, D::Error> {
        struct V<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for V<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("an option")
            }
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }
        d.deserialize_option(V(PhantomData))
    }
}

/// A length read from input is a hint, not an allocation size.
fn capped(hint: Option<usize>) -> usize {
    hint.unwrap_or(0).min(4096)
}

macro_rules! seq {
    ($($ty:ident [$($bound:tt)*] => $with_cap:expr, $push:ident);*) => {$(
        impl<'de, T: Deserialize<'de> $($bound)*> Deserialize<'de> for $ty<T> {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V<T>(PhantomData<T>);
                impl<'de, T: Deserialize<'de> $($bound)*> Visitor<'de> for V<T> {
                    type Value = $ty<T>;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a sequence")
                    }
                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Self::Value, A::Error> {
                        let mut out: Self::Value = $with_cap(capped(seq.size_hint()));
                        while let Some(item) = seq.next_element()? {
                            out.$push(item);
                        }
                        Ok(out)
                    }
                }
                d.deserialize_seq(V(PhantomData))
            }
        }
    )*};
}

fn new_btree_set<T: Ord>(_cap: usize) -> BTreeSet<T> {
    BTreeSet::new()
}

seq! {
    Vec [] => Vec::with_capacity, push;
    VecDeque [] => VecDeque::with_capacity, push_back;
    BTreeSet [+ Ord] => new_btree_set, insert
}

impl<'de, T, H> Deserialize<'de> for HashSet<T, H>
where
    T: Deserialize<'de> + Eq + Hash,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        // Through Vec: the set's own visitor would differ only in the insert.
        let items = Vec::<T>::deserialize(d)?;
        let mut out = HashSet::with_capacity_and_hasher(items.len(), H::default());
        out.extend(items);
        Ok(out)
    }
}

impl<'de, K: Deserialize<'de> + Ord, T: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<K, T>(PhantomData<(K, T)>);
        impl<'de, K: Deserialize<'de> + Ord, T: Deserialize<'de>> Visitor<'de> for V<K, T> {
            type Value = BTreeMap<K, T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = BTreeMap::new();
                while let Some((k, v)) = map.next_entry()? {
                    out.insert(k, v);
                }
                Ok(out)
            }
        }
        d.deserialize_map(V(PhantomData))
    }
}

impl<'de, K, T, H> Deserialize<'de> for HashMap<K, T, H>
where
    K: Deserialize<'de> + Eq + Hash,
    T: Deserialize<'de>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<K, T, H>(PhantomData<(K, T, H)>);
        impl<'de, K, T, H> Visitor<'de> for V<K, T, H>
        where
            K: Deserialize<'de> + Eq + Hash,
            T: Deserialize<'de>,
            H: BuildHasher + Default,
        {
            type Value = HashMap<K, T, H>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out =
                    HashMap::with_capacity_and_hasher(capped(map.size_hint()), H::default());
                while let Some((k, v)) = map.next_entry()? {
                    out.insert(k, v);
                }
                Ok(out)
            }
        }
        d.deserialize_map(V(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T, const N: usize>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>, const N: usize> Visitor<'de> for V<T, N> {
            type Value = [T; N];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "an array of length {N}")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<[T; N], A::Error> {
                let mut items = Vec::with_capacity(N);
                while items.len() < N {
                    match seq.next_element()? {
                        Some(item) => items.push(item),
                        None => return Err(Error::invalid_length(items.len(), &"a full array")),
                    }
                }
                items
                    .try_into()
                    .map_err(|_| Error::custom("array length mismatch"))
            }
        }
        d.deserialize_tuple(N, V(PhantomData))
    }
}

macro_rules! tuple {
    ($($len:literal => ($($name:ident),+))*) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<__D: Deserializer<'de>>(d: __D) -> Result<Self, __D::Error> {
                struct V<$($name),+>(PhantomData<($($name,)+)>);
                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for V<$($name),+> {
                    type Value = ($($name,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of length {}", $len)
                    }
                    #[allow(non_snake_case)]
                    fn visit_seq<__A: SeqAccess<'de>>(self, mut seq: __A)
                        -> Result<Self::Value, __A::Error>
                    {
                        let mut taken = 0usize;
                        $(
                            let $name = match seq.next_element()? {
                                Some(v) => v,
                                None => return Err(Error::invalid_length(taken, &"a full tuple")),
                            };
                            taken += 1;
                        )+
                        let _ = taken;
                        Ok(($($name,)+))
                    }
                }
                d.deserialize_tuple($len, V(PhantomData))
            }
        }
    )*};
}
tuple! {
    1 => (A)
    2 => (A, B)
    3 => (A, B, C)
    4 => (A, B, C, D)
    5 => (A, B, C, D, E)
    6 => (A, B, C, D, E, F)
}
