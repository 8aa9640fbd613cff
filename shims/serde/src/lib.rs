//! Offline stand-in for the subset of the `serde` 1.x API this workspace
//! uses. The container has no crates.io access, so the real framework is
//! replaced by a minimal value-tree design: [`Serialize`] lowers a type to
//! a self-describing [`Value`], [`Deserialize`] rebuilds it, and the
//! companion `serde_json` shim renders/parses `Value` as JSON text. The
//! derive macros (from the `serde_derive` shim) generate the same
//! externally-tagged representation real serde uses, so archives written
//! by one build parse identically in the next.
//!
//! Supported shapes: named/tuple/unit structs, enums with unit, newtype,
//! tuple, and struct variants, and the `#[serde(skip)]` field attribute
//! (skipped fields deserialize via `Default`).
//!
//! ## The direct path
//!
//! A format that does not need the tree can skip it. [`Serialize::write_to`]
//! emits the tokens `to_value` would build straight into a [`Sink`], and
//! [`Deserialize::read_from`] rebuilds a value from the tokens a [`Source`]
//! reads, in the same shape and key order. The derives generate both, so a
//! type still has one schema. A decoded object may hold its keys in any
//! order; unknown keys are skipped, the first of two equal keys wins (as in
//! [`from_field`]), and `#[serde(skip)]` fields get their default. The
//! default methods go through `to_value`/`from_value`, so hand-written
//! impls work on both paths unchanged. The binary `.gar` codec implements
//! both traits; the JSON shim keeps the tree.

use std::collections::{BTreeMap, HashMap};

/// A self-describing serialized value — the shim's entire data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also `Option::None` and unit).
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer too large for `i64`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Array(Vec<Value>),
    /// A key/value mapping, in insertion (= declaration) order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up an object key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// A deserialization error: what was expected, and what was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// An "expected X" error.
    pub fn expected(what: &str) -> Self {
        DeError(format!("expected {what}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can lower themselves to a [`Value`].
pub trait Serialize {
    /// The value-tree form of `self`.
    fn to_value(&self) -> Value;

    /// Writes the tokens of [`Serialize::to_value`] straight to `sink`.
    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.value(&self.to_value());
    }
}

/// Types that can rebuild themselves from a [`Value`].
pub trait Deserialize: Sized {
    /// Parses `v`, reporting a [`DeError`] on shape mismatch.
    fn from_value(v: &Value) -> Result<Self, DeError>;

    /// Reads one value from `src`, accepting exactly what
    /// [`Deserialize::from_value`] accepts of the same value as a tree.
    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        let v = src.value()?;
        Ok(Self::from_value(&v)?)
    }
}

pub use serde_derive::{Deserialize, Serialize};

/// A format's writer for the direct path: one call per token of a
/// [`Value`], containers announced by their length.
pub trait Sink {
    /// A null.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A signed integer.
    fn int(&mut self, v: i64);
    /// An unsigned integer above `i64::MAX`.
    fn uint(&mut self, v: u64);
    /// A float.
    fn float(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// An array; `len` values follow.
    fn array(&mut self, len: usize);
    /// An object; `len` pairs follow, each a [`Sink::key`] and a value.
    fn object(&mut self, len: usize);
    /// An object key.
    fn key(&mut self, key: &str);

    /// A whole value tree.
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(i) => self.int(*i),
            Value::UInt(u) => self.uint(*u),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.str(s),
            Value::Array(items) => {
                self.array(items.len());
                items.iter().for_each(|item| self.value(item));
            }
            Value::Object(pairs) => {
                self.object(pairs.len());
                for (k, item) in pairs {
                    self.key(k);
                    self.value(item);
                }
            }
        }
    }
}

/// One token read by a [`Source`].
#[derive(Debug, Clone, Copy)]
pub enum Token<'a> {
    /// A null.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A string.
    Str(&'a str),
    /// An array of this many values: read them, then [`Source::end`].
    Array(usize),
    /// An object of this many pairs: a [`Source::key`] and a value each,
    /// then [`Source::end`].
    Object(usize),
}

/// Most elements a decoder reserves room for up front; longer arrays grow
/// as they are read, so a forged count costs no more than this.
const MAX_PREALLOC: usize = 4096;

/// A format's reader for the direct path. A source bounds every
/// container length by the input it holds, caps nesting, and reports
/// malformed input as its own error.
pub trait Source {
    /// The format's error; shape mismatches arrive as [`DeError`].
    type Error: From<DeError>;

    /// The next token; containers are entered.
    fn token(&mut self) -> Result<Token<'_>, Self::Error>;
    /// Consumes the next value if it is a null, and says whether it was.
    fn null(&mut self) -> Result<bool, Self::Error>;
    /// The next object key, as bytes: a reader that finds it among its
    /// field names needs no UTF-8 check, and checks any other key with
    /// [`key_str`].
    fn key(&mut self) -> Result<&[u8], Self::Error>;
    /// Leaves the container whose last element was just read.
    fn end(&mut self);

    /// Reads one whole value as a tree.
    fn value(&mut self) -> Result<Value, Self::Error> {
        Ok(match self.token()? {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Int(i) => Value::Int(i),
            Token::UInt(u) => Value::UInt(u),
            Token::Float(f) => Value::Float(f),
            Token::Str(s) => Value::Str(s.to_owned()),
            Token::Array(n) => {
                let mut items = Vec::with_capacity(n.min(MAX_PREALLOC));
                for _ in 0..n {
                    items.push(self.value()?);
                }
                self.end();
                Value::Array(items)
            }
            Token::Object(n) => {
                let mut pairs = Vec::with_capacity(n.min(MAX_PREALLOC));
                for _ in 0..n {
                    let key = key_str::<Self::Error>(self.key()?)?.to_owned();
                    pairs.push((key, self.value()?));
                }
                self.end();
                Value::Object(pairs)
            }
        })
    }

    /// Reads and discards one value, checking it as [`Source::value`] would.
    fn skip(&mut self) -> Result<(), Self::Error> {
        match self.token()? {
            Token::Array(n) => {
                for _ in 0..n {
                    self.skip()?;
                }
                self.end();
            }
            Token::Object(n) => {
                for _ in 0..n {
                    key_str::<Self::Error>(self.key()?)?;
                    self.skip()?;
                }
                self.end();
            }
            _ => {}
        }
        Ok(())
    }
}

/// An object key as text, or the error for a key that is not UTF-8.
pub fn key_str<E: From<DeError>>(key: &[u8]) -> Result<&str, E> {
    std::str::from_utf8(key).map_err(|_| expected("UTF-8 object key"))
}

/// Derive-macro helper: the error for a token of the wrong kind.
pub fn expected<E: From<DeError>>(what: &str) -> E {
    DeError::expected(what).into()
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.value(self);
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }

    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        src.value()
    }
}

/// Derive-macro helper: fetches and parses a struct field.
pub fn from_field<T: Deserialize>(pairs: &[(String, Value)], key: &str) -> Result<T, DeError> {
    match pairs.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v),
        None => Err(missing_field(key)),
    }
}

/// The error for an object without the field `key`.
pub fn missing_field(key: &str) -> DeError {
    DeError(format!("missing field `{key}`"))
}

// ---------------------------------------------------------------- numbers

macro_rules! impl_value_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                #[allow(unused_comparisons)]
                if (*self as i128) >= 0 && (*self as i128) > i64::MAX as i128 {
                    Value::UInt(*self as u64)
                } else {
                    Value::Int(*self as i64)
                }
            }
            fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
                #[allow(unused_comparisons)]
                if (*self as i128) >= 0 && (*self as i128) > i64::MAX as i128 {
                    sink.uint(*self as u64)
                } else {
                    sink.int(*self as i64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => narrow(*i as i128, stringify!($t)),
                    Value::UInt(u) => narrow(*u as i128, stringify!($t)),
                    _ => Err(expected(concat!("integer (", stringify!($t), ")"))),
                }
            }
            fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
                match src.token()? {
                    Token::Int(i) => Ok(narrow(i as i128, stringify!($t))?),
                    Token::UInt(u) => Ok(narrow(u as i128, stringify!($t))?),
                    _ => Err(expected(concat!("integer (", stringify!($t), ")"))),
                }
            }
        }
    )*};
}

/// Narrows a decoded integer to `T`, named `ty` in the error.
fn narrow<T: TryFrom<i128>>(wide: i128, ty: &str) -> Result<T, DeError> {
    T::try_from(wide).map_err(|_| DeError(format!("integer {wide} out of range for {ty}")))
}

impl_value_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_value_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
            fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
                sink.float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    _ => Err(DeError::expected("number")),
                }
            }
            fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
                match src.token()? {
                    Token::Float(f) => Ok(f as $t),
                    Token::Int(i) => Ok(i as $t),
                    Token::UInt(u) => Ok(u as $t),
                    _ => Err(expected("number")),
                }
            }
        }
    )*};
}
impl_value_float!(f32, f64);

// ------------------------------------------------------- scalars & text

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool")),
        }
    }

    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        match src.token()? {
            Token::Bool(b) => Ok(b),
            _ => Err(expected("bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string")),
        }
    }

    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        match src.token()? {
            Token::Str(s) => Ok(s.to_owned()),
            _ => Err(expected("string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            // Deserializing into &'static str (static catalogs/registries
            // do this) has no owner to borrow from; leak the small string.
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            _ => Err(DeError::expected("string")),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().expect("one char")),
            _ => Err(DeError::expected("single-character string")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        (**self).write_to(sink)
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.null()
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            _ => Err(DeError::expected("null")),
        }
    }

    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        match src.token()? {
            Token::Null => Ok(()),
            _ => Err(expected("null")),
        }
    }
}

// ------------------------------------------------------------ containers

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(inner) => inner.to_value(),
        }
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        match self {
            None => sink.null(),
            Some(inner) => inner.write_to(sink),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        if src.null()? {
            Ok(None)
        } else {
            T::read_from(src).map(Some)
        }
    }
}

/// Writes a sequence as an array.
fn write_seq<T: Serialize, S: Sink + ?Sized>(items: &[T], sink: &mut S) {
    sink.array(items.len());
    items.iter().for_each(|item| item.write_to(sink));
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        write_seq(self, sink)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array")),
        }
    }

    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        let Token::Array(n) = src.token()? else {
            return Err(expected("array"));
        };
        let mut items = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            items.push(T::read_from(src)?);
        }
        src.end();
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        write_seq(self, sink)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        write_seq(self, sink)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_to<S: Sink + ?Sized>(&self, sink: &mut S) {
        (**self).write_to(sink)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }

    fn read_from<S: Source + ?Sized>(src: &mut S) -> Result<Self, S::Error> {
        T::read_from(src).map(Box::new)
    }
}

macro_rules! impl_value_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
            fn write_to<SINK: Sink + ?Sized>(&self, sink: &mut SINK) {
                sink.array([$($idx),+].len());
                $(self.$idx.write_to(sink);)+
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::expected("tuple array"))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(DeError(format!(
                        "expected tuple of {expected}, found array of {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
            fn read_from<SRC: Source + ?Sized>(src: &mut SRC) -> Result<Self, SRC::Error> {
                let expected = [$($idx),+].len();
                match src.token()? {
                    Token::Array(n) if n == expected => {}
                    Token::Array(n) => {
                        return Err(DeError(format!(
                            "expected tuple of {expected}, found array of {n}"
                        ))
                        .into())
                    }
                    _ => return Err(self::expected("tuple array")),
                }
                let items = ($($name::read_from(src)?,)+);
                src.end();
                Ok(items)
            }
        }
    )*};
}
impl_value_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
}

/// Serializes ordered (key, value) pairs: string-keyed maps render as a
/// JSON object, anything else as an array of `[key, value]` pairs (real
/// serde_json rejects non-string keys outright; the array form keeps
/// structured keys round-trippable).
fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)> + Clone,
) -> Value {
    let all_str = entries
        .clone()
        .all(|(k, _)| matches!(k.to_value(), Value::Str(_)));
    if all_str {
        Value::Object(
            entries
                .map(|(k, v)| {
                    let Value::Str(key) = k.to_value() else {
                        unreachable!("checked above");
                    };
                    (key, v.to_value())
                })
                .collect(),
        )
    } else {
        Value::Array(
            entries
                .map(|(k, v)| Value::Array(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

/// Inverse of [`map_to_value`]: accepts both encodings.
fn map_from_value<K: Deserialize, V: Deserialize>(
    v: &Value,
) -> Result<impl Iterator<Item = (K, V)>, DeError> {
    let entries: Vec<(K, V)> = match v {
        Value::Object(pairs) => pairs
            .iter()
            .map(|(k, v)| Ok((K::from_value(&Value::Str(k.clone()))?, V::from_value(v)?)))
            .collect::<Result<_, DeError>>()?,
        Value::Array(items) => items
            .iter()
            .map(|item| {
                let pair = item
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| DeError::expected("[key, value] map entry"))?;
                Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
            })
            .collect::<Result<_, DeError>>()?,
        _ => return Err(DeError::expected("object or entry array")),
    };
    Ok(entries.into_iter())
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(map_from_value(v)?.collect())
    }
}

impl<K: Serialize + Ord + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Deterministic output: sort keys like a BTreeMap would.
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        map_to_value(pairs.into_iter())
    }
}

impl<K: Deserialize + Ord + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(map_from_value(v)?.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn very_large_u64_uses_uint() {
        let v = u64::MAX.to_value();
        assert_eq!(v, Value::UInt(u64::MAX));
        assert_eq!(u64::from_value(&v).unwrap(), u64::MAX);
    }

    #[test]
    fn int_to_float_coercion() {
        assert_eq!(f64::from_value(&Value::Int(3)).unwrap(), 3.0);
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.5)];
        let rt = Vec::<(u64, f64)>::from_value(&v.to_value()).unwrap();
        assert_eq!(v, rt);

        let opt: Option<String> = None;
        assert_eq!(opt.to_value(), Value::Null);

        let mut map = BTreeMap::new();
        map.insert("a".to_string(), 1i64);
        let rt = BTreeMap::<String, i64>::from_value(&map.to_value()).unwrap();
        assert_eq!(map, rt);
    }

    #[test]
    fn out_of_range_integer_errors() {
        assert!(u8::from_value(&Value::Int(300)).is_err());
        assert!(u64::from_value(&Value::Int(-1)).is_err());
    }
}
