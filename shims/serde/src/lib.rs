//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a minimal data model instead: [`Serialize`] lowers a value
//! into a self-describing [`Value`] tree and [`Deserialize`] rebuilds a
//! typed value from one. `serde_json` (also a shim) renders and parses
//! `Value` as JSON text. The derive macros live in the `serde_derive`
//! shim and support structs with named fields plus enums with unit and
//! newtype variants — exactly what the study's output types need.

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (the shim's entire data model).
#[derive(Debug, Clone)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer (also covers unsigned values that fit).
    Int(i64),
    /// Unsigned integers above `i64::MAX`.
    UInt(u64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map (field order is preserved).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Views the value as an object's field list.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Views the value as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric view, unifying the three number variants.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            // Numbers compare numerically across variants so that a
            // round-trip through text (where `2.0` prints as `2`) still
            // compares equal.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y || (x.is_nan() && y.is_nan()),
                _ => false,
            },
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error from any message.
    pub fn custom<M: std::fmt::Display>(msg: M) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can lower itself into a [`Value`].
pub trait Serialize {
    /// Lowers `self` into the shim data model.
    fn to_value(&self) -> Value;
}

/// A type that can rebuild itself from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds a typed value, reporting shape mismatches as [`Error`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Fetches a required object field (used by the derive expansion).
pub fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Result<&'a Value, Error> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{key}`")))
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::custom("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::Int(i) => <$t>::try_from(i).map_err(Error::custom),
                    Value::UInt(u) => <$t>::try_from(u).map_err(Error::custom),
                    Value::Float(f)
                        if f.fract() == 0.0
                            && f >= <$t>::MIN as f64
                            && f <= <$t>::MAX as f64 =>
                    {
                        Ok(f as $t)
                    }
                    _ => Err(Error::custom(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(i) => Value::Int(i),
                    Err(_) => Value::UInt(*self as u64),
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match *v {
                    Value::Int(i) => <$t>::try_from(i).map_err(Error::custom),
                    Value::UInt(u) => <$t>::try_from(u).map_err(Error::custom),
                    Value::Float(f)
                        if f.fract() == 0.0 && f >= 0.0 && f <= <$t>::MAX as f64 =>
                    {
                        Ok(f as $t)
                    }
                    _ => Err(Error::custom(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        // BTreeMap iterates in key order, so the serialized object is
        // deterministic (the property clippy.toml's hash-iteration ban
        // protects for maps feeding serialization).
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error::custom("expected tuple array"))?;
                let mut it = items.iter();
                Ok(($({
                    let _ = $n; // positional
                    $t::from_value(it.next().ok_or_else(|| Error::custom("tuple too short"))?)?
                },)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for v in [0i64, -5, i64::MAX] {
            assert_eq!(i64::from_value(&v.to_value()).unwrap(), v);
        }
        assert_eq!(f64::from_value(&Value::Int(2)).unwrap(), 2.0);
        assert_eq!(u32::from_value(&Value::Float(7.0)).unwrap(), 7);
        assert!(u32::from_value(&Value::Float(7.5)).is_err());
        // Out-of-range floats must error, not saturate.
        assert!(u32::from_value(&Value::Float(1e10)).is_err());
        assert!(i8::from_value(&Value::Float(-129.0)).is_err());
        assert!(i8::from_value(&Value::Float(127.0)).is_ok());
    }

    #[test]
    fn numeric_equality_crosses_variants() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn containers_round_trip() {
        let xs = vec![(1.0f64, 2.0f64), (3.0, 4.0)];
        let v = xs.to_value();
        assert_eq!(Vec::<(f64, f64)>::from_value(&v).unwrap(), xs);
    }
}
