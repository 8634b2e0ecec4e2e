//! Datums: the values stored in tuple fields.
//!
//! The type system is the small subset of SQL types that CarTel, HotCRP and
//! TPC-C need: integers, floats, text, booleans, timestamps (as microseconds
//! since the epoch) and arrays of unsigned integers (used only for the
//! `_label` system column).

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{corrupt, StorageError, StorageResult};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Microseconds since the Unix epoch.
    Timestamp,
    /// Array of unsigned 64-bit integers (the `_label` column type).
    IntArray,
}

/// A single field value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Boolean.
    Bool(bool),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
    /// Array of unsigned 64-bit integers.
    IntArray(Vec<u64>),
}

impl Datum {
    /// Returns `true` for [`Datum::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The dynamic type of this datum, or `None` for NULL (which has every
    /// type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Text(_) => Some(DataType::Text),
            Datum::Bool(_) => Some(DataType::Bool),
            Datum::Timestamp(_) => Some(DataType::Timestamp),
            Datum::IntArray(_) => Some(DataType::IntArray),
        }
    }

    /// Returns `true` if the datum may be stored in a column of type `ty`.
    pub fn matches_type(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == ty,
        }
    }

    /// Extracts an integer, if this is an [`Datum::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a float (also accepting integers).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extracts a string slice, if this is a [`Datum::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a boolean, if this is a [`Datum::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts a timestamp, if this is a [`Datum::Timestamp`].
    pub fn as_timestamp(&self) -> Option<i64> {
        match self {
            Datum::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Extracts the integer array, if this is a [`Datum::IntArray`].
    pub fn as_int_array(&self) -> Option<&[u64]> {
        match self {
            Datum::IntArray(v) => Some(v),
            _ => None,
        }
    }

    /// The number of bytes [`Datum::encode`] appends for this datum: its
    /// kind byte, its length word if it has one, and its payload.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Datum::Null => 0,
            Datum::Int(_) | Datum::Float(_) | Datum::Timestamp(_) => 8,
            Datum::Bool(_) => 1,
            Datum::Text(s) => 4 + s.len(),
            Datum::IntArray(v) => 4 + v.len() * 8,
        }
    }

    /// Appends the binary encoding of this datum to `out`.
    ///
    /// This one codec serves heap pages, the write-ahead log and the wire
    /// protocol. A datum is a kind byte and then its payload; the kind fixes
    /// the size of every fixed-width value, so only text and arrays carry a
    /// length word. All integers are little-endian.
    ///
    /// | kind | datum       | payload                              |
    /// |------|-------------|--------------------------------------|
    /// | 0    | `Null`      | none                                 |
    /// | 1    | `Int`       | `i64`, 8 B                           |
    /// | 2    | `Float`     | the `f64`'s bits, 8 B                |
    /// | 3    | `Text`      | `u32` byte length, then UTF-8 bytes  |
    /// | 4    | `Bool`      | 1 B, nonzero for true                |
    /// | 5    | `Timestamp` | `i64` microseconds, 8 B              |
    /// | 6    | `IntArray`  | `u32` word count, then `u64` words   |
    ///
    /// It is not meant to be a stable on-disk format: a log written with
    /// another layout is refused, not read.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Datum::Null => out.push(0),
            Datum::Int(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Datum::Float(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Datum::Text(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Datum::Bool(b) => {
                out.push(4);
                out.push(u8::from(*b));
            }
            Datum::Timestamp(v) => {
                out.push(5);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Datum::IntArray(v) => {
                out.push(6);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
    }

    /// The datum encoded at `pos`: its kind byte, its payload, and the
    /// position just past it; `None` if its kind is unknown or it runs off
    /// the end of `buf`.
    #[inline(always)]
    fn frame(buf: &[u8], pos: usize) -> Option<(u8, &[u8], usize)> {
        let kind = *buf.get(pos)?;
        let (at, len) = match kind {
            0 => (pos + 1, 0),
            1 | 2 | 5 => (pos + 1, 8),
            4 => (pos + 1, 1),
            3 | 6 => {
                let word = buf.get(pos + 1..pos + 5)?;
                let n = u32::from_le_bytes(word.try_into().expect("four bytes")) as usize;
                (pos + 5, if kind == 3 { n } else { n * 8 })
            }
            _ => return None,
        };
        let end = at.checked_add(len)?;
        Some((kind, buf.get(at..end)?, end))
    }

    /// The position just past the datum encoded at `pos`, without decoding
    /// its payload.
    pub fn skip(buf: &[u8], pos: usize) -> StorageResult<usize> {
        Ok(Self::frame(buf, pos).ok_or_else(bad_datum)?.2)
    }

    /// The value of the datum encoded at `pos` if it is an [`Datum::Int`],
    /// and the position just past it, decoding no other kind's payload.
    pub(crate) fn int_at(buf: &[u8], pos: usize) -> StorageResult<(Option<i64>, usize)> {
        let (kind, payload, end) = Self::frame(buf, pos).ok_or_else(bad_datum)?;
        let int = (kind == 1).then(|| i64::from_le_bytes(payload.try_into().expect("eight bytes")));
        Ok((int, end))
    }

    /// Decodes a datum from `buf` starting at `pos`, returning the datum and
    /// the new position.
    ///
    /// Inlined into the tuple reader's loops: out of line, handing the
    /// 48-byte result back through memory costs more than the decode.
    #[inline(always)]
    pub fn decode(buf: &[u8], pos: usize) -> StorageResult<(Datum, usize)> {
        let (kind, payload, end) = Self::frame(buf, pos).ok_or_else(bad_datum)?;
        let word = || i64::from_le_bytes(payload.try_into().expect("eight bytes"));
        let datum = match kind {
            0 => Datum::Null,
            1 => Datum::Int(word()),
            2 => Datum::Float(f64::from_bits(word() as u64)),
            3 => Datum::Text(
                std::str::from_utf8(payload)
                    .map_err(|_| corrupt("bad utf8"))?
                    .to_owned(),
            ),
            4 => Datum::Bool(payload[0] != 0),
            5 => Datum::Timestamp(word()),
            _ => Datum::IntArray(
                payload
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes")))
                    .collect(),
            ),
        };
        Ok((datum, end))
    }
}

#[cold]
fn bad_datum() -> StorageError {
    corrupt("truncated datum or unknown datum kind")
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.compare(other) == Some(Ordering::Equal)
    }
}

impl Eq for Datum {}

impl Datum {
    /// Three-way comparison with SQL-ish semantics: NULL compares equal to
    /// NULL and less than everything else (a total order convenient for
    /// index keys); numeric types compare numerically; mixed non-numeric
    /// types return `None`.
    pub fn compare(&self, other: &Datum) -> Option<Ordering> {
        use Datum::*;
        match (self, other) {
            (Null, Null) => Some(Ordering::Equal),
            (Null, _) => Some(Ordering::Less),
            (_, Null) => Some(Ordering::Greater),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(cmp_f64_total(*a, *b)),
            (Int(a) | Timestamp(a), Float(b)) => Some(cmp_i64_f64(*a, *b)),
            (Float(a), Int(b) | Timestamp(b)) => Some(cmp_i64_f64(*b, *a).reverse()),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Timestamp(a), Int(b)) => Some(a.cmp(b)),
            (Int(a), Timestamp(b)) => Some(a.cmp(b)),
            (IntArray(a), IntArray(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

/// Total order on floats: the usual IEEE order, with every NaN equal to
/// every other NaN and greater than every number (NaN sorts last).
fn cmp_f64_total(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp on non-NaN floats"),
        })
}

/// Exact mathematical comparison of an `i64` against an `f64`, without the
/// precision loss of casting the integer to `f64` first (which would make
/// e.g. `2^53 + 1` compare equal to `2^53.0` and break `Eq` transitivity).
/// NaN compares greater than every integer, matching [`cmp_f64_total`].
fn cmp_i64_f64(i: i64, f: f64) -> Ordering {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_POW_63 {
        return Ordering::Less;
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // |f| < 2^63, so its truncation is an exactly representable i64.
    let trunc = f.trunc();
    match i.cmp(&(trunc as i64)) {
        Ordering::Equal if f > trunc => Ordering::Less,
        Ordering::Equal if f < trunc => Ordering::Greater,
        ord => ord,
    }
}

/// The canonical numeric key used by `Hash`: mathematically equal numerics
/// (`Int`, `Float`, `Timestamp`) must produce the same key.
enum NumericKey {
    /// An integer value, or a float that is exactly an in-range integer
    /// (covers `-0.0` and all `Int`/`Float`/`Timestamp` cross-equalities).
    Integer(i64),
    /// A float equal to no `i64`: fractional, out of range, or infinite.
    /// Equal floats share bits, so the bits are canonical here.
    Bits(u64),
    /// Any NaN (all NaNs are equal under [`cmp_f64_total`]).
    Nan,
}

fn numeric_key(f: f64) -> NumericKey {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() {
        NumericKey::Nan
    } else if f.trunc() == f && (-TWO_POW_63..TWO_POW_63).contains(&f) {
        NumericKey::Integer(f as i64)
    } else {
        NumericKey::Bits(f.to_bits())
    }
}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        // Must agree with `Ord` (total over the type-rank fallback); the
        // SQL-ish partial comparison remains available as [`Datum::compare`].
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    fn cmp(&self, other: &Self) -> Ordering {
        // Fall back to comparing type discriminants for incomparable kinds so
        // that index keys always have a total order.
        self.compare(other).unwrap_or_else(|| {
            let rank = |d: &Datum| match d {
                Datum::Null => 0u8,
                Datum::Bool(_) => 1,
                Datum::Int(_) => 2,
                Datum::Float(_) => 3,
                Datum::Timestamp(_) => 4,
                Datum::Text(_) => 5,
                Datum::IntArray(_) => 6,
            };
            rank(self).cmp(&rank(other))
        })
    }
}

impl std::hash::Hash for Datum {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // `compare` makes Int/Float/Timestamp cross-type equal when they are
        // mathematically equal (e.g. `Int(1) == Float(1.0) == Timestamp(1)`),
        // so the whole numeric family must hash through one canonical key or
        // hash-join and HashMap lookups on mixed-type columns silently miss.
        match self {
            Datum::Null => 0u8.hash(state),
            Datum::Int(v) | Datum::Timestamp(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Datum::Float(v) => match numeric_key(*v) {
                NumericKey::Integer(i) => {
                    1u8.hash(state);
                    i.hash(state);
                }
                NumericKey::Bits(bits) => {
                    2u8.hash(state);
                    bits.hash(state);
                }
                NumericKey::Nan => 7u8.hash(state),
            },
            Datum::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Datum::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
            Datum::IntArray(v) => {
                6u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Text(s) => write!(f, "'{s}'"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Timestamp(t) => write!(f, "ts:{t}"),
            Datum::IntArray(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<i32> for Datum {
    fn from(v: i32) -> Self {
        Datum::Int(v as i64)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.to_string())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v)
    }
}

impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let values = vec![
            Datum::Null,
            Datum::Int(-42),
            Datum::Float(3.25),
            Datum::Text("hello world".into()),
            Datum::Bool(true),
            Datum::Timestamp(1_700_000_000_000_000),
            Datum::IntArray(vec![1, 2, 3]),
        ];
        let mut buf = Vec::new();
        for v in &values {
            v.encode(&mut buf);
        }
        let mut pos = 0;
        for v in &values {
            let (decoded, next) = Datum::decode(&buf, pos).unwrap();
            assert_eq!(&decoded, v);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        Datum::Text("abcdef".into()).encode(&mut buf);
        assert!(Datum::decode(&buf[..buf.len() - 2], 0).is_err());
        assert!(Datum::decode(&buf[..3], 0).is_err());
    }

    #[test]
    fn comparisons() {
        assert!(Datum::Int(1) < Datum::Int(2));
        assert!(Datum::Text("a".into()) < Datum::Text("b".into()));
        assert_eq!(Datum::Null, Datum::Null);
        assert!(Datum::Null < Datum::Int(0));
        assert_eq!(Datum::Int(2), Datum::Float(2.0));
    }

    #[test]
    fn type_checking() {
        assert!(Datum::Int(1).matches_type(DataType::Int));
        assert!(!Datum::Int(1).matches_type(DataType::Text));
        assert!(Datum::Null.matches_type(DataType::Text));
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::Int(5).as_int(), Some(5));
        assert_eq!(Datum::Int(5).as_float(), Some(5.0));
        assert_eq!(Datum::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Datum::Bool(true).as_bool(), Some(true));
        assert_eq!(Datum::Timestamp(9).as_timestamp(), Some(9));
        assert_eq!(Datum::IntArray(vec![7]).as_int_array(), Some(&[7u64][..]));
        assert_eq!(Datum::Text("x".into()).as_int(), None);
    }

    #[test]
    fn encoded_len_tracks_payload() {
        assert_eq!(Datum::Null.encoded_len(), 1);
        assert_eq!(Datum::Int(1).encoded_len(), 9);
        assert_eq!(Datum::Bool(true).encoded_len(), 2);
        assert_eq!(Datum::Text("abc".into()).encoded_len(), 8);
        assert_eq!(Datum::IntArray(vec![1, 2]).encoded_len(), 21);
        for d in [
            Datum::Float(0.5),
            Datum::Timestamp(-1),
            Datum::Text(String::new()),
        ] {
            let mut buf = Vec::new();
            d.encode(&mut buf);
            assert_eq!(buf.len(), d.encoded_len(), "{d:?}");
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(Datum::from(3i32), Datum::Int(3));
        assert_eq!(Datum::from("hi"), Datum::Text("hi".into()));
        assert_eq!(Datum::from(true), Datum::Bool(true));
    }

    fn hash_of(d: &Datum) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        d.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equal_datums_hash_equal() {
        let classes: &[&[Datum]] = &[
            &[Datum::Int(1), Datum::Float(1.0), Datum::Timestamp(1)],
            &[Datum::Int(0), Datum::Float(0.0), Datum::Float(-0.0)],
            &[Datum::Int(i64::MIN), Datum::Float(i64::MIN as f64)],
            &[Datum::Float(f64::NAN), Datum::Float(-f64::NAN)],
        ];
        for class in classes {
            for a in class.iter() {
                for b in class.iter() {
                    assert_eq!(a, b, "{a:?} vs {b:?}");
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn int_float_comparison_is_exact() {
        // 2^53 + 1 is not representable as f64; a rounding cast would call
        // these equal and break Eq transitivity through the Float bridge.
        let big = (1i64 << 53) + 1;
        assert_ne!(Datum::Int(big), Datum::Float((1i64 << 53) as f64));
        assert_eq!(
            Datum::Int(big).compare(&Datum::Float((1i64 << 53) as f64)),
            Some(Ordering::Greater)
        );
        // Out-of-range and fractional floats never equal any integer.
        assert_eq!(
            Datum::Int(i64::MAX).compare(&Datum::Float(1e300)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Datum::Int(2).compare(&Datum::Float(1.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn mixed_numeric_hash_join_lookup() {
        // The scenario behind the Hash/Eq contract: a map keyed on one
        // numeric type must be hit by an equal value of another.
        let mut map = std::collections::HashMap::new();
        map.insert(Datum::Int(42), "row");
        assert_eq!(map.get(&Datum::Float(42.0)), Some(&"row"));
        assert_eq!(map.get(&Datum::Timestamp(42)), Some(&"row"));
        assert_eq!(map.get(&Datum::Float(42.5)), None);
    }

    #[test]
    fn nan_sorts_last_and_equals_only_nan() {
        assert_ne!(Datum::Float(f64::NAN), Datum::Float(1.0));
        assert_ne!(Datum::Float(f64::NAN), Datum::Int(1));
        let mut v = [
            Datum::Float(f64::NAN),
            Datum::Float(1.0),
            Datum::Int(3),
            Datum::Float(2.0),
        ];
        v.sort();
        assert_eq!(v[0], Datum::Float(1.0));
        assert_eq!(v[1], Datum::Float(2.0));
        assert_eq!(v[2], Datum::Int(3));
        assert!(matches!(v[3], Datum::Float(f) if f.is_nan()));
    }
}
