//! Ordered secondary indexes over order-preserving byte keys.
//!
//! Indexes map key tuples to the row ids of versions carrying that key.
//! They are *not* MVCC-aware: visibility (and, in IFDB, label filtering) is
//! applied when the heap tuple is fetched. This mirrors the paper's
//! observation that polyinstantiation "required no special support, since the
//! indexes that enforce uniqueness constraints already had to be prepared to
//! deal with multiple versions" (Section 7.1).
//!
//! # Which versions have entries
//!
//! Every version gets an entry under its key in each of its table's indexes
//! when it is inserted, redone or back-filled, and keeps it for as long as
//! some snapshot may see it. Entries go only when their version is dead to
//! every snapshot ([`crate::mvcc::DeadVersions`]), and exactly those
//! entries, through [`OrderedIndex::remove`]: a lookup that fetches a dead
//! version drops its entries once it has let go of the page
//! ([`crate::StorageEngine::visit_rows`]), and vacuum drops the entries of
//! the versions it reclaims. A lookup therefore walks the live versions of
//! its keys plus those that running snapshots still hold, not the keys'
//! whole history. Slots are never reused, so an entry whose row is gone can
//! never name a live version, and removing an entry twice is harmless.
//!
//! # Keys as bytes
//!
//! An index stores each key as one byte string, the [`encode_key`] encoding
//! of its datums. Comparing two encodings byte by byte orders them exactly
//! as `Ord` orders the datum tuples (lexicographically, datum by datum), and
//! tuples that `Ord` calls equal encode to the same bytes: `Int(1)`,
//! `Float(1.0)` and `Timestamp(1)` are one key. Every datum's encoding is
//! self-delimiting, so a key prefix encodes to a byte prefix of the key and a
//! prefix scan is a byte-range scan. A lookup encodes its probe once and
//! clones no datum; a key is copied into the index only when it is new.
//!
//! | datum | bytes |
//! |---|---|
//! | `Null` | `01` |
//! | `Bool` | `02` (false) or `03` (true) |
//! | float below −2^63, −∞ included | `16`, then the float's order bits |
//! | number whose floor `k` is an `i64` | `k` as below, then `00` if the number is `k`, else `01` and the float's order bits |
//! | float at or above 2^63, +∞ included | `29`, then the float's order bits |
//! | NaN (every NaN is one value) | `2A` |
//! | `Text` | `30`, the bytes with `00` written `00 FF`, then `00 00` |
//! | `IntArray` | `31`, `01` and 8 big-endian bytes per element, then `00` |
//!
//! An integer `k ≥ 0` of `n` significant bytes is `20 + n` followed by those
//! bytes big-endian; a negative `k` is `1F − n`, where `n` counts the
//! significant bytes of `!k`, followed by the low `n` bytes of `k`
//! big-endian. A float's order bits are its IEEE bits, big-endian, with the
//! sign bit flipped for a positive float and every bit flipped for a
//! negative one.

use std::collections::BTreeMap;
use std::ops::Bound;

use parking_lot::RwLock;

use crate::heap::RowId;
use crate::value::Datum;

const NULL: u8 = 0x01;
const FALSE: u8 = 0x02;
const TRUE: u8 = 0x03;
const BELOW_I64: u8 = 0x16;
/// The tag of the integer 0; an integer of `n` significant bytes is tagged
/// `n` above it, or `n + 1` below it when negative.
const ZERO: u8 = 0x20;
const ABOVE_I64: u8 = 0x29;
const NAN: u8 = 0x2A;
const TEXT: u8 = 0x30;
const ARRAY: u8 = 0x31;
/// After an integer part: the number is that integer.
const EXACT: u8 = 0x00;
/// After an integer part: the float's order bits follow.
const FRACTION: u8 = 0x01;

/// 2^63: a float in `[-2^63, 2^63)` has an `i64` floor.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The stored form of the key made of `datums` (see the module docs).
pub fn encode_key<'a>(datums: impl IntoIterator<Item = &'a Datum>) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    for d in datums {
        encode_datum(d, &mut out);
    }
    out
}

fn encode_datum(datum: &Datum, out: &mut Vec<u8>) {
    match datum {
        Datum::Null => out.push(NULL),
        Datum::Bool(b) => out.push(if *b { TRUE } else { FALSE }),
        Datum::Int(k) | Datum::Timestamp(k) => {
            encode_int(*k, out);
            out.push(EXACT);
        }
        Datum::Float(f) => encode_float(*f, out),
        Datum::Text(s) => {
            out.push(TEXT);
            for &b in s.as_bytes() {
                out.push(b);
                if b == 0 {
                    out.push(0xFF);
                }
            }
            out.extend_from_slice(&[0, 0]);
        }
        Datum::IntArray(words) => {
            out.push(ARRAY);
            for w in words {
                out.push(1);
                out.extend_from_slice(&w.to_be_bytes());
            }
            out.push(0);
        }
    }
}

/// An integer's tag and significant bytes: the more bytes, the further the
/// tag from [`ZERO`], so the tag orders integers by magnitude class and the
/// bytes order them within it.
fn encode_int(k: i64, out: &mut Vec<u8>) {
    let magnitude = if k >= 0 { k } else { !k };
    let n = 8 - (magnitude.leading_zeros() / 8) as u8;
    out.push(if k >= 0 { ZERO + n } else { ZERO - 1 - n });
    out.extend_from_slice(&k.to_be_bytes()[usize::from(8 - n)..]);
}

fn encode_float(f: f64, out: &mut Vec<u8>) {
    if f.is_nan() {
        out.push(NAN);
    } else if f < -TWO_POW_63 {
        out.push(BELOW_I64);
        out.extend_from_slice(&order_bits(f));
    } else if f >= TWO_POW_63 {
        out.push(ABOVE_I64);
        out.extend_from_slice(&order_bits(f));
    } else {
        // In range, so the floor is exactly an `i64`.
        let floor = f.floor();
        encode_int(floor as i64, out);
        if floor == f {
            out.push(EXACT);
        } else {
            out.push(FRACTION);
            out.extend_from_slice(&order_bits(f));
        }
    }
}

/// Big-endian bytes whose order is the numeric order of non-NaN floats.
fn order_bits(f: f64) -> [u8; 8] {
    let bits = f.to_bits();
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    };
    ordered.to_be_bytes()
}

/// The row ids under one key, in insertion order. Most keys hold one row (a
/// unique index's keys do until an update adds a second version), kept
/// inline rather than in an allocation of its own.
#[derive(Debug)]
enum Rows {
    One(RowId),
    Many(Box<[RowId]>),
}

impl Rows {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Rows::One(row) => std::slice::from_ref(row),
            Rows::Many(rows) => rows,
        }
    }

    fn push(&mut self, row: RowId) {
        let mut rows = self.as_slice().to_vec();
        rows.push(row);
        *self = Rows::Many(rows.into_boxed_slice());
    }

    /// Keeps the rows `keep` accepts, in their order; `false` when none is
    /// left.
    fn retain(&mut self, mut keep: impl FnMut(RowId) -> bool) -> bool {
        let rows: Vec<RowId> = self
            .as_slice()
            .iter()
            .copied()
            .filter(|r| keep(*r))
            .collect();
        *self = match rows.len() {
            0 => return false,
            1 => Rows::One(rows[0]),
            _ => Rows::Many(rows.into_boxed_slice()),
        };
        true
    }
}

/// An ordered index supporting point, prefix and range lookups.
#[derive(Debug, Default)]
pub struct OrderedIndex {
    map: RwLock<BTreeMap<Box<[u8]>, Rows>>,
}

impl OrderedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry under `key`, an [`encode_key`] encoding. Idempotent per
    /// `(key, row)` pair, so a version observed both by an index back-fill
    /// and by concurrent statement-side maintenance is recorded once.
    pub fn insert(&self, key: &[u8], row: RowId) {
        let mut map = self.map.write();
        match map.get_mut(key) {
            Some(rows) if rows.as_slice().contains(&row) => {}
            Some(rows) => rows.push(row),
            None => {
                map.insert(key.into(), Rows::One(row));
            }
        }
    }

    /// Removes exactly the `(key, row)` entries of `entries` ([`encode_key`]
    /// encodings), under one write lock, and returns how many it found. An
    /// entry that is not there is skipped; a key left with no row goes.
    /// Sorts `entries`, so each key is searched for once.
    pub fn remove(&self, entries: &mut [(Vec<u8>, RowId)]) -> u64 {
        if entries.is_empty() {
            return 0;
        }
        entries.sort_unstable();
        let mut removed = 0;
        let mut map = self.map.write();
        for same_key in entries.chunk_by(|a, b| a.0 == b.0) {
            let key = &same_key[0].0[..];
            let Some(rows) = map.get_mut(key) else {
                continue;
            };
            let before = rows.as_slice().len();
            if rows.retain(|r| !same_key.iter().any(|(_, dead)| *dead == r)) {
                removed += (before - rows.as_slice().len()) as u64;
            } else {
                removed += before as u64;
                map.remove(key);
            }
        }
        removed
    }

    /// Row ids recorded under exactly `key`.
    pub fn get(&self, key: &[Datum]) -> Vec<RowId> {
        let key = encode_key(key);
        let map = self.map.read();
        map.get(&key[..])
            .map(|rows| rows.as_slice().to_vec())
            .unwrap_or_default()
    }

    /// Row ids whose keys fall within `[low, high]` (inclusive bounds; `None`
    /// means unbounded), in key order. Crossed bounds select nothing.
    pub fn range(&self, low: Option<&[Datum]>, high: Option<&[Datum]>) -> Vec<RowId> {
        let low = low.map(encode_key);
        let high = high.map(encode_key);
        if let (Some(low), Some(high)) = (&low, &high) {
            if low > high {
                return Vec::new();
            }
        }
        let bounds = (
            low.as_deref().map_or(Bound::Unbounded, Bound::Included),
            high.as_deref().map_or(Bound::Unbounded, Bound::Included),
        );
        let map = self.map.read();
        map.range::<[u8], _>(bounds)
            .flat_map(|(_, rows)| rows.as_slice())
            .copied()
            .collect()
    }

    /// [`OrderedIndex::range`] with bounds that are key prefixes, `high`
    /// taking in every key that extends it: `(w, d, o)` to `(w, d)` is every
    /// key of the `(w, d)` group from `o` on. Over full keys the two agree.
    pub fn range_of_prefixes(&self, low: Option<&[Datum]>, high: Option<&[Datum]>) -> Vec<RowId> {
        let bound = |b: Option<&[Datum]>| b.map(encode_key).unwrap_or_default();
        self.between(&bound(low), &bound(high))
    }

    /// Row ids whose key starts with `prefix` (useful for composite keys such
    /// as `(warehouse, district)` scans in TPC-C), in key order.
    pub fn prefix(&self, prefix: &[Datum]) -> Vec<RowId> {
        let prefix = encode_key(prefix);
        self.between(&prefix, &prefix)
    }

    /// Row ids, in key order, whose encoded keys are at least `low` and,
    /// cut to the length of `high`, at most `high`; an empty `high` bounds
    /// nothing. Every datum's encoding is self-delimiting, so with `low` and
    /// `high` encodings of key prefixes this is every key from `low` on up to
    /// the last key that extends `high`. The scan starts at `low` and stops
    /// at the first key past `high`, so its cost is proportional to what it
    /// returns, not to the index.
    fn between(&self, low: &[u8], high: &[u8]) -> Vec<RowId> {
        let map = self.map.read();
        map.range::<[u8], _>((Bound::Included(low), Bound::Unbounded))
            .take_while(|(k, _)| high.is_empty() || k[..k.len().min(high.len())] <= *high)
            .flat_map(|(_, rows)| rows.as_slice())
            .copied()
            .collect()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.read().len()
    }

    /// Total number of entries.
    pub fn entry_count(&self) -> usize {
        self.map.read().values().map(|r| r.as_slice().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: u32) -> RowId {
        RowId { page: n, slot: 0 }
    }

    fn key(vals: &[i64]) -> Vec<Datum> {
        vals.iter().map(|v| Datum::Int(*v)).collect()
    }

    fn insert(idx: &OrderedIndex, k: &[i64], r: RowId) {
        idx.insert(&encode_key(&key(k)), r);
    }

    #[test]
    fn a_keys_one_row_lives_inline() {
        assert_eq!(std::mem::size_of::<Rows>(), 16);
    }

    #[test]
    fn ordered_point_lookup_and_duplicates() {
        let idx = OrderedIndex::new();
        insert(&idx, &[1], row(11));
        insert(&idx, &[1], row(10));
        insert(&idx, &[1], row(11));
        insert(&idx, &[2], row(20));
        // Insertion order, not row order; the repeated pair counted once.
        assert_eq!(idx.get(&key(&[1])), vec![row(11), row(10)]);
        assert_eq!(idx.get(&key(&[3])), Vec::<RowId>::new());
        assert_eq!(idx.key_count(), 2);
        assert_eq!(idx.entry_count(), 3);
    }

    #[test]
    fn ordered_range_scan() {
        let idx = OrderedIndex::new();
        for i in -5..10 {
            insert(&idx, &[i * 100], row((i + 5) as u32));
        }
        let rows = |lo: Option<i64>, hi: Option<i64>| {
            let (lo, hi) = (lo.map(|v| key(&[v])), hi.map(|v| key(&[v])));
            idx.range(lo.as_deref(), hi.as_deref())
        };
        assert_eq!(
            rows(Some(-300), Some(100)),
            (2..=6).map(row).collect::<Vec<_>>()
        );
        assert_eq!(rows(None, Some(-400)).len(), 2);
        assert_eq!(rows(Some(800), None).len(), 2);
        assert!(rows(Some(5), Some(1)).is_empty(), "crossed bounds");
    }

    #[test]
    fn ordered_prefix_scan() {
        let idx = OrderedIndex::new();
        insert(&idx, &[1, 1], row(1));
        insert(&idx, &[1, 2], row(2));
        insert(&idx, &[2, 1], row(3));
        insert(&idx, &[256, 1], row(4));
        assert_eq!(idx.prefix(&key(&[1])), vec![row(1), row(2)]);
        assert_eq!(idx.prefix(&key(&[256])), vec![row(4)]);
        assert_eq!(idx.prefix(&[]).len(), 4);
    }

    #[test]
    fn a_bound_on_a_middle_key_column_stops_at_the_end_of_its_prefix() {
        let idx = OrderedIndex::new();
        let mut n = 0;
        for w in 1..=2 {
            for o in 1..=10 {
                for line in 1..=3 {
                    n += 1;
                    insert(&idx, &[w, o, line], row(n));
                }
            }
        }
        // `w = 1 AND o >= 8`: the last three orders of group 1, every line.
        let from_8 = idx.range_of_prefixes(Some(&key(&[1, 8])), Some(&key(&[1])));
        assert_eq!(from_8, (22..=30).map(row).collect::<Vec<_>>());
        // `w = 1 AND o <= 2`, and `w = 1 AND 4 <= o <= 5`.
        let to_2 = idx.range_of_prefixes(Some(&key(&[1])), Some(&key(&[1, 2])));
        assert_eq!(to_2, (1..=6).map(row).collect::<Vec<_>>());
        let four_five = idx.range_of_prefixes(Some(&key(&[1, 4])), Some(&key(&[1, 5])));
        assert_eq!(four_five, (10..=15).map(row).collect::<Vec<_>>());
        // A bound past the group's last order, and crossed bounds.
        assert!(idx
            .range_of_prefixes(Some(&key(&[1, 11])), Some(&key(&[1])))
            .is_empty());
        assert!(idx
            .range_of_prefixes(Some(&key(&[1, 5])), Some(&key(&[1, 4])))
            .is_empty());
        // Over full keys it is the plain range.
        let (lo, hi) = (key(&[1, 4, 2]), key(&[2, 1, 1]));
        let full = idx.range_of_prefixes(Some(&lo), Some(&hi));
        assert_eq!(full, idx.range(Some(&lo), Some(&hi)));
        assert_eq!(full, (11..=31).map(row).collect::<Vec<_>>());
        // The prefix scan is the same form with both bounds the prefix.
        assert_eq!(
            idx.prefix(&key(&[2])),
            (31..=60).map(row).collect::<Vec<_>>()
        );
    }

    #[test]
    fn removal_cleans_up_empty_keys() {
        let idx = OrderedIndex::new();
        insert(&idx, &[5], row(1));
        insert(&idx, &[5], row(2));
        insert(&idx, &[6], row(3));
        let entry = |k: i64, r: u32| (encode_key(&key(&[k])), row(r));
        assert_eq!(idx.remove(&mut [entry(5, 1), entry(6, 3)]), 2);
        assert_eq!(idx.get(&key(&[5])), vec![row(2)]);
        assert_eq!(idx.key_count(), 1);
        // Dropping what is not there is a no-op.
        assert_eq!(idx.remove(&mut [entry(5, 9), entry(7, 2)]), 0);
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn remove_takes_exactly_the_named_entries() {
        let idx = OrderedIndex::new();
        insert(&idx, &[5], row(1));
        insert(&idx, &[5], row(2));
        insert(&idx, &[5], row(4));
        insert(&idx, &[6], row(3));
        let entry = |k: i64, r: u32| (encode_key(&key(&[k])), row(r));
        let mut dead = vec![entry(6, 3), entry(5, 1), entry(5, 4)];
        assert_eq!(idx.remove(&mut dead), 3);
        assert_eq!(idx.get(&key(&[5])), vec![row(2)]);
        assert_eq!(idx.key_count(), 1);
        // Removing what is not there, or a row under another key, is a
        // no-op.
        assert_eq!(idx.remove(&mut [entry(5, 9), entry(7, 2), entry(6, 3)]), 0);
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn removal_keeps_the_insertion_order_of_what_is_left() {
        let idx = OrderedIndex::new();
        for r in [7, 3, 9, 1, 5] {
            insert(&idx, &[1], row(r));
        }
        let entry = |r: u32| (encode_key(&key(&[1])), row(r));
        assert_eq!(idx.remove(&mut [entry(9), entry(7)]), 2);
        assert_eq!(idx.get(&key(&[1])), vec![row(3), row(1), row(5)]);
    }

    #[test]
    fn equal_numbers_share_a_key() {
        let seven = encode_key(&[Datum::Int(7)]);
        assert_eq!(encode_key(&[Datum::Float(7.0)]), seven);
        assert_eq!(encode_key(&[Datum::Timestamp(7)]), seven);
        let zero = encode_key(&[Datum::Int(0)]);
        assert_eq!(encode_key(&[Datum::Float(-0.0)]), zero);
        let nan = encode_key(&[Datum::Float(f64::NAN)]);
        assert_eq!(encode_key(&[Datum::Float(-f64::NAN)]), nan);
    }
}
