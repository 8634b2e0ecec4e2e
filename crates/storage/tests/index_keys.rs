//! Index keys as bytes. The encoding sorts key tuples as `Datum`'s `Ord`
//! does, gives tuples `Ord` calls equal the same bytes, and encodes a key's
//! prefix as a byte prefix of the key; and an index over it answers every
//! lookup as the datum-keyed index it replaced, kept here as the oracle.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ifdb_storage::{encode_key, Datum, OrderedIndex, RowId};

/// Integers at the encoding's width boundaries and at the ends of `i64`.
const INTS: [i64; 12] = [
    0,
    1,
    -1,
    -2,
    255,
    256,
    -256,
    -257,
    65_536,
    (1 << 53) + 1,
    i64::MAX,
    i64::MIN,
];

/// Floats between and beyond the integers, and the special values.
const FLOATS: [f64; 12] = [
    0.5,
    -0.5,
    -0.0,
    255.5,
    -256.5,
    9_007_199_254_740_992.0,
    9.2e18,
    9_223_372_036_854_775_808.0,
    -9.3e18,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// A datum of any type, drawn where the encoding has edges: numbers equal
/// across types, texts holding `\0` and prefixes of one another, arrays
/// likewise, and floats of any bit pattern.
fn arbitrary_datum(rng: &mut StdRng) -> Datum {
    match rng.gen_range(0..10) {
        0 => Datum::Null,
        1 => Datum::Bool(rng.gen()),
        2 => Datum::Int(pick(rng, &INTS)),
        3 => Datum::Int(rng.gen_range(-3i64..4)),
        4 => Datum::Timestamp(pick(rng, &INTS)),
        5 => Datum::Float(pick(rng, &FLOATS)),
        6 => Datum::Float(rng.gen_range(-6i64..7) as f64 / 2.0),
        7 => Datum::Float(f64::from_bits(rng.gen())),
        8 => {
            let len = rng.gen_range(0..4);
            Datum::Text(
                (0..len)
                    .map(|_| pick(rng, &['\0', 'a', 'b', 'é']))
                    .collect(),
            )
        }
        _ => {
            let len = rng.gen_range(0..3);
            Datum::IntArray((0..len).map(|_| pick(rng, &[0, 1, u64::MAX])).collect())
        }
    }
}

fn arbitrary_key(rng: &mut StdRng) -> Vec<Datum> {
    let len = rng.gen_range(0..4);
    (0..len).map(|_| arbitrary_datum(rng)).collect()
}

/// `key` with every number moved to another type wherever that type holds
/// it exactly: `Ord` calls the two keys equal.
fn retyped(key: &[Datum]) -> Vec<Datum> {
    key.iter()
        .map(|d| {
            let other = match d {
                Datum::Int(k) => Datum::Float(*k as f64),
                Datum::Timestamp(k) => Datum::Int(*k),
                Datum::Float(f) => Datum::Timestamp(*f as i64),
                _ => d.clone(),
            };
            if other == *d {
                other
            } else {
                d.clone()
            }
        })
        .collect()
}

/// The index this one replaced, in behaviour: datum tuples as keys, each
/// key's rows in insertion order.
#[derive(Default)]
struct Reference(BTreeMap<Vec<Datum>, Vec<RowId>>);

impl Reference {
    fn insert(&mut self, key: Vec<Datum>, row: RowId) {
        let rows = self.0.entry(key).or_default();
        if !rows.contains(&row) {
            rows.push(row);
        }
    }

    fn retain(&mut self, keep: impl Fn(RowId) -> bool) {
        self.0.retain(|_, rows| {
            rows.retain(|r| keep(*r));
            !rows.is_empty()
        });
    }

    fn range(&self, low: Option<&[Datum]>, high: Option<&[Datum]>) -> Vec<RowId> {
        if let (Some(low), Some(high)) = (low, high) {
            if low > high {
                return Vec::new();
            }
        }
        let bound =
            |k: Option<&[Datum]>| k.map_or(Bound::Unbounded, |k| Bound::Included(k.to_vec()));
        self.0
            .range((bound(low), bound(high)))
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect()
    }

    fn prefix(&self, prefix: &[Datum]) -> Vec<RowId> {
        self.0
            .iter()
            .filter(|(k, _)| k.len() >= prefix.len() && k[..prefix.len()] == *prefix)
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect()
    }
}

/// A key of one or two columns over few values, so that keys repeat, share
/// their first column, and meet as equal numbers of different types.
fn small_key(rng: &mut StdRng) -> Vec<Datum> {
    let datum = |rng: &mut StdRng| match rng.gen_range(0..4) {
        0 => Datum::Int(rng.gen_range(-2i64..3)),
        1 => Datum::Timestamp(rng.gen_range(-2i64..3)),
        2 => Datum::Float(rng.gen_range(-4i64..5) as f64 / 2.0),
        _ => Datum::Text(pick(rng, &["", "a", "ab"]).to_string()),
    };
    let len = rng.gen_range(1..3);
    (0..len).map(|_| datum(rng)).collect()
}

proptest! {
    #[test]
    fn key_bytes_sort_as_their_datums_do(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b) = (arbitrary_key(rng), arbitrary_key(rng));
        let (ka, kb) = (encode_key(&a), encode_key(&b));
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(&encode_key(&retyped(&a)), &ka, "{:?} retyped", a);
        // A key extends another exactly when its bytes do.
        let extends = a.len() <= b.len() && a[..] == b[..a.len()];
        prop_assert_eq!(kb.starts_with(&ka), extends, "{:?} vs {:?}", a, b);
        prop_assert!(kb.starts_with(&encode_key(&b[..b.len().min(1)])));
    }

    #[test]
    fn the_index_answers_as_the_datum_keyed_one_did(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let index = OrderedIndex::new();
        let mut reference = Reference::default();
        for _ in 0..rng.gen_range(1..80) {
            if rng.gen_range(0..10) == 0 {
                let (m, r) = (rng.gen_range(2u32..5), rng.gen_range(0u32..5));
                let mut dead: Vec<(Vec<u8>, RowId)> = reference
                    .0
                    .iter()
                    .flat_map(|(key, rows)| {
                        rows.iter()
                            .filter(|row| row.page % m == r)
                            .map(move |row| (encode_key(key), *row))
                    })
                    .collect();
                prop_assert_eq!(index.remove(&mut dead), dead.len() as u64);
                reference.retain(|row| row.page % m != r);
            } else {
                let key = small_key(rng);
                let row = RowId { page: rng.gen_range(0..40), slot: rng.gen_range(0..3) };
                index.insert(&encode_key(&key), row);
                reference.insert(key, row);
            }
        }
        prop_assert_eq!(index.key_count(), reference.0.len());
        prop_assert_eq!(
            index.entry_count(),
            reference.0.values().map(Vec::len).sum::<usize>()
        );
        for _ in 0..20 {
            let key = small_key(rng);
            let expected = reference.0.get(&key).cloned().unwrap_or_default();
            prop_assert_eq!(index.get(&key), expected, "get {:?}", key);
            let first = &key[..1];
            prop_assert_eq!(index.prefix(first), reference.prefix(first), "prefix {:?}", first);
            let low = rng.gen_bool(0.8).then(|| small_key(rng));
            let high = rng.gen_bool(0.8).then(|| small_key(rng));
            prop_assert_eq!(
                index.range(low.as_deref(), high.as_deref()),
                reference.range(low.as_deref(), high.as_deref()),
                "range {:?} ..= {:?}", low, high
            );
        }
    }
}
