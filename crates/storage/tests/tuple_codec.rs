//! Properties of the tuple codec: the in-place reader ([`TupleRef`]) and the
//! owned decoder built on it agree with the encoder on every version, and
//! with a longhand decoder of the layout on every input — truncated, flipped
//! or random — without ever indexing past a short slot.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ifdb_storage::tuple::{encode, patch_xmax};
use ifdb_storage::{Datum, LabelDictionary, LabelId, StorageError, StorageResult, TupleRef, TxnId};

/// An integer of a width drawn first (1, 2, 4 or 8 bytes), so every kind
/// the codec has for it comes up: a uniform `i64` almost always takes 8.
fn any_width_int(rng: &mut StdRng) -> i64 {
    let bits: u32 = [8, 16, 32, 64][rng.gen_range(0..4usize)];
    rng.gen::<i64>() >> (64 - bits)
}

fn arbitrary_datum(rng: &mut StdRng) -> Datum {
    match rng.gen_range(0..7) {
        0 => Datum::Null,
        1 => Datum::Int(any_width_int(rng)),
        2 => Datum::Float(f64::from_bits(rng.gen())),
        3 => {
            // Now and then a text whose length needs more than one byte.
            let len = match rng.gen_range(0..16) {
                0 => rng.gen_range(250..262),
                _ => rng.gen_range(0..40),
            };
            Datum::Text(
                (0..len)
                    .map(|_| rng.gen_range(b'a'..=b'z') as char)
                    .collect(),
            )
        }
        4 => Datum::Bool(rng.gen()),
        5 => Datum::Timestamp(any_width_int(rng)),
        _ => {
            let len = rng.gen_range(0..6);
            Datum::IntArray((0..len).map(|_| rng.gen()).collect())
        }
    }
}

/// A version as its bytes hold it: the label is an id.
#[derive(Debug, Clone, PartialEq)]
struct Version {
    xmin: TxnId,
    xmax: Option<TxnId>,
    label: LabelId,
    data: Vec<Datum>,
}

impl Version {
    fn encode(&self) -> Vec<u8> {
        let mut bytes = encode(self.xmin, self.label, &self.data);
        patch_xmax(&mut bytes, self.xmax).unwrap();
        bytes
    }

    /// The version [`TupleRef`] reads from `buf`, every field decoded.
    fn read(buf: &[u8]) -> StorageResult<Version> {
        let tuple = TupleRef::parse(buf)?;
        Ok(Version {
            xmin: tuple.xmin(),
            xmax: tuple.xmax(),
            label: tuple.label_id(),
            data: tuple.data()?,
        })
    }
}

/// Label ids of one to five bytes (small ones most of the time), every
/// field type, `xmax` set and unset.
fn arbitrary_version(seed: u64) -> Version {
    let rng = &mut StdRng::seed_from_u64(seed);
    let label = match rng.gen_range(0..8) {
        0 => rng.gen(),
        1 => rng.gen_range(0..1 << 14),
        _ => rng.gen_range(0..4),
    };
    let xmax = rng.gen::<bool>().then(|| TxnId(rng.gen_range(1..u64::MAX)));
    let fields = rng.gen_range(0..9);
    Version {
        xmin: TxnId(rng.gen()),
        xmax,
        label,
        data: (0..fields).map(|_| arbitrary_datum(rng)).collect(),
    }
}

/// The layout's table, decoded longhand: the oracle for what must be
/// accepted and what must be rejected.
fn decode_longhand(buf: &[u8]) -> StorageResult<Version> {
    let corrupt = |d: &str| StorageError::Corruption {
        detail: d.to_string(),
    };
    if buf.len() < 17 {
        return Err(corrupt("tuple shorter than header"));
    }
    let xmin = TxnId(u64::from_le_bytes(buf[0..8].try_into().unwrap()));
    let raw_xmax = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let xmax = (raw_xmax != 0).then_some(TxnId(raw_xmax));
    // The label id: seven bits a byte, low first, at most five bytes, no
    // needless trailing zero byte, and no more than 32 bits.
    let mut label: u64 = 0;
    let mut pos = 16;
    loop {
        let Some(&byte) = buf.get(pos) else {
            return Err(corrupt("truncated label id"));
        };
        let shift = 7 * (pos - 16);
        if shift > 28 {
            return Err(corrupt("label id too long"));
        }
        label |= u64::from(byte & 0x7F) << shift;
        pos += 1;
        if byte < 0x80 {
            if (pos > 17 && byte == 0) || label > u64::from(u32::MAX) {
                return Err(corrupt("malformed label id"));
            }
            break;
        }
    }
    if pos + 2 > buf.len() {
        return Err(corrupt("truncated field count"));
    }
    let field_count = u16::from_le_bytes(buf[pos..pos + 2].try_into().unwrap()) as usize;
    pos += 2;
    let mut data = Vec::new();
    for _ in 0..field_count {
        let (d, next) = Datum::decode(buf, pos)?;
        data.push(d);
        pos = next;
    }
    Ok(Version {
        xmin,
        xmax,
        label: label as LabelId,
        data,
    })
}

/// Exact equality: `Datum`'s own `==` is numeric (`Int(1) == Float(1.0)`),
/// which would let a decoder change a field's type unnoticed.
fn same(a: &Version, b: &Version) -> bool {
    a == b && a.encode() == b.encode()
}

/// Drives every reader over `buf` and checks it against the oracle. A reader
/// that indexes blindly panics here.
fn agrees_with_oracle(buf: &[u8]) {
    let before = decode_longhand(buf);
    let after = Version::read(buf);
    match (&before, &after) {
        (Ok(b), Ok(a)) => assert!(same(a, b), "{a:?} != {b:?}"),
        (Err(_), Err(_)) => {}
        _ => panic!("decoders disagree on {buf:?}: {before:?} vs {after:?}"),
    }
    let Ok(tuple) = TupleRef::parse(buf) else {
        return;
    };
    let _ = tuple.data();
    let n = tuple.field_count().min(40);
    let mut out = vec![Datum::Null; n];
    let _ = tuple.fields_into(&(0..n).collect::<Vec<_>>(), &mut out);
    for i in 0..=n {
        let alone = |v: &Version, d: Datum| Version {
            data: vec![d],
            ..v.clone()
        };
        match (tuple.field(i), &before) {
            (Ok(d), Ok(v)) => assert!(same(&alone(v, d), &alone(v, v.data[i].clone()))),
            (Ok(_), Err(_)) | (Err(_), Err(_)) => {}
            (Err(e), Ok(v)) => assert!(i >= v.data.len(), "field {i}: {e}"),
        }
    }
}

/// A fixed-width datum has no length word: its kind fixes its size, and a
/// slot that ends inside the payload is still refused, by every reader.
#[test]
fn truncated_fixed_width_payloads_are_rejected() {
    let fixed = [
        Datum::Int(-7),
        Datum::Int(300),
        Datum::Int(-70_000),
        Datum::Int(1 << 40),
        Datum::Float(2.5),
        Datum::Timestamp(5),
        Datum::Timestamp(-300),
        Datum::Timestamp(1 << 20),
        Datum::Timestamp(1_700_000_000_000_000),
        Datum::Bool(true),
    ];
    for d in fixed {
        let v = Version {
            xmin: TxnId(3),
            xmax: None,
            label: 5,
            data: vec![Datum::Null, d.clone(), Datum::Null],
        };
        let bytes = v.encode();
        let at = bytes.len() - 1 - d.encoded_len();
        assert_eq!(Datum::skip(&bytes, at).unwrap(), bytes.len() - 1, "{d:?}");
        for cut in at + 1..at + d.encoded_len() {
            let buf = &bytes[..cut];
            assert!(Datum::decode(buf, at).is_err(), "{d:?} cut at {cut}");
            assert!(Datum::skip(buf, at).is_err(), "{d:?} cut at {cut}");
            assert!(Version::read(buf).is_err(), "{d:?} cut at {cut}");
            if let Ok(tuple) = TupleRef::parse(buf) {
                assert!(tuple.field(1).is_err(), "{d:?} cut at {cut}");
                assert!(tuple.data().is_err(), "{d:?} cut at {cut}");
            }
            agrees_with_oracle(buf);
        }
    }
}

/// Every integer at the edge of a width, and its neighbours: 0, ±1, ±2⁷,
/// ±2¹⁵, ±2³¹ and the ends of `i64`.
fn boundary_ints() -> Vec<i64> {
    let mut ints = vec![0, 1, -1, 2, -2];
    ints.extend([i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX]);
    for bits in [7, 15, 31] {
        let edge = 1i64 << bits;
        ints.extend([edge - 1, edge, edge + 1, -edge - 1, -edge, -edge + 1]);
    }
    ints
}

/// The payload bytes of the narrowest two's-complement width of 1, 2, 4
/// or 8 bytes that holds `v`.
fn narrowest_width(v: i64) -> usize {
    [1usize, 2, 4, 8]
        .into_iter()
        .find(|&w| {
            let half = 1i128 << (8 * w - 1);
            (-half..half).contains(&i128::from(v))
        })
        .unwrap()
}

/// A datum as a build before the narrow kinds wrote it: every `Int` and
/// `Timestamp` in 8 bytes (kinds 1 and 5), every `Text` with a 4-byte
/// length (kind 3).
fn encode_wide(d: &Datum, out: &mut Vec<u8>) {
    match d {
        Datum::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Datum::Timestamp(v) => {
            out.push(5);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Datum::Text(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        other => other.encode(out),
    }
}

/// At every width boundary: the value comes back, in the bytes
/// `encoded_len` promises and in the narrowest width that holds it;
/// `skip`, `int_at` and `decode` end at the same place and agree; and every
/// cut short of the end is refused by each of them. Its 8-byte and 4-byte
/// length forms (what older builds wrote) still read as the same value.
#[test]
fn every_width_boundary_round_trips_in_its_narrowest_encoding() {
    let mut cases: Vec<(Datum, usize)> = Vec::new();
    for v in boundary_ints() {
        let width = narrowest_width(v);
        cases.push((Datum::Int(v), 1 + width));
        cases.push((Datum::Timestamp(v), 1 + width));
    }
    for len in [0, 1, 255, 256, 300] {
        let header = if len <= 255 { 2 } else { 5 };
        cases.push((
            Datum::Text("é".repeat(len / 2) + &"a".repeat(len % 2)),
            header + len,
        ));
    }
    for (d, expect) in cases {
        let mut bytes = Vec::new();
        d.encode(&mut bytes);
        assert_eq!(bytes.len(), expect, "{d:?}");
        assert_eq!(d.encoded_len(), bytes.len(), "{d:?}");
        let (back, end) = Datum::decode(&bytes, 0).unwrap();
        assert_eq!(format!("{back:?}"), format!("{d:?}"));
        assert_eq!(end, bytes.len(), "{d:?}");
        assert_eq!(Datum::skip(&bytes, 0).unwrap(), end, "{d:?}");
        assert_eq!(
            Datum::int_at(&bytes, 0).unwrap(),
            (d.as_int(), end),
            "{d:?}"
        );
        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            assert!(Datum::decode(short, 0).is_err(), "{d:?} cut at {cut}");
            assert!(Datum::skip(short, 0).is_err(), "{d:?} cut at {cut}");
            assert!(Datum::int_at(short, 0).is_err(), "{d:?} cut at {cut}");
        }
        let mut wide = Vec::new();
        encode_wide(&d, &mut wide);
        let (back, end) = Datum::decode(&wide, 0).unwrap();
        assert_eq!(format!("{back:?}"), format!("{d:?}"));
        assert_eq!(end, wide.len(), "{d:?}");
        assert_eq!(Datum::skip(&wide, 0).unwrap(), end, "{d:?}");
        assert_eq!(Datum::int_at(&wide, 0).unwrap(), (d.as_int(), end), "{d:?}");
    }
    // A tuple of every boundary integer reads back field by field, and its
    // `Int`s reach the page's column view through `for_each_int`.
    let ints = boundary_ints();
    let data: Vec<Datum> = ints
        .iter()
        .map(|&v| Datum::Int(v))
        .chain(ints.iter().map(|&v| Datum::Timestamp(v)))
        .collect();
    let bytes = encode(TxnId(3), 1, &data);
    let tuple = TupleRef::parse(&bytes).unwrap();
    assert_eq!(format!("{:?}", tuple.data().unwrap()), format!("{data:?}"));
    let mut seen = Vec::new();
    tuple.for_each_int(|_, int| seen.push(int)).unwrap();
    let expect: Vec<Option<i64>> = data.iter().map(Datum::as_int).collect();
    assert_eq!(seen, expect);
}

proptest! {
    #[test]
    fn what_is_encoded_is_read_back(seed in 0u64..u64::MAX) {
        let v = arbitrary_version(seed);
        let bytes = v.encode();
        prop_assert!(same(&Version::read(&bytes).unwrap(), &v));
        let tuple = TupleRef::parse(&bytes).unwrap();
        prop_assert_eq!(tuple.xmin(), v.xmin);
        prop_assert_eq!(tuple.xmax(), v.xmax);
        prop_assert_eq!(tuple.label_id(), v.label);
        prop_assert_eq!(tuple.field_count(), v.data.len());
        for (i, d) in v.data.iter().enumerate() {
            let one = |d: Datum| Version { xmin: TxnId(0), xmax: None, label: 0, data: vec![d] };
            prop_assert!(same(&one(tuple.field(i).unwrap()), &one(d.clone())));
        }
        // The owned version takes its label's tags from the dictionary; an
        // id the dictionary does not define is corruption.
        let dict = LabelDictionary::new();
        for tags in [&[1u64][..], &[2, 3], &[4, 5, 6]] {
            dict.intern(tags, |_, _| Ok(())).unwrap();
        }
        match (tuple.to_version(&dict), dict.tags(v.label)) {
            (Ok(owned), Ok(tags)) => prop_assert_eq!(owned.header.label.as_slice(), tags.as_ref()),
            (Err(StorageError::Corruption { .. }), Err(_)) => {}
            (owned, tags) => prop_assert!(false, "{owned:?} for {tags:?}"),
        }
        prop_assert!(tuple.field(v.data.len()).is_err());
        // A subset of the columns lands in its own positions and nowhere else.
        let wanted: Vec<usize> = (0..v.data.len()).filter(|i| (seed >> i) & 1 == 1).collect();
        let mut out = vec![Datum::Text("untouched".into()); v.data.len()];
        tuple.fields_into(&wanted, &mut out).unwrap();
        for (i, d) in out.iter().enumerate() {
            let expect = if wanted.contains(&i) { &v.data[i] } else { &Datum::Text("untouched".into()) };
            prop_assert_eq!(format!("{d:?}"), format!("{expect:?}"));
        }
    }

    #[test]
    fn every_truncation_is_rejected_as_before(seed in 0u64..u64::MAX) {
        let bytes = arbitrary_version(seed).encode();
        let rng = &mut StdRng::seed_from_u64(seed);
        let cuts: Vec<usize> = if bytes.len() <= 300 {
            (0..bytes.len()).collect()
        } else {
            (0..40).chain((0..64).map(|_| rng.gen_range(40..bytes.len()))).collect()
        };
        for cut in cuts {
            prop_assert!(Version::read(&bytes[..cut]).is_err(), "cut at {cut}");
            agrees_with_oracle(&bytes[..cut]);
        }
    }

    #[test]
    fn garbage_is_judged_as_before(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        // A valid encoding with a few bytes overwritten: lengths, kinds and
        // counts that no longer match what follows them.
        let mut bytes = arbitrary_version(seed).encode();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0..=u8::MAX);
        }
        agrees_with_oracle(&bytes);
        // And bytes that never were a tuple.
        let len = rng.gen_range(0..64);
        let noise: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        agrees_with_oracle(&noise);
    }
}
