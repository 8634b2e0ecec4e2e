//! Properties of the tuple codec: the in-place reader ([`TupleRef`]) and the
//! owned decoder built on it agree with the encoder on every version, and
//! with the decoder they replaced on every input — truncated, flipped or
//! random — without ever indexing past a short slot.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ifdb_storage::{
    Datum, StorageError, StorageResult, TupleHeader, TupleRef, TupleVersion, TxnId,
};

fn arbitrary_datum(rng: &mut StdRng) -> Datum {
    match rng.gen_range(0..7) {
        0 => Datum::Null,
        1 => Datum::Int(rng.gen()),
        2 => Datum::Float(f64::from_bits(rng.gen())),
        3 => {
            let len = rng.gen_range(0..40);
            Datum::Text(
                (0..len)
                    .map(|_| rng.gen_range(b'a'..=b'z') as char)
                    .collect(),
            )
        }
        4 => Datum::Bool(rng.gen()),
        5 => Datum::Timestamp(rng.gen()),
        _ => {
            let len = rng.gen_range(0..6);
            Datum::IntArray((0..len).map(|_| rng.gen()).collect())
        }
    }
}

/// Labels of 0..=255 tags (small ones most of the time), every field type,
/// `xmax` set and unset.
fn arbitrary_version(seed: u64) -> TupleVersion {
    let rng = &mut StdRng::seed_from_u64(seed);
    let tags = if rng.gen_range(0..4) == 0 {
        rng.gen_range(0..=255)
    } else {
        rng.gen_range(0..4)
    };
    let mut header = TupleHeader::new(
        TxnId(rng.gen()),
        (0..tags).map(|_| rng.gen()).collect::<Vec<u64>>(),
    );
    if rng.gen() {
        header.xmax = Some(TxnId(rng.gen_range(1..u64::MAX)));
    }
    let fields = rng.gen_range(0..9);
    TupleVersion::new(header, (0..fields).map(|_| arbitrary_datum(rng)).collect())
}

/// The decoder `TupleRef` replaced, kept verbatim as the oracle for what
/// must be accepted and what must be rejected.
fn decode_before(buf: &[u8]) -> StorageResult<TupleVersion> {
    let corrupt = |d: &str| StorageError::Corruption {
        detail: d.to_string(),
    };
    if buf.len() < 17 {
        return Err(corrupt("tuple shorter than header"));
    }
    let xmin = TxnId(u64::from_le_bytes(buf[0..8].try_into().unwrap()));
    let raw_xmax = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let xmax = (raw_xmax != 0).then_some(TxnId(raw_xmax));
    let label_len = buf[16] as usize;
    let mut pos = 17;
    if pos + label_len * 8 + 2 > buf.len() {
        return Err(corrupt("truncated label"));
    }
    let mut label = Vec::with_capacity(label_len);
    for _ in 0..label_len {
        label.push(u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap()));
        pos += 8;
    }
    let field_count = u16::from_le_bytes(buf[pos..pos + 2].try_into().unwrap()) as usize;
    pos += 2;
    let mut data = Vec::new();
    for _ in 0..field_count {
        let (d, next) = Datum::decode(buf, pos)?;
        data.push(d);
        pos = next;
    }
    Ok(TupleVersion {
        header: TupleHeader { xmin, xmax, label },
        data,
    })
}

/// Exact equality: `Datum`'s own `==` is numeric (`Int(1) == Float(1.0)`),
/// which would let a decoder change a field's type unnoticed.
fn same(a: &TupleVersion, b: &TupleVersion) -> bool {
    a == b && a.encode() == b.encode()
}

/// Drives every reader over `buf` and checks it against the oracle. A reader
/// that indexes blindly panics here.
fn agrees_with_oracle(buf: &[u8]) {
    let before = decode_before(buf);
    let after = TupleVersion::decode(buf);
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
        match (tuple.field(i), &before) {
            (Ok(d), Ok(v)) => assert!(same(
                &TupleVersion::new(v.header.clone(), vec![d]),
                &TupleVersion::new(v.header.clone(), vec![v.data[i].clone()]),
            )),
            (Ok(_), Err(_)) | (Err(_), Err(_)) => {}
            (Err(e), Ok(v)) => assert!(i >= v.data.len(), "field {i}: {e}"),
        }
    }
}

proptest! {
    #[test]
    fn what_is_encoded_is_read_back(seed in 0u64..u64::MAX) {
        let v = arbitrary_version(seed);
        let bytes = v.encode();
        let tuple = TupleRef::parse(&bytes).unwrap();
        prop_assert!(same(&tuple.to_version().unwrap(), &v));
        prop_assert_eq!(tuple.xmin(), v.header.xmin);
        prop_assert_eq!(tuple.xmax(), v.header.xmax);
        prop_assert_eq!(tuple.label_words().collect::<Vec<_>>(), v.header.label.clone());
        prop_assert_eq!(tuple.field_count(), v.data.len());
        for (i, d) in v.data.iter().enumerate() {
            let one = |d: Datum| TupleVersion::new(TupleHeader::new(TxnId(0), vec![]), vec![d]);
            prop_assert!(same(&one(tuple.field(i).unwrap()), &one(d.clone())));
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
            prop_assert!(TupleVersion::decode(&bytes[..cut]).is_err(), "cut at {cut}");
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
