//! Tuple versions: header (MVCC fields + label) plus field data.
//!
//! As in PostgreSQL, every update creates a new *version* of a tuple. The
//! header of each version records the creating transaction (`xmin`), the
//! deleting/superseding transaction (`xmax`, if any), and — the IFDB addition
//! — the tuple's immutable label, stored as an array of 64-bit tag ids with a
//! one-byte length (the paper stores the label length "in a byte in the tuple
//! header, which was previously unused for alignment reasons", and each tag
//! adds to the tuple size with corresponding I/O implications; Section 8.3).
//!
//! # Layout
//!
//! A version in a page slot is its 16-byte MVCC header and then its *body*.
//! Integers are little-endian.
//!
//! | part        | bytes           | field                                   |
//! |-------------|-----------------|-----------------------------------------|
//! | MVCC header | 8               | `xmin`                                  |
//! |             | 8               | `xmax`; 0 for none, patched by deletes  |
//! | body        | 1               | label length, in tags                   |
//! |             | 8 per tag       | the label's tag ids, sorted             |
//! |             | 2               | field count                             |
//! |             | at least 1 each | the fields, as [`Datum::encode`] writes them |
//!
//! The log needs no MVCC header: a logged insert's `xmin` is its record's
//! transaction and its `xmax` is empty ([`with_mvcc_header`] puts them back).
//!
//! There is one encoder ([`TupleVersion::encode`]) and one decoder
//! ([`TupleRef`], a view over a slot's bytes that checks bounds as it goes
//! and allocates only when asked for owned values). [`TupleVersion::decode`]
//! is the view's [`TupleRef::to_version`].

use serde::{Deserialize, Serialize};

use crate::error::{corrupt, StorageError, StorageResult};
use crate::mvcc::TxnId;
use crate::value::Datum;

/// Bytes of a version's MVCC header: `xmin` and `xmax`, before its body.
pub const MVCC_HEADER_LEN: usize = 16;

/// The field values of a tuple (no header).
pub type TupleData = Vec<Datum>;

/// MVCC + label header of a tuple version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TupleHeader {
    /// Transaction that created this version.
    pub xmin: TxnId,
    /// Transaction that deleted or superseded this version, if any.
    pub xmax: Option<TxnId>,
    /// The tuple's label as raw tag ids (sorted). Immutable once written.
    pub label: Vec<u64>,
}

impl TupleHeader {
    /// Creates a header for a freshly inserted tuple.
    pub fn new(xmin: TxnId, label: Vec<u64>) -> Self {
        TupleHeader {
            xmin,
            xmax: None,
            label,
        }
    }

    /// Size of the encoded header in bytes: xmin (8) + xmax (8) + label
    /// length byte + 8 bytes per tag.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 1 + 8 * self.label.len()
    }
}

/// A complete tuple version: header plus data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TupleVersion {
    /// The MVCC/label header.
    pub header: TupleHeader,
    /// The field values.
    pub data: TupleData,
}

impl TupleVersion {
    /// Creates a new version.
    pub fn new(header: TupleHeader, data: TupleData) -> Self {
        TupleVersion { header, data }
    }

    /// Encodes the version into bytes for storage in a page slot: its MVCC
    /// header, then its body (see the [module docs](self) for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.header.xmin.0.to_le_bytes());
        out.extend_from_slice(&self.header.xmax.map(|x| x.0).unwrap_or(0).to_le_bytes());
        debug_assert!(self.header.label.len() <= u8::MAX as usize);
        out.push(self.header.label.len() as u8);
        for t in &self.header.label {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out.extend_from_slice(&(self.data.len() as u16).to_le_bytes());
        for d in &self.data {
            d.encode(&mut out);
        }
        out
    }

    /// Decodes a version previously produced by [`TupleVersion::encode`].
    pub fn decode(buf: &[u8]) -> StorageResult<TupleVersion> {
        TupleRef::parse(buf)?.to_version()
    }

    /// Total encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.header.encoded_len() + 2 + self.data.iter().map(Datum::encoded_len).sum::<usize>()
    }
}

/// A tuple version read in place: a view over the bytes of a page slot.
///
/// Parsing checks the fixed header, the label array and the field count and
/// allocates nothing; the MVCC fields and label words are then a few loads,
/// and a field is decoded only when asked for. A scan decides visibility and
/// the label from the view and builds an owned [`TupleVersion`] only for the
/// rows it keeps.
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    buf: &'a [u8],
    /// Offset of the first encoded field, just past the field count.
    fields_at: usize,
}

impl<'a> TupleRef<'a> {
    /// Checks the header of an encoded version (see [`TupleVersion::encode`]
    /// for the layout). Field payloads are checked when they are read.
    pub fn parse(buf: &'a [u8]) -> StorageResult<Self> {
        const LABEL_AT: usize = MVCC_HEADER_LEN + 1;
        if buf.len() < LABEL_AT {
            return Err(corrupt("tuple shorter than header"));
        }
        let fields_at = LABEL_AT + buf[MVCC_HEADER_LEN] as usize * 8 + 2;
        if fields_at > buf.len() {
            return Err(corrupt("truncated label"));
        }
        let tuple = TupleRef { buf, fields_at };
        // Every field takes at least its kind byte, which bounds the count
        // before anything is allocated for it.
        if tuple.field_count() > buf.len() - fields_at {
            return Err(corrupt("truncated fields"));
        }
        Ok(tuple)
    }

    fn word(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.buf[at..at + 8].try_into().expect("eight bytes"))
    }

    /// Transaction that created this version.
    pub fn xmin(&self) -> TxnId {
        TxnId(self.word(0))
    }

    /// Transaction that deleted or superseded this version, if any.
    pub fn xmax(&self) -> Option<TxnId> {
        Some(self.word(8)).filter(|x| *x != 0).map(TxnId)
    }

    /// The label's tag ids, in stored (sorted) order. They sit unaligned in
    /// the slot, so callers that need a slice collect them into a buffer
    /// they reuse.
    pub fn label_words(&self) -> impl Iterator<Item = u64> + 'a {
        self.buf[MVCC_HEADER_LEN + 1..self.fields_at - 2]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("eight bytes")))
    }

    /// The version's body: its bytes past the MVCC header.
    pub fn body(&self) -> &'a [u8] {
        &self.buf[MVCC_HEADER_LEN..]
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        let at = self.fields_at - 2;
        u16::from_le_bytes(self.buf[at..at + 2].try_into().expect("two bytes")) as usize
    }

    /// Where field `to`'s frame starts, given that field `at`'s starts at `pos`.
    fn seek(&self, mut pos: usize, at: usize, to: usize) -> StorageResult<usize> {
        if to >= self.field_count() {
            return Err(corrupt("tuple has fewer fields than its schema"));
        }
        for _ in at..to {
            pos = Datum::skip(self.buf, pos)?;
        }
        Ok(pos)
    }

    /// Decodes the fields at the ascending positions `columns` into the same
    /// positions of `out`, skipping over the others.
    pub fn fields_into(&self, columns: &[usize], out: &mut [Datum]) -> StorageResult<()> {
        let (mut pos, mut at) = (self.fields_at, 0);
        for &column in columns {
            pos = self.seek(pos, at, column)?;
            (out[column], pos) = Datum::decode(self.buf, pos)?;
            at = column + 1;
        }
        Ok(())
    }

    /// Decodes field `i` alone.
    pub fn field(&self, i: usize) -> StorageResult<Datum> {
        Ok(Datum::decode(self.buf, self.seek(self.fields_at, 0, i)?)?.0)
    }

    /// Decodes every field.
    pub fn data(&self) -> StorageResult<TupleData> {
        let mut data = Vec::with_capacity(self.field_count());
        let mut pos = self.fields_at;
        for _ in 0..self.field_count() {
            let (d, next) = Datum::decode(self.buf, pos)?;
            data.push(d);
            pos = next;
        }
        Ok(data)
    }

    /// Builds the owned version.
    pub fn to_version(&self) -> StorageResult<TupleVersion> {
        Ok(TupleVersion {
            header: TupleHeader {
                xmin: self.xmin(),
                xmax: self.xmax(),
                label: self.label_words().collect(),
            },
            data: self.data()?,
        })
    }
}

/// The page bytes of a version that `xmin` inserted, with no `xmax`, whose
/// body is `body`: how redo rebuilds a slot from a logged insert.
pub fn with_mvcc_header(xmin: TxnId, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MVCC_HEADER_LEN + body.len());
    out.extend_from_slice(&xmin.0.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Overwrites the `xmax` field of an encoded tuple in place. Used by the heap
/// to mark a version deleted/superseded without rewriting the whole slot.
pub fn patch_xmax(slot: &mut [u8], xmax: Option<TxnId>) -> StorageResult<()> {
    if slot.len() < 16 {
        return Err(StorageError::Corruption {
            detail: "slot too small to patch xmax".into(),
        });
    }
    let raw = xmax.map(|x| x.0).unwrap_or(0);
    slot[8..16].copy_from_slice(&raw.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(label: Vec<u64>) -> TupleVersion {
        TupleVersion::new(
            TupleHeader::new(TxnId(7), label),
            vec![
                Datum::Int(1),
                Datum::Text("Bob".into()),
                Datum::Null,
                Datum::Float(2.5),
            ],
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        for label in [vec![], vec![3], vec![1, 2, 3, 4, 5]] {
            let v = sample(label);
            let bytes = v.encode();
            assert_eq!(bytes.len(), v.encoded_len());
            let decoded = TupleVersion::decode(&bytes).unwrap();
            assert_eq!(decoded, v);
        }
    }

    #[test]
    fn xmax_round_trip() {
        let mut v = sample(vec![9]);
        v.header.xmax = Some(TxnId(11));
        let decoded = TupleVersion::decode(&v.encode()).unwrap();
        assert_eq!(decoded.header.xmax, Some(TxnId(11)));
    }

    #[test]
    fn label_increases_size_by_8_bytes_per_tag() {
        let base = sample(vec![]).encoded_len();
        let one = sample(vec![1]).encoded_len();
        let five = sample(vec![1, 2, 3, 4, 5]).encoded_len();
        assert_eq!(one - base, 8);
        assert_eq!(five - base, 40);
    }

    #[test]
    fn patch_xmax_in_place() {
        let v = sample(vec![1, 2]);
        let mut bytes = v.encode();
        patch_xmax(&mut bytes, Some(TxnId(99))).unwrap();
        let decoded = TupleVersion::decode(&bytes).unwrap();
        assert_eq!(decoded.header.xmax, Some(TxnId(99)));
        assert_eq!(decoded.data, v.data);
        patch_xmax(&mut bytes, None).unwrap();
        assert_eq!(TupleVersion::decode(&bytes).unwrap().header.xmax, None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TupleVersion::decode(&[1, 2, 3]).is_err());
        let v = sample(vec![1]);
        let bytes = v.encode();
        assert!(TupleVersion::decode(&bytes[..bytes.len() - 3]).is_err());
    }
}
