//! Tuple versions: header (MVCC fields + label) plus field data.
//!
//! As in PostgreSQL, every update creates a new *version* of a tuple. The
//! header of each version records the creating transaction (`xmin`), the
//! deleting/superseding transaction (`xmax`, if any), and — the IFDB addition
//! — the tuple's immutable label. The paper stores the label itself in the
//! tuple, so each tag adds 8 bytes to every version (Section 8.3); here the
//! tuple stores the label's id in its database's label dictionary
//! ([`crate::labels`]), so a version's bytes do not depend on its label's
//! tag count.
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
//! | body        | 1 to 5          | label id, an unsigned LEB128 varint; 0 is the empty label |
//! |             | 2               | field count                             |
//! |             | at least 1 each | the fields, as [`Datum::encode`] writes them |
//!
//! An unlabeled version's body therefore starts with the byte 0, and a
//! labeled one's with one byte for each of the first 127 labels its
//! database defines. A field takes the bytes its value needs: an `Int` or a
//! `Timestamp` is a kind byte and 1, 2, 4 or 8 bytes, a `Text` of at most
//! 255 bytes a kind byte, a one-byte length and its bytes (see
//! [`Datum::encode`] for every kind). So a row of small integers costs
//! about two bytes a column, and equal rows are equal bytes.
//!
//! The log needs no MVCC header: a logged insert's `xmin` is its record's
//! transaction and its `xmax` is empty ([`with_mvcc_header`] puts them back).
//!
//! There is one encoder ([`encode`]) and one decoder ([`TupleRef`], a view
//! over a slot's bytes that checks bounds as it goes and allocates only when
//! asked for owned values). An owned [`TupleVersion`] carries its label's
//! tags, which [`TupleRef::to_version`] looks up in the dictionary.

use serde::{Deserialize, Serialize};

use crate::error::{corrupt, StorageError, StorageResult};
use crate::labels::{put_id, read_id, LabelDictionary, LabelId};
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
}

/// Encodes a version that `xmin` inserts, with no `xmax`, whose label has
/// the id `label` and whose fields are `data`, into the bytes of a page slot:
/// its MVCC header, then its body (see the [module docs](self) for the
/// layout).
pub fn encode(xmin: TxnId, label: LabelId, data: &[Datum]) -> Vec<u8> {
    // A label id takes at most five bytes.
    let len = MVCC_HEADER_LEN + 5 + 2 + data.iter().map(Datum::encoded_len).sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&xmin.0.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    put_id(&mut out, label);
    out.extend_from_slice(&(data.len() as u16).to_le_bytes());
    for d in data {
        d.encode(&mut out);
    }
    out
}

/// A tuple version read in place: a view over the bytes of a page slot.
///
/// Parsing checks the fixed header, the label id and the field count and
/// allocates nothing; the MVCC fields and the label id are then a few loads,
/// and a field is decoded only when asked for. This is the one decoder: a
/// page's column view ([`crate::page::ColumnView`]) is built with it, a
/// scan asks it visibility only of the slots the view let through, and an
/// owned [`TupleVersion`] is built only for the rows a scan keeps.
#[derive(Debug, Clone, Copy)]
pub struct TupleRef<'a> {
    buf: &'a [u8],
    label: LabelId,
    /// Offset of the first encoded field, just past the field count.
    fields_at: usize,
}

impl<'a> TupleRef<'a> {
    /// Checks the header of an encoded version (see [`encode`] for the
    /// layout). Field payloads are checked when they are read.
    pub fn parse(buf: &'a [u8]) -> StorageResult<Self> {
        if buf.len() <= MVCC_HEADER_LEN {
            return Err(corrupt("tuple shorter than header"));
        }
        let (label, count_at) = read_id(buf, MVCC_HEADER_LEN)?;
        let fields_at = count_at + 2;
        if fields_at > buf.len() {
            return Err(corrupt("truncated field count"));
        }
        let tuple = TupleRef {
            buf,
            label,
            fields_at,
        };
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

    /// The id of the version's label in its database's dictionary.
    pub fn label_id(&self) -> LabelId {
        self.label
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

    /// Calls `f` with each field's position and, when the field is an
    /// [`Datum::Int`], its value.
    pub fn for_each_int(&self, mut f: impl FnMut(usize, Option<i64>)) -> StorageResult<()> {
        let mut pos = self.fields_at;
        for i in 0..self.field_count() {
            let (int, next) = Datum::int_at(self.buf, pos)?;
            f(i, int);
            pos = next;
        }
        Ok(())
    }

    /// Builds the owned version, its label's tags looked up in `labels`.
    pub fn to_version(&self, labels: &LabelDictionary) -> StorageResult<TupleVersion> {
        let label = match self.label {
            0 => Vec::new(),
            id => labels.tags(id)?.to_vec(),
        };
        Ok(TupleVersion {
            header: TupleHeader {
                xmin: self.xmin(),
                xmax: self.xmax(),
                label,
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

    fn fields() -> Vec<Datum> {
        vec![
            Datum::Int(1),
            Datum::Text("Bob".into()),
            Datum::Null,
            Datum::Float(2.5),
        ]
    }

    /// A dictionary defining `labels`, in order, as ids 1, 2, ...
    fn dictionary(labels: &[&[u64]]) -> LabelDictionary {
        let dict = LabelDictionary::new();
        for tags in labels {
            dict.intern(tags, |_, _| Ok(())).unwrap();
        }
        dict
    }

    #[test]
    fn encode_decode_round_trip() {
        let dict = dictionary(&[&[3], &[1, 2, 3, 4, 5]]);
        for (id, label) in [(0, vec![]), (1, vec![3]), (2, vec![1, 2, 3, 4, 5])] {
            let bytes = encode(TxnId(7), id, &fields());
            let tuple = TupleRef::parse(&bytes).unwrap();
            assert_eq!(tuple.label_id(), id);
            let v = TupleVersion::new(TupleHeader::new(TxnId(7), label), fields());
            assert_eq!(tuple.to_version(&dict).unwrap(), v);
        }
        // An id no entry has is corruption, not an empty label.
        let bytes = encode(TxnId(7), 3, &fields());
        let err = TupleRef::parse(&bytes).unwrap().to_version(&dict);
        assert!(matches!(err, Err(StorageError::Corruption { .. })));
    }

    #[test]
    fn xmax_round_trip() {
        let mut bytes = encode(TxnId(7), 1, &fields());
        patch_xmax(&mut bytes, Some(TxnId(11))).unwrap();
        assert_eq!(TupleRef::parse(&bytes).unwrap().xmax(), Some(TxnId(11)));
    }

    #[test]
    fn a_tuples_bytes_do_not_depend_on_its_tag_count() {
        let tags: Vec<u64> = (1..=300).collect();
        let dict = dictionary(&[&tags[..1], &tags[..10], &tags]);
        let len = |id| encode(TxnId(7), id, &fields()).len();
        assert_eq!(len(1), len(2));
        assert_eq!(len(1), len(3));
        // The 300-tag label reads back whole.
        let bytes = encode(TxnId(7), 3, &fields());
        let v = TupleRef::parse(&bytes).unwrap().to_version(&dict).unwrap();
        assert_eq!(v.header.label, tags);
        // An unlabeled version's bytes are the ones the label-in-tuple
        // layout gave it: a zero where its tag count was, nothing after.
        let mut golden = Vec::new();
        golden.extend_from_slice(&7u64.to_le_bytes());
        golden.extend_from_slice(&0u64.to_le_bytes());
        golden.push(0);
        golden.extend_from_slice(&4u16.to_le_bytes());
        for d in fields() {
            d.encode(&mut golden);
        }
        assert_eq!(encode(TxnId(7), 0, &fields()), golden);
        // Ids past 127 take a second byte.
        assert_eq!(len(128), len(1) + 1);
    }

    #[test]
    fn patch_xmax_in_place() {
        let mut bytes = encode(TxnId(7), 2, &fields());
        patch_xmax(&mut bytes, Some(TxnId(99))).unwrap();
        let tuple = TupleRef::parse(&bytes).unwrap();
        assert_eq!(tuple.xmax(), Some(TxnId(99)));
        assert_eq!(tuple.label_id(), 2);
        assert_eq!(tuple.data().unwrap(), fields());
        patch_xmax(&mut bytes, None).unwrap();
        assert_eq!(TupleRef::parse(&bytes).unwrap().xmax(), None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TupleRef::parse(&[1, 2, 3]).is_err());
        let bytes = encode(TxnId(7), 1, &fields());
        assert!(TupleRef::parse(&bytes[..bytes.len() - 3])
            .and_then(|t| t.data())
            .is_err());
        // A label id cut short, and one in a needlessly long encoding.
        let mut long = encode(TxnId(7), 200, &fields());
        assert!(TupleRef::parse(&long[..MVCC_HEADER_LEN + 1]).is_err());
        long[MVCC_HEADER_LEN + 1] = 0;
        long[MVCC_HEADER_LEN] = 0x80;
        assert!(TupleRef::parse(&long).is_err());
    }
}
