//! Slotted heap pages.
//!
//! Tuples are stored in fixed-size pages with a slot directory at the front
//! and tuple data growing from the back, the classic heap-file layout. Page
//! size matches PostgreSQL's 8 KiB so that the label-size/IO trade-off of
//! Section 8.3 (each tag shrinks the number of tuples per page) carries over.
//!
//! # The column view
//!
//! A resident page may also hold a [`ColumnView`] of its live slots: each
//! slot's label id and, for each `Int` column a scan has bounded, the
//! slot's value there with one bit saying whether the field is an `Int` at
//! all. A full scan decides a slot from the view — label, then bounds —
//! before it parses the tuple, and only the slots that pass are read from
//! their bytes ([`crate::heap::TableHeap::walk_deciding`]). The view is
//! derived state: built from the page's bytes on first need, by the one
//! tuple decoder ([`TupleRef::parse`] and [`TupleRef::for_each_int`]), and
//! never logged or written to the store.
//!
//! It is exact, never stale: for every live slot it says what parsing the
//! slot says. Slots are never reused and tuple bodies never change, so only
//! three writes touch a slot's bytes: [`Page::place`] (which
//! [`Page::insert`] calls) adds a slot and [`Page::mark_dead`] kills one,
//! and both drop the view; [`Page::set_xmax`] patches the MVCC header, which
//! the view does not hold, so it keeps the view. A copy-on-write clone of a
//! pinned page shares the view with the pinned original until the copy
//! adds or kills a slot. The first scan that needs the view builds it in
//! one parse of each live slot, with the label ids and the columns that
//! scan bounds; a column a later scan bounds is decoded then, by the same
//! per-slot decoder. A page whose
//! slots share one label stores that label once, and takes no per-slot
//! vector for it even while building, so an unbounded column costs nothing
//! and a bounded one costs 8 bytes and one bit per slot.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::error::{corrupt, StorageError, StorageResult};
use crate::heap::IntRange;
use crate::labels::LabelId;
use crate::mvcc::TxnId;
use crate::tuple::{patch_xmax, TupleRef};

/// Page size in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Bytes of fixed page header: slot count (2) + free-space end pointer (2).
const HEADER_SIZE: usize = 4;
/// Bytes per slot directory entry: offset (2) + length (2).
const SLOT_ENTRY_SIZE: usize = 4;
/// Bytes of a page that tuples and their slot entries share: a page takes a
/// tuple while the [`footprint`]s of its tuples, that one included, fit here.
pub(crate) const TUPLE_SPACE: usize = PAGE_SIZE - HEADER_SIZE;

/// Bytes of a page a tuple of `len` bytes takes: its data and its slot entry.
pub(crate) fn footprint(len: usize) -> usize {
    len + SLOT_ENTRY_SIZE
}

/// Identifier of a page within a table's page store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(pub u32);

/// An 8 KiB slotted page.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8]>,
    /// Its column view, once a scan has needed one (see the module docs).
    view: OnceLock<Arc<ColumnView>>,
}

/// The label ids of a page's slots.
#[derive(Debug)]
enum SlotLabels {
    /// Every live slot carries this label, as on every chain page.
    Same(LabelId),
    /// By slot, its label id; 0 where the slot is dead.
    BySlot(Box<[LabelId]>),
}

/// What a page's live slots hold, decoded from its bytes (see the module
/// docs): the slots' label ids and, by field position, the `Int`s of the
/// columns decoded so far.
#[derive(Debug)]
pub struct ColumnView {
    labels: SlotLabels,
    /// By field position, up to the most fields a live slot has: that
    /// column's [`IntColumn`], once a scan has bounded it.
    ints: Box<[OnceLock<IntColumn>]>,
}

impl ColumnView {
    /// The label id of live slot `slot`.
    #[inline]
    pub fn label_id(&self, slot: u16) -> LabelId {
        match &self.labels {
            SlotLabels::Same(id) => *id,
            SlotLabels::BySlot(ids) => ids[slot as usize],
        }
    }

    /// Column `column`'s `Int`s, if they have been decoded.
    #[inline]
    pub fn ints(&self, column: usize) -> Option<&IntColumn> {
        self.ints.get(column)?.get()
    }

    /// Stores `ints`, decoded at field positions `columns`, where the view
    /// holds no column yet; returns how many it stored. A view with no
    /// live slot has no field to hold one.
    fn store(&self, columns: &[usize], ints: Vec<IntColumn>) -> u64 {
        columns
            .iter()
            .zip(ints)
            .filter_map(|(&column, ints)| self.ints.get(column)?.set(ints).ok())
            .count() as u64
    }
}

/// One column of a page's slots: by slot, the field's value if it is an
/// [`crate::Datum::Int`]. 8 bytes and one bit per slot.
#[derive(Debug)]
pub struct IntColumn {
    values: Box<[i64]>,
    /// One bit per slot, set where the field is an `Int`.
    is_int: Box<[u64]>,
}

impl IntColumn {
    fn new(slots: usize) -> Self {
        IntColumn {
            values: vec![0; slots].into_boxed_slice(),
            is_int: vec![0; slots.div_ceil(64)].into_boxed_slice(),
        }
    }

    fn set(&mut self, slot: usize, value: i64) {
        self.values[slot] = value;
        self.is_int[slot / 64] |= 1 << (slot % 64);
    }

    /// The field of live slot `slot`, if it is an `Int`.
    #[inline]
    pub fn get(&self, slot: u16) -> Option<i64> {
        let s = slot as usize;
        (self.is_int[s / 64] >> (s % 64) & 1 == 1).then(|| self.values[s])
    }

    /// Whether the field of live slot `slot` may meet `range`: it is not an
    /// `Int` (a `Null`, `Float`, `Text`... passes every interval, an empty
    /// one too), or it is one inside the range.
    #[inline]
    pub fn within(&self, slot: u16, range: &IntRange) -> bool {
        self.get(slot).is_none_or(|v| range.contains(v))
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Creates an empty page.
    pub fn new() -> Self {
        let mut bytes = vec![0u8; PAGE_SIZE].into_boxed_slice();
        // slot_count = 0, free_end = PAGE_SIZE
        bytes[0..2].copy_from_slice(&0u16.to_le_bytes());
        bytes[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page {
            bytes,
            view: OnceLock::new(),
        }
    }

    /// Reconstructs a page from raw bytes (must be exactly [`PAGE_SIZE`]).
    pub fn from_bytes(bytes: Vec<u8>) -> StorageResult<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corruption {
                detail: format!("page must be {PAGE_SIZE} bytes, got {}", bytes.len()),
            });
        }
        Ok(Page {
            bytes: bytes.into_boxed_slice(),
            view: OnceLock::new(),
        })
    }

    /// The raw bytes of the page.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn slot_count_raw(&self) -> u16 {
        u16::from_le_bytes(self.bytes[0..2].try_into().unwrap())
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes(self.bytes[2..4].try_into().unwrap())
    }

    fn set_slot_count(&mut self, n: u16) {
        self.bytes[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn set_free_end(&mut self, n: u16) {
        self.bytes[2..4].copy_from_slice(&n.to_le_bytes());
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_ENTRY_SIZE;
        let off = u16::from_le_bytes(self.bytes[base..base + 2].try_into().unwrap());
        let len = u16::from_le_bytes(self.bytes[base + 2..base + 4].try_into().unwrap());
        (off, len)
    }

    fn set_slot_entry(&mut self, slot: u16, off: u16, len: u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_ENTRY_SIZE;
        self.bytes[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.bytes[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Number of slots in use (including dead slots).
    pub fn slot_count(&self) -> u16 {
        self.slot_count_raw()
    }

    /// Free space remaining for one more tuple (accounting for its slot
    /// directory entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + self.slot_count_raw() as usize * SLOT_ENTRY_SIZE;
        let free_end = self.free_end() as usize;
        free_end
            .saturating_sub(dir_end)
            .saturating_sub(SLOT_ENTRY_SIZE)
    }

    /// Returns `true` if a tuple of `len` bytes fits.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len
    }

    /// Appends a tuple, returning its slot number.
    pub fn insert(&mut self, tuple: &[u8]) -> StorageResult<u16> {
        let slot = self.slot_count_raw();
        self.place(slot, tuple)?;
        Ok(slot)
    }

    /// Stores a tuple in `slot`, which must be empty: how redo puts a row
    /// back where its insert put it. Slots between the directory's end and
    /// `slot` become empty entries (holes), read like vacuumed ones.
    pub fn place(&mut self, slot: u16, tuple: &[u8]) -> StorageResult<()> {
        self.view.take();
        let count = self.slot_count_raw();
        if slot < count && !self.is_dead(slot) {
            return Err(StorageError::Corruption {
                detail: format!("slot {slot} is already taken"),
            });
        }
        let new_count = count.max(slot.saturating_add(1));
        let dir_end = HEADER_SIZE + new_count as usize * SLOT_ENTRY_SIZE;
        let free_end = self.free_end() as usize;
        if dir_end + tuple.len() > free_end {
            return Err(StorageError::TupleTooLarge { size: tuple.len() });
        }
        for hole in count..new_count {
            self.set_slot_entry(hole, 0, 0);
        }
        let new_end = free_end - tuple.len();
        self.bytes[new_end..free_end].copy_from_slice(tuple);
        self.set_free_end(new_end as u16);
        self.set_slot_count(new_count);
        self.set_slot_entry(slot, new_end as u16, tuple.len() as u16);
        Ok(())
    }

    /// Where the tuple in live slot `slot` lies in the page.
    fn live_entry(&self, slot: u16) -> StorageResult<std::ops::Range<usize>> {
        if slot >= self.slot_count_raw() {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
        let (off, len) = self.slot_entry(slot);
        if len == 0 {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
        Ok(off as usize..off as usize + len as usize)
    }

    /// Reads the tuple stored in `slot`.
    pub fn read(&self, slot: u16) -> StorageResult<&[u8]> {
        Ok(&self.bytes[self.live_entry(slot)?])
    }

    /// Reads the tuple stored in `slot`, or `None` where the slot is empty
    /// (vacuum reclaimed it, or it is a hole redo left). A slot past the
    /// directory's end was never handed out: [`StorageError::Corruption`].
    pub fn read_live(&self, slot: u16) -> StorageResult<Option<&[u8]>> {
        if slot >= self.slot_count_raw() {
            return Err(self.past_the_slots(slot));
        }
        let (off, len) = self.slot_entry(slot);
        Ok((len != 0).then(|| &self.bytes[off as usize..off as usize + len as usize]))
    }

    /// The error for a slot past the directory's end.
    #[cold]
    fn past_the_slots(&self, slot: u16) -> StorageError {
        StorageError::Corruption {
            detail: format!(
                "slot {slot} is past the page's {} slots",
                self.slot_count_raw()
            ),
        }
    }

    /// Sets (or clears) the `xmax` of the tuple in `slot`, in place: the
    /// only write to a live slot's bytes. The column view holds no `xmax`,
    /// so the page keeps it.
    pub fn set_xmax(&mut self, slot: u16, xmax: Option<TxnId>) -> StorageResult<()> {
        let at = self.live_entry(slot)?;
        patch_xmax(&mut self.bytes[at], xmax)
    }

    /// Marks a slot dead (its bytes remain until vacuum rewrites the page).
    pub fn mark_dead(&mut self, slot: u16) -> StorageResult<()> {
        if slot >= self.slot_count_raw() {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
        self.view.take();
        let (off, _) = self.slot_entry(slot);
        self.set_slot_entry(slot, off, 0);
        Ok(())
    }

    /// Returns `true` if the slot is dead (marked removed by vacuum).
    pub fn is_dead(&self, slot: u16) -> bool {
        if slot >= self.slot_count_raw() {
            return true;
        }
        self.slot_entry(slot).1 == 0
    }

    /// Iterates over live slot numbers.
    pub fn live_slots(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.slot_count_raw()).filter(|s| !self.is_dead(*s))
    }

    /// The page's column view with `columns` decoded, building from the
    /// live slots' bytes whatever it lacks (see the module docs); and how
    /// many columns this call decoded, the label ids counting as one. A
    /// slot that does not parse, or that has no field at one of `columns`,
    /// is [`StorageError::Corruption`], as it is to a scan that reads it.
    pub fn view(&self, columns: &[usize]) -> StorageResult<(&ColumnView, u64)> {
        let mut decoded = 0;
        if self.view.get().is_none() {
            let (built, n) = self.build_view(columns)?;
            // A racing build that got there first serves its own columns
            // and the check below decodes what it lacks.
            if self.view.set(Arc::new(built)).is_ok() {
                decoded += n;
            }
        }
        let view = self.view.get().expect("just set");
        let mut missing = Vec::new();
        for &column in columns {
            match view.ints.get(column) {
                Some(ints) if ints.get().is_some() || missing.contains(&column) => {}
                Some(_) => missing.push(column),
                None if self.live_slots().next().is_none() => {}
                None => return Err(corrupt("tuple has fewer fields than its schema")),
            }
        }
        if !missing.is_empty() {
            missing.sort_unstable();
            decoded += self.decode_ints(view, &missing)?;
        }
        Ok((view, decoded))
    }

    /// Builds the view, with the label ids and the `Int`s at `columns`, in
    /// one parse of each live slot; returns it and how many columns it
    /// decoded, the label ids counting as one. The label ids take a vector
    /// only once a second id appears.
    fn build_view(&self, columns: &[usize]) -> StorageResult<(ColumnView, u64)> {
        let mut wanted: Vec<usize> = columns.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let slots = self.slot_count() as usize;
        let (mut first, mut by_slot, mut fields) = (None, None::<Box<[LabelId]>>, 0);
        let ints = self.decode_slots(&wanted, |slot, tuple| {
            let id = tuple.label_id();
            let same = *first.get_or_insert(id);
            if let Some(ids) = &mut by_slot {
                ids[slot as usize] = id;
            } else if id != same {
                let mut ids = vec![0; slots].into_boxed_slice();
                for earlier in self.live_slots().take_while(|s| *s < slot) {
                    ids[earlier as usize] = same;
                }
                ids[slot as usize] = id;
                by_slot = Some(ids);
            }
            fields = fields.max(tuple.field_count());
        })?;
        let labels = match by_slot {
            Some(ids) => SlotLabels::BySlot(ids),
            None => SlotLabels::Same(first.unwrap_or(0)),
        };
        let view = ColumnView {
            labels,
            ints: (0..fields).map(|_| OnceLock::new()).collect(),
        };
        let decoded = 1 + view.store(&wanted, ints);
        Ok((view, decoded))
    }

    /// Decodes the `Int`s of the live slots at field positions `columns`
    /// (sorted, without repeats) into `view`, in one pass; returns how many
    /// it stored there.
    fn decode_ints(&self, view: &ColumnView, columns: &[usize]) -> StorageResult<u64> {
        let ints = self.decode_slots(columns, |_, _| {})?;
        Ok(view.store(columns, ints))
    }

    /// The one decoder of a page's column view: parses each live slot once,
    /// shows it to `each`, and collects its `Int`s at field positions
    /// `columns` (sorted, without repeats), in `columns`' order. A slot
    /// that does not parse, or that has no field at one of `columns`, is
    /// [`StorageError::Corruption`].
    fn decode_slots(
        &self,
        columns: &[usize],
        mut each: impl FnMut(u16, &TupleRef<'_>),
    ) -> StorageResult<Vec<IntColumn>> {
        let slots = self.slot_count() as usize;
        let mut ints: Vec<IntColumn> = columns.iter().map(|_| IntColumn::new(slots)).collect();
        for slot in self.live_slots() {
            let tuple = TupleRef::parse(self.read(slot)?)?;
            each(slot, &tuple);
            let Some(&last) = columns.last() else {
                continue;
            };
            if tuple.field_count() <= last {
                return Err(corrupt("tuple has fewer fields than its schema"));
            }
            tuple.for_each_int(|field, int| {
                if let (Some(value), Ok(at)) = (int, columns.binary_search(&field)) {
                    ints[at].set(slot as usize, value);
                }
            })?;
        }
        Ok(ints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_back() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.read(a).unwrap(), b"hello");
        assert_eq!(p.read(b).unwrap(), b"world!");
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_up_and_rejects_overflow() {
        let mut p = Page::new();
        let tuple = vec![7u8; 1000];
        let mut inserted = 0;
        while p.fits(tuple.len()) {
            p.insert(&tuple).unwrap();
            inserted += 1;
        }
        assert!(inserted >= 7, "should fit several 1000-byte tuples");
        assert!(p.insert(&tuple).is_err());
        // A smaller tuple may still fit.
        let leftover = p.free_space();
        if leftover > 0 {
            assert!(p.insert(&vec![1u8; leftover]).is_ok());
        }
    }

    #[test]
    fn a_page_takes_tuples_while_their_footprints_fit_the_tuple_space() {
        for len in [1, 57, 300, 1000] {
            let mut p = Page::new();
            let mut used = 0;
            while p.fits(len) {
                p.insert(&vec![0u8; len]).unwrap();
                used += footprint(len);
            }
            assert!(used <= TUPLE_SPACE);
            assert!(used + footprint(len) > TUPLE_SPACE, "len {len}");
        }
    }

    #[test]
    fn oversized_tuple_rejected() {
        let mut p = Page::new();
        assert!(matches!(
            p.insert(&vec![0u8; PAGE_SIZE]).unwrap_err(),
            StorageError::TupleTooLarge { .. }
        ));
    }

    #[test]
    fn place_fills_a_named_slot_and_leaves_holes() {
        let mut p = Page::new();
        p.place(3, b"third").unwrap();
        p.place(1, b"first").unwrap();
        assert_eq!(p.slot_count(), 4);
        assert_eq!(p.live_slots().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(p.read(3).unwrap(), b"third");
        assert!(p.read(0).is_err() && p.is_dead(2));
        assert!(matches!(
            p.place(3, b"again").unwrap_err(),
            StorageError::Corruption { .. }
        ));
        assert_eq!(p.insert(b"next").unwrap(), 4);
    }

    #[test]
    fn mark_dead_hides_slot() {
        let mut p = Page::new();
        let a = p.insert(b"abc").unwrap();
        let b = p.insert(b"def").unwrap();
        p.mark_dead(a).unwrap();
        assert!(p.is_dead(a));
        assert!(p.read(a).is_err());
        assert_eq!(p.read(b).unwrap(), b"def");
        assert_eq!(p.live_slots().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn in_place_patching_persists() {
        let mut p = Page::new();
        let s = p.insert(&[1; 20]).unwrap();
        p.set_xmax(s, Some(TxnId(9))).unwrap();
        let bytes = p.read(s).unwrap();
        assert_eq!(bytes[8..16], 9u64.to_le_bytes());
        assert_eq!(bytes[..8], [1; 8]);
        assert_eq!(bytes[16..], [1; 4]);
    }

    #[test]
    fn byte_round_trip() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        let bytes = p.as_bytes().to_vec();
        let q = Page::from_bytes(bytes).unwrap();
        assert_eq!(q.read(0).unwrap(), b"persist me");
        assert!(Page::from_bytes(vec![0u8; 17]).is_err());
    }

    #[test]
    fn reads_of_missing_slots_fail() {
        let p = Page::new();
        assert!(p.read(0).is_err());
    }
}

/// The column view against the one tuple decoder: on seeded pages of every
/// datum kind, under one label or many (ids past 127 take two varint
/// bytes), grown by inserts and by redo's `place` (which leaves holes),
/// shrunk by `mark_dead`, patched by `set_xmax`, and copied on write while
/// pinned, the view of every live slot says what parsing the slot says.
#[cfg(test)]
mod view_tests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;
    use crate::tuple::encode;
    use crate::value::Datum;

    const LABELS: [LabelId; 7] = [0, 1, 5, 127, 128, 300, 70_000];

    /// A datum of kind `kind` (the codec's kind byte less one, all seven)
    /// made from `x`.
    fn datum(kind: u8, x: i64) -> Datum {
        match kind % 7 {
            0 => Datum::Null,
            1 => Datum::Int(x),
            2 => Datum::Float(x as f64 / 2.0),
            3 => Datum::Text(format!("t{x}")),
            4 => Datum::Bool(x % 2 == 0),
            5 => Datum::Timestamp(x),
            _ => Datum::IntArray(vec![x as u64, 7]),
        }
    }

    /// Ranges that probe `within`: the values near the generated ones,
    /// empty intervals (`[5, 4]`, `[MAX, MIN]`) and every `i64`.
    const RANGES: [IntRange; 6] = [
        IntRange { lo: -3, hi: 3 },
        IntRange { lo: 5, hi: 4 },
        IntRange { lo: 3, hi: 3 },
        IntRange {
            lo: i64::MAX,
            hi: i64::MIN,
        },
        IntRange {
            lo: i64::MIN,
            hi: 0,
        },
        IntRange::ALL,
    ];

    /// Asks `page` for its view with `columns` decoded and checks every
    /// live slot against the slot's parse.
    fn assert_view_is_page(page: &Page, columns: &[usize]) {
        let (view, _) = page.view(columns).unwrap();
        for slot in page.live_slots() {
            let tuple = TupleRef::parse(page.read(slot).unwrap()).unwrap();
            assert_eq!(view.label_id(slot), tuple.label_id(), "slot {slot}");
            for &column in columns {
                let int = match tuple.field(column).unwrap() {
                    Datum::Int(v) => Some(v),
                    _ => None,
                };
                let ints = view.ints(column).expect("decoded");
                assert_eq!(ints.get(slot), int, "slot {slot} column {column}");
                for range in &RANGES {
                    let within = int.is_none_or(|v| range.contains(v));
                    assert_eq!(ints.within(slot, range), within, "{range:?}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn the_view_is_the_page(
            fields in 1usize..5,
            uniform in 0u8..2,
            steps in collection::vec(0u64..u64::MAX, 1..60),
        ) {
            let mut page = Arc::new(Page::new());
            let mut pinned: Vec<Arc<Page>> = Vec::new();
            for (i, step) in steps.into_iter().enumerate() {
                // What to do, a small value near the probe ranges, and a
                // selector for the label, the datum kinds and the slot.
                let (op, x, y) = (step % 8, (step >> 8) as i64 % 24 - 4, (step >> 16) as u16);
                let label = match uniform {
                    1 => LABELS[4],
                    _ => LABELS[y as usize % LABELS.len()],
                };
                let data: Vec<Datum> = (0..fields)
                    .map(|f| datum((y >> (3 * f)) as u8, x + f as i64))
                    .collect();
                let bytes = encode(TxnId(1 + i as u64), label, &data);
                let live: Vec<u16> = page.live_slots().collect();
                let p = Arc::make_mut(&mut page);
                match op {
                    0..=2 if p.fits(bytes.len()) => {
                        p.insert(&bytes).unwrap();
                    }
                    // Redo puts a row back at its logged slot, past a hole.
                    3 => {
                        let slot = p.slot_count() + y % 3;
                        let _ = p.place(slot, &bytes);
                    }
                    4 if !live.is_empty() => {
                        p.mark_dead(live[y as usize % live.len()]).unwrap();
                    }
                    5 if !live.is_empty() => {
                        let xmax = (x > 0).then_some(TxnId(x as u64));
                        p.set_xmax(live[y as usize % live.len()], xmax).unwrap();
                    }
                    // A reader pins the page: the next write copies it.
                    6 => pinned.push(Arc::clone(&page)),
                    _ => {}
                }
                // Decode a varying subset of the columns, so views are
                // built whole, completed column by column, and reused.
                let columns: Vec<usize> = (0..fields).filter(|c| (i + c) % 3 != 0).collect();
                assert_view_is_page(&page, &columns);
                for old in &pinned {
                    assert_view_is_page(old, &columns);
                }
            }
        }
    }

    #[test]
    fn a_column_past_the_slots_fields_is_corruption() {
        let mut page = Page::new();
        assert!(
            page.view(&[4]).is_ok(),
            "an empty page has no slot to lack it"
        );
        let data = [Datum::Int(1), Datum::Text("a".into())];
        page.insert(&encode(TxnId(1), 1, &data)).unwrap();
        assert!(matches!(
            page.view(&[2]),
            Err(StorageError::Corruption { .. })
        ));
        assert!(page.view(&[0, 1]).is_ok());
    }

    #[test]
    fn a_slot_that_does_not_parse_is_corruption() {
        // An MVCC header, the empty label, and five fields that are not there.
        let mut bytes = vec![0; 16];
        bytes.extend_from_slice(&[0, 5, 0]);
        let mut page = Page::new();
        page.insert(&bytes).unwrap();
        assert!(matches!(
            page.view(&[]),
            Err(StorageError::Corruption { .. })
        ));
    }
}
