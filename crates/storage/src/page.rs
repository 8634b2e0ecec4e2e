//! Slotted heap pages.
//!
//! Tuples are stored in fixed-size pages with a slot directory at the front
//! and tuple data growing from the back, the classic heap-file layout. Page
//! size matches PostgreSQL's 8 KiB so that the label-size/IO trade-off of
//! Section 8.3 (each tag shrinks the number of tuples per page) carries over.

use serde::{Deserialize, Serialize};

use crate::error::{StorageError, StorageResult};

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
        Page { bytes }
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
        if tuple.len() > PAGE_SIZE - HEADER_SIZE - SLOT_ENTRY_SIZE {
            return Err(StorageError::TupleTooLarge { size: tuple.len() });
        }
        if !self.fits(tuple.len()) {
            return Err(StorageError::TupleTooLarge { size: tuple.len() });
        }
        let slot = self.slot_count_raw();
        let new_end = self.free_end() as usize - tuple.len();
        self.bytes[new_end..new_end + tuple.len()].copy_from_slice(tuple);
        self.set_free_end(new_end as u16);
        self.set_slot_count(slot + 1);
        self.set_slot_entry(slot, new_end as u16, tuple.len() as u16);
        Ok(slot)
    }

    /// Reads the tuple stored in `slot`.
    pub fn read(&self, slot: u16) -> StorageResult<&[u8]> {
        if slot >= self.slot_count_raw() {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
        let (off, len) = self.slot_entry(slot);
        if len == 0 {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
        Ok(&self.bytes[off as usize..off as usize + len as usize])
    }

    /// Returns a mutable view of the tuple stored in `slot`, used to patch
    /// header fields (e.g. `xmax`) in place.
    pub fn read_mut(&mut self, slot: u16) -> StorageResult<&mut [u8]> {
        if slot >= self.slot_count_raw() {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
        let (off, len) = self.slot_entry(slot);
        if len == 0 {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
        Ok(&mut self.bytes[off as usize..off as usize + len as usize])
    }

    /// Marks a slot dead (its bytes remain until vacuum rewrites the page).
    pub fn mark_dead(&mut self, slot: u16) -> StorageResult<()> {
        if slot >= self.slot_count_raw() {
            return Err(StorageError::UnknownRow { page: 0, slot });
        }
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
        let s = p.insert(&[1, 2, 3, 4]).unwrap();
        p.read_mut(s).unwrap()[0] = 9;
        assert_eq!(p.read(s).unwrap(), &[9, 2, 3, 4]);
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
