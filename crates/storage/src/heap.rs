//! Table heaps: collections of slotted pages holding tuple versions.
//!
//! A [`TableHeap`] owns the list of pages allocated to one table and goes
//! through the shared buffer pool for every page access, so the cost of
//! reading a tuple reflects whether its page is resident. Updates never
//! modify tuple data in place: they mark the old version superseded by
//! patching `xmax` and insert a new version, exactly as PostgreSQL's MVCC
//! does (Section 7.1 of the paper relies on this to implement Query by Label
//! "at the layer that reads and writes tuples in tables").
//!
//! Reads are in place: [`TableHeap::walk`] (every live version) and
//! [`TableHeap::read`] (one) hand their caller a [`TupleRef`] over the slot
//! bytes of a pinned page, so a caller that rejects a tuple on its header or
//! label never builds it. The owned-version entry points (`scan`, `fetch`,
//! `version_count`, `vacuum`) are adapters over those two.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::mvcc::TxnId;
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::store::PageStore;
use crate::tuple::{patch_xmax, TupleRef, TupleVersion};

/// Physical location of a tuple version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RowId {
    /// Page number within the table.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page, self.slot)
    }
}

/// The heap of one table.
pub struct TableHeap {
    table_id: u32,
    store: Arc<dyn PageStore>,
    buffer: Arc<BufferPool>,
    /// Pages allocated to this table, in allocation order.
    pages: Mutex<Vec<PageId>>,
    /// Hint: index into `pages` of the page most recently found to have room.
    insert_hint: Mutex<usize>,
}

impl std::fmt::Debug for TableHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableHeap")
            .field("table_id", &self.table_id)
            .field("pages", &self.pages.lock().len())
            .finish()
    }
}

impl TableHeap {
    /// Creates an empty heap for `table_id` backed by `store` and cached by
    /// `buffer`.
    pub fn new(table_id: u32, store: Arc<dyn PageStore>, buffer: Arc<BufferPool>) -> Self {
        TableHeap {
            table_id,
            store,
            buffer,
            pages: Mutex::new(Vec::new()),
            insert_hint: Mutex::new(0),
        }
    }

    /// The table this heap belongs to.
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// Number of pages allocated.
    pub fn page_count(&self) -> usize {
        self.pages.lock().len()
    }

    /// Inserts a tuple version, returning its row id.
    pub fn insert(&self, version: &TupleVersion) -> StorageResult<RowId> {
        let bytes = version.encode();
        if bytes.len() > PAGE_SIZE / 2 {
            return Err(StorageError::TupleTooLarge { size: bytes.len() });
        }
        let mut pages = self.pages.lock();
        let mut hint = self.insert_hint.lock();

        // Try the hinted page, then the last page, then allocate.
        let candidates: Vec<usize> = {
            let mut c = Vec::new();
            if *hint < pages.len() {
                c.push(*hint);
            }
            if !pages.is_empty() {
                c.push(pages.len() - 1);
            }
            c
        };
        for idx in candidates {
            let pid = pages[idx];
            let inserted =
                self.buffer
                    .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                        if p.fits(bytes.len()) {
                            Some(p.insert(&bytes).expect("fits was checked"))
                        } else {
                            None
                        }
                    })?;
            if let Some(slot) = inserted {
                *hint = idx;
                return Ok(RowId { page: pid.0, slot });
            }
        }
        // Allocate a fresh page.
        let pid = self.store.allocate()?;
        pages.push(pid);
        *hint = pages.len() - 1;
        let slot = self
            .buffer
            .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                p.insert(&bytes)
            })??;
        Ok(RowId { page: pid.0, slot })
    }

    /// Calls `f` with the tuple version at `row`, read in place on a pin.
    pub fn read<R, E: From<StorageError>>(
        &self,
        row: RowId,
        f: impl FnOnce(TupleRef<'_>) -> Result<R, E>,
    ) -> Result<R, E> {
        let pid = PageId(row.page);
        self.buffer
            .with_page(self.table_id, pid, self.store.as_ref(), |p| {
                let bytes = p.read(row.slot).map_err(|e| match e {
                    StorageError::UnknownRow { slot, .. } => StorageError::UnknownRow {
                        page: row.page,
                        slot,
                    },
                    other => other,
                })?;
                f(TupleRef::parse(bytes)?)
            })?
    }

    /// Fetches the tuple version at `row`.
    pub fn fetch(&self, row: RowId) -> StorageResult<TupleVersion> {
        self.read::<_, StorageError>(row, |t| t.to_version())
    }

    /// Sets (or clears) the `xmax` of the version at `row` in place.
    pub fn set_xmax(&self, row: RowId, xmax: Option<TxnId>) -> StorageResult<()> {
        let pid = PageId(row.page);
        self.buffer
            .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                let slot = p.read_mut(row.slot)?;
                patch_xmax(slot, xmax)
            })?
    }

    /// Sets the `xmax` of the version at `row` to `new` only if it still is
    /// `expected`, in one page access; returns whether it did. This is the
    /// compare-and-set under first-updater-wins.
    pub fn compare_and_set_xmax(
        &self,
        row: RowId,
        expected: Option<TxnId>,
        new: Option<TxnId>,
    ) -> StorageResult<bool> {
        let pid = PageId(row.page);
        self.buffer
            .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                let slot = p.read_mut(row.slot)?;
                if TupleRef::parse(slot)?.xmax() != expected {
                    return Ok(false);
                }
                patch_xmax(slot, new).map(|()| true)
            })?
    }

    /// Calls `f` with every live tuple version, in physical order, each read
    /// in place on its pinned page; `Ok(false)` from `f` stops the walk. This
    /// is the one heap traversal — scans, counts and vacuum's search all go
    /// through it — and it allocates nothing per row or per page.
    pub fn walk<E: From<StorageError>>(
        &self,
        mut f: impl FnMut(RowId, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let pages: Vec<PageId> = self.pages.lock().clone();
        for pid in pages {
            let on_page = |p: &Page| -> Result<bool, E> {
                for slot in p.live_slots() {
                    let tuple = TupleRef::parse(p.read(slot)?)?;
                    if !f(RowId { page: pid.0, slot }, tuple)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            };
            let store = self.store.as_ref();
            if !self
                .buffer
                .with_page(self.table_id, pid, store, on_page)??
            {
                break;
            }
        }
        Ok(())
    }

    /// Calls `f` for every live tuple version in the heap, in physical order.
    /// Returning `false` from `f` stops the scan early.
    pub fn scan(&self, mut f: impl FnMut(RowId, TupleVersion) -> bool) -> StorageResult<()> {
        self.walk::<StorageError>(|row, t| Ok(f(row, t.to_version()?)))
    }

    /// Counts live (non-dead-slot) tuple versions.
    pub fn version_count(&self) -> StorageResult<usize> {
        let mut n = 0;
        self.walk::<StorageError>(|_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    /// Physically removes versions for which `should_remove` returns `true`
    /// (the garbage-collector task of Section 7.1, which is exempt from the
    /// information-flow rules). Returns the number of removed versions.
    ///
    /// The search is a read-only walk; only pages that hold a victim are
    /// then written. What makes a version removable is permanent, so the
    /// verdict cannot go stale between the two steps.
    pub fn vacuum(
        &self,
        mut should_remove: impl FnMut(&TupleVersion) -> bool,
    ) -> StorageResult<usize> {
        let mut victims: Vec<RowId> = Vec::new();
        self.walk::<StorageError>(|row, t| {
            if should_remove(&t.to_version()?) {
                victims.push(row);
            }
            Ok(true)
        })?;
        let mut removed = 0;
        for on_page in victims.chunk_by(|a, b| a.page == b.page) {
            let pid = PageId(on_page[0].page);
            removed += self
                .buffer
                .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                    let mut n = 0;
                    for row in on_page {
                        // A concurrent vacuum may have got to the slot first.
                        if !p.is_dead(row.slot) {
                            p.mark_dead(row.slot).expect("slot is live");
                            n += 1;
                        }
                    }
                    n
                })?;
        }
        Ok(removed)
    }

    /// Flushes every dirty page of this table to its store.
    pub fn flush(&self) -> StorageResult<()> {
        self.buffer.flush_table(self.table_id, self.store.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::TxnId;
    use crate::store::MemPageStore;
    use crate::tuple::TupleHeader;
    use crate::value::Datum;

    fn heap() -> TableHeap {
        TableHeap::new(1, Arc::new(MemPageStore::new()), BufferPool::new(64))
    }

    fn version(xmin: u64, text: &str, label: Vec<u64>) -> TupleVersion {
        TupleVersion::new(
            TupleHeader::new(TxnId(xmin), label),
            vec![Datum::Int(xmin as i64), Datum::Text(text.into())],
        )
    }

    #[test]
    fn insert_fetch_round_trip() {
        let h = heap();
        let v = version(1, "alice", vec![42]);
        let row = h.insert(&v).unwrap();
        assert_eq!(h.fetch(row).unwrap(), v);
    }

    #[test]
    fn spills_to_multiple_pages() {
        let h = heap();
        let big = "x".repeat(1000);
        for i in 0..50 {
            h.insert(&version(i, &big, vec![])).unwrap();
        }
        assert!(h.page_count() > 1, "50 KB of tuples needs several pages");
        assert_eq!(h.version_count().unwrap(), 50);
    }

    #[test]
    fn set_xmax_is_persistent() {
        let h = heap();
        let row = h.insert(&version(1, "victim", vec![])).unwrap();
        h.set_xmax(row, Some(TxnId(9))).unwrap();
        assert_eq!(h.fetch(row).unwrap().header.xmax, Some(TxnId(9)));
        h.set_xmax(row, None).unwrap();
        assert_eq!(h.fetch(row).unwrap().header.xmax, None);
    }

    #[test]
    fn compare_and_set_xmax_sets_only_over_the_expected_value() {
        let h = heap();
        let row = h.insert(&version(1, "contended", vec![])).unwrap();
        assert!(h.compare_and_set_xmax(row, None, Some(TxnId(5))).unwrap());
        // A second claimant that read the slot before the first set it.
        assert!(!h.compare_and_set_xmax(row, None, Some(TxnId(6))).unwrap());
        assert_eq!(h.fetch(row).unwrap().header.xmax, Some(TxnId(5)));
        // Over the value it saw, it wins.
        assert!(h
            .compare_and_set_xmax(row, Some(TxnId(5)), Some(TxnId(6)))
            .unwrap());
        assert_eq!(h.fetch(row).unwrap().header.xmax, Some(TxnId(6)));
    }

    #[test]
    fn scan_visits_all_and_stops_early() {
        let h = heap();
        for i in 0..10 {
            h.insert(&version(i, "row", vec![])).unwrap();
        }
        let mut seen = 0;
        h.scan(|_, _| {
            seen += 1;
            true
        })
        .unwrap();
        assert_eq!(seen, 10);

        let mut early = 0;
        h.scan(|_, _| {
            early += 1;
            early < 3
        })
        .unwrap();
        assert_eq!(early, 3);
    }

    #[test]
    fn vacuum_removes_matching_versions() {
        let h = heap();
        for i in 0..6 {
            h.insert(&version(i, "row", vec![])).unwrap();
        }
        let removed = h.vacuum(|v| v.header.xmin.0 % 2 == 0).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(h.version_count().unwrap(), 3);
    }

    #[test]
    fn fetch_of_unknown_row_errors() {
        let h = heap();
        let row = h.insert(&version(1, "only", vec![])).unwrap();
        assert!(h
            .fetch(RowId {
                page: row.page,
                slot: row.slot + 5
            })
            .is_err());
    }

    #[test]
    fn survives_buffer_pressure_with_file_store() {
        let dir = std::env::temp_dir().join(format!("ifdb-heap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(crate::store::FilePageStore::create(&dir.join("t.heap")).unwrap());
        // Tiny buffer pool: 2 pages, so scans must re-read from disk.
        let h = TableHeap::new(3, store, BufferPool::new(2));
        let big = "y".repeat(800);
        let mut rows = Vec::new();
        for i in 0..40 {
            rows.push(h.insert(&version(i, &big, vec![1, 2])).unwrap());
        }
        for (i, row) in rows.iter().enumerate() {
            let v = h.fetch(*row).unwrap();
            assert_eq!(v.header.xmin, TxnId(i as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
