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
//!
//! # Pages follow labels
//!
//! The paper's cost argument for Query by Label is that a table holds few
//! distinct labels (§8), so the heap places tuples by label and a reader can
//! decide a page's label once instead of each row's. A heap's pages form two
//! parts, kept under one mutex:
//!
//! * the **shared tail**: append-only, in insertion order, where rows of any
//!   label sit side by side;
//! * one **chain** per label that outgrew the shared tail: an append-only
//!   page list in which every page holds that label alone.
//!
//! A label's rows go to the shared tail until its *own* rows there fill one
//! page's worth of tuple space; its next row opens its chain, and its rows go
//! there from then on. The bound is structural, not a knob: a label too
//! sparse to fill a page (a per-paper tag in HotCRP) never costs a page of
//! its own, one label alone takes exactly the pages a single append-only
//! list would, and a label with a chain has used a full page of the tail
//! before it costs at most one partly filled page of its own, so its space
//! stays within 2×. The heap keeps one map entry per distinct label (its
//! bytes on the shared tail, or its chain) and nothing per row.
//!
//! [`TableHeap::walk`] visits the shared tail, then the chains in the order
//! they were opened, and hands its visitor each page's label (`None` on the
//! shared tail).
//!
//! **Order.** Where a row goes, and when its label's chain opens, depend only
//! on the rows inserted earlier under that same label. So the order in which
//! a walk yields two rows — both on the tail: insertion order; tail before
//! chain; two chains: the one opened first; one chain: insertion order — is a
//! function of the two labels' own insert histories. Rows a reader cannot
//! read never move the ones it can, which is what the scan noninterference
//! test (`crates/core/tests/scan_noninterference.rs`) checks. Placement is a
//! pure function of the insert sequence, so log replay and replica apply
//! rebuild the layout; and because a walk yields every label's rows in
//! insertion order, a checkpoint image (written in walk order) keeps each
//! label's rows in order when it is replayed.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::mvcc::TxnId;
use crate::page::{footprint, Page, PageId, PAGE_SIZE, TUPLE_SPACE};
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

/// Where a label's next row goes.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// To the shared tail, where the label's rows already take this many
    /// bytes of tuple space.
    Shared(usize),
    /// To its chain, at this index of [`Layout::chains`].
    Chain(usize),
}

/// An append-only page list holding one label.
#[derive(Debug)]
struct Chain {
    label: Arc<[u64]>,
    pages: Vec<PageId>,
}

/// Which pages a heap has and which label each holds (see the module docs).
#[derive(Debug, Default)]
struct Layout {
    /// Pages any label may share, in allocation order.
    shared: Vec<PageId>,
    /// Single-label page lists, in the order they were opened.
    chains: Vec<Chain>,
    /// One entry per distinct label ever inserted.
    labels: HashMap<Box<[u64]>, Placement>,
}

impl Layout {
    /// The page list a row of `label` taking `footprint` bytes goes to,
    /// opening the label's chain if its rows on the shared tail would
    /// outgrow one page with this one.
    fn place(&mut self, label: &[u64], footprint: usize) -> &mut Vec<PageId> {
        let Some(placement) = self.labels.get_mut(label) else {
            self.labels
                .insert(label.into(), Placement::Shared(footprint));
            return &mut self.shared;
        };
        match *placement {
            Placement::Shared(used) if used + footprint <= TUPLE_SPACE => {
                *placement = Placement::Shared(used + footprint);
                &mut self.shared
            }
            Placement::Shared(_) => {
                *placement = Placement::Chain(self.chains.len());
                self.chains.push(Chain {
                    label: label.into(),
                    pages: Vec::new(),
                });
                &mut self.chains.last_mut().expect("just pushed").pages
            }
            Placement::Chain(i) => &mut self.chains[i].pages,
        }
    }

    /// Every page in walk order — the shared tail, then the chains in
    /// opening order — with its label, `None` on the shared tail.
    fn walk_order(&self) -> Vec<(PageId, Option<Arc<[u64]>>)> {
        let chained = self.chains.iter().flat_map(|c| {
            c.pages
                .iter()
                .map(move |pid| (*pid, Some(Arc::clone(&c.label))))
        });
        self.shared
            .iter()
            .map(|pid| (*pid, None))
            .chain(chained)
            .collect()
    }

    fn page_count(&self) -> usize {
        self.shared.len() + self.chains.iter().map(|c| c.pages.len()).sum::<usize>()
    }
}

/// The heap of one table.
pub struct TableHeap {
    table_id: u32,
    store: Arc<dyn PageStore>,
    buffer: Arc<BufferPool>,
    layout: Mutex<Layout>,
}

impl std::fmt::Debug for TableHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let layout = self.layout.lock();
        f.debug_struct("TableHeap")
            .field("table_id", &self.table_id)
            .field("pages", &layout.page_count())
            .field("chains", &layout.chains.len())
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
            layout: Mutex::new(Layout::default()),
        }
    }

    /// The table this heap belongs to.
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// Number of pages allocated.
    pub fn page_count(&self) -> usize {
        self.layout.lock().page_count()
    }

    /// Inserts a tuple version where its label places it (see the module
    /// docs), returning its row id.
    pub fn insert(&self, version: &TupleVersion) -> StorageResult<RowId> {
        let bytes = version.encode();
        if bytes.len() > PAGE_SIZE / 2 {
            return Err(StorageError::TupleTooLarge { size: bytes.len() });
        }
        let mut layout = self.layout.lock();
        let pages = layout.place(&version.header.label, footprint(bytes.len()));
        let store = self.store.as_ref();
        // Append to the list's last page, or to a fresh one.
        if let Some(&pid) = pages.last() {
            let inserted = self.buffer.with_page_mut(self.table_id, pid, store, |p| {
                p.fits(bytes.len())
                    .then(|| p.insert(&bytes).expect("fits was checked"))
            })?;
            if let Some(slot) = inserted {
                return Ok(RowId { page: pid.0, slot });
            }
        }
        let pid = self.store.allocate()?;
        pages.push(pid);
        let slot = self
            .buffer
            .with_page_mut(self.table_id, pid, store, |p| p.insert(&bytes))??;
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

    /// Calls `f` with every live tuple version, each read in place on its
    /// pinned page, and with its page's label — `Some` on a chain page, where
    /// every tuple carries it; `None` on the shared tail. `Ok(false)` from
    /// `f` stops the walk. Pages come in walk order (the shared tail, then
    /// the chains in opening order; see the module docs) and slots in
    /// insertion order. This is the one heap traversal — scans, counts and
    /// vacuum's search all go through it — and it allocates nothing per row
    /// or per page.
    pub fn walk<E: From<StorageError>>(
        &self,
        mut f: impl FnMut(RowId, Option<&[u64]>, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let pages = self.layout.lock().walk_order();
        for (pid, label) in pages {
            let label = label.as_deref();
            let on_page = |p: &Page| -> Result<bool, E> {
                for slot in p.live_slots() {
                    let tuple = TupleRef::parse(p.read(slot)?)?;
                    if !f(RowId { page: pid.0, slot }, label, tuple)? {
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

    /// Calls `f` for every live tuple version in the heap, in walk order.
    /// Returning `false` from `f` stops the scan early.
    pub fn scan(&self, mut f: impl FnMut(RowId, TupleVersion) -> bool) -> StorageResult<()> {
        self.walk::<StorageError>(|row, _, t| Ok(f(row, t.to_version()?)))
    }

    /// Counts live (non-dead-slot) tuple versions.
    pub fn version_count(&self) -> StorageResult<usize> {
        let mut n = 0;
        self.walk::<StorageError>(|_, _, _| {
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
        self.walk::<StorageError>(|row, _, t| {
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

    /// Pages a single append-only list takes for `versions`: every row to
    /// the last page, a fresh page when it is full.
    fn appended_pages(versions: &[TupleVersion]) -> usize {
        let mut pages = 0;
        let mut last = Page::new();
        for v in versions {
            let bytes = v.encode();
            if pages == 0 || !last.fits(bytes.len()) {
                pages += 1;
                last = Page::new();
            }
            last.insert(&bytes).unwrap();
        }
        pages
    }

    /// Inserts `versions` into a fresh heap; returns it and each row's id.
    fn heap_of(versions: &[TupleVersion]) -> (TableHeap, Vec<RowId>) {
        let h = heap();
        let rows = versions.iter().map(|v| h.insert(v).unwrap()).collect();
        (h, rows)
    }

    /// `labels` labels × `per_label` rows, inserted round-robin.
    fn interleaved(labels: u64, per_label: u64) -> Vec<TupleVersion> {
        (0..labels * per_label)
            .map(|i| version(i, "row", vec![i % labels]))
            .collect()
    }

    /// The walk's rows as (xmin, page label), checking that every row on a
    /// chain page carries the page's label.
    fn walked(h: &TableHeap) -> Vec<(u64, Option<Vec<u64>>)> {
        let mut out = Vec::new();
        h.walk::<StorageError>(|_, label, t| {
            if let Some(label) = label {
                assert_eq!(t.label_words().collect::<Vec<_>>(), label);
            }
            out.push((t.xmin().0, label.map(<[u64]>::to_vec)));
            Ok(true)
        })
        .unwrap();
        out
    }

    #[test]
    fn one_label_takes_the_pages_an_append_only_list_would() {
        let rows: Vec<TupleVersion> = (0..2_000).map(|i| version(i, "row", vec![7])).collect();
        let (h, _) = heap_of(&rows);
        assert_eq!(h.page_count(), appended_pages(&rows));
        assert_eq!(h.layout.lock().chains.len(), 1);
        // The tail's page comes first, so the walk is insertion order.
        let order: Vec<u64> = walked(&h).into_iter().map(|(x, _)| x).collect();
        assert_eq!(order, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn sixteen_interleaved_labels_cost_at_most_a_page_each() {
        let rows = interleaved(16, 1_250);
        let (h, _) = heap_of(&rows);
        assert!(
            h.page_count() <= appended_pages(&rows) + 16,
            "{} pages, {} appended",
            h.page_count(),
            appended_pages(&rows)
        );
        let layout = h.layout.lock();
        assert_eq!(layout.chains.len(), 16);
        // Each label filled about one page of the tail before its chain
        // opened, so the tail holds at most a page per label.
        assert!(layout.shared.len() <= 16);
        drop(layout);
        let on_chains = walked(&h).iter().filter(|(_, l)| l.is_some()).count();
        assert!(on_chains > rows.len() * 3 / 4, "{on_chains} rows on chains");
    }

    #[test]
    fn sparse_labels_stay_on_the_shared_tail() {
        let rows = interleaved(5_000, 1);
        let (h, _) = heap_of(&rows);
        assert!(h.page_count() <= appended_pages(&rows) + 1);
        assert!(h.layout.lock().chains.is_empty());
        let walk = walked(&h);
        assert!(walk.iter().all(|(_, label)| label.is_none()));
        let order: Vec<u64> = walk.into_iter().map(|(x, _)| x).collect();
        assert_eq!(order, (0..5_000).collect::<Vec<_>>());
    }

    #[test]
    fn per_label_state_is_bounded_by_distinct_labels_not_rows() {
        let h = heap();
        let mut state = Vec::new();
        for round in 0..4u64 {
            for i in 0..16 * 500 {
                h.insert(&version(round * 10_000 + i, "row", vec![i % 16]))
                    .unwrap();
            }
            let layout = h.layout.lock();
            state.push((layout.labels.len(), layout.chains.len()));
        }
        assert_eq!(state, vec![(16, 16); 4]);
    }

    #[test]
    fn a_walk_orders_readable_rows_by_their_own_labels_history_alone() {
        // Labels 0-3 are readable, 100-102 are not. The second heap also
        // gets unreadable rows in between, enough to open their chains and
        // to move every shared-page boundary.
        let low: Vec<TupleVersion> = (0..3_000).map(|i| version(i, "low", vec![i % 4])).collect();
        let mut mixed = Vec::new();
        for (i, v) in low.iter().enumerate() {
            mixed.push(v.clone());
            for k in 0..(i % 3) as u64 {
                let high = 100 + (i as u64 + k) % 3;
                mixed.push(version(
                    1_000_000 + i as u64,
                    "some longer high row",
                    vec![high],
                ));
            }
        }
        let readable = |h: &TableHeap| -> Vec<u64> {
            walked(h)
                .into_iter()
                .map(|(x, _)| x)
                .filter(|x| *x < 1_000_000)
                .collect()
        };
        let (alone, _) = heap_of(&low);
        let (among, _) = heap_of(&mixed);
        assert_eq!(readable(&alone), readable(&among));
        assert!(among.layout.lock().chains.len() > alone.layout.lock().chains.len());
    }

    #[test]
    fn vacuum_keeps_the_layout_and_the_order() {
        let rows = interleaved(4, 600);
        let (h, _) = heap_of(&rows);
        let before = walked(&h);
        let removed = h.vacuum(|v| v.header.xmin.0 % 5 == 0).unwrap();
        assert_eq!(removed, rows.len() / 5);
        let expected: Vec<_> = before.into_iter().filter(|(x, _)| x % 5 != 0).collect();
        assert_eq!(walked(&h), expected);
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
