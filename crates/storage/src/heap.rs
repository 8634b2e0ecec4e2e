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
//! Reads are in place: [`TableHeap::walk`] (every live version of the pages
//! it reads) and [`TableHeap::read`] (one) hand their caller a [`TupleRef`]
//! over the slot bytes of a pinned page, so a caller that rejects a tuple on
//! its header or its label never decodes a field into a [`crate::Datum`],
//! let alone builds the tuple. The owned-version entry points (`scan`,
//! `fetch`, `version_count`, `vacuum`) are adapters over those two.
//!
//! A statement's full scan goes one step further ([`TableHeap::walk_deciding`]):
//! it decides each live slot from its page's column view
//! ([`crate::page::ColumnView`], built from the page's bytes on first need
//! and kept while the page is resident and no slot is added or killed)
//! before it parses the slot at all. Per slot, in this order: the budget
//! and the page's verdict have been taken for the whole page; then the
//! label — the page's decision on a chain page, the slot's label id from
//! the view on the shared tail; then the filter's `Int` bounds, on the
//! view's values (a field that is not an `Int` passes every interval, an
//! empty one too); and only then is the slot parsed, asked its visibility,
//! tested against the whole filter and materialised. No field of a row is
//! read before its label admits it, and the view may only reject. Walks
//! without a slot filter — counts, vacuum, index back-fill, checkpoint and
//! in-flight emission, `scan_visible` — neither build a view nor read one.
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
//! bytes on the shared tail, or its chain) and nothing per row. Labels are
//! known here by their ids in the database's label dictionary
//! ([`crate::labels`]), which every tuple carries, so the map is keyed by a
//! `u32` and a chain names its label in four bytes whatever its tag count.
//!
//! [`TableHeap::walk`] visits the shared tail, then the chains in the order
//! of their first pages, which is the order they were opened in, and hands
//! its visitor each page's label id (`None` on the shared tail), so a reader
//! compares a page's label with the previous page's as two integers.
//!
//! **Order.** Where a row goes, and when its label's chain opens, depend only
//! on the rows inserted earlier under that same label. So the order in which
//! a walk yields two rows — both on the tail: insertion order; tail before
//! chain; two chains: the one opened first; one chain: insertion order — is a
//! function of the two labels' own insert histories. Rows a reader cannot
//! read never move the ones it can, which is what the scan noninterference
//! test (`crates/core/tests/scan_noninterference.rs`) checks.
//!
//! # Pages are decided before they are read
//!
//! Every page has a [`PageSummary`]: its slot count, its label when it is a
//! chain page, and for each column an inclusive `i64` range holding every
//! value ever placed in that column on the page — a small materialised
//! aggregate, or zone map (Moerkotte, VLDB 1998). A column's range is bounded
//! only while every datum placed in it is a [`crate::Datum::Int`]; any other
//! kind, `Null` included, makes it [`IntRange::ALL`] on that page. Summaries
//! are derived state beside the layout, under its mutex, and never logged:
//! [`TableHeap::insert`] and [`TableHeap::place`] widen them from the tuple
//! bytes, so redo, recovery, replica apply and checkpoint images rebuild
//! them on the one path they share. Deletes, updates, aborts and vacuum
//! never narrow one, so a summary always covers what its page holds.
//!
//! [`TableHeap::walk`] hands each page's summary to its caller's verdict
//! before it pins the page, and a page the verdict skips is never read. A
//! scan skips a chain page whose label its reader cannot read, and a page
//! whose range on some column is bounded and disjoint from the bounds its
//! filter puts on that column (an [`IntRange::ALL`] column may hold a
//! `Float` or a `Null`, which `Int` bounds cannot rule out). The walk copies the summaries under the layout lock, in the
//! pass that fixes its page order, and asks the verdicts after releasing it.
//! A verdict may also read a page's first slots and be asked again about
//! the rest ([`Verdict::ReadFirst`]): a statement budget charges each page's
//! slot count before it decides, and walks the page that would cross its
//! cap slot by slot, so where it kills a scan depends on slot counts and
//! walk order alone, never on a verdict.
//!
//! **Redo.** The log names each row's page and its page kind (shared tail or
//! chain), so recovery and replica apply put every row back at its logged
//! row id ([`TableHeap::place`]): the writer's layout comes back slot for
//! slot, with holes where rows never reached the log. A checkpoint image
//! logs live rows only, so a chain whose first page holds none comes back
//! ordered by its first page that does; that order too depends on the
//! chain's own label alone.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::labels::LabelId;
use crate::mvcc::TxnId;
use crate::page::{footprint, ColumnView, Page, PageId, PAGE_SIZE, TUPLE_SPACE};
use crate::store::PageStore;
use crate::tuple::TupleRef;

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

/// An inclusive range of `i64`s; empty when `lo > hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntRange {
    /// Least value in the range.
    pub lo: i64,
    /// Greatest value in the range.
    pub hi: i64,
}

impl IntRange {
    /// Every `i64`: a summary's range on a column that may hold anything,
    /// values that are not `Int`s included, so no `Int` bound rules it out.
    pub const ALL: IntRange = IntRange {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// No value: a summary's range on a column before its first datum.
    const EMPTY: IntRange = IntRange {
        lo: i64::MAX,
        hi: i64::MIN,
    };

    /// The values in both ranges.
    pub fn intersect(self, other: IntRange) -> IntRange {
        IntRange {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Whether `value` lies in the range.
    pub fn contains(&self, value: i64) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// Whether some value lies in both ranges.
    pub fn meets(&self, other: &IntRange) -> bool {
        let both = self.intersect(*other);
        both.lo <= both.hi
    }

    fn widen(&mut self, value: i64) {
        self.lo = self.lo.min(value);
        self.hi = self.hi.max(value);
    }
}

/// What the layout knows of one page's contents (see the module docs).
#[derive(Debug, Default)]
struct Summary {
    /// Slots the page's directory holds, dead ones and holes included.
    slots: u16,
    /// By column, a range covering every value placed in it on the page.
    ranges: Vec<IntRange>,
}

impl Summary {
    /// Takes in `tuple`, placed at `slot`.
    fn widen(&mut self, slot: u16, tuple: &TupleRef<'_>) {
        // A column no earlier row of the page had is unbounded, and so is
        // one this row lacks.
        let fill = if self.slots == 0 {
            IntRange::EMPTY
        } else {
            IntRange::ALL
        };
        self.slots = self.slots.max(slot + 1);
        let fields = tuple.field_count();
        if self.ranges.len() < fields {
            self.ranges.resize(fields, fill);
        }
        self.ranges[fields..].fill(IntRange::ALL);
        let ranges = &mut self.ranges;
        let read = tuple.for_each_int(|i, int| match int {
            Some(v) => ranges[i].widen(v),
            None => ranges[i] = IntRange::ALL,
        });
        if read.is_err() {
            self.ranges.fill(IntRange::ALL);
        }
    }
}

/// One element of a walk's copy of the layout: a page, followed by the
/// ranges of the walk's columns on it.
#[derive(Debug, Clone, Copy)]
enum Copied {
    Page {
        pid: PageId,
        label: Option<LabelId>,
        slots: u16,
    },
    Range(IntRange),
}

/// What [`TableHeap::walk`] shows its verdict of a page before pinning it:
/// a copy of the page's summary taken when the walk began.
#[derive(Debug, Clone, Copy)]
pub struct PageSummary<'a> {
    /// The page's number.
    pub page: u32,
    /// Its label id on a chain page, where every tuple carries it; `None` on
    /// the shared tail.
    pub label: Option<LabelId>,
    /// Slots not yet walked: all the page's slots, dead ones and holes
    /// included, less those a [`Verdict::ReadFirst`] already read.
    pub slots: u16,
    ranges: &'a [Copied],
}

impl PageSummary<'_> {
    /// The page's ranges on the walk's columns, in the order the walk was
    /// given them. Each covers every value ever placed in its column on the
    /// page.
    pub fn ranges(&self) -> impl Iterator<Item = IntRange> + '_ {
        self.ranges.iter().map(|c| match c {
            Copied::Range(r) => *r,
            Copied::Page { .. } => unreachable!("a page's ranges follow it"),
        })
    }
}

/// A walk's verdict on a page, taken from its [`PageSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Leave the page unread.
    Skip,
    /// Read every live slot not yet walked.
    Read,
    /// Read the next this many slots, then ask again about the rest of the
    /// page; zero leaves the rest unread.
    ReadFirst(u16),
}

/// A live slot as its page's [`ColumnView`] shows a
/// [`TableHeap::walk_deciding`] filter, before the slot's bytes are read.
#[derive(Clone, Copy)]
pub struct DecodedSlot<'a> {
    view: &'a ColumnView,
    columns: &'a [usize],
    slot: u16,
}

impl DecodedSlot<'_> {
    /// The slot's label id.
    #[inline]
    pub fn label_id(&self) -> LabelId {
        self.view.label_id(self.slot)
    }

    /// Whether no field at the walk's columns is an `Int` outside the
    /// matching interval of `bounds`. A field of any other kind, `Null`
    /// included, is within every interval, an empty one too, so a `false`
    /// only ever rules out a slot whose `Int`s the bounds exclude.
    #[inline]
    pub fn ints_within(&self, bounds: &[IntRange]) -> bool {
        self.columns.iter().zip(bounds).all(|(&column, range)| {
            self.view
                .ints(column)
                .is_none_or(|ints| ints.within(self.slot, range))
        })
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
    label: LabelId,
    pages: Vec<PageId>,
}

/// Which pages a heap has and which label each holds (see the module docs).
/// Every page list is in page-id order, which is allocation order.
#[derive(Debug, Default)]
struct Layout {
    /// Pages any label may share.
    shared: Vec<PageId>,
    /// Single-label page lists, in the order of their first pages, which
    /// is the order they were opened in.
    chains: Vec<Chain>,
    /// One entry per distinct label ever inserted.
    labels: HashMap<LabelId, Placement>,
    /// By page id, each page's summary.
    summaries: Vec<Summary>,
}

impl Layout {
    /// The page list a row of `label` taking `footprint` bytes goes to, and
    /// whether it is the label's chain, opening the chain if the label's
    /// rows on the shared tail would outgrow one page with this one.
    fn place(&mut self, label: LabelId, footprint: usize) -> (&mut Vec<PageId>, bool) {
        let Some(placement) = self.labels.get_mut(&label) else {
            self.labels.insert(label, Placement::Shared(footprint));
            return (&mut self.shared, false);
        };
        match *placement {
            Placement::Shared(used) if used + footprint <= TUPLE_SPACE => {
                *placement = Placement::Shared(used + footprint);
                (&mut self.shared, false)
            }
            Placement::Shared(_) => {
                *placement = Placement::Chain(self.chains.len());
                (self.open_chain(label), true)
            }
            Placement::Chain(i) => (&mut self.chains[i].pages, true),
        }
    }

    /// Appends an empty chain for `label` and returns its page list.
    fn open_chain(&mut self, label: LabelId) -> &mut Vec<PageId> {
        self.chains.push(Chain {
            label,
            pages: Vec::new(),
        });
        &mut self.chains.last_mut().expect("just pushed").pages
    }

    /// Takes in a redone row of `label` taking `footprint` bytes on page
    /// `pid` of the list the log names — the label's chain if `chain`, else
    /// the shared tail — adding the page to that list, in page-id order, if
    /// it is new there. Accounts the row as [`Layout::place`] would. Redo
    /// may learn of pages in another order than they were allocated in, so
    /// a chain whose first page changes takes its place among the others.
    fn adopt(&mut self, pid: PageId, label: LabelId, chain: bool, footprint: usize) {
        let pages = match self.labels.get_mut(&label) {
            Some(Placement::Chain(i)) if chain => &mut self.chains[*i].pages,
            _ if chain => {
                let i = self.chains.len();
                self.labels.insert(label, Placement::Chain(i));
                self.open_chain(label)
            }
            Some(Placement::Shared(used)) => {
                *used += footprint;
                &mut self.shared
            }
            Some(Placement::Chain(_)) => &mut self.shared,
            None => {
                self.labels.insert(label, Placement::Shared(footprint));
                &mut self.shared
            }
        };
        let Err(at) = pages.binary_search(&pid) else {
            return;
        };
        pages.insert(at, pid);
        if chain && at == 0 {
            self.chains.sort_by_key(|c| c.pages.first().copied());
            for (i, c) in self.chains.iter().enumerate() {
                self.labels.insert(c.label, Placement::Chain(i));
            }
        }
    }

    /// Takes in `tuple`, placed at `slot` of page `pid`.
    fn widen(&mut self, pid: PageId, slot: u16, tuple: &TupleRef<'_>) {
        let at = pid.0 as usize;
        if self.summaries.len() <= at {
            self.summaries.resize_with(at + 1, Summary::default);
        }
        self.summaries[at].widen(slot, tuple);
    }

    /// Every page in walk order — the shared tail, then the chains in
    /// opening order — each as its page id, its label (`None` on the shared
    /// tail) and its slot count, followed by its ranges on `columns`.
    fn walk_order(&self, columns: &[usize]) -> Vec<Copied> {
        let chained = self
            .chains
            .iter()
            .flat_map(|c| c.pages.iter().map(move |pid| (*pid, Some(c.label))));
        let pages = self.shared.iter().map(|pid| (*pid, None)).chain(chained);
        let mut out = Vec::with_capacity(self.page_count() * (1 + columns.len()));
        for (pid, label) in pages {
            // A page on a list whose first row failed to go in is empty.
            let (slots, ranges) = match self.summaries.get(pid.0 as usize) {
                Some(summary) => (summary.slots, &summary.ranges[..]),
                None => (0, &[][..]),
            };
            out.push(Copied::Page { pid, label, slots });
            out.extend(
                columns
                    .iter()
                    .map(|c| Copied::Range(ranges.get(*c).copied().unwrap_or(IntRange::ALL))),
            );
        }
        out
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

/// `e`, a page's error reading `row`'s slot, naming the row.
#[cold]
fn at_row(row: RowId, e: StorageError) -> StorageError {
    match e {
        StorageError::Corruption { detail } => StorageError::Corruption {
            detail: format!("row {row}: {detail}"),
        },
        other => other,
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

    /// Inserts an encoded tuple version ([`crate::tuple::encode`]) of
    /// `label` where that label places it (see the module docs), returning
    /// its row id and whether it went to the label's chain.
    pub fn insert(&self, label: LabelId, bytes: &[u8]) -> StorageResult<(RowId, bool)> {
        if bytes.len() > PAGE_SIZE / 2 {
            return Err(StorageError::TupleTooLarge { size: bytes.len() });
        }
        let tuple = TupleRef::parse(bytes)?;
        let mut layout = self.layout.lock();
        let (pages, chain) = layout.place(label, footprint(bytes.len()));
        let store = self.store.as_ref();
        // Append to the list's last page, or to a fresh one.
        let appended = match pages.last() {
            Some(&pid) => self
                .buffer
                .with_page_mut(self.table_id, pid, store, |p| {
                    p.fits(bytes.len())
                        .then(|| p.insert(bytes).expect("fits was checked"))
                })?
                .map(|slot| (pid, slot)),
            None => None,
        };
        let (pid, slot) = match appended {
            Some(at) => at,
            None => {
                let pid = self.store.allocate()?;
                pages.push(pid);
                let slot = self
                    .buffer
                    .with_page_mut(self.table_id, pid, store, |p| p.insert(bytes))??;
                (pid, slot)
            }
        };
        layout.widen(pid, slot, &tuple);
        Ok((RowId { page: pid.0, slot }, chain))
    }

    /// Stores an encoded tuple version of `label` at `row`, on the label's
    /// chain if `chain` and on the shared tail otherwise: the redo of an
    /// insert at the row id and page kind its log record names. The store
    /// grows to the row's page, and a page the heap has not seen yet joins
    /// its list in page-id order, the order the writer allocated it in.
    pub fn place(
        &self,
        row: RowId,
        chain: bool,
        label: LabelId,
        bytes: &[u8],
    ) -> StorageResult<()> {
        let pid = PageId(row.page);
        let tuple = TupleRef::parse(bytes)?;
        let mut layout = self.layout.lock();
        while self.store.page_count() <= row.page {
            self.store.allocate()?;
        }
        layout.adopt(pid, label, chain, footprint(bytes.len()));
        self.buffer
            .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                p.place(row.slot, bytes)
            })??;
        layout.widen(pid, row.slot, &tuple);
        Ok(())
    }

    /// Calls `f` with the tuple version at `row`, read in place on a pin,
    /// or returns `None` for a slot vacuum reclaimed: a row id an index
    /// handed out before vacuum removed its entry. A slot the page never
    /// had is [`StorageError::Corruption`].
    pub fn read<R, E: From<StorageError>>(
        &self,
        row: RowId,
        f: impl FnOnce(TupleRef<'_>) -> Result<R, E>,
    ) -> Result<Option<R>, E> {
        let pid = PageId(row.page);
        self.buffer
            .with_page(self.table_id, pid, self.store.as_ref(), |p| {
                match p.read_live(row.slot) {
                    Ok(Some(bytes)) => f(TupleRef::parse(bytes)?).map(Some),
                    Ok(None) => Ok(None),
                    Err(e) => Err(at_row(row, e).into()),
                }
            })?
    }

    /// Kills the slot at `row` in place: how a writer takes back a version
    /// it placed but could not log.
    pub fn kill(&self, row: RowId) -> StorageResult<()> {
        let pid = PageId(row.page);
        self.buffer
            .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                p.mark_dead(row.slot)
            })?
    }

    /// Sets (or clears) the `xmax` of the version at `row` in place.
    pub fn set_xmax(&self, row: RowId, xmax: Option<TxnId>) -> StorageResult<()> {
        let pid = PageId(row.page);
        self.buffer
            .with_page_mut(self.table_id, pid, self.store.as_ref(), |p| {
                p.set_xmax(row.slot, xmax)
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
                if TupleRef::parse(p.read(row.slot)?)?.xmax() != expected {
                    return Ok(false);
                }
                p.set_xmax(row.slot, new).map(|()| true)
            })?
    }

    /// Walks the heap's pages, deciding each before pinning it, and calls
    /// `f` with every live tuple version of the pages it reads, each read in
    /// place on its pinned page, and with its page's label id — `Some` on a
    /// chain page, where every tuple carries it; `None` on the shared tail.
    /// `Ok(false)` from `f` stops the walk.
    ///
    /// `verdict` gets each page's [`PageSummary`], with its ranges on
    /// `columns`, and says whether to read the page (see [`Verdict`]).
    /// Summaries are copied under the layout lock and verdicts are asked
    /// after it is released. Pages come in walk order (the shared tail, then
    /// the chains in opening order; see the module docs) and slots in
    /// insertion order. This and [`TableHeap::walk_deciding`] are the heap's
    /// traversals — counts, index back-fill and vacuum's search go through
    /// this one, reading every page — and it allocates once, for its copy
    /// of the summaries, and nothing per page or per row. It neither builds
    /// nor reads a page's column view.
    pub fn walk<E: From<StorageError>>(
        &self,
        columns: &[usize],
        verdict: impl FnMut(&PageSummary<'_>) -> Result<Verdict, E>,
        mut f: impl FnMut(RowId, Option<LabelId>, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        self.walk_pages(columns, verdict, |pid, label, p, slots| {
            for slot in slots.filter(|s| !p.is_dead(*s)) {
                let tuple = TupleRef::parse(p.read(slot)?)?;
                if !f(RowId { page: pid.0, slot }, label, tuple)? {
                    return Ok(false);
                }
            }
            Ok(true)
        })
    }

    /// [`TableHeap::walk`] for a scan that filters slots: each live slot of
    /// a page it reads is first shown to `decide` as the page's column view
    /// has it ([`DecodedSlot`]: its label id, and its `Int`s at `columns`),
    /// and only a slot `decide` keeps is parsed and handed to `f`. The view
    /// is built, or completed with `columns`, before the page's first slot
    /// is decided (see [`crate::page`]); the columns this decodes are added
    /// to `decoded`. No slot is decided from its bytes.
    pub fn walk_deciding<E: From<StorageError>>(
        &self,
        columns: &[usize],
        verdict: impl FnMut(&PageSummary<'_>) -> Result<Verdict, E>,
        decoded: &AtomicU64,
        mut decide: impl FnMut(Option<LabelId>, DecodedSlot<'_>) -> Result<bool, E>,
        mut f: impl FnMut(RowId, Option<LabelId>, TupleRef<'_>) -> Result<bool, E>,
    ) -> Result<(), E> {
        self.walk_pages(columns, verdict, |pid, label, p, slots| {
            let (view, n) = p.view(columns)?;
            if n > 0 {
                decoded.fetch_add(n, Ordering::Relaxed);
            }
            for slot in slots.filter(|s| !p.is_dead(*s)) {
                let shown = DecodedSlot {
                    view,
                    columns,
                    slot,
                };
                if !decide(label, shown)? {
                    continue;
                }
                let tuple = TupleRef::parse(p.read(slot)?)?;
                if !f(RowId { page: pid.0, slot }, label, tuple)? {
                    return Ok(false);
                }
            }
            Ok(true)
        })
    }

    /// The page loop both walks share: takes each page's verdict and calls
    /// `read` with the pinned page, its id and label, and the range of slots
    /// the verdict lets it read; `Ok(false)` from `read` stops the walk.
    fn walk_pages<E: From<StorageError>>(
        &self,
        columns: &[usize],
        mut verdict: impl FnMut(&PageSummary<'_>) -> Result<Verdict, E>,
        mut read: impl FnMut(PageId, Option<LabelId>, &Page, Range<u16>) -> Result<bool, E>,
    ) -> Result<(), E> {
        let copied = self.layout.lock().walk_order(columns);
        for page in copied.chunks_exact(1 + columns.len()) {
            let Copied::Page { pid, label, slots } = page[0] else {
                unreachable!("a walk's copy starts each page with its id");
            };
            let mut first = 0;
            while first < slots {
                let summary = PageSummary {
                    page: pid.0,
                    label,
                    slots: slots - first,
                    ranges: &page[1..],
                };
                let end = match verdict(&summary)? {
                    Verdict::Skip | Verdict::ReadFirst(0) => break,
                    Verdict::Read => u16::MAX,
                    Verdict::ReadFirst(n) => first + n.min(slots - first),
                };
                let on_page = |p: &Page| read(pid, label, p, first..end.min(p.slot_count()));
                let store = self.store.as_ref();
                if !self
                    .buffer
                    .with_page(self.table_id, pid, store, on_page)??
                {
                    return Ok(());
                }
                first = end;
            }
        }
        Ok(())
    }

    /// Counts live (non-dead-slot) tuple versions.
    pub fn version_count(&self) -> StorageResult<usize> {
        let mut n = 0;
        self.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |_, _, _| {
                n += 1;
                Ok(true)
            },
        )?;
        Ok(n)
    }

    /// Physically removes versions for which `should_remove`, given each
    /// live version and its row id, returns `true` (the garbage-collector
    /// task of Section 7.1, which is exempt from the information-flow
    /// rules). Returns the number of removed versions.
    ///
    /// The search is a read-only walk; only pages that hold a victim are
    /// then written. What makes a version removable is permanent, so the
    /// verdict cannot go stale between the two steps.
    pub fn vacuum(
        &self,
        mut should_remove: impl FnMut(RowId, &TupleRef<'_>) -> bool,
    ) -> StorageResult<usize> {
        let mut victims: Vec<RowId> = Vec::new();
        self.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |row, _, t| {
                if should_remove(row, &t) {
                    victims.push(row);
                }
                Ok(true)
            },
        )?;
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
    use crate::tuple::encode;
    use crate::value::Datum;

    fn heap() -> TableHeap {
        TableHeap::new(1, Arc::new(MemPageStore::new()), BufferPool::new(64))
    }

    /// A version as the heap takes it: its label id and its bytes.
    #[derive(Clone)]
    struct Version {
        xmin: u64,
        label: LabelId,
        bytes: Vec<u8>,
    }

    fn version(xmin: u64, text: &str, label: LabelId) -> Version {
        let data = [Datum::Int(xmin as i64), Datum::Text(text.into())];
        Version {
            xmin,
            label,
            bytes: encode(TxnId(xmin), label, &data),
        }
    }

    /// Inserts `v` as the engine does: encoded once, where its label puts it.
    fn put(h: &TableHeap, v: &Version) -> (RowId, bool) {
        h.insert(v.label, &v.bytes).unwrap()
    }

    /// The `xmin`, `xmax`, label id and fields of the version at `row`.
    type Read = (TxnId, Option<TxnId>, LabelId, Vec<Datum>);

    fn fetch(h: &TableHeap, row: RowId) -> StorageResult<Option<Read>> {
        h.read(row, |t| Ok((t.xmin(), t.xmax(), t.label_id(), t.data()?)))
    }

    #[test]
    fn insert_fetch_round_trip() {
        let h = heap();
        let v = version(1, "alice", 42);
        let (row, _) = put(&h, &v);
        let data = vec![Datum::Int(1), Datum::Text("alice".into())];
        assert_eq!(fetch(&h, row).unwrap().unwrap(), (TxnId(1), None, 42, data));
    }

    #[test]
    fn spills_to_multiple_pages() {
        let h = heap();
        let big = "x".repeat(1000);
        for i in 0..50 {
            put(&h, &version(i, &big, 0));
        }
        assert!(h.page_count() > 1, "50 KB of tuples needs several pages");
        assert_eq!(h.version_count().unwrap(), 50);
    }

    #[test]
    fn set_xmax_is_persistent() {
        let h = heap();
        let (row, _) = put(&h, &version(1, "victim", 0));
        h.set_xmax(row, Some(TxnId(9))).unwrap();
        assert_eq!(fetch(&h, row).unwrap().unwrap().1, Some(TxnId(9)));
        h.set_xmax(row, None).unwrap();
        assert_eq!(fetch(&h, row).unwrap().unwrap().1, None);
    }

    #[test]
    fn compare_and_set_xmax_sets_only_over_the_expected_value() {
        let h = heap();
        let (row, _) = put(&h, &version(1, "contended", 0));
        assert!(h.compare_and_set_xmax(row, None, Some(TxnId(5))).unwrap());
        // A second claimant that read the slot before the first set it.
        assert!(!h.compare_and_set_xmax(row, None, Some(TxnId(6))).unwrap());
        assert_eq!(fetch(&h, row).unwrap().unwrap().1, Some(TxnId(5)));
        // Over the value it saw, it wins.
        assert!(h
            .compare_and_set_xmax(row, Some(TxnId(5)), Some(TxnId(6)))
            .unwrap());
        assert_eq!(fetch(&h, row).unwrap().unwrap().1, Some(TxnId(6)));
    }

    #[test]
    fn scan_visits_all_and_stops_early() {
        let h = heap();
        for i in 0..10 {
            put(&h, &version(i, "row", 0));
        }
        let mut seen = 0;
        h.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |_, _, _| {
                seen += 1;
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(seen, 10);

        let mut early = 0;
        h.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |_, _, _| {
                early += 1;
                Ok(early < 3)
            },
        )
        .unwrap();
        assert_eq!(early, 3);
    }

    #[test]
    fn vacuum_removes_matching_versions() {
        let h = heap();
        for i in 0..6 {
            put(&h, &version(i, "row", 0));
        }
        let removed = h.vacuum(|_, t| t.xmin().0 % 2 == 0).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(h.version_count().unwrap(), 3);
    }

    #[test]
    fn fetch_of_unknown_row_errors() {
        let h = heap();
        let (row, _) = put(&h, &version(1, "only", 0));
        let missing = RowId {
            page: row.page,
            slot: row.slot + 5,
        };
        assert!(fetch(&h, missing).is_err());
    }

    /// Pages a single append-only list takes for `versions`: every row to
    /// the last page, a fresh page when it is full.
    fn appended_pages(versions: &[Version]) -> usize {
        let mut pages = 0;
        let mut last = Page::new();
        for v in versions {
            if pages == 0 || !last.fits(v.bytes.len()) {
                pages += 1;
                last = Page::new();
            }
            last.insert(&v.bytes).unwrap();
        }
        pages
    }

    /// Inserts `versions` into a fresh heap; returns it and each row's id.
    fn heap_of(versions: &[Version]) -> (TableHeap, Vec<RowId>) {
        let h = heap();
        let rows = versions.iter().map(|v| put(&h, v).0).collect();
        (h, rows)
    }

    /// `labels` labels × `per_label` rows, inserted round-robin.
    fn interleaved(labels: u64, per_label: u64) -> Vec<Version> {
        (0..labels * per_label)
            .map(|i| version(i, "row", (i % labels) as LabelId))
            .collect()
    }

    /// The walk's rows as (xmin, page label), checking that every row on a
    /// chain page carries the page's label.
    fn walked(h: &TableHeap) -> Vec<(u64, Option<LabelId>)> {
        let mut out = Vec::new();
        h.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |_, label, t| {
                if let Some(label) = label {
                    assert_eq!(t.label_id(), label);
                }
                out.push((t.xmin().0, label));
                Ok(true)
            },
        )
        .unwrap();
        out
    }

    #[test]
    fn one_label_takes_the_pages_an_append_only_list_would() {
        let rows: Vec<Version> = (0..2_000).map(|i| version(i, "row", 7)).collect();
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
                put(&h, &version(round * 10_000 + i, "row", (i % 16) as LabelId));
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
        let low: Vec<Version> = (0..3_000)
            .map(|i| version(i, "low", (i % 4) as LabelId))
            .collect();
        let mut mixed = Vec::new();
        for (i, v) in low.iter().enumerate() {
            mixed.push(v.clone());
            for k in 0..(i % 3) as u64 {
                let high = 100 + (i as u64 + k) % 3;
                mixed.push(version(
                    1_000_000 + i as u64,
                    "some longer high row",
                    high as LabelId,
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
        let removed = h.vacuum(|_, t| t.xmin().0 % 5 == 0).unwrap();
        assert_eq!(removed, rows.len() / 5);
        let expected: Vec<_> = before.into_iter().filter(|(x, _)| x % 5 != 0).collect();
        assert_eq!(walked(&h), expected);
    }

    #[test]
    fn placing_rows_at_their_ids_in_any_order_rebuilds_the_layout() {
        let rows = interleaved(3, 700);
        let h = heap();
        let placed: Vec<(RowId, bool)> = rows.iter().map(|v| put(&h, v)).collect();
        assert!(placed.iter().any(|(_, chain)| *chain));
        // Redo backwards, so chains and pages arrive last first, and leave
        // out every seventh row, as if its insert never reached the log.
        let redo = heap();
        for (v, (row, chain)) in rows.iter().zip(&placed).rev() {
            if v.xmin % 7 != 3 {
                redo.place(*row, *chain, v.label, &v.bytes).unwrap();
            }
        }
        let by_id = |h: &TableHeap| {
            let mut out = Vec::new();
            h.walk::<StorageError>(
                &[],
                |_| Ok(Verdict::Read),
                |row, label, t| {
                    out.push((row, label, t.xmin().0));
                    Ok(true)
                },
            )
            .unwrap();
            out
        };
        let mut expected = by_id(&h);
        expected.retain(|(_, _, xmin)| xmin % 7 != 3);
        assert_eq!(by_id(&redo), expected);
        assert_eq!(redo.page_count(), h.page_count());
        // Redo widens the summaries from the rows it places, which the
        // writer's cover: column 0 is each row's xmin, and a page whose last
        // rows never reached the log has fewer slots.
        let (written, redone) = (summaries(&h, &[0, 1]), summaries(&redo, &[0, 1]));
        assert_eq!(written.len(), redone.len());
        for (w, r) in written.iter().zip(&redone) {
            assert_eq!((w.0, w.1), (r.0, r.1));
            assert!(r.2 <= w.2);
            assert!(w.3[0].lo <= r.3[0].lo && r.3[0].hi <= w.3[0].hi);
            assert_eq!((w.3[1], r.3[1]), (IntRange::ALL, IntRange::ALL));
        }
        let (row, chain) = placed[5];
        assert!(
            redo.place(row, chain, rows[5].label, &rows[5].bytes)
                .is_err(),
            "a slot is filled once"
        );
    }

    /// Each page's summary as a walk shows it, with its ranges on
    /// `columns`, reading no page.
    fn summaries(
        h: &TableHeap,
        columns: &[usize],
    ) -> Vec<(u32, Option<LabelId>, u16, Vec<IntRange>)> {
        let mut out = Vec::new();
        h.walk::<StorageError>(
            columns,
            |p| {
                out.push((p.page, p.label, p.slots, p.ranges().collect()));
                Ok(Verdict::Skip)
            },
            |_, _, _| panic!("every page was skipped"),
        )
        .unwrap();
        out
    }

    fn row_of(xmin: u64, values: Vec<Datum>) -> Vec<u8> {
        encode(TxnId(xmin), 0, &values)
    }

    #[test]
    fn a_summary_bounds_a_column_only_while_it_holds_ints() {
        let h = heap();
        let range = |lo, hi| IntRange { lo, hi };
        // Column 0 holds Ints, column 1 a Null once, column 2 Text once, and
        // column 3 a Float once.
        for i in 0..20i64 {
            let second = if i == 7 { Datum::Null } else { Datum::Int(-i) };
            let third = if i == 3 {
                Datum::Text("x".into())
            } else {
                Datum::Int(i)
            };
            let fourth = if i == 19 {
                Datum::Float(1.0)
            } else {
                Datum::Int(5)
            };
            h.insert(
                0,
                &row_of(
                    i as u64 + 1,
                    vec![Datum::Int(10 + i), second, third, fourth],
                ),
            )
            .unwrap();
        }
        let expected = vec![(
            0,
            None,
            20,
            vec![range(10, 29), IntRange::ALL, IntRange::ALL, IntRange::ALL],
        )];
        assert_eq!(summaries(&h, &[0, 1, 2, 3]), expected);
        // A column past the tuple's last is unbounded, and the walk's
        // columns come in the order it was given them.
        assert_eq!(
            summaries(&h, &[9, 0])[0].3,
            vec![IntRange::ALL, range(10, 29)]
        );

        // Deletes and vacuum never narrow a summary: it still covers the
        // rows the page held.
        let mut rows = Vec::new();
        h.walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |row, _, t| {
                if t.field(0)? == Datum::Int(29) || t.field(0)? == Datum::Int(10) {
                    rows.push(row);
                }
                Ok(true)
            },
        )
        .unwrap();
        h.set_xmax(rows[0], Some(TxnId(99))).unwrap();
        assert_eq!(
            h.vacuum(|_, t| t.xmax().is_some() || t.xmin() == TxnId(20))
                .unwrap(),
            2
        );
        assert_eq!(summaries(&h, &[0, 1, 2, 3]), expected);
    }

    #[test]
    fn a_verdict_skips_a_page_or_reads_its_first_slots_and_is_asked_again() {
        let rows = interleaved(2, 400);
        let (h, _) = heap_of(&rows);
        let pages = summaries(&h, &[]);
        assert!(pages.len() >= 3);
        // Skip the first page, read 5 slots of the second and then skip the
        // rest of it, read the rest whole.
        let mut asked = Vec::new();
        let mut read = Vec::new();
        h.walk::<StorageError>(
            &[],
            |p| {
                asked.push((p.page, p.slots));
                Ok(match asked.len() {
                    1 => Verdict::Skip,
                    2 => Verdict::ReadFirst(5),
                    3 => Verdict::ReadFirst(0),
                    _ => Verdict::Read,
                })
            },
            |row, _, _| {
                read.push(row);
                Ok(true)
            },
        )
        .unwrap();
        let (second, second_slots) = (pages[1].0, pages[1].2);
        assert_eq!(asked[1], (second, second_slots));
        assert_eq!(asked[2], (second, second_slots - 5));
        assert_eq!(asked.len(), pages.len() + 1);
        let on = |page: u32| read.iter().filter(|r| r.page == page).count();
        assert_eq!(on(pages[0].0), 0);
        assert_eq!(on(second), 5);
        assert!(read.iter().filter(|r| r.page == second).all(|r| r.slot < 5));
        let rest: usize = pages[2..].iter().map(|p| p.2 as usize).sum();
        assert_eq!(read.len(), 5 + rest);

        // Read slot by slot, every slot is asked about once.
        let mut asked = 0;
        let mut read = 0;
        h.walk::<StorageError>(
            &[],
            |_| {
                asked += 1;
                Ok(Verdict::ReadFirst(1))
            },
            |_, _, _| {
                read += 1;
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!((asked, read), (rows.len(), rows.len()));
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
            rows.push(put(&h, &version(i, &big, 1)).0);
        }
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(fetch(&h, *row).unwrap().unwrap().0, TxnId(i as u64));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
