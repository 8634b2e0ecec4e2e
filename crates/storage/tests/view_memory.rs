//! Memory guard for the pages' column views.
//!
//! A page's column view is a second copy of some of its bytes, kept while
//! the page is resident, so it must stay small: 8 bytes and one bit per
//! slot for each column a scan bounds, and one label id for a page whose
//! slots share their label, as every chain page's do. Resident memory is
//! noisy on a shared host, but the bytes a structure holds can be counted
//! exactly: this builds views of full pages and counts what they hold, and
//! the most the build held on the way.
//!
//! The counter is per thread (the test harness runs tests on parallel
//! threads), and this file is its own test binary so the counting allocator
//! is nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ifdb_storage::tuple::encode;
use ifdb_storage::{Datum, LabelId, Page, TxnId};

struct Counting;

thread_local! {
    /// Bytes this thread holds: requested minus returned.
    static HELD: Cell<isize> = const { Cell::new(0) };
    /// The most `HELD` has been since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn hold(bytes: isize) {
    let _ = HELD.try_with(|h| {
        h.set(h.get() + bytes);
        let _ = PEAK.try_with(|p| p.set(p.get().max(h.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a counter in a const-initialised, destructor-free
// thread-local, which neither allocates nor can be observed half-built.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hold(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hold(new_size as isize - layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes per slot that decoding `columns` into `page`'s view leaves held.
fn view_bytes_per_slot(page: &Page, columns: &[usize]) -> f64 {
    let before = HELD.with(Cell::get);
    page.view(columns).unwrap();
    let held = HELD.with(Cell::get) - before;
    held as f64 / f64::from(page.slot_count())
}

/// A full page of the read workloads' `data` rows — `(id, grp, val)`, all
/// `Int`s — whose label is `label(i)` for the `i`th row.
fn data_page(label: impl Fn(i64) -> LabelId) -> Page {
    let mut page = Page::new();
    for i in 0.. {
        let row = [Datum::Int(i), Datum::Int(i % 16), Datum::Int(i * 7_919)];
        let bytes = encode(TxnId(1), label(i), &row);
        if !page.fits(bytes.len()) {
            break;
        }
        page.insert(&bytes).unwrap();
    }
    page
}

#[test]
fn a_chain_pages_view_of_one_bounded_column_takes_at_most_ten_bytes_a_slot() {
    let page = data_page(|_| 3);
    assert!(page.slot_count() > 150, "{} slots", page.slot_count());
    let one = view_bytes_per_slot(&page, &[2]);
    assert!(one <= 10.0, "{one:.2} B a slot for one bounded column");
    // Another column costs its 8 bytes and a bit a slot, and a repeated
    // request nothing.
    let two = view_bytes_per_slot(&page, &[1]);
    assert!(two <= 8.5, "{two:.2} B a slot for a second column");
    assert_eq!(view_bytes_per_slot(&page, &[1, 2]), 0.0);
}

/// Bytes above what the thread held before that building `page`'s view
/// with `columns` left held, and the most it held on the way.
fn build_held_and_peak(page: &Page, columns: &[usize]) -> (isize, isize) {
    let before = HELD.with(Cell::get);
    PEAK.with(|p| p.set(before));
    page.view(columns).unwrap();
    (HELD.with(Cell::get) - before, PEAK.with(Cell::get) - before)
}

#[test]
fn building_a_chain_pages_view_holds_nothing_per_slot_it_does_not_keep() {
    // A page whose slots share their label never takes a label id per
    // slot, not even while its view is being built: the build's high-water
    // mark is what the view keeps plus a constant, with no column bounded
    // (a scan that decides labels alone) and with one.
    for columns in [&[][..], &[2]] {
        let page = data_page(|_| 3);
        let (held, peak) = build_held_and_peak(&page, columns);
        assert!(held > 0);
        assert!(
            peak - held <= 128,
            "{} transient bytes for {} slots, columns {columns:?}",
            peak - held,
            page.slot_count()
        );
    }
}

#[test]
fn a_shared_pages_view_adds_one_label_id_a_slot() {
    // Sixteen labels round-robin, as on the read workloads' shared tail,
    // with ids past 127.
    let page = data_page(|i| 120 + (i % 16) as LabelId);
    let one = view_bytes_per_slot(&page, &[2]);
    assert!(one <= 14.0, "{one:.2} B a slot for one bounded column");
}
