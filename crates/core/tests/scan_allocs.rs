//! Allocation guard for the scan path.
//!
//! A scan reads each tuple where it lies in its page and builds a row only
//! for what it returns, so the allocations of a statement grow with the pages
//! it walks and the rows it returns — not with the rows it examines. Timing
//! cannot pin that on a noisy host; counting allocations can, exactly.
//!
//! The counter is per thread (the test harness runs tests on parallel
//! threads), and this file is its own test binary so the counting allocator
//! is nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ifdb::prelude::*;
use ifdb_storage::{DataType, Datum};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a counter in a const-initialised, destructor-free
// thread-local, which neither allocates nor can be observed half-built.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: i64 = 10_000;

/// `ROWS` rows of `T(id, n, note)`, all under the one tag returned, with no
/// index on `n`: a predicate on `n` walks the heap.
fn secret_table() -> (Database, PrincipalId, TagId) {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tag = db.create_tag(user, "secret", &[]).unwrap();
    db.create_table(
        TableDef::new("T")
            .column("id", DataType::Int)
            .column("n", DataType::Int)
            .column("note", DataType::Text)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut writer = db.session(user);
    writer.add_secrecy(tag).unwrap();
    writer.begin().unwrap();
    for i in 0..ROWS {
        let note = Datum::Text(format!("note {i}"));
        writer
            .insert(&Insert::new("T", vec![Datum::Int(i), Datum::Int(i), note]))
            .unwrap();
    }
    writer.commit().unwrap();
    (db, user, tag)
}

/// Allocations one `select` performs on this thread, and the rows it returns.
fn allocations_of(s: &mut Session, q: &Select) -> (u64, usize) {
    // Once unmeasured: the first statement of a session sets up state the
    // later ones reuse.
    s.select(q).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let rows = s.select(q).unwrap().len();
    (ALLOCATIONS.with(Cell::get) - before, rows)
}

fn n_below(k: i64) -> Select {
    Select::star("T").filter(Predicate::Lt("n".into(), Datum::Int(k)))
}

#[test]
fn a_scan_denied_every_row_allocates_per_page_not_per_row() {
    let (db, user, _) = secret_table();
    let mut blind = db.session(user);
    let (allocations, rows) = allocations_of(&mut blind, &Select::star("T"));
    assert_eq!(rows, 0);
    assert!(
        allocations < ROWS as u64 / 20,
        "{allocations} allocations to examine {ROWS} unreadable rows"
    );
}

#[test]
fn a_scan_whose_filter_rejects_every_row_allocates_per_page_not_per_row() {
    let (db, user, tag) = secret_table();
    let mut reader = db.session(user);
    reader.add_secrecy(tag).unwrap();
    let (allocations, rows) = allocations_of(&mut reader, &n_below(0));
    assert_eq!(rows, 0);
    assert!(
        allocations < ROWS as u64 / 20,
        "{allocations} allocations to filter out {ROWS} readable rows"
    );
}

#[test]
fn a_scan_allocates_for_the_rows_it_returns() {
    let (db, user, tag) = secret_table();
    let mut reader = db.session(user);
    reader.add_secrecy(tag).unwrap();
    let (none, _) = allocations_of(&mut reader, &n_below(0));
    let (some, rows) = allocations_of(&mut reader, &n_below(1_000));
    assert_eq!(rows, 1_000);
    // A returned row is a vector of values, its text, a label, and its share
    // of the result vectors' growth.
    assert!(
        some - none <= 6 * 1_000,
        "{} allocations for 1000 rows returned",
        some - none
    );
    assert!(some - none >= 1_000, "rows are built somewhere");
}
