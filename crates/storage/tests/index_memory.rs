//! Memory guard for index entries.
//!
//! An index used to key its map by the datums themselves and keep each
//! key's rows in a vector of their own. It now keys the map by the datums'
//! order-preserving bytes and keeps a key's one row inline. Resident memory
//! is noisy on a shared host, but the bytes a structure holds can be counted
//! exactly: this builds both over the same keys and compares them.
//!
//! The counter is per thread (the test harness runs tests on parallel
//! threads), and this file is its own test binary so the counting allocator
//! is nobody else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use ifdb_storage::{encode_key, Datum, OrderedIndex, RowId};

struct Counting;

thread_local! {
    /// Bytes this thread holds: requested minus returned.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn hold(bytes: isize) {
    let _ = HELD.try_with(|h| h.set(h.get() + bytes));
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

/// Bytes `build` leaves held on this thread, and what it built.
fn held_by<T>(build: impl FnOnce() -> T) -> (isize, T) {
    let before = HELD.with(Cell::get);
    let built = build();
    (HELD.with(Cell::get) - before, built)
}

#[test]
fn an_index_entry_holds_under_half_the_bytes_of_a_datum_keyed_one() {
    // Keys shaped like TPC-C's `order_line` primary key (warehouse,
    // district, order, line), one row each, in key order as a load inserts
    // them.
    let mut keys: Vec<Vec<Datum>> = Vec::new();
    for w in 1..=4 {
        for d in 1..=10 {
            for o in 1..=100 {
                for l in 1..=10 {
                    keys.push([w, d, o, l].map(Datum::Int).to_vec());
                }
            }
        }
    }
    let row = |i: usize| RowId {
        page: (i / 64) as u32,
        slot: (i % 64) as u16,
    };
    let (before, map) = held_by(|| {
        // The map the index used to be, filled as it was.
        let mut map: BTreeMap<Vec<Datum>, Vec<RowId>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            map.entry(key.clone()).or_default().push(row(i));
        }
        map
    });
    let (after, index) = held_by(|| {
        let index = OrderedIndex::new();
        for (i, key) in keys.iter().enumerate() {
            index.insert(&encode_key(key), row(i));
        }
        index
    });
    assert_eq!(map.len(), keys.len());
    assert_eq!(index.entry_count(), keys.len());
    let per_entry = |bytes: isize| bytes / keys.len() as isize;
    let report = format!(
        "{} bytes per entry, against {} before",
        per_entry(after),
        per_entry(before)
    );
    println!("{report}");
    assert!(2 * after <= before, "{report}");
}
