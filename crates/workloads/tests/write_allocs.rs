//! Allocation guard for the write path.
//!
//! An insert checks each key of its table with one probe of the key's own
//! index, bound when the table was created: nothing about the check is
//! resolved, planned or named per row, so what one insert allocates does
//! not grow with the width of its key, and a bulk load allocates a fixed
//! number of times per loaded row. Timing cannot pin that on a noisy host;
//! counting allocations can, exactly.
//!
//! The counter is per thread (the test harness runs tests on parallel
//! threads, and an on-disk database flushes from threads of its own), and
//! this file is its own test binary so the counting allocator is nobody
//! else's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ifdb::prelude::*;
use ifdb_workloads::{TpccConfig, TpccDatabase};

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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Rows inserted, after a warm-up, into each table whose inserts are
/// counted.
const INSERTS: i64 = 200;

/// Allocations per insert into a table of five `Int` columns keyed by its
/// first `key_width`, under a one-tag label, in one open transaction.
fn allocations_per_insert(key_width: usize) -> f64 {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tag = db.create_tag(user, "t", &[]).unwrap();
    let columns = ["a", "b", "c", "d", "v"];
    let def = columns
        .iter()
        .fold(TableDef::new("t"), |def, c| def.column(c, DataType::Int))
        .primary_key(&columns[..key_width]);
    db.create_table(def).unwrap();
    let mut s = db.session(user);
    s.add_secrecy(tag).unwrap();
    s.begin().unwrap();
    let rows: Vec<Insert> = (0..2 * INSERTS)
        .map(|i| Insert::new("t", (0..5).map(|c| Datum::Int(i * 10 + c)).collect()))
        .collect();
    let (warm_up, counted) = rows.split_at(INSERTS as usize);
    for row in warm_up {
        s.insert(row).unwrap();
    }
    let before = allocations();
    for row in counted {
        s.insert(row).unwrap();
    }
    let per_insert = (allocations() - before) as f64 / INSERTS as f64;
    s.commit().unwrap();
    per_insert
}

#[test]
fn an_insert_allocates_the_same_whatever_the_width_of_its_key() {
    let narrow = allocations_per_insert(1);
    let wide = allocations_per_insert(4);
    println!("allocations per insert: key of 1 column {narrow:.2}, of 4 columns {wide:.2}");
    assert!(
        wide - narrow <= 0.5,
        "a 4-column key costs {wide:.2} allocations per insert, a 1-column key {narrow:.2}"
    );
    assert!(narrow <= 14.0, "{narrow:.2} allocations per insert");
}

#[test]
fn a_tpcc_load_allocates_a_fixed_number_of_times_per_row() {
    // One warehouse at the benchmark's per-warehouse scale, on disk with a
    // buffer pool smaller than the loaded heap, as the benchmark loads it.
    let config = TpccConfig {
        warehouses: 1,
        districts_per_warehouse: 10,
        customers_per_district: 300,
        items: 2_000,
        initial_orders_per_district: 100,
        tags_per_label: 2,
        seed: 21,
    };
    let dir = std::env::temp_dir().join(format!("ifdb-write-allocs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::new(
        DatabaseConfig::on_disk(dir.clone(), 160).with_durability(DurabilityConfig::GROUP_COMMIT),
    );
    let before = allocations();
    let tpcc = TpccDatabase::load(db, config).unwrap();
    let allocated = allocations() - before;
    let rows = tpcc.db.engine().stats().tuples_inserted;
    drop(tpcc);
    std::fs::remove_dir_all(&dir).ok();
    let per_row = allocated as f64 / rows as f64;
    println!("{allocated} allocations to load {rows} rows: {per_row:.1} per row");
    assert!(rows > 15_000, "{rows} rows loaded");
    assert!(per_row <= 20.0, "{per_row:.1} allocations per loaded row");
}
