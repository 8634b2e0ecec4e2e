//! `scan_hot`: a 10k-row filtered scan through a declassifying view over a
//! table with 4 distinct labels — the paper's flagship Query-by-Label path.
//!
//! Compares the retained seed executor (per-tuple declassify-cover and
//! Information Flow Rule decisions under the authority lock, materializing
//! scans, per-row name resolution) against the streaming pipeline (bound
//! plan, per-scan label-decision memo, lock released before the scan), and
//! times the indexed-range access path the seed planner did not have.

use criterion::{criterion_group, criterion_main, Criterion};
use ifdb::prelude::*;
use ifdb::{TableDef, ViewSource};

/// Builds the `scan_hot` database: `rows` tuples spread over
/// `distinct_labels` single-tag labels (each tag a member of one compound),
/// plus the declassifying view `AllData` that strips the compound. Returns
/// the database and the filtered scan through the view.
fn scan_hot_db(rows: i64, distinct_labels: usize) -> (Database, Select) {
    let db = Database::new(ifdb::DatabaseConfig::in_memory().with_seed(2));
    let service = db.create_principal("service", PrincipalKind::Service);
    let owner = db.create_principal("owner", PrincipalKind::User);
    let all_data = db.create_compound_tag(service, "all_data", &[]).unwrap();
    let tags: Vec<TagId> = (0..distinct_labels)
        .map(|i| {
            db.create_tag(owner, &format!("group{i}"), &[all_data])
                .unwrap()
        })
        .collect();
    db.create_table(
        TableDef::new("data")
            .column("id", DataType::Int)
            .column("grp", DataType::Int)
            .column("val", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    for (g, tag) in tags.iter().enumerate() {
        let mut s = db.session(owner);
        s.add_secrecy(*tag).unwrap();
        s.begin().unwrap();
        let mut i = g as i64;
        while i < rows {
            s.insert(&Insert::new(
                "data",
                vec![Datum::Int(i), Datum::Int(g as i64), Datum::Int(i)],
            ))
            .unwrap();
            i += distinct_labels as i64;
        }
        s.commit().unwrap();
    }
    db.create_declassifying_view(
        service,
        "AllData",
        ViewSource::Select(Select::star("data")),
        Label::singleton(all_data),
    )
    .unwrap();
    let query = Select::star("AllData").filter(Predicate::Ge("val".into(), Datum::Int(rows / 2)));
    (db, query)
}

fn bench_scan_hot(c: &mut Criterion) {
    let rows = 10_000;
    let (db, query) = scan_hot_db(rows, 4);
    let expect = (rows - rows / 2) as usize;

    let mut group = c.benchmark_group("scan_hot");
    group.sample_size(10);

    group.bench_function("seed_executor", |b| {
        let mut s = db.anonymous_session();
        b.iter(|| {
            let r = s.select_reference(&query).unwrap();
            assert_eq!(r.len(), expect);
        })
    });
    group.bench_function("streaming_memoized", |b| {
        let mut s = db.anonymous_session();
        b.iter(|| {
            let r = s.select(&query).unwrap();
            assert_eq!(r.len(), expect);
        })
    });

    // The indexed range path: assert once that it really avoids the heap,
    // then time it.
    let range_query = Select::star("AllData").filter(
        Predicate::Ge("id".into(), Datum::Int(4_000))
            .and(Predicate::Lt("id".into(), Datum::Int(4_100))),
    );
    {
        let mut s = db.anonymous_session();
        let before = db.engine().stats();
        assert_eq!(s.select(&range_query).unwrap().len(), 100);
        let after = db.engine().stats();
        assert_eq!(
            after.full_table_scans, before.full_table_scans,
            "range query must not scan the heap"
        );
        assert!(after.index_range_scans > before.index_range_scans);
    }
    group.bench_function("indexed_range_100_of_10k", |b| {
        let mut s = db.anonymous_session();
        b.iter(|| {
            let r = s.select(&range_query).unwrap();
            assert_eq!(r.len(), 100);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scan_hot);
criterion_main!(benches);
