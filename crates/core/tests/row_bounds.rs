//! Rows rejected from their bytes, against the reference executor.
//!
//! A full scan tests the `Int` bounds its filter places on columns against
//! each row its label admits, reading the `Int`s straight from the tuple
//! bytes, and drops a row whose `Int` lies outside them before decoding any
//! field. The test may only reject: a field that is not an `Int` passes it,
//! and a row inside every bound still meets the whole filter. The reference
//! executor (`select_reference`) decodes and tests every row. So every
//! query must return the same rows, in the same order and with the same
//! labels, from both — directly, through a declassifying view and through a
//! join, live, on a log-shipping replica, after vacuum, and after a
//! checkpoint and recovery.
//!
//! Unlike `page_summaries.rs`, the values here are spread over every page,
//! so a page's range on a bounded column covers nearly the whole domain and
//! no page is left unread on its range: the byte-level test decides rows.
//! The bounded columns hold what `Int` bounds cannot rule out: Nulls in a
//! nullable `Int` column (which `<` matches), and `Float`s and `Text`s
//! compared with `Int` literals, some between two strict bounds with no
//! `Int` between them. Rows are updated, deleted, inserted by a writer that
//! aborts and deleted by one that aborts, and one reader's snapshot
//! predates a delete.

use std::path::{Path, PathBuf};

use ifdb::prelude::*;
use ifdb_storage::{ReplicaApplier, StorageEngine};

const SEED: u64 = 0xB0_0D;
/// Labels the rows are spread over: 0 is empty, the others one tag or two.
const LABELS: usize = 5;
/// Rows each label's loader inserts: enough to fill the shared tail's page
/// and several of the label's own.
const PER_LABEL: i64 = 450;

fn tables() -> [TableDef; 2] {
    [
        TableDef::new("T")
            .column("id", DataType::Int)
            .column("grp", DataType::Int)
            .nullable_column("n", DataType::Int)
            .nullable_column("v", DataType::Float)
            .column("note", DataType::Text)
            .primary_key(&["id"]),
        TableDef::new("G")
            .column("gid", DataType::Int)
            .column("gname", DataType::Text)
            .primary_key(&["gid"]),
    ]
}

/// The principals, tags and views of one database. Authority state is
/// code: every database, recovered or replica, creates it again in the same
/// order under the same seed.
struct Authority {
    owner: PrincipalId,
    labels: Vec<Label>,
    /// Reader labels, from none of the tags to all of them.
    readers: Vec<Label>,
}

impl Authority {
    fn create(db: &Database) -> Authority {
        let service = db.create_principal("service", PrincipalKind::Service);
        let owner = db.create_principal("owner", PrincipalKind::User);
        let all = db.create_compound_tag(service, "all", &[]).unwrap();
        let [a, b, c] = ["a", "b", "c"].map(|name| db.create_tag(owner, name, &[all]).unwrap());
        let label = |tags: &[TagId]| Label::from_tags(tags.iter().copied());
        db.create_declassifying_view(
            service,
            "AllT",
            ViewSource::Select(Select::star("T")),
            Label::singleton(all),
        )
        .unwrap();
        db.create_view(
            "TG",
            ViewSource::Join(Join::inner("T", "G", ("grp", "gid"))),
        )
        .unwrap();
        Authority {
            owner,
            labels: vec![
                label(&[]),
                label(&[a]),
                label(&[b]),
                label(&[a, b]),
                label(&[c]),
            ],
            readers: vec![label(&[]), label(&[a, b]), label(&[a, b, c])],
        }
    }

    fn session(&self, db: &Database, label: &Label) -> Session {
        let mut s = db.session(self.owner);
        s.raise_label(label).unwrap();
        s
    }
}

/// The position of label `k`'s `i`th row in the whole load.
fn at(k: usize, i: i64) -> i64 {
    i * LABELS as i64 + k as i64
}

/// The `n` of label `k`'s `i`th row: a scatter of -1 000 to 999 over the
/// whole load, so every page holds values from all over it; a Null in
/// every 23rd row.
fn n_of(k: usize, i: i64) -> Datum {
    let g = at(k, i);
    if g % 23 == 7 {
        Datum::Null
    } else {
        Datum::Int(g * 7_919 % 2_000 - 1_000)
    }
}

/// The `v` of label `k`'s `i`th row: a Float from 0.00 to 9.99, spread the
/// same way; a Null in every 11th row.
fn v_of(k: usize, i: i64) -> Datum {
    let g = at(k, i);
    if g % 11 == 0 {
        Datum::Null
    } else {
        Datum::Float((g * 613 % 1_000) as f64 / 100.0)
    }
}

fn row(k: usize, i: i64) -> Vec<Datum> {
    let id = k as i64 * 100_000 + i;
    let note = Datum::Text(format!("{k}-{}", i % 13));
    vec![
        Datum::Int(id),
        Datum::Int(k as i64),
        n_of(k, i),
        v_of(k, i),
        note,
    ]
}

fn by_n(p: fn(String, Datum) -> Predicate, v: i64) -> Predicate {
    p("n".into(), Datum::Int(v))
}

fn by_v(p: fn(String, Datum) -> Predicate, v: i64) -> Predicate {
    p("v".into(), Datum::Int(v))
}

/// The history. Returns a reader, under every tag, whose snapshot predates
/// the last step: a committed delete of label 4's largest `n`s.
fn run(db: &Database, auth: &Authority) -> Session {
    let mut g = db.session(auth.owner);
    for gid in 0..LABELS as i64 {
        let values = vec![Datum::Int(gid), Datum::Text(format!("group {gid}"))];
        g.insert(&Insert::new("G", values)).unwrap();
    }
    // One open loader per label, inserting round-robin, so every label's
    // rows share the tail's page until they fill it and then fill pages of
    // their own.
    let mut loaders: Vec<Session> = auth
        .labels
        .iter()
        .map(|l| {
            let mut s = auth.session(db, l);
            s.begin().unwrap();
            s
        })
        .collect();
    for i in 0..PER_LABEL {
        for (k, s) in loaders.iter_mut().enumerate() {
            s.insert(&Insert::new("T", row(k, i))).unwrap();
        }
    }
    for mut s in loaders {
        s.commit().unwrap();
    }
    let grp = |k: i64| Predicate::Eq("grp".into(), Datum::Int(k));
    // Committed updates move label 1's `n`s below -900 to 5, which
    // `n >= 3 AND n != 5` must still refuse; their old versions stay on
    // the pages, superseded.
    let mut one = auth.session(db, &auth.labels[1]);
    let moved = grp(1).and(by_n(Predicate::Lt, -900));
    let set = vec![("n", Datum::Int(5))];
    assert!(one.update(&Update::new("T", moved, set)).unwrap() > 5);
    // Committed deletes of a stretch of label 3.
    let mut three = auth.session(db, &auth.labels[3]);
    let stretch = grp(3)
        .and(by_n(Predicate::Ge, 100))
        .and(by_n(Predicate::Lt, 300));
    assert!(three.delete(&Delete::new("T", stretch)).unwrap() > 10);
    // An aborted insert with values inside the bounds below.
    one.begin().unwrap();
    let mut stray = row(1, 9_999);
    stray[2] = Datum::Int(10);
    stray[3] = Datum::Float(4.5);
    one.insert(&Insert::new("T", stray)).unwrap();
    one.abort().unwrap();
    // An aborted delete of label 0's small values: the rows stay.
    let mut zero = auth.session(db, &auth.labels[0]);
    zero.begin().unwrap();
    assert!(
        zero.delete(&Delete::new("T", by_n(Predicate::Lt, 0)))
            .unwrap()
            > 10
    );
    zero.abort().unwrap();
    // A reader fixes its snapshot, then label 4's largest values go.
    let mut early = auth.session(db, auth.readers.last().unwrap());
    early.begin().unwrap();
    early.select(&Select::star("G")).unwrap();
    let mut four = auth.session(db, &auth.labels[4]);
    let top = grp(4).and(by_n(Predicate::Ge, 900));
    assert!(four.delete(&Delete::new("T", top)).unwrap() > 5);
    early
}

/// Every filter, on the table, through the declassifying view and through
/// the join.
fn queries() -> Vec<Select> {
    let int = Datum::Int;
    let grp = |k: i64| Predicate::Eq("grp".into(), int(k));
    let filters = vec![
        // Equality, one- and two-sided ranges on the nullable `Int`.
        by_n(Predicate::Eq, 37),
        by_n(Predicate::Eq, 5),
        by_n(Predicate::Lt, -800),
        by_n(Predicate::Le, -990),
        by_n(Predicate::Gt, 950),
        by_n(Predicate::Ge, 990),
        by_n(Predicate::Ge, -20).and(by_n(Predicate::Le, 20)),
        by_n(Predicate::Gt, 100).and(by_n(Predicate::Lt, 140)),
        // Strict bounds at the `i64` edges saturate, which only widens them.
        by_n(Predicate::Lt, i64::MIN),
        by_n(Predicate::Le, i64::MIN),
        by_n(Predicate::Gt, i64::MIN),
        by_n(Predicate::Lt, i64::MAX),
        by_n(Predicate::Gt, i64::MAX),
        by_n(Predicate::Ge, i64::MAX),
        // The empty interval `[5, 4]`: no `Int` matches, a Null or a Float
        // between the bounds may.
        by_n(Predicate::Gt, 4).and(by_n(Predicate::Lt, 5)),
        by_v(Predicate::Gt, 4).and(by_v(Predicate::Lt, 5)),
        by_v(Predicate::Gt, 0).and(by_v(Predicate::Lt, 1)),
        by_v(Predicate::Ge, 2).and(by_v(Predicate::Lt, 3)),
        by_v(Predicate::Eq, 3),
        by_v(Predicate::Lt, 1),
        // Only `n >= 3` bounds; the full filter refuses the 5s.
        by_n(Predicate::Ge, 3).and(by_n(Predicate::Ne, 5)),
        // `Text` compared with `Int` literals.
        Predicate::Gt("note".into(), int(3)).and(Predicate::Lt("note".into(), int(4))),
        Predicate::Eq("note".into(), int(3)),
        // `Or` and `Not` bound nothing.
        by_n(Predicate::Lt, -900).or(by_n(Predicate::Gt, 900)),
        by_n(Predicate::Lt, 900).negate(),
        // Bounds beside conjuncts they do not cover.
        grp(2).and(by_n(Predicate::Lt, 0)),
        by_n(Predicate::Gt, 0)
            .and(by_v(Predicate::Lt, 5))
            .and(grp(0).negate()),
        Predicate::LabelEquals(Label::empty()).and(by_n(Predicate::Lt, -500)),
        Predicate::IsNull("v".into()).and(by_n(Predicate::Ge, 500)),
    ];
    let mut out = Vec::new();
    for from in ["T", "AllT", "TG"] {
        for f in &filters {
            out.push(Select::star(from).filter(f.clone()));
        }
        out.push(Select::star(from).filter(by_n(Predicate::Ge, 0)).take(7));
    }
    out
}

/// Runs every query in `s` on both executors and checks that they agree;
/// returns how many rows the scans rejected from their bytes.
fn check(db: &Database, s: &mut Session, when: &str) -> u64 {
    let shown = |rows: ResultSet| -> Vec<String> {
        rows.iter()
            .map(|r| format!("{:?} {}", r.values, r.label))
            .collect()
    };
    let before = db.engine().stats().rows_rejected_by_bounds;
    let mut nonempty = 0;
    for q in queries() {
        let fast = shown(s.select(&q).unwrap());
        let reference = shown(s.select_reference(&q).unwrap());
        assert_eq!(fast, reference, "{when}: {q:?}");
        nonempty += usize::from(!fast.is_empty());
    }
    assert!(nonempty > 40, "{when}: {nonempty} queries return rows");
    db.engine().stats().rows_rejected_by_bounds - before
}

/// Checks every reader of `db`, and returns the rows the scans rejected
/// from their bytes.
fn check_readers(db: &Database, auth: &Authority, when: &str) -> u64 {
    auth.readers
        .iter()
        .map(|label| {
            check(
                db,
                &mut auth.session(db, label),
                &format!("{when}, under {label}"),
            )
        })
        .sum()
}

fn dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifdb-row-bounds-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(dir: &Path) -> DatabaseConfig {
    DatabaseConfig::on_disk(dir.to_path_buf(), 64)
        .with_seed(SEED)
        .with_durability(DurabilityConfig::NO_SYNC)
}

fn open(dir: &Path, recover: bool) -> (Database, Authority) {
    let builder = Database::builder().config(config(dir));
    let builder = if recover { builder.recover() } else { builder };
    let db = builder.first_boot_ddl(tables()).build().unwrap();
    let auth = Authority::create(&db);
    (db, auth)
}

/// A read-only replica fed the primary's whole log.
fn replica_of(primary: &Database) -> (Database, Authority) {
    let db = Database::builder()
        .config(DatabaseConfig::in_memory().with_seed(SEED))
        .replica_over(StorageEngine::in_memory())
        .build()
        .unwrap();
    let mut applier = ReplicaApplier::new();
    loop {
        let batch = primary
            .engine()
            .wal()
            .read_replication_batch(applier.applied_seq() + 1, 256);
        if batch.records.is_empty() {
            break;
        }
        applier
            .apply_batch(db.engine(), batch.first_seq, &batch.records)
            .unwrap();
    }
    db.resync_catalog().unwrap();
    let auth = Authority::create(&db);
    (db, auth)
}

/// Pages a reader of every label skips on `filter`'s bounds over `T`.
fn range_skips(db: &Database, auth: &Authority, filter: Predicate) -> u64 {
    let mut s = auth.session(db, auth.readers.last().unwrap());
    let before = db.engine().stats().pages_skipped;
    s.select(&Select::star("T").filter(filter)).unwrap();
    db.engine().stats().pages_skipped - before
}

#[test]
fn rows_rejected_from_their_bytes_are_rows_the_reference_executor_drops() {
    let dir = dir("differential");
    {
        let (db, auth) = open(&dir, false);
        let mut early = run(&db, &auth);
        let pages = db.engine().table_by_name("T").unwrap().heap().page_count();
        assert!(pages > 2 * LABELS, "{pages} pages");
        // The fixture does what it claims: no page is skipped on its range,
        // so the bounds decide rows, and many rows are rejected from their
        // bytes.
        let window = by_n(Predicate::Ge, -20).and(by_n(Predicate::Le, 20));
        assert_eq!(range_skips(&db, &auth, window), 0);
        assert!(check_readers(&db, &auth, "live") > 50_000);
        check(&db, &mut early, "a snapshot from before a delete");
        early.commit().unwrap();

        let (replica, replica_auth) = replica_of(&db);
        assert!(check_readers(&replica, &replica_auth, "replica") > 50_000);

        assert!(db.vacuum().unwrap() > 0);
        assert!(check_readers(&db, &auth, "vacuumed") > 50_000);
        db.checkpoint().unwrap();
    }
    {
        let (db, auth) = open(&dir, true);
        assert!(check_readers(&db, &auth, "recovered from a checkpoint") > 50_000);
    }
    std::fs::remove_dir_all(&dir).ok();
}
