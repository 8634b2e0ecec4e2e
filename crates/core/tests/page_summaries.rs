//! Page summaries against the reference executor.
//!
//! A heap scan leaves a page unread when its summary shows that the page
//! cannot hold a row the statement returns: a single-label page whose label
//! the reader cannot read, or a page whose value range on some column misses
//! the filter's bounds there. The reference executor (`select_reference`)
//! reads every row. So over label-clustered pages, every query must return
//! the same rows, in the same order and with the same labels, from both —
//! directly, through a declassifying view and through a join, live, after
//! vacuum, after a checkpoint and recovery, and on a log-shipping replica.
//!
//! The history is built to break a summary that is too narrow: columns the
//! filters bound hold Nulls (which `<` matches), Floats and Texts compared
//! with Int literals, some between two strict bounds with no Int between
//! them; rows are updated, deleted, inserted by a writer that
//! aborts and deleted by one that aborts; and one reader's snapshot predates
//! a delete of the largest values on their pages.

use std::path::{Path, PathBuf};

use ifdb::prelude::*;
use ifdb_storage::{ReplicaApplier, StorageEngine};

const SEED: u64 = 0x20_4E;
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

/// The `n` of label `k`'s `i`th row: its own stretch of values, so its
/// pages' ranges are disjoint from other labels'. Label 2 has a Null in
/// every 37th row, so its pages are unbounded on `n`.
fn n_of(k: usize, i: i64) -> Datum {
    if k == 2 && i % 37 == 5 {
        Datum::Null
    } else {
        Datum::Int(k as i64 * 10_000 + i)
    }
}

/// The `v` of label `k`'s `i`th row: a Float, a Null in every 11th row.
fn v_of(k: usize, i: i64) -> Datum {
    if i % 11 == 0 {
        Datum::Null
    } else {
        Datum::Float(k as f64 + i as f64 / 100.0)
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

/// The history. Returns a reader, under every tag, whose snapshot predates
/// the last step: a committed delete of the largest `n` on label 4's pages.
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
    // Committed updates move label 1's first rows far up; their old
    // versions stay on the pages, superseded.
    let mut one = auth.session(db, &auth.labels[1]);
    let moved = grp(1).and(by_n(Predicate::Lt, 10_040));
    let set = vec![("n", Datum::Int(500_000))];
    assert_eq!(one.update(&Update::new("T", moved, set)).unwrap(), 40);
    // Committed deletes of a stretch of label 3.
    let mut three = auth.session(db, &auth.labels[3]);
    let stretch = by_n(Predicate::Ge, 30_200).and(by_n(Predicate::Lt, 30_260));
    assert_eq!(three.delete(&Delete::new("T", stretch)).unwrap(), 60);
    // An aborted insert with values no visible row has.
    one.begin().unwrap();
    let mut stray = row(1, 9_999);
    stray[2] = Datum::Int(9_000_000);
    one.insert(&Insert::new("T", stray)).unwrap();
    one.abort().unwrap();
    // An aborted delete of label 0's largest values: the rows stay.
    let mut zero = auth.session(db, &auth.labels[0]);
    zero.begin().unwrap();
    let top = by_n(Predicate::Ge, PER_LABEL - 30);
    assert_eq!(zero.delete(&Delete::new("T", top)).unwrap(), 30);
    zero.abort().unwrap();
    // A reader fixes its snapshot, then label 4's largest values go.
    let mut early = auth.session(db, auth.readers.last().unwrap());
    early.begin().unwrap();
    early.select(&Select::star("G")).unwrap();
    let mut four = auth.session(db, &auth.labels[4]);
    let top = by_n(Predicate::Ge, 40_000 + PER_LABEL - 25);
    assert_eq!(four.delete(&Delete::new("T", top)).unwrap(), 25);
    early
}

/// Every query, on the table, through the declassifying view and through
/// the join.
fn queries() -> Vec<Select> {
    let int = Datum::Int;
    let grp = |k: i64| Predicate::Eq("grp".into(), int(k));
    let window = |lo: i64, hi: i64| by_n(Predicate::Ge, lo).and(by_n(Predicate::Lt, hi));
    let filters = vec![
        Predicate::True,
        grp(1),
        grp(3),
        grp(2).and(Predicate::IsNull("n".into())),
        window(10_100, 10_300),
        window(30_150, 30_300),
        window(40_400, 40_500),
        by_n(Predicate::Le, 20_010),
        by_n(Predicate::Lt, 5),
        by_n(Predicate::Lt, i64::MIN),
        by_n(Predicate::Le, i64::MIN),
        by_n(Predicate::Gt, i64::MAX),
        by_n(Predicate::Ge, i64::MAX),
        by_n(Predicate::Gt, PER_LABEL - 20),
        by_n(Predicate::Eq, 500_000),
        by_n(Predicate::Eq, 9_000_000),
        by_n(Predicate::Lt, 3).and(by_n(Predicate::Gt, 5)),
        by_n(Predicate::Lt, 100).negate(),
        grp(4).or(by_n(Predicate::Eq, 20_007)),
        Predicate::Gt("v".into(), int(3)),
        Predicate::Eq("v".into(), int(2)),
        Predicate::Lt("v".into(), int(1)),
        // Strict bounds with no `Int` between them still match Floats.
        Predicate::Gt("v".into(), int(3)).and(Predicate::Lt("v".into(), int(4))),
        Predicate::Gt("v".into(), int(0)).and(Predicate::Lt("v".into(), int(1))),
        Predicate::Gt("note".into(), int(3)).and(Predicate::Lt("note".into(), int(4))),
        Predicate::Eq("note".into(), int(3)),
        Predicate::Ge("id".into(), int(300_000)).and(grp(3)),
    ];
    let mut out = Vec::new();
    for from in ["T", "AllT", "TG"] {
        for f in &filters {
            out.push(Select::star(from).filter(f.clone()));
        }
        out.push(Select::star(from).filter(grp(3)).take(7));
        out.push(
            Select::star(from).filter(Predicate::LabelEquals(Label::empty()).and(window(0, 200))),
        );
    }
    out.push(Select::star("TG").filter(Predicate::Eq("gid".into(), int(2))));
    out
}

/// Runs every query in `s` on both executors and checks that they agree;
/// returns how many pages the scans skipped.
fn check(db: &Database, s: &mut Session, when: &str) -> u64 {
    let shown = |rows: ResultSet| -> Vec<String> {
        rows.iter()
            .map(|r| format!("{:?} {}", r.values, r.label))
            .collect()
    };
    let before = db.engine().stats().pages_skipped;
    let mut nonempty = 0;
    for q in queries() {
        let fast = shown(s.select(&q).unwrap());
        let reference = shown(s.select_reference(&q).unwrap());
        assert_eq!(fast, reference, "{when}: {q:?}");
        nonempty += usize::from(!fast.is_empty());
    }
    assert!(nonempty > 10, "{when}: {nonempty} queries return rows");
    db.engine().stats().pages_skipped - before
}

/// Checks every reader of `db`, and returns the pages the scans skipped.
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
    let dir =
        std::env::temp_dir().join(format!("ifdb-page-summaries-{name}-{}", std::process::id()));
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

#[test]
fn scans_that_skip_pages_return_what_the_reference_executor_returns() {
    let dir = dir("differential");
    {
        let (db, auth) = open(&dir, false);
        let mut early = run(&db, &auth);
        let pages = db.engine().table_by_name("T").unwrap().heap().page_count();
        assert!(pages > 2 * LABELS, "{pages} pages");
        // The fixture does what it claims: scans skip pages, by label and
        // by range, and the reader from before the delete still sees it.
        assert!(check_readers(&db, &auth, "live") > 100);
        check(&db, &mut early, "a snapshot from before a delete");
        let top = by_n(Predicate::Ge, 40_000 + PER_LABEL - 25).and(by_n(Predicate::Lt, 50_000));
        let top = Select::star("T").filter(top);
        assert_eq!(early.select(&top).unwrap().len(), 25);
        early.commit().unwrap();

        let (replica, replica_auth) = replica_of(&db);
        assert!(check_readers(&replica, &replica_auth, "replica") > 100);

        assert!(db.vacuum().unwrap() > 0);
        assert!(check_readers(&db, &auth, "vacuumed") > 100);
        db.checkpoint().unwrap();
    }
    {
        let (db, auth) = open(&dir, true);
        assert!(check_readers(&db, &auth, "recovered from a checkpoint") > 100);
    }
    std::fs::remove_dir_all(&dir).ok();
}
