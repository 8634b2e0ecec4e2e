//! Scan noninterference, as a projection-closure property (Ochsenschläger
//! and Rieke, PAPERS.md): deleting the high-labelled events from a history
//! must not change what a low reader observes.
//!
//! Two databases get the same seeded low history — inserts, updates, deletes
//! and aborted inserts at five labels a reader may be able to read. The
//! second also gets high activity shuffled in between the low steps, at
//! three labels no reader holds and no view declassifies: enough rows to
//! open their own heap pages and to move every shared-page boundary. Under
//! each of several reader labels, every query must then return the same
//! rows, in the same order, with the same labels, from both databases — on
//! the heap walk, through the declassifying view, under label predicates,
//! on every index path, after recovery (`DatabaseBuilder::recover`, with
//! and without a checkpoint) and on a log-shipping replica.
//!
//! The closure must hold for what a scan leaves unread too. A heap scan
//! decides each page from its summary before reading it, and skips a
//! single-label page whose label the reader cannot read or whose value
//! range on a column misses the filter's bounds there. The column `lv`
//! follows the label (each label's rows have their own stretch of it, and
//! no index), and the queries bound it by ranges and equalities, some
//! strict at the `i64` edges. The high rows fill pages of their own, so a
//! query under a bound the high stretches miss skips whole high pages by
//! range, and one under a bound they meet skips them by label; the shuffle
//! adds such pages and moves every shared-page boundary, and the low
//! observations must still not change.
//!
//! The closure must also hold row by row. On the shared tail, high rows sit
//! between low ones, so a page's range spans both and rarely rules it out;
//! there a full scan tests the filter's `Int` bounds on each row its label
//! admits, in the tuple bytes, before decoding it. A high row is denied on
//! its label before its bytes are read, whether or not its `lv` meets the
//! bounds, so deleting it from the history (Ochsenschläger and Rieke's
//! shuffle projection, PAPERS.md: the low language is the mixed one with
//! the high events projected away, and each high step is shuffled in
//! between low ones) must not change a low observation. The queries bound
//! `lv` both ways — bounds the high stretches meet and bounds they miss,
//! on the table and through the view — and the low observations must be
//! identical live, on the replica and after recovery.
//!
//! On the pages it reads, a full scan decides each slot from the page's
//! column view — label, then bounds — which the first scan to need it
//! builds from the page's bytes, whatever that scan's reader, and every
//! later scan of any reader reuses. The high rows on the shared tail
//! include some whose `lv` meets a query's bounds and some whose `lv`
//! misses them, and the mixed database's low observations are taken after
//! a high-labelled reader has run every query, so each page a low scan
//! reads was decoded by that high scan first (the low scans then decode
//! nothing); they must equal the low database's, where no high scan ran —
//! live, on the replica, and after checkpoint and recovery.
//!
//! A second mixed history starts with high transactions that define many
//! labels before the low history's first insert — one of them of 301 tags,
//! more than a byte can count, and some of them in transactions that abort.
//! Label ids are handed out in order of first use, so every low label gets
//! another id there; what a low reader observes, errors included, must not
//! change.

use std::path::{Path, PathBuf};

use ifdb::prelude::*;
use ifdb_storage::{ReplicaApplier, StorageEngine, StorageError, Verdict};

const SEED: u64 = 0x5CA7;
/// Low ids are below this; high ids at or above it.
const HIGH_IDS: i64 = 1_000_000;

/// SplitMix64: a seeded stream, so both histories are reproducible.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// The principals, tags and labels of one database. Authority state is
/// code, not logged data: every database, recovered or replica, creates it
/// again in the same order under the same seed.
struct Authority {
    owner: PrincipalId,
    reader: PrincipalId,
    a: TagId,
    b: TagId,
    /// Declassified by the view `V`.
    m: TagId,
    /// Held by no reader, declassified by nothing.
    h: TagId,
    /// More tags like `h`, for the labels the high prefix defines.
    extra: Vec<TagId>,
}

impl Authority {
    fn create(db: &Database) -> Authority {
        let owner = db.create_principal("owner", PrincipalKind::User);
        let reader = db.create_principal("reader", PrincipalKind::User);
        let tag = |name: &str| db.create_tag(owner, name, &[]).unwrap();
        let auth = Authority {
            owner,
            reader,
            a: tag("a"),
            b: tag("b"),
            m: tag("m"),
            h: tag("h"),
            extra: (0..300).map(|i| tag(&format!("x{i}"))).collect(),
        };
        db.create_declassifying_view(
            owner,
            "V",
            ViewSource::Select(Select::star("T")),
            Label::singleton(auth.m),
        )
        .unwrap();
        auth
    }

    /// Labels 0-4 are low, 5 and up high: from 8 on, the labels of the high
    /// prefix, `h` and one of the extra tags each, the last `h` and all 300.
    fn label(&self, i: usize) -> Label {
        let (a, b, m, h) = (self.a, self.b, self.m, self.h);
        if i >= 8 {
            let extra = match i - 8 {
                k if k + 1 == PREFIX_LABELS => &self.extra[..],
                k => &self.extra[k..=k],
            };
            return Label::from_tags(extra.iter().copied().chain([h]));
        }
        let tags: &[TagId] = match i {
            0 => &[],
            1 => &[a],
            2 => &[m],
            3 => &[a, m],
            4 => &[b],
            5 => &[h],
            6 => &[a, h],
            _ => &[m, h],
        };
        Label::from_tags(tags.iter().copied())
    }

    /// A label that reads every row of every history, high ones included.
    fn high_reader(&self) -> Label {
        let tags = [self.a, self.b, self.m, self.h];
        Label::from_tags(tags.into_iter().chain(self.extra.iter().copied()))
    }

    fn readers(&self) -> Vec<Label> {
        [
            &[][..],
            &[self.a],
            &[self.a, self.m],
            &[self.a, self.b, self.m],
        ]
        .iter()
        .map(|tags| Label::from_tags(tags.iter().copied()))
        .collect()
    }
}

const LOW_LABELS: u64 = 5;
const HIGH_LABELS: u64 = 3;
/// Labels the high prefix defines before any low row.
const PREFIX_LABELS: usize = 40;

fn table_def() -> TableDef {
    TableDef::new("T")
        .column("id", DataType::Int)
        .column("grp", DataType::Int)
        .column("cat", DataType::Int)
        .column("note", DataType::Text)
        .column("lv", DataType::Int)
        .primary_key(&["id"])
        .secondary_index("t_cat", &["cat"])
        .secondary_index("t_grp_cat", &["grp", "cat"])
}

/// One transaction of a history.
#[derive(Debug, Clone)]
enum Step {
    /// Inserts `(id, grp, cat, note)` rows at `label` and commits — or
    /// aborts, when `commit` is false.
    Insert {
        label: usize,
        rows: Vec<(i64, i64, i64, String)>,
        commit: bool,
    },
    /// Moves row `id` (labelled `label`) to category `cat`.
    Update { label: usize, id: i64, cat: i64 },
    /// Deletes row `id` (labelled `label`).
    Delete { label: usize, id: i64 },
}

/// `steps` transactions at labels `first..first + labels`, over ids from
/// `first_id`; every row gets a `note` of `note_len` bytes.
fn history(
    rng: &mut Rng,
    steps: usize,
    first: usize,
    labels: u64,
    first_id: i64,
    note_len: usize,
) -> Vec<Step> {
    let mut live: Vec<Vec<i64>> = vec![Vec::new(); labels as usize];
    let mut next_id = first_id;
    let mut out = Vec::new();
    for _ in 0..steps {
        let l = rng.below(labels) as usize;
        let label = first + l;
        let kind = rng.below(10);
        if kind < 8 || live[l].is_empty() {
            let rows = (0..1 + rng.below(12))
                .map(|_| {
                    next_id += 1;
                    let note = "n".repeat(note_len + rng.below(8) as usize);
                    (next_id, rng.below(6) as i64, rng.below(8) as i64, note)
                })
                .collect::<Vec<_>>();
            let commit = kind != 7;
            if commit {
                live[l].extend(rows.iter().map(|r| r.0));
            }
            out.push(Step::Insert {
                label,
                rows,
                commit,
            });
        } else if kind == 8 {
            let id = live[l][rng.below(live[l].len() as u64) as usize];
            let cat = rng.below(8) as i64;
            out.push(Step::Update { label, id, cat });
        } else {
            let at = rng.below(live[l].len() as u64) as usize;
            let id = live[l].swap_remove(at);
            out.push(Step::Delete { label, id });
        }
    }
    out
}

/// The low history, and the same history with high transactions shuffled
/// in between its steps.
fn histories() -> (Vec<Step>, Vec<Step>) {
    let low = history(&mut Rng(SEED), 240, 0, LOW_LABELS, 0, 4);
    let high = history(&mut Rng(SEED + 1), 360, 5, HIGH_LABELS, HIGH_IDS, 20);
    let mut shuffle = Rng(SEED + 2);
    let mut high = high.into_iter();
    let mut mixed = Vec::new();
    for step in &low {
        for _ in 0..shuffle.below(4) {
            mixed.extend(high.next());
        }
        mixed.push(step.clone());
    }
    mixed.extend(high);
    (low, mixed)
}

/// High transactions at [`PREFIX_LABELS`] labels never used before, one row
/// each, every fifth aborted: a label defined stays defined.
fn high_prefix() -> Vec<Step> {
    (0..PREFIX_LABELS)
        .map(|k| Step::Insert {
            label: 8 + k,
            rows: vec![(2 * HIGH_IDS + k as i64, 1, k as i64 % 8, "x".repeat(k))],
            commit: k % 5 != 2,
        })
        .collect()
}

/// The `lv` of row `id` at label `label`: the label's own stretch of 100
/// values.
fn lv(label: usize, id: i64) -> i64 {
    label as i64 * 100 + id % 50
}

fn run(db: &Database, auth: &Authority, steps: &[Step]) {
    let id = |id: i64| Predicate::Eq("id".into(), Datum::Int(id));
    for step in steps {
        let label = match step {
            Step::Insert { label, .. }
            | Step::Update { label, .. }
            | Step::Delete { label, .. } => auth.label(*label),
        };
        let mut s = db.session(auth.owner);
        s.raise_label(&label).unwrap();
        match step {
            Step::Insert {
                label: at,
                rows,
                commit,
            } => {
                s.begin().unwrap();
                for (id, grp, cat, note) in rows {
                    let values = vec![
                        Datum::Int(*id),
                        Datum::Int(*grp),
                        Datum::Int(*cat),
                        Datum::from(note.as_str()),
                        Datum::Int(lv(*at, *id)),
                    ];
                    s.insert(&Insert::new("T", values)).unwrap();
                }
                if *commit {
                    s.commit().unwrap();
                } else {
                    s.abort().unwrap();
                }
            }
            Step::Update { id: row, cat, .. } => {
                let set = vec![("cat", Datum::Int(*cat))];
                assert_eq!(s.update(&Update::new("T", id(*row), set)).unwrap(), 1);
            }
            Step::Delete { id: row, .. } => {
                assert_eq!(s.delete(&Delete::new("T", id(*row))).unwrap(), 1);
            }
        }
    }
}

/// How a query reaches `T`, by the engine counter it moves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Access {
    Heap,
    IndexPoint,
    IndexRange,
}

fn queries(auth: &Authority) -> Vec<(&'static str, Select, Access)> {
    let int = |v| Datum::Int(v);
    let eq = |c: &str, v| Predicate::Eq(c.into(), int(v));
    vec![
        ("full scan", Select::star("T"), Access::Heap),
        ("declassifying view", Select::star("V"), Access::Heap),
        (
            "label contains",
            Select::star("T").filter(Predicate::LabelContains(auth.a)),
            Access::Heap,
        ),
        (
            "label equals",
            Select::star("T").filter(Predicate::LabelEquals(Label::singleton(auth.a))),
            Access::Heap,
        ),
        (
            "view, label equals",
            Select::star("V").filter(Predicate::LabelEquals(Label::empty())),
            Access::Heap,
        ),
        (
            "filtered scan",
            Select::star("T").filter(Predicate::Ne("note".into(), Datum::from("nnnnn"))),
            Access::Heap,
        ),
        ("limit", Select::star("T").take(40), Access::Heap),
        // Bounds on `lv`, which follows the label: the high stretches are
        // 500 and up.
        (
            "lv equality",
            Select::star("T").filter(eq("lv", lv(1, 7))),
            Access::Heap,
        ),
        (
            "lv range below the high stretches",
            Select::star("T").filter(
                Predicate::Ge("lv".into(), int(100)).and(Predicate::Lt("lv".into(), int(300))),
            ),
            Access::Heap,
        ),
        (
            "lv range over the high stretches",
            Select::star("T").filter(Predicate::Ge("lv".into(), int(200))),
            Access::Heap,
        ),
        (
            "lv above the least i64",
            Select::star("T").filter(Predicate::Gt("lv".into(), int(i64::MIN))),
            Access::Heap,
        ),
        (
            "lv below the greatest i64, view",
            Select::star("V").filter(
                Predicate::Lt("lv".into(), int(i64::MAX)).and(Predicate::Ne("cat".into(), int(3))),
            ),
            Access::Heap,
        ),
        (
            "lv at the i64 edges",
            Select::star("T").filter(
                Predicate::Le("lv".into(), int(i64::MIN))
                    .or(Predicate::Ge("lv".into(), int(i64::MAX))),
            ),
            Access::Heap,
        ),
        (
            "lv past the i64 edges",
            Select::star("T").filter(Predicate::Gt("lv".into(), int(i64::MAX))),
            Access::Heap,
        ),
        (
            "view, lv range",
            Select::star("V").filter(
                Predicate::Gt("lv".into(), int(240)).and(Predicate::Le("lv".into(), int(420))),
            ),
            Access::Heap,
        ),
        // Bounds decided row by row on the shared tail: two the high
        // stretches (500 and up) meet, two they miss.
        (
            "lv bound meeting the high stretches",
            Select::star("T").filter(
                Predicate::Ge("lv".into(), int(440)).and(Predicate::Lt("lv".into(), int(620))),
            ),
            Access::Heap,
        ),
        (
            "view, lv bound meeting the high stretches",
            Select::star("V").filter(
                Predicate::Gt("lv".into(), int(120)).and(Predicate::Ne("cat".into(), int(1))),
            ),
            Access::Heap,
        ),
        (
            "lv bound missing the high stretches",
            Select::star("T").filter(
                Predicate::Gt("lv".into(), int(10)).and(Predicate::Le("lv".into(), int(140))),
            ),
            Access::Heap,
        ),
        (
            "view, lv bound missing the high stretches",
            Select::star("V").filter(Predicate::Lt("lv".into(), int(330))),
            Access::Heap,
        ),
        (
            "index equality",
            Select::star("T").filter(eq("cat", 3)),
            Access::IndexPoint,
        ),
        (
            "view, index equality",
            Select::star("V").filter(eq("cat", 5)),
            Access::IndexPoint,
        ),
        (
            "index prefix",
            Select::star("T").filter(eq("grp", 2)),
            Access::IndexRange,
        ),
        (
            "primary-key range",
            Select::star("T").filter(
                Predicate::Ge("id".into(), int(100))
                    .and(Predicate::Lt("id".into(), int(2 * HIGH_IDS))),
            ),
            Access::IndexRange,
        ),
        (
            "composite-key range",
            Select::star("T").filter(
                eq("grp", 1)
                    .and(Predicate::Ge("cat".into(), int(2)))
                    .and(Predicate::Le("cat".into(), int(6))),
            ),
            Access::IndexRange,
        ),
    ]
}

/// Everything a reader under each reader label gets from each query: the
/// rows in order, each as its values and label.
fn observe(db: &Database, auth: &Authority) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    for reader in auth.readers() {
        for (name, q, access) in queries(auth) {
            let mut s = db.session(auth.reader);
            s.raise_label(&reader).unwrap();
            let before = db.engine().stats();
            let rows = match s.select(&q) {
                Ok(rows) => rows,
                Err(e) => {
                    out.push((
                        format!("{name} under {reader}"),
                        vec![format!("error: {e}")],
                    ));
                    continue;
                }
            };
            let after = db.engine().stats();
            let taken = if after.full_table_scans > before.full_table_scans {
                Access::Heap
            } else if after.index_point_lookups > before.index_point_lookups {
                Access::IndexPoint
            } else {
                assert!(after.index_range_scans > before.index_range_scans);
                Access::IndexRange
            };
            assert_eq!(taken, access, "access path of {name}");
            let rows = rows
                .iter()
                .map(|r| format!("{:?} {}", r.values, r.label))
                .collect();
            out.push((format!("{name} under {reader}"), rows));
        }
    }
    out
}

/// Runs every query under [`Authority::high_reader`], so that the column
/// views of the pages low readers' scans read are built by a high-labelled
/// scan; returns how many page columns those scans decoded.
fn high_scans(db: &Database, auth: &Authority) -> u64 {
    let before = db.engine().stats().pages_decoded;
    let mut s = db.session(auth.reader);
    s.raise_label(&auth.high_reader()).unwrap();
    for (name, q, _) in queries(auth) {
        s.select(&q).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    db.engine().stats().pages_decoded - before
}

/// [`observe`], after [`high_scans`] decoded the pages it reads: the low
/// scans then decode nothing themselves.
fn observe_after_high_scans(db: &Database, auth: &Authority) -> Vec<(String, Vec<String>)> {
    assert!(high_scans(db, auth) > 0);
    let before = db.engine().stats().pages_decoded;
    let seen = observe(db, auth);
    assert_eq!(db.engine().stats().pages_decoded, before);
    seen
}

/// High rows on the shared tail whose `lv` lies in `[lo, hi)`, and those
/// whose `lv` does not.
fn high_tail_rows(db: &Database, auth: &Authority, lo: i64, hi: i64) -> (usize, usize) {
    let labels = db.engine().labels();
    let low: Vec<Option<u32>> = (0..LOW_LABELS as usize)
        .map(|i| labels.id(&auth.label(i).to_array()))
        .collect();
    let (mut meet, mut miss) = (0, 0);
    let t = db.engine().table_by_name("T").unwrap();
    t.heap()
        .walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |_, page_label, tuple| {
                if page_label.is_none() && !low.contains(&Some(tuple.label_id())) {
                    match tuple.field(4)? {
                        Datum::Int(v) if (lo..hi).contains(&v) => meet += 1,
                        _ => miss += 1,
                    }
                }
                Ok(true)
            },
        )
        .unwrap();
    (meet, miss)
}

/// The pages the query `name` skipped under the empty reader label, the
/// single-label pages whose label it decided, and the rows it rejected on
/// their bytes.
fn skips(db: &Database, auth: &Authority, name: &str) -> (u64, u64, u64) {
    let (_, q, _) = queries(auth)
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .unwrap();
    let mut s = db.session(auth.reader);
    let before = db.engine().stats();
    s.select(&q).unwrap();
    let after = db.engine().stats();
    (
        after.pages_skipped - before.pages_skipped,
        after.label_page_checks - before.label_page_checks,
        after.rows_rejected_by_bounds - before.rows_rejected_by_bounds,
    )
}

fn assert_same(low: &[(String, Vec<String>)], mixed: &[(String, Vec<String>)], when: &str) {
    assert_eq!(low.len(), mixed.len());
    for ((what, a), (_, b)) in low.iter().zip(mixed) {
        assert_eq!(a.len(), b.len(), "{when}: row count of {what}");
        assert!(a == b, "{when}: rows or their order differ for {what}");
    }
}

fn dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifdb-scan-ni-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(dir: &Path) -> DatabaseConfig {
    DatabaseConfig::on_disk(dir.to_path_buf(), 64)
        .with_seed(SEED)
        .with_durability(DurabilityConfig::NO_SYNC)
}

fn create(dir: &Path) -> (Database, Authority) {
    let db = Database::builder()
        .config(config(dir))
        .first_boot_ddl([table_def()])
        .build()
        .unwrap();
    let auth = Authority::create(&db);
    (db, auth)
}

fn recover(dir: &Path) -> (Database, Authority) {
    let db = Database::builder()
        .config(config(dir))
        .recover()
        .first_boot_ddl([table_def()])
        .build()
        .unwrap();
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

/// Rows of `T` on single-label pages, and the table's pages.
fn layout(db: &Database) -> (usize, usize) {
    let t = db.engine().table_by_name("T").unwrap();
    let mut chained = 0;
    t.heap()
        .walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |_, label, _| {
                chained += usize::from(label.is_some());
                Ok(true)
            },
        )
        .unwrap();
    (chained, t.heap().page_count())
}

#[test]
fn low_readers_see_the_same_rows_in_the_same_order_whatever_high_writers_did() {
    let (low_steps, mixed_steps) = histories();
    assert_low_view_unchanged("interleaved", &low_steps, &mixed_steps);
}

#[test]
fn high_labels_defined_before_any_low_row_change_nothing_low_readers_see() {
    let (low_steps, mixed_steps) = histories();
    let prefixed: Vec<Step> = high_prefix().into_iter().chain(mixed_steps).collect();
    assert_low_view_unchanged("prefixed", &low_steps, &prefixed);
}

/// Runs `low_steps` on one database and `mixed_steps` on another, then
/// checks that every low reader observes the same from both, live, on a
/// replica, recovered, and recovered from a checkpoint.
fn assert_low_view_unchanged(name: &str, low_steps: &[Step], mixed_steps: &[Step]) {
    let (low_dir, mixed_dir) = (dir(&format!("{name}-low")), dir(&format!("{name}-mixed")));
    {
        let (low, low_auth) = create(&low_dir);
        let (mixed, mixed_auth) = create(&mixed_dir);
        run(&low, &low_auth, low_steps);
        run(&mixed, &mixed_auth, mixed_steps);
        // Each low label's id is a function of the labels defined before
        // it, readable or not; in the prefixed history none keeps its id.
        let id =
            |db: &Database, auth: &Authority, i| db.engine().labels().id(&auth.label(i).to_array());
        let shifted = (1..LOW_LABELS as usize)
            .filter(|i| id(&low, &low_auth, *i) != id(&mixed, &mixed_auth, *i))
            .count();
        if name == "prefixed" {
            assert_eq!(shifted, LOW_LABELS as usize - 1);
        }

        // The fixture does what it claims: the low labels outgrew the
        // shared tail, and the high rows both took pages of their own and
        // moved the tail's boundaries.
        let (low_chained, low_pages) = layout(&low);
        let (mixed_chained, mixed_pages) = layout(&mixed);
        assert!(low_chained > 0 && mixed_chained > low_chained);
        assert!(mixed_pages > low_pages);

        // Whole high pages are skipped unread: by range under a bound
        // their stretches miss, before any label is decided, so both scans
        // decide the same low pages; and by label under one they meet.
        let below = "lv range below the high stretches";
        let (low_skips, mixed_skips) = (
            skips(&low, &low_auth, below),
            skips(&mixed, &mixed_auth, below),
        );
        assert!(mixed_skips.0 > low_skips.0, "{mixed_skips:?} {low_skips:?}");
        assert_eq!(mixed_skips.1, low_skips.1);
        let over = "lv range over the high stretches";
        let (low_skips, mixed_skips) = (
            skips(&low, &low_auth, over),
            skips(&mixed, &mixed_auth, over),
        );
        assert!(mixed_skips.0 > low_skips.0 && mixed_skips.1 > low_skips.1);
        // On pages the bounds cannot skip, rows are rejected from their
        // bytes; the high rows among them are denied on their labels first.
        let by_row = "lv bound missing the high stretches";
        let (low_rows, mixed_rows) = (
            skips(&low, &low_auth, by_row),
            skips(&mixed, &mixed_auth, by_row),
        );
        assert!(low_rows.2 > 0 && mixed_rows.2 > 0);

        // High rows sit on the shared tail, some inside the bounds of
        // "lv bound meeting the high stretches" and some outside them.
        let (meet, miss) = high_tail_rows(&mixed, &mixed_auth, 440, 620);
        assert!(meet > 0 && miss > 0, "{meet} meet, {miss} miss");

        // The low database's pages are decoded by its low scans; the mixed
        // one's by a high-labelled scan before any low scan reads them.
        let seen = observe(&low, &low_auth);
        assert!(seen.iter().filter(|(_, rows)| !rows.is_empty()).count() > 30);
        assert_same(
            &seen,
            &observe_after_high_scans(&mixed, &mixed_auth),
            "live, decoded by a high scan first",
        );

        // A replica rebuilds its primary's layout from the log, so it
        // answers exactly as its primary does.
        let (low_replica, low_replica_auth) = replica_of(&low);
        let (mixed_replica, mixed_replica_auth) = replica_of(&mixed);
        let replicated = observe(&low_replica, &low_replica_auth);
        assert_same(&seen, &replicated, "replica vs primary");
        assert_same(
            &replicated,
            &observe(&mixed_replica, &mixed_replica_auth),
            "replica",
        );
        let (mixed_replica, mixed_replica_auth) = replica_of(&mixed);
        assert_same(
            &replicated,
            &observe_after_high_scans(&mixed_replica, &mixed_replica_auth),
            "replica, decoded by a high scan first",
        );
    }
    // Recovery replays only committed inserts, so its layout may differ
    // from the live one; what a low reader sees must still not depend on
    // the high rows.
    {
        let (low, low_auth) = recover(&low_dir);
        let (mixed, mixed_auth) = recover(&mixed_dir);
        assert_same(
            &observe(&low, &low_auth),
            &observe(&mixed, &mixed_auth),
            "recovered",
        );
        low.engine().checkpoint().unwrap();
        mixed.engine().checkpoint().unwrap();
    }
    {
        let (low, low_auth) = recover(&low_dir);
        let (mixed, mixed_auth) = recover(&mixed_dir);
        assert_same(
            &observe(&low, &low_auth),
            &observe_after_high_scans(&mixed, &mixed_auth),
            "recovered from a checkpoint, decoded by a high scan first",
        );
    }
    std::fs::remove_dir_all(&low_dir).ok();
    std::fs::remove_dir_all(&mixed_dir).ok();
}
