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
//! on every index path, after `Database::open` recovery (with and without a
//! checkpoint) and on a log-shipping replica.

use std::path::{Path, PathBuf};

use ifdb::prelude::*;
use ifdb_storage::{ReplicaApplier, StorageEngine, StorageError};

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
}

impl Authority {
    fn create(db: &Database) -> Authority {
        let owner = db.create_principal("owner", PrincipalKind::User);
        let reader = db.create_principal("reader", PrincipalKind::User);
        let tag = |name| db.create_tag(owner, name, &[]).unwrap();
        let auth = Authority {
            owner,
            reader,
            a: tag("a"),
            b: tag("b"),
            m: tag("m"),
            h: tag("h"),
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

    /// Labels 0-4 are low, 5-7 high.
    fn label(&self, i: usize) -> Label {
        let (a, b, m, h) = (self.a, self.b, self.m, self.h);
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

fn table_def() -> TableDef {
    TableDef::new("T")
        .column("id", DataType::Int)
        .column("grp", DataType::Int)
        .column("cat", DataType::Int)
        .column("note", DataType::Text)
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
            Step::Insert { rows, commit, .. } => {
                s.begin().unwrap();
                for (id, grp, cat, note) in rows {
                    let values = vec![
                        Datum::Int(*id),
                        Datum::Int(*grp),
                        Datum::Int(*cat),
                        Datum::from(note.as_str()),
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
            let rows = s.select(&q).unwrap();
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
        .walk::<StorageError>(|_, label, _| {
            chained += usize::from(label.is_some());
            Ok(true)
        })
        .unwrap();
    (chained, t.heap().page_count())
}

#[test]
fn low_readers_see_the_same_rows_in_the_same_order_whatever_high_writers_did() {
    let (low_steps, mixed_steps) = histories();
    let (low_dir, mixed_dir) = (dir("low"), dir("mixed"));
    {
        let (low, low_auth) = create(&low_dir);
        let (mixed, mixed_auth) = create(&mixed_dir);
        run(&low, &low_auth, &low_steps);
        run(&mixed, &mixed_auth, &mixed_steps);

        // The fixture does what it claims: the low labels outgrew the
        // shared tail, and the high rows both took pages of their own and
        // moved the tail's boundaries.
        let (low_chained, low_pages) = layout(&low);
        let (mixed_chained, mixed_pages) = layout(&mixed);
        assert!(low_chained > 0 && mixed_chained > low_chained);
        assert!(mixed_pages > low_pages);

        let seen = observe(&low, &low_auth);
        assert!(seen.iter().filter(|(_, rows)| !rows.is_empty()).count() > 30);
        assert_same(&seen, &observe(&mixed, &mixed_auth), "live");

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
            &observe(&mixed, &mixed_auth),
            "recovered from a checkpoint",
        );
    }
    std::fs::remove_dir_all(&low_dir).ok();
    std::fs::remove_dir_all(&mixed_dir).ok();
}
