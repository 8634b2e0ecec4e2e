//! A label of more tags than a byte can count (300) is a label like any
//! other: its row round-trips through insert, primary-key lookup and scan,
//! live, after recovery (with and without a checkpoint) and on a replica,
//! and a reader that cannot read it sees no row and no error — what a low
//! reader gets from the table does not depend on it.

use std::path::{Path, PathBuf};

use ifdb::prelude::*;
use ifdb_storage::{ReplicaApplier, StorageEngine};

const SEED: u64 = 0x3_00;
const TAGS: usize = 300;

fn table_def() -> TableDef {
    TableDef::new("t")
        .column("id", DataType::Int)
        .column("v", DataType::Text)
        .primary_key(&["id"])
}

/// The owner of the 300 tags, and the label of all of them. Authority
/// state is code: every database creates it again in the same order.
fn authority(db: &Database) -> (PrincipalId, Label) {
    let owner = db.create_principal("owner", PrincipalKind::User);
    let tags = (0..TAGS).map(|i| db.create_tag(owner, &format!("t{i}"), &[]).unwrap());
    (owner, Label::from_tags(tags))
}

fn config(dir: &Path) -> DatabaseConfig {
    DatabaseConfig::on_disk(dir.to_path_buf(), 16)
        .with_seed(SEED)
        .with_durability(DurabilityConfig::NO_SYNC)
}

fn dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifdb-wide-labels-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// What a session under `label` gets from a primary-key lookup of each row
/// and from a full scan: each row as its id and label, or the error.
fn observe(db: &Database, owner: PrincipalId, label: &Label) -> Vec<Result<Vec<String>, String>> {
    let mut s = db.session(owner);
    s.raise_label(label).unwrap();
    let by_pk = |id| Select::star("t").filter(Predicate::Eq("id".into(), Datum::Int(id)));
    [by_pk(1), by_pk(2), Select::star("t")]
        .iter()
        .map(|q| {
            s.select(q)
                .map(|rows| {
                    rows.iter()
                        .map(|r| format!("{:?} {}", r.values[0], r.label.len()))
                        .collect()
                })
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn check(db: &Database, owner: PrincipalId, wide: &Label, when: &str) {
    let ok = |rows: &[&str]| Ok(rows.iter().map(|r| r.to_string()).collect::<Vec<_>>());
    assert_eq!(
        observe(db, owner, wide),
        [
            ok(&["Int(1) 300"]),
            ok(&["Int(2) 0"]),
            ok(&["Int(1) 300", "Int(2) 0"])
        ],
        "{when}: the writer's view"
    );
    assert_eq!(
        observe(db, owner, &Label::empty()),
        [ok(&[]), ok(&["Int(2) 0"]), ok(&["Int(2) 0"])],
        "{when}: an empty-label reader's view"
    );
}

#[test]
fn a_300_tag_row_round_trips_and_hides_from_low_readers_without_errors() {
    let dir = dir();
    {
        let db = Database::builder()
            .config(config(&dir))
            .first_boot_ddl([table_def()])
            .build()
            .unwrap();
        let (owner, wide) = authority(&db);
        let mut writer = db.session(owner);
        writer.raise_label(&wide).unwrap();
        writer
            .insert(&Insert::new("t", vec![Datum::Int(1), Datum::from("wide")]))
            .unwrap();
        db.session(owner)
            .insert(&Insert::new("t", vec![Datum::Int(2), Datum::from("bare")]))
            .unwrap();
        check(&db, owner, &wide, "live");

        let replica = Database::builder()
            .config(DatabaseConfig::in_memory().with_seed(SEED))
            .replica_over(StorageEngine::in_memory())
            .build()
            .unwrap();
        let batch = db.engine().wal().read_replication_batch(1, usize::MAX);
        ReplicaApplier::new()
            .apply_batch(replica.engine(), batch.first_seq, &batch.records)
            .unwrap();
        replica.resync_catalog().unwrap();
        let (owner, wide) = authority(&replica);
        check(&replica, owner, &wide, "replica");
    }
    for when in ["recovered", "recovered from a checkpoint"] {
        let db = Database::builder()
            .config(config(&dir))
            .recover()
            .first_boot_ddl([table_def()])
            .build()
            .unwrap();
        let (owner, wide) = authority(&db);
        check(&db, owner, &wide, when);
        db.engine().checkpoint().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
