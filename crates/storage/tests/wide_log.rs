//! A log whose rows hold only the wide datum kinds (every `Int` and
//! `Timestamp` in 8 bytes, every `Text` with a 4-byte length), as builds
//! before the narrow kinds wrote every row, still recovers: its rows, their
//! indexes and the pages' `Int` ranges come back as they were.

use std::path::PathBuf;

use ifdb_storage::engine::{StorageEngine, StorageKind};
use ifdb_storage::tuple::with_mvcc_header;
use ifdb_storage::wal::{DurabilityConfig, LogRecord, Wal};
use ifdb_storage::{ColumnDef, DataType, Datum, StorageError, TableSchema, TupleRef, Verdict};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifdb-wide-log-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A datum in the wide kinds 1, 3 and 5; every other kind as it is.
fn encode_wide(d: &Datum, out: &mut Vec<u8>) {
    match d {
        Datum::Int(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Datum::Timestamp(v) => {
            out.push(5);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Datum::Text(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        other => other.encode(out),
    }
}

/// `body` (a logged insert's) with its fields re-encoded in the wide kinds:
/// its label id and field count as they are.
fn widened(txn: ifdb_storage::TxnId, body: &[u8]) -> Vec<u8> {
    let slot = with_mvcc_header(txn, body);
    let data = TupleRef::parse(&slot).unwrap().data().unwrap();
    let fields: usize = data.iter().map(Datum::encoded_len).sum();
    let mut wide = body[..body.len() - fields].to_vec();
    for d in &data {
        encode_wide(d, &mut wide);
    }
    wide
}

fn row(i: i64) -> Vec<Datum> {
    let big = if i % 2 == 0 { i << 40 } else { -i };
    let pad = if i % 5 == 0 { 300 } else { 0 };
    let name = format!("n{i}{}", "x".repeat(pad));
    vec![
        Datum::Int(i),
        Datum::Int(big),
        Datum::Text(name),
        Datum::Timestamp(1_700_000_000_000_000 + i),
    ]
}

/// Every visible row, as `(label, data)`, sorted by id.
fn rows(eng: &StorageEngine) -> Vec<(Vec<u64>, Vec<Datum>)> {
    let t = eng.table_by_name("t").unwrap().id();
    let txn = eng.begin().unwrap();
    let snap = eng.snapshot(txn);
    let mut out = Vec::new();
    eng.scan_visible(&snap, t, |_, v| {
        out.push((v.header.label, v.data));
        true
    })
    .unwrap();
    eng.abort(txn).unwrap();
    out.sort_by_key(|(_, data)| data[0].as_int());
    out
}

#[test]
fn a_log_of_wide_datums_recovers_its_rows_and_indexes() {
    let dir = temp_dir("recover");
    let expect = {
        let eng = StorageEngine::with_config(
            StorageKind::OnDisk {
                dir: dir.clone(),
                buffer_pages: 16,
            },
            DurabilityConfig::GROUP_COMMIT,
        )
        .unwrap();
        let t = eng
            .create_table(TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("big", DataType::Int),
                    ColumnDef::new("name", DataType::Text),
                    ColumnDef::new("at", DataType::Timestamp),
                ],
            ))
            .unwrap();
        eng.create_index(t, "t_pkey", &["id"]).unwrap();
        eng.create_index(t, "t_name", &["name"]).unwrap();
        let txn = eng.begin().unwrap();
        for i in 0..20 {
            let label = if i % 3 == 0 { vec![7, 9] } else { vec![] };
            eng.insert(txn, t, label, row(i)).unwrap();
        }
        eng.commit(txn).unwrap();
        eng.wal().flush().unwrap();
        rows(&eng)
    };
    assert_eq!(expect.len(), 20);

    // Rewrite the log as a build before the narrow kinds would have: the
    // same records, every row body in the wide kinds.
    let path = dir.join("wal.log");
    let records = Wal::replay_file(&path).unwrap();
    let mut widened_rows = 0;
    let wal = Wal::create(&path, DurabilityConfig::NO_SYNC).unwrap();
    for record in records {
        let record = match record {
            LogRecord::Insert {
                txn,
                table,
                row,
                chain,
                body,
            } => {
                let wide = widened(txn, &body);
                assert!(wide.len() > body.len());
                widened_rows += 1;
                LogRecord::Insert {
                    txn,
                    table,
                    row,
                    chain,
                    body: wide,
                }
            }
            other => other,
        };
        wal.append(record).unwrap();
    }
    wal.flush().unwrap();
    drop(wal);
    assert_eq!(widened_rows, 20);

    let eng = StorageEngine::open(&dir, 16, DurabilityConfig::GROUP_COMMIT).unwrap();
    assert_eq!(format!("{:?}", rows(&eng)), format!("{expect:?}"));
    let t = eng.table_by_name("t").unwrap().id();
    for i in 0..20 {
        let by_id = eng.index_lookup(t, "t_pkey", &[Datum::Int(i)]).unwrap();
        assert_eq!(by_id.len(), 1, "id {i}");
        let by_name = eng.index_lookup(t, "t_name", &[row(i)[2].clone()]).unwrap();
        assert_eq!(by_name, by_id, "id {i}");
    }
    // Redo read the pages' `Int` ranges from the wide bytes: together they
    // span ids 0 to 19, and no page lost its bound to a kind it misread.
    let table = eng.table_by_name("t").unwrap();
    let mut ids = Vec::new();
    table
        .heap()
        .walk::<StorageError>(
            &[0],
            |page| {
                ids.extend(page.ranges());
                Ok(Verdict::Skip)
            },
            |_, _, _| Ok(true),
        )
        .unwrap();
    assert!(!ids.is_empty());
    assert!(ids.iter().all(|r| 0 <= r.lo && r.hi <= 19), "{ids:?}");
    assert_eq!(ids.iter().map(|r| r.lo).min(), Some(0));
    assert_eq!(ids.iter().map(|r| r.hi).max(), Some(19));
    std::fs::remove_dir_all(&dir).ok();
}
