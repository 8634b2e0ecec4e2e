//! Index entries follow the versions some snapshot may still see: over
//! random schedules of inserts, updates, deletes, aborts, index lookups,
//! vacuums, reopens and replica apply, after every step
//!
//! * every index entry names a live heap slot holding a version with that
//!   key, and
//! * every version that is not dead to every snapshot has its entry in
//!   every index,
//!
//! on the primary and on a replica fed its log. The oracle is the index
//! re-derived from a walk of the heap, which is what vacuum used to rebuild
//! every index from. Whether a snapshot may see a version is decided from
//! transaction status and the first snapshot of each running transaction,
//! never from the engine's own dead-version test: the writer did not abort,
//! and the deleter has not committed or some running transaction's first
//! snapshot does not see its commit. A lookup through the index must also
//! return exactly the versions a full scan finds under the same snapshot,
//! and a vacuum must leave behind no version that no snapshot may see.
//!
//! Seeded and shrinking: a failing schedule is greedily minimized (ops are
//! dropped one at a time while the failure reproduces) and printed with its
//! seed.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ifdb_storage::engine::{StorageEngine, StorageKind};
use ifdb_storage::wal::DurabilityConfig;
use ifdb_storage::{
    ColumnDef, DataType, Datum, ReplicaApplier, RowId, Snapshot, StorageError, TableSchema,
    TupleHeader, TxnId, TxnStatus, Verdict, REPLICA_LOCAL_TXN_BASE,
};

/// Keys of the `k` index; `v` is unique per version.
const KEYS: i64 = 4;
/// The two indexes and the column each covers.
const INDEXES: [(&str, usize); 2] = [("kv_k", 0), ("kv_v", 1)];

#[derive(Debug, Clone, Copy)]
enum Op {
    Begin,
    Insert(usize, i64),
    Update(usize, i64),
    Delete(usize, i64),
    Commit(usize),
    Abort(usize),
    Lookup(usize, i64),
    Vacuum,
    Reopen,
    ReplicaApply,
    ReplicaLookup(i64),
    ReplicaVacuum,
}

fn random_schedule(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.gen_range(1..70usize);
    (0..len)
        .map(|_| {
            let who = rng.gen_range(0..4usize);
            let key = rng.gen_range(0..KEYS);
            match rng.gen_range(0..30) {
                0..=3 => Op::Begin,
                4..=7 => Op::Insert(who, key),
                8..=12 => Op::Update(who, key),
                13..=14 => Op::Delete(who, key),
                15..=17 => Op::Commit(who),
                18..=19 => Op::Abort(who),
                20..=23 => Op::Lookup(who, key),
                24..=25 => Op::Vacuum,
                26 => Op::Reopen,
                27 => Op::ReplicaApply,
                28 => Op::ReplicaLookup(key),
                _ => Op::ReplicaVacuum,
            }
        })
        .collect()
}

fn open_primary(dir: &Path) -> StorageEngine {
    StorageEngine::open(dir, 16, DurabilityConfig::NO_SYNC).unwrap()
}

/// One version in the heap: its header and its two fields.
struct Version {
    xmin: TxnId,
    xmax: Option<TxnId>,
    fields: [i64; 2],
}

/// The heap of `kv`, slot by slot, or `None` before the table exists.
fn heap_of(eng: &StorageEngine) -> Option<BTreeMap<RowId, Version>> {
    let t = eng.table_by_name("kv").ok()?;
    let mut heap = BTreeMap::new();
    t.heap()
        .walk::<StorageError>(
            &[],
            |_| Ok(Verdict::Read),
            |row, _, tuple| {
                let int = |i| match tuple.field(i) {
                    Ok(Datum::Int(x)) => x,
                    other => panic!("field {i} of {row}: {other:?}"),
                };
                let fields = [int(0), int(1)];
                heap.insert(
                    row,
                    Version {
                        xmin: tuple.xmin(),
                        xmax: tuple.xmax(),
                        fields,
                    },
                );
                Ok(true)
            },
        )
        .unwrap();
    Some(heap)
}

/// Whether a snapshot that is held or still to come may see `v`: its
/// writer did not abort, and its deleter has not committed or is not seen
/// by the first snapshot of a running transaction (`held`, one per
/// transaction the test began and has not settled). Transaction status and
/// snapshot visibility decide it; the reclaim floor the engine keeps is not
/// consulted.
fn may_be_seen(eng: &StorageEngine, v: &Version, held: &[&Snapshot]) -> bool {
    let txns = eng.txns();
    if txns.status(v.xmin) == TxnStatus::Aborted {
        return false;
    }
    let Some(deleter) = v.xmax else {
        return true;
    };
    let deleter_commit = TupleHeader {
        xmin: deleter,
        xmax: None,
        label: vec![],
    };
    txns.status(deleter) != TxnStatus::Committed
        || held.iter().any(|s| !txns.is_visible(s, &deleter_commit))
}

/// Whether vacuum must have reclaimed `v`: no snapshot may see it, and
/// `held` covers every running transaction. Where it does not (a replica's
/// streamed transactions take no snapshot there), only a version whose
/// writer aborted must be gone.
fn must_be_reclaimed(eng: &StorageEngine, v: &Version, held: &[&Snapshot]) -> bool {
    !may_be_seen(eng, v, held)
        && (eng.txns().active_count() == held.len() as u64
            || eng.txns().status(v.xmin) == TxnStatus::Aborted)
}

/// The two invariants, against the index re-derived from the heap.
fn check_entries(eng: &StorageEngine, who: &str, held: &[&Snapshot]) -> Result<(), String> {
    let Some(heap) = heap_of(eng) else {
        return Ok(());
    };
    let t = eng.table_by_name("kv").unwrap().id();
    for (index, column) in INDEXES {
        let rederived: BTreeMap<RowId, i64> = heap
            .iter()
            .map(|(row, v)| (*row, v.fields[column]))
            .collect();
        let keys: BTreeSet<i64> = (0..KEYS).chain(rederived.values().copied()).collect();
        let mut entries = 0;
        for key in keys {
            let rows = eng.index_lookup(t, index, &[Datum::Int(key)]).unwrap();
            entries += rows.len();
            for row in rows {
                if rederived.get(&row) != Some(&key) {
                    return Err(format!(
                        "{who}: {index} names {row} under {key}, the heap holds {:?} there",
                        rederived.get(&row)
                    ));
                }
            }
        }
        let all = eng.index_range(t, index, None, None).unwrap().len();
        if all != entries {
            return Err(format!(
                "{who}: {index} holds {all} entries, {entries} under known keys"
            ));
        }
        for (row, v) in &heap {
            let key = [Datum::Int(v.fields[column])];
            if may_be_seen(eng, v, held) && !eng.index_lookup(t, index, &key).unwrap().contains(row)
            {
                return Err(format!(
                    "{who}: {index} lost {row}, which a snapshot may see"
                ));
            }
        }
    }
    Ok(())
}

/// The rows of key `k` visible to `snapshot`, through the index (which
/// drops the dead entries it meets) and by a full scan, as `(row, v)`.
fn lookup(eng: &StorageEngine, snapshot: &Snapshot, k: i64) -> Result<Vec<(RowId, i64)>, String> {
    let t = eng.table_by_name("kv").map_err(|e| e.to_string())?.id();
    let rows = eng.index_lookup(t, "kv_k", &[Datum::Int(k)]).unwrap();
    let mut by_index = Vec::new();
    eng.visit_rows::<StorageError>(snapshot, t, rows, |row, tuple| {
        by_index.push((row, tuple.field(1)?.as_int().expect("an Int")));
        Ok(true)
    })
    .map_err(|e| format!("index lookup of {k}: {e}"))?;
    let mut by_scan = Vec::new();
    eng.scan_visible(snapshot, t, |row, v| {
        if v.data[0] == Datum::Int(k) {
            by_scan.push((row, v.data[1].as_int().expect("an Int")));
        }
        true
    })
    .unwrap();
    by_index.sort_unstable();
    by_scan.sort_unstable();
    if by_index != by_scan {
        return Err(format!(
            "key {k}: the index finds {by_index:?}, a scan {by_scan:?}"
        ));
    }
    Ok(by_index)
}

static RUNS: AtomicU64 = AtomicU64::new(0);

/// Runs `ops`, checking both invariants on both engines after every step.
fn run(ops: &[Op]) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!(
        "ifdb-vacuum-exactness-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    let result = run_in(ops, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn run_in(ops: &[Op], dir: &Path) -> Result<(), String> {
    let mut primary = StorageEngine::with_config(
        StorageKind::OnDisk {
            dir: dir.to_path_buf(),
            buffer_pages: 16,
        },
        DurabilityConfig::NO_SYNC,
    )
    .unwrap();
    let t = primary
        .create_table(TableSchema::new(
            "kv",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
        ))
        .unwrap();
    for (index, column) in INDEXES {
        let name = ["k", "v"][column];
        primary.create_index(t, index, &[name]).unwrap();
    }
    let replica = StorageEngine::in_memory();
    replica.txns().reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
    let mut applier = ReplicaApplier::new();
    let mut open: Vec<TxnId> = Vec::new();
    // The snapshot each open transaction took as it began.
    let mut first: HashMap<TxnId, Snapshot> = HashMap::new();
    let mut next_v = 0i64;

    for (step, op) in ops.iter().enumerate() {
        let at = |what: String| format!("step {step} {op:?}: {what}");
        let pick = |open: &[TxnId], i: usize| open.get(i % open.len().max(1)).copied();
        match *op {
            Op::Begin => {
                if open.len() < 3 {
                    let txn = primary.begin().unwrap();
                    first.insert(txn, primary.snapshot(txn));
                    open.push(txn);
                }
            }
            Op::Insert(i, k) => {
                if let Some(txn) = pick(&open, i) {
                    next_v += 1;
                    let values = vec![Datum::Int(k), Datum::Int(next_v)];
                    primary.insert(txn, t, vec![], values).unwrap();
                }
            }
            Op::Update(i, k) | Op::Delete(i, k) => {
                let Some(txn) = pick(&open, i) else { continue };
                let snapshot = primary.snapshot(txn);
                let found = lookup(&primary, &snapshot, k).map_err(at)?;
                let Some(&(row, _)) = found.first() else {
                    continue;
                };
                next_v += 1;
                let values = vec![Datum::Int(k), Datum::Int(next_v)];
                let wrote = match op {
                    Op::Update(..) => primary.update(txn, t, row, vec![], values).map(|_| ()),
                    _ => primary.delete(txn, t, row),
                };
                match wrote {
                    Ok(()) => {}
                    Err(StorageError::WriteConflict { .. }) => {
                        primary.abort(txn).unwrap();
                        open.retain(|o| *o != txn);
                    }
                    Err(e) => return Err(at(format!("write failed: {e}"))),
                }
            }
            Op::Commit(i) | Op::Abort(i) => {
                if let Some(txn) = pick(&open, i) {
                    if matches!(op, Op::Commit(_)) {
                        primary.commit(txn).unwrap();
                    } else {
                        primary.abort(txn).unwrap();
                    }
                    open.retain(|o| *o != txn);
                }
            }
            Op::Lookup(i, k) => match pick(&open, i) {
                Some(txn) => {
                    lookup(&primary, &primary.snapshot(txn), k).map_err(at)?;
                }
                None => {
                    let txn = primary.begin().unwrap();
                    lookup(&primary, &primary.snapshot(txn), k).map_err(at)?;
                    primary.commit(txn).unwrap();
                }
            },
            Op::Vacuum | Op::ReplicaVacuum => {
                let (eng, held) = if matches!(op, Op::Vacuum) {
                    (&primary, open.iter().map(|t| &first[t]).collect())
                } else {
                    (&replica, Vec::new())
                };
                eng.vacuum().unwrap();
                if let Some(heap) = heap_of(eng) {
                    let left = heap.iter().find(|(_, v)| must_be_reclaimed(eng, v, &held));
                    if let Some((row, _)) = left {
                        return Err(at(format!("vacuum left the dead version at {row}")));
                    }
                }
            }
            Op::Reopen => {
                // The transactions still open are in flight at the crash.
                drop(primary);
                primary = open_primary(dir);
                open.clear();
            }
            Op::ReplicaApply => {
                let batch = primary
                    .wal()
                    .read_replication_batch(applier.applied_seq() + 1, usize::MAX);
                applier
                    .apply_batch(&replica, batch.first_seq, &batch.records)
                    .map_err(|e| at(format!("apply: {e}")))?;
            }
            Op::ReplicaLookup(k) => {
                if replica.table_by_name("kv").is_ok() {
                    let txn = replica.begin().unwrap();
                    lookup(&replica, &replica.snapshot(txn), k).map_err(at)?;
                    replica.commit(txn).unwrap();
                }
            }
        }
        first.retain(|t, _| open.contains(t));
        let held: Vec<&Snapshot> = open.iter().map(|t| &first[t]).collect();
        check_entries(&primary, "primary", &held).map_err(at)?;
        check_entries(&replica, "replica", &[]).map_err(at)?;
    }
    Ok(())
}

/// Drops ops one at a time for as long as the schedule keeps failing.
fn shrink(mut ops: Vec<Op>, fails: impl Fn(&[Op]) -> bool) -> Vec<Op> {
    let mut at = 0;
    while at < ops.len() {
        let mut candidate = ops.clone();
        candidate.remove(at);
        if fails(&candidate) {
            ops = candidate;
        } else {
            at += 1;
        }
    }
    ops
}

fn check_seed(seed: u64) {
    let ops = random_schedule(&mut StdRng::seed_from_u64(seed));
    if run(&ops).is_err() {
        let minimal = shrink(ops, |ops| run(ops).is_err());
        let why = run(&minimal).expect_err("shrinking keeps the failure");
        panic!("seed {seed}: {why}\nminimal schedule: {minimal:#?}");
    }
}

#[test]
fn index_entries_are_exactly_the_versions_someone_may_see() {
    for seed in 0..150 {
        check_seed(seed);
    }
}

#[test]
fn lookups_and_vacuum_drop_dead_entries_and_nothing_else() {
    // A fixed schedule that takes every path: an update and a delete under
    // a reader that still holds the old versions, an aborted insert, a
    // lookup that drops, a vacuum, a reopen and a replica catching up.
    use Op::*;
    run(&[
        Begin,
        Insert(0, 1),
        Insert(0, 2),
        Commit(0),
        Begin,
        Begin,
        Update(1, 1),
        Delete(1, 2),
        Commit(1),
        Lookup(0, 1),
        Insert(0, 3),
        Abort(0),
        Lookup(0, 3),
        ReplicaApply,
        ReplicaLookup(1),
        Lookup(0, 1),
        Vacuum,
        Begin,
        Update(0, 1),
        Reopen,
        Lookup(0, 1),
        ReplicaApply,
        ReplicaVacuum,
        ReplicaLookup(1),
    ])
    .unwrap();
}
