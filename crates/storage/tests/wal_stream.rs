//! Differential test of the replication stream: over random schedules of
//! appends of every record kind, group-commit fsyncs, checkpoint rewrites, a
//! promotion-style re-anchor at seq 1 and reopening through `open_existing`
//! (clean or with a torn tail), every batch the log serves
//! from its own frames equals what a model that keeps each record decoded
//! would serve — the in-RAM record mirror the frame index replaced, kept
//! here only as the oracle. The log's `last_seq`, `len` and `shippable_seq`
//! must match the model's too. Runs on a file sink with and without a
//! durability cap, and on the in-memory sink.
//!
//! Seeded and shrinking: a failing schedule is greedily minimized (ops are
//! dropped one at a time while the failure reproduces) and printed with its
//! seed.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ifdb_storage::wal::{DurabilityConfig, LogRecord, ReplicationBatch, Wal};
use ifdb_storage::{ColumnDef, DataType, RowId, TableSchema, TxnId};

/// Where a schedule's log lives.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sink {
    /// A file log whose stream is capped at the last fsync (group commit).
    FileCapped,
    /// A file log without a cap, which ships unsynced records too.
    FileUncapped,
    Memory,
}

impl Sink {
    fn capped(self) -> bool {
        self == Sink::FileCapped
    }

    fn durability(self) -> DurabilityConfig {
        match self {
            Sink::FileCapped => DurabilityConfig::GROUP_COMMIT,
            _ => DurabilityConfig::NO_SYNC,
        }
    }

    fn create(self, path: &Path) -> Wal {
        match self {
            Sink::Memory => Wal::in_memory(),
            _ => Wal::create(path, self.durability()).unwrap(),
        }
    }
}

/// The reference: every record of the current log, decoded, with the
/// sequence numbering and the durability horizon kept by hand.
struct Model {
    records: Vec<LogRecord>,
    base_seq: u64,
    image_len: usize,
    durable_seq: u64,
    capped: bool,
}

impl Model {
    fn new(capped: bool) -> Self {
        Model {
            records: Vec::new(),
            base_seq: 1,
            image_len: 0,
            durable_seq: 0,
            capped,
        }
    }

    fn last_seq(&self) -> u64 {
        self.base_seq + self.records.len() as u64 - 1
    }

    fn shippable_seq(&self) -> u64 {
        if self.capped {
            self.last_seq().min(self.durable_seq)
        } else {
            self.last_seq()
        }
    }

    fn append(&mut self, record: LogRecord) {
        // Alone on the log, a committer leads its own group-commit flush,
        // which covers everything appended so far.
        let durable = matches!(
            record,
            LogRecord::Commit { .. }
                | LogRecord::Prepare { .. }
                | LogRecord::Decide { commit: true, .. }
        );
        self.records.push(record);
        if durable {
            self.durable_seq = self.last_seq();
        }
    }

    fn rewrite(&mut self, image: Vec<LogRecord>) {
        self.base_seq += self.records.len() as u64;
        self.image_len = image.len();
        self.records = image;
        self.durable_seq = self.last_seq();
    }

    /// The deleted mirror's read, verbatim.
    fn read(&self, from_seq: u64, max: usize) -> ReplicationBatch {
        let base = self.base_seq;
        let next = base + self.records.len() as u64;
        let end = self.shippable_seq();
        let from = from_seq.max(1);
        let (reset, start) = if from < base || from > next {
            (true, base)
        } else if from == base && base > 1 && self.image_len > 0 {
            (false, base + self.image_len as u64)
        } else {
            (false, from)
        };
        let lo = (start - base) as usize;
        let hi = self
            .records
            .len()
            .min(lo.saturating_add(max))
            .min((end + 1).saturating_sub(base) as usize)
            .max(lo);
        ReplicationBatch {
            reset,
            first_seq: start,
            end_seq: end,
            records: self.records[lo..hi].to_vec(),
        }
    }
}

/// One step of a schedule.
#[derive(Debug, Clone)]
enum Op {
    Append(LogRecord),
    /// A durability point with nothing to commit: `Wal::sync`.
    Sync,
    /// A checkpoint rewrite installing this image.
    Checkpoint(Vec<LogRecord>),
    /// A brand-new log in this incarnation: with a later `Checkpoint`, a
    /// promotion's re-anchor at seq 1 of a replica's empty log.
    Fresh,
    /// Drop the log and recover it with `open_existing` (file sinks only),
    /// after tacking half a frame onto the file when `torn`.
    Reopen {
        torn: bool,
    },
}

fn random_record(rng: &mut StdRng) -> LogRecord {
    let txn = TxnId(rng.gen_range(1..50));
    let row = RowId {
        page: rng.gen_range(0..8),
        slot: rng.gen_range(0..64),
    };
    let table = rng.gen_range(1..4);
    let bytes = |rng: &mut StdRng| {
        let len = rng.gen_range(0..300);
        (0..len)
            .map(|_| rng.gen::<u32>() as u8)
            .collect::<Vec<u8>>()
    };
    match rng.gen_range(0..13) {
        0 => LogRecord::Begin { txn },
        1 => LogRecord::Commit { txn },
        2 => LogRecord::Abort { txn },
        // Both kinds: a row on the shared tail (3) and on a chain (4).
        kind @ (3 | 4) => LogRecord::Insert {
            txn,
            table,
            row,
            chain: kind == 4,
            body: bytes(rng),
        },
        5 => LogRecord::Delete { txn, table, row },
        6 => LogRecord::Checkpoint,
        7 => LogRecord::CreateTable {
            id: table,
            schema: TableSchema::new(
                &format!("t{table}"),
                (0..rng.gen_range(0..4))
                    .map(|c| ColumnDef::new(&format!("c{c}"), DataType::Int))
                    .collect(),
            ),
        },
        8 => LogRecord::CreateIndex {
            table,
            name: format!("i{}", rng.gen_range(0..9)),
            columns: (0..rng.gen_range(1..3)).collect(),
        },
        9 => LogRecord::Prepare {
            txn,
            gid: rng.gen(),
        },
        10 => LogRecord::Decide {
            txn,
            commit: rng.gen(),
        },
        // A label definition, now and then one too long for a byte to count.
        11 => LogRecord::Label {
            id: rng.gen_range(1..40),
            tags: (0..if rng.gen_range(0..8) == 0 {
                300
            } else {
                rng.gen_range(1..4)
            })
                .map(|_| rng.gen())
                .collect(),
        },
        _ => {
            if rng.gen() {
                LogRecord::Epoch {
                    generation: rng.gen_range(1..5),
                }
            } else {
                LogRecord::Audit {
                    seq: rng.gen_range(1..100),
                    prev: rng.gen(),
                    hash: rng.gen(),
                    bytes: bytes(rng),
                }
            }
        }
    }
}

fn random_schedule(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.gen_range(1..60usize);
    (0..len)
        .map(|_| match rng.gen_range(0..40) {
            0..=29 => Op::Append(random_record(rng)),
            30..=32 => Op::Sync,
            33..=35 => Op::Checkpoint(
                (0..rng.gen_range(0..5))
                    .map(|_| random_record(rng))
                    .collect(),
            ),
            36 => Op::Fresh,
            _ => Op::Reopen {
                torn: rng.gen_bool(0.3),
            },
        })
        .collect()
}

/// Compares the log with the model: the counters, then a batch at each
/// `(from, max)` — decoded, and as the frame payloads a primary ships.
fn compare(wal: &Wal, model: &Model, reads: &[(u64, usize)]) -> Result<(), String> {
    let counters = (wal.last_seq(), wal.len(), wal.shippable_seq());
    let expected = (model.last_seq(), model.records.len(), model.shippable_seq());
    if counters != expected {
        return Err(format!(
            "(last_seq, len, shippable_seq): log {counters:?}, model {expected:?}"
        ));
    }
    for &(from, max) in reads {
        let want = model.read(from, max);
        let got = wal.read_replication_batch(from, max);
        if got != want {
            return Err(format!(
                "read({from}, {max}): log {:?}, model {:?}",
                summary(&got),
                summary(&want)
            ));
        }
        let frames = wal
            .read_replication_frames(from, max)
            .map_err(|e| format!("read_replication_frames({from}, {max}): {e}"))?;
        let encoded: Vec<Vec<u8>> = want.records.iter().map(Wal::encode_record).collect();
        if frames.records != encoded {
            return Err(format!(
                "read_replication_frames({from}, {max}) ships other bytes"
            ));
        }
    }
    Ok(())
}

/// A batch without its payloads, for failure messages.
fn summary(b: &ReplicationBatch) -> (bool, u64, u64, usize) {
    (b.reset, b.first_seq, b.end_seq, b.records.len())
}

/// Runs `ops` on `sink` and on the model, comparing after every step.
fn run(ops: &[Op], sink: Sink, reads: &[Vec<(u64, usize)>], path: &Path) -> Result<(), String> {
    let mut wal = sink.create(path);
    let mut model = Model::new(sink.capped());
    for (step, op) in ops.iter().enumerate() {
        let fail = |why: String| format!("step {step} {op:?}: {why}");
        match op {
            Op::Append(record) => {
                wal.append(record.clone())
                    .map_err(|e| fail(e.to_string()))?;
                model.append(record.clone());
            }
            Op::Sync => {
                wal.sync().map_err(|e| fail(e.to_string()))?;
                model.durable_seq = model.last_seq();
            }
            Op::Checkpoint(image) => {
                let count = wal
                    .rewrite_with(|emit| image.iter().cloned().try_for_each(emit))
                    .map_err(|e| fail(e.to_string()))?;
                if count != image.len() {
                    return Err(fail(format!("rewrite counted {count} records")));
                }
                model.rewrite(image.clone());
            }
            Op::Fresh => {
                drop(wal);
                wal = sink.create(path);
                model = Model::new(sink.capped());
            }
            Op::Reopen { torn } => {
                if sink == Sink::Memory {
                    continue;
                }
                wal.flush().map_err(|e| fail(e.to_string()))?;
                drop(wal);
                if *torn {
                    use std::io::Write;
                    let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
                    f.write_all(&[200, 1, 0, 0, 4, 4]).unwrap();
                }
                let (reopened, recovery) =
                    Wal::open_existing(path, sink.durability()).map_err(|e| fail(e.to_string()))?;
                wal = reopened;
                let torn_bytes = if *torn { 6 } else { 0 };
                if recovery.records != model.records || recovery.torn_bytes != torn_bytes {
                    return Err(fail(format!(
                        "recovered {} records and {} torn bytes, model has {} records",
                        recovery.records.len(),
                        recovery.torn_bytes,
                        model.records.len()
                    )));
                }
                // A new incarnation: numbering restarts over what the file
                // holds, all of it durable.
                let records = std::mem::take(&mut model.records);
                model = Model::new(sink.capped());
                model.records = records;
                model.durable_seq = model.last_seq();
            }
        }
        compare(&wal, &model, &reads[step]).map_err(fail)?;
    }
    Ok(())
}

/// Random `(from, max)` pairs around the positions a log of this length
/// can hold: compacted-away, the image boundary, the tail and beyond.
fn random_reads(rng: &mut StdRng, steps: usize) -> Vec<Vec<(u64, usize)>> {
    (0..steps)
        .map(|_| {
            (0..4)
                .map(|_| {
                    let from = rng.gen_range(0..80);
                    let max = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => rng.gen_range(1..4),
                        2 => rng.gen_range(4..40),
                        _ => usize::MAX,
                    };
                    (from, max)
                })
                .collect()
        })
        .collect()
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

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ifdb-wal-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn check_seed(seed: u64, path: &Path) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sink = [Sink::FileCapped, Sink::FileUncapped, Sink::Memory][rng.gen_range(0..3usize)];
    let ops = random_schedule(&mut rng);
    // Reads belong to step positions, not ops: a shrunk schedule is checked
    // with the reads of the positions it still has.
    let reads = random_reads(&mut rng, ops.len());
    // The decoding read panics on frames it cannot read back, so a panic
    // is a divergence to shrink too.
    let diverges = |ops: &[Op]| {
        std::panic::catch_unwind(AssertUnwindSafe(|| run(ops, sink, &reads, path)))
            .unwrap_or_else(|panic| {
                let what = panic.downcast_ref::<&str>().map(|s| s.to_string());
                let what = what.or_else(|| panic.downcast_ref::<String>().cloned());
                Err(format!("panicked: {}", what.unwrap_or_default()))
            })
            .err()
    };
    if diverges(&ops).is_some() {
        let minimal = shrink(ops, |ops| diverges(ops).is_some());
        let why = diverges(&minimal).expect("shrinking keeps the failure");
        panic!(
            "seed {seed} ({sink:?}) diverges from the model: {why}\n\
             minimal schedule: {minimal:#?}"
        );
    }
}

#[test]
fn the_stream_read_from_frames_equals_the_decoded_log() {
    let dir = scratch_dir();
    let path = dir.join("wal.log");
    for seed in 0..600 {
        check_seed(seed, &path);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_shrinker_minimizes_a_failing_schedule() {
    // The log and the model agree, so fake a divergence: a schedule
    // "fails" for as long as it holds a torn reopen.
    let mut ops = random_schedule(&mut StdRng::seed_from_u64(3));
    ops.push(Op::Reopen { torn: true });
    let minimal = shrink(ops, |ops| {
        ops.iter().any(|op| matches!(op, Op::Reopen { torn: true }))
    });
    assert_eq!(minimal.len(), 1, "{minimal:?}");
}
