//! Differential test of the transaction table: over random schedules of
//! every state transition, `TransactionManager`'s snapshots, visibility and
//! vacuum eligibility agree with a reference model that keeps every status
//! forever and scans it — the implementation the active-list table replaced,
//! kept here only as the oracle.
//!
//! Seeded and shrinking: a failing schedule is greedily minimized (ops are
//! dropped one at a time while the failure reproduces) and printed with its
//! seed.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ifdb_storage::mvcc::{Snapshot, BOOTSTRAP_TXN};
use ifdb_storage::{TransactionManager, TupleHeader, TxnId, TxnStatus, REPLICA_LOCAL_TXN_BASE};

/// The reference: one status per transaction ever seen, never pruned;
/// snapshots filter the whole map.
#[derive(Default)]
struct Model {
    next_id: u64,
    status: HashMap<TxnId, TxnStatus>,
    begin_floors: HashMap<TxnId, u64>,
    committing: HashSet<TxnId>,
    commit_stamps: HashMap<TxnId, u64>,
    next_commit_stamp: u64,
    prepared: HashMap<u64, TxnId>,
}

struct ModelSnapshot {
    txn: TxnId,
    horizon: TxnId,
    active: HashSet<TxnId>,
    commit_floor: u64,
}

impl Model {
    fn new(first_id: u64) -> Self {
        Model {
            next_id: first_id,
            next_commit_stamp: 1,
            ..Model::default()
        }
    }

    fn start(&mut self, id: TxnId) {
        self.status.insert(id, TxnStatus::InProgress);
        self.begin_floors.insert(id, self.next_commit_stamp);
    }

    fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        self.start(id);
        id
    }

    fn stamp(&mut self, txn: TxnId) {
        self.commit_stamps.insert(txn, self.next_commit_stamp);
        self.next_commit_stamp += 1;
    }

    fn in_progress(&self, txn: TxnId) -> bool {
        self.status.get(&txn) == Some(&TxnStatus::InProgress)
    }

    fn finish(&mut self, txn: TxnId, to: TxnStatus) -> bool {
        if self.committing.contains(&txn) || !self.in_progress(txn) {
            return false;
        }
        self.status.insert(txn, to);
        if to == TxnStatus::Committed {
            self.stamp(txn);
        }
        self.begin_floors.remove(&txn);
        true
    }

    fn begin_commit(&mut self, txn: TxnId) -> bool {
        self.in_progress(txn) && self.committing.insert(txn)
    }

    fn cancel_commit(&mut self, txn: TxnId) {
        self.committing.remove(&txn);
    }

    fn finish_commit(&mut self, txn: TxnId) -> bool {
        if !self.committing.remove(&txn) {
            return false;
        }
        self.status.insert(txn, TxnStatus::Committed);
        self.stamp(txn);
        self.begin_floors.remove(&txn);
        true
    }

    fn mark_prepared(&mut self, txn: TxnId, gid: u64) -> bool {
        if !self.committing.contains(&txn) || self.prepared.contains_key(&gid) {
            return false;
        }
        self.prepared.insert(gid, txn);
        true
    }

    fn finish_prepared(&mut self, gid: u64, commit: bool) -> Option<TxnId> {
        let txn = self.prepared.remove(&gid)?;
        self.committing.remove(&txn);
        if commit {
            self.status.insert(txn, TxnStatus::Committed);
            self.stamp(txn);
        } else {
            self.status.insert(txn, TxnStatus::Aborted);
        }
        self.begin_floors.remove(&txn);
        Some(txn)
    }

    fn begin_replicated(&mut self, txn: TxnId) {
        if !self.status.contains_key(&txn) {
            self.start(txn);
        }
    }

    fn finish_replicated(&mut self, txn: TxnId, commit: bool) {
        if commit {
            self.status.insert(txn, TxnStatus::Committed);
            self.stamp(txn);
        } else {
            self.status.insert(txn, TxnStatus::Aborted);
            self.commit_stamps.remove(&txn);
        }
        self.begin_floors.remove(&txn);
    }

    fn abort_orphaned_replicated(&mut self) -> u64 {
        let prepared: HashSet<TxnId> = self.prepared.values().copied().collect();
        let orphans: Vec<TxnId> = self
            .status
            .iter()
            .filter(|(id, s)| {
                id.0 < REPLICA_LOCAL_TXN_BASE
                    && **s == TxnStatus::InProgress
                    && !prepared.contains(id)
            })
            .map(|(id, _)| *id)
            .collect();
        for txn in &orphans {
            self.status.insert(*txn, TxnStatus::Aborted);
            self.committing.remove(txn);
            self.begin_floors.remove(txn);
        }
        orphans.len() as u64
    }

    fn clear_for_reset(&mut self) {
        let local = |id: &TxnId| id.0 >= REPLICA_LOCAL_TXN_BASE;
        self.status.retain(|id, _| local(id));
        self.committing.retain(local);
        self.prepared.retain(|_, txn| local(txn));
        self.begin_floors.retain(|id, _| local(id));
        self.commit_stamps.retain(|id, _| local(id));
    }

    fn status(&self, txn: TxnId) -> TxnStatus {
        if txn == BOOTSTRAP_TXN {
            return TxnStatus::Committed;
        }
        self.status.get(&txn).copied().unwrap_or(TxnStatus::Aborted)
    }

    /// The deleted walk: every transaction ever started is visited.
    fn snapshot(&self, txn: TxnId) -> ModelSnapshot {
        ModelSnapshot {
            txn,
            horizon: TxnId(self.next_id),
            active: self
                .status
                .iter()
                .filter(|(id, s)| **s == TxnStatus::InProgress && **id != txn)
                .map(|(id, _)| *id)
                .collect(),
            commit_floor: self.next_commit_stamp,
        }
    }

    fn sees(&self, snap: &ModelSnapshot, other: TxnId) -> bool {
        if other == snap.txn || other == BOOTSTRAP_TXN {
            return true;
        }
        if other >= snap.horizon || snap.active.contains(&other) {
            return false;
        }
        let stamp = self.commit_stamps.get(&other).copied().unwrap_or(0);
        self.status(other) == TxnStatus::Committed && stamp < snap.commit_floor
    }

    fn is_visible(&self, snap: &ModelSnapshot, h: &TupleHeader) -> bool {
        self.sees(snap, h.xmin) && !h.xmax.is_some_and(|x| self.sees(snap, x))
    }

    fn is_dead_for_all(&self, h: &TupleHeader) -> bool {
        let Some(xmax) = h.xmax else {
            return false;
        };
        if self.status(xmax) != TxnStatus::Committed {
            return false;
        }
        let stamp = self.commit_stamps.get(&xmax).copied().unwrap_or(0);
        self.begin_floors.values().all(|floor| stamp < *floor)
    }
}

/// One step of a schedule. Local transactions are named by position in the
/// order they began (modulo how many there are), replicated ones by id.
#[derive(Debug, Clone, Copy)]
enum Op {
    Begin,
    Write(usize),
    Commit(usize),
    Abort(usize),
    BeginCommit(usize),
    FinishCommit(usize),
    CancelCommit(usize),
    MarkPrepared(usize, u64),
    FinishPrepared(u64, bool),
    BeginReplicated(u64),
    CommitReplicated(u64),
    AbortReplicated(u64),
    AbortOrphaned,
    ClearForReset,
    Snapshot(usize),
}

const REPLICATED_IDS: u64 = 10;
const GIDS: u64 = 4;

fn random_schedule(rng: &mut StdRng, replica: bool) -> Vec<Op> {
    let len = rng.gen_range(1..60usize);
    (0..len)
        .map(|_| {
            let who = rng.gen_range(0..8usize);
            let id = rng.gen_range(1..=REPLICATED_IDS);
            let gid = rng.gen_range(0..GIDS);
            match rng.gen_range(0..if replica { 30 } else { 22 }) {
                0..=4 => Op::Begin,
                5..=7 => Op::Write(who),
                8..=9 => Op::Commit(who),
                10 => Op::Abort(who),
                11..=12 => Op::BeginCommit(who),
                13..=14 => Op::FinishCommit(who),
                15 => Op::CancelCommit(who),
                16 => Op::MarkPrepared(who, gid),
                17 => Op::FinishPrepared(gid, rng.gen_bool(0.5)),
                18..=21 => Op::Snapshot(who),
                22..=23 => Op::BeginReplicated(id),
                24..=25 => Op::CommitReplicated(id),
                26..=27 => Op::AbortReplicated(id),
                28 => Op::AbortOrphaned,
                _ => Op::ClearForReset,
            }
        })
        .collect()
}

/// Runs `ops` against both implementations, comparing after every step.
fn run(ops: &[Op], replica: bool) -> Result<(), String> {
    let real = TransactionManager::new();
    if replica {
        real.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
    }
    let mut model = Model::new(if replica { REPLICA_LOCAL_TXN_BASE } else { 1 });
    let mut locals: Vec<TxnId> = Vec::new();
    // Ids that may sit in a tuple header: transactions that wrote, and
    // everything the stream ever named. A read-only transaction's id is in
    // no header, which is what lets the table forget it.
    let mut writers: Vec<TxnId> = vec![BOOTSTRAP_TXN];
    // Replicated ids that settled once: a stream never re-begins them.
    let mut settled: HashSet<u64> = HashSet::new();
    let mut snapshots: Vec<(Snapshot, ModelSnapshot)> = Vec::new();

    for (step, op) in ops.iter().enumerate() {
        let local = |i: usize| locals.get(i % locals.len().max(1)).copied();
        let agree = |what: &str, a: bool, b: bool| {
            if a == b {
                Ok(())
            } else {
                Err(format!("step {step} {op:?}: {what}: real {a}, model {b}"))
            }
        };
        match *op {
            Op::Begin => {
                let (a, b) = (real.begin(), model.begin());
                agree("begin id", a == b, true)?;
                locals.push(a);
            }
            Op::Write(i) => {
                if let Some(t) = local(i) {
                    if real.note_first_write(t) {
                        writers.push(t);
                    }
                }
            }
            Op::Commit(i) => {
                if let Some(t) = local(i) {
                    agree(
                        "commit",
                        real.commit(t).is_ok(),
                        model.finish(t, TxnStatus::Committed),
                    )?;
                }
            }
            Op::Abort(i) => {
                if let Some(t) = local(i) {
                    agree(
                        "abort",
                        real.abort(t).is_ok(),
                        model.finish(t, TxnStatus::Aborted),
                    )?;
                }
            }
            Op::BeginCommit(i) => {
                if let Some(t) = local(i) {
                    let claimed = real.begin_commit(t);
                    agree("begin_commit", claimed.is_ok(), model.begin_commit(t))?;
                    if let Ok(logged) = claimed {
                        agree("logged flag", logged, writers.contains(&t))?;
                    }
                }
            }
            Op::FinishCommit(i) => {
                if let Some(t) = local(i) {
                    // A prepared transaction's claim belongs to the
                    // coordinator; the engine never finishes it locally.
                    if !model.prepared.values().any(|p| *p == t) {
                        agree(
                            "finish_commit",
                            real.finish_commit(t).is_ok(),
                            model.finish_commit(t),
                        )?;
                    }
                }
            }
            Op::CancelCommit(i) => {
                if let Some(t) = local(i) {
                    if !model.prepared.values().any(|p| *p == t) {
                        real.cancel_commit(t);
                        model.cancel_commit(t);
                    }
                }
            }
            Op::MarkPrepared(i, gid) => {
                if let Some(t) = local(i) {
                    // One gid per transaction, as the engine does it.
                    if !model.prepared.values().any(|p| *p == t) {
                        agree(
                            "mark_prepared",
                            real.mark_prepared(t, gid).is_ok(),
                            model.mark_prepared(t, gid),
                        )?;
                    }
                }
            }
            Op::FinishPrepared(gid, commit) => {
                let (a, b) = (
                    real.finish_prepared(gid, commit),
                    model.finish_prepared(gid, commit),
                );
                agree("finish_prepared", a == b, true)?;
            }
            Op::BeginReplicated(id) => {
                if replica && !settled.contains(&id) {
                    real.begin_replicated(TxnId(id));
                    model.begin_replicated(TxnId(id));
                    writers.push(TxnId(id));
                }
            }
            Op::CommitReplicated(id) | Op::AbortReplicated(id) => {
                if replica {
                    // Includes a commit with no Begin, and either outcome
                    // overriding the other.
                    let commit = matches!(op, Op::CommitReplicated(_));
                    if commit {
                        real.commit_replicated(TxnId(id));
                    } else {
                        real.abort_replicated(TxnId(id));
                    }
                    model.finish_replicated(TxnId(id), commit);
                    settled.insert(id);
                    writers.push(TxnId(id));
                }
            }
            Op::AbortOrphaned => {
                if replica {
                    let (a, b) = (
                        real.abort_orphaned_replicated(),
                        model.abort_orphaned_replicated(),
                    );
                    agree("orphans aborted", a == b, true)?;
                    settled.extend(1..=REPLICATED_IDS);
                }
            }
            Op::ClearForReset => {
                if replica {
                    real.clear_for_reset();
                    model.clear_for_reset();
                    settled.clear();
                }
            }
            Op::Snapshot(i) => {
                let t = local(i).unwrap_or(BOOTSTRAP_TXN);
                snapshots.push((real.snapshot(t), model.snapshot(t)));
            }
        }

        writers.sort_unstable();
        writers.dedup();
        let (fresh, fresh_model) = (real.snapshot(BOOTSTRAP_TXN), model.snapshot(BOOTSTRAP_TXN));
        agree("horizon", fresh.horizon == fresh_model.horizon, true)?;
        agree(
            "active is sorted and unique",
            fresh.active.windows(2).all(|w| w[0] < w[1]),
            true,
        )?;
        agree(
            "active set",
            fresh.active.iter().copied().collect::<HashSet<_>>() == fresh_model.active,
            true,
        )?;
        agree(
            "active count",
            real.active_count() == fresh_model.active.len() as u64,
            true,
        )?;
        for w in &writers {
            agree("status", real.status(*w) == model.status(*w), true)?;
        }
        let fresh_pair = (fresh, fresh_model);
        for xmin in &writers {
            for xmax in std::iter::once(None).chain(writers.iter().map(|w| Some(*w))) {
                let header = TupleHeader {
                    xmin: *xmin,
                    xmax,
                    label: vec![],
                };
                agree(
                    &format!("is_dead_for_all {xmin}/{xmax:?}"),
                    real.is_dead_for_all(&header),
                    model.is_dead_for_all(&header),
                )?;
                for (k, (snap, model_snap)) in snapshots
                    .iter()
                    .chain(std::iter::once(&fresh_pair))
                    .enumerate()
                {
                    agree(
                        &format!("is_visible {xmin}/{xmax:?} to snapshot {k}"),
                        real.is_visible(snap, &header),
                        model.is_visible(model_snap, &header),
                    )?;
                }
            }
        }
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
    let mut rng = StdRng::seed_from_u64(seed);
    let replica = rng.gen_bool(0.6);
    let ops = random_schedule(&mut rng, replica);
    if run(&ops, replica).is_err() {
        let minimal = shrink(ops, |ops| run(ops, replica).is_err());
        let why = run(&minimal, replica).expect_err("shrinking keeps the failure");
        panic!(
            "seed {seed} (replica mode: {replica}) diverges from the model: {why}\n\
             minimal schedule: {minimal:#?}"
        );
    }
}

#[test]
fn snapshots_and_visibility_agree_with_the_keep_everything_model() {
    for seed in 0..400 {
        check_seed(seed);
    }
}

#[test]
fn the_shrinker_minimizes_a_failing_schedule() {
    // The two implementations agree, so fake a divergence: a schedule
    // "fails" for as long as it holds a replicated commit of id 3.
    let mut ops = random_schedule(&mut StdRng::seed_from_u64(7), true);
    ops.push(Op::CommitReplicated(3));
    let minimal = shrink(ops, |ops| {
        ops.iter().any(|op| matches!(op, Op::CommitReplicated(3)))
    });
    assert_eq!(minimal.len(), 1, "{minimal:?}");
}
