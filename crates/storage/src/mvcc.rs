//! Multi-version concurrency control with snapshot isolation.
//!
//! The transaction manager hands out monotonically increasing transaction
//! ids, tracks which transactions are running and which committed, and
//! builds snapshots. A snapshot captures the set of transactions that were
//! in flight when it was taken; a tuple version is visible to the snapshot
//! iff its creating transaction committed before the snapshot and its
//! deleting transaction (if any) did not.
//!
//! This is the same MVCC structure that made the IFDB changes easy in
//! PostgreSQL (Section 7.1): the visibility check is the single place where
//! irrelevant versions are skipped, so it is also where the `ifdb` crate
//! hooks in the Query-by-Label filtering.
//!
//! # What the table holds
//!
//! As with a PostgreSQL snapshot (`xmin`, `xmax`, in-progress xids), what a
//! statement pays depends on who is running *now*, not on who ever ran: an
//! **active list** with one small entry per running transaction, whose ids
//! are all a snapshot copies, and one **commit stamp** per settled
//! transaction that committed writes. An aborted transaction needs no entry
//! (an unknown id reports as aborted), and a transaction that wrote nothing
//! is in no tuple header, so it leaves nothing behind however it ends.
//! Stamps are not pruned yet — when a header may forget its writer belongs
//! with the residency decision (ROADMAP item 9; docs/ARCHITECTURE.md,
//! "Transactions and visibility").

use std::collections::HashMap;
use std::fmt;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::error::{StorageError, StorageResult};
use crate::tuple::TupleHeader;

/// Transaction identifier. Ids increase monotonically; id 0 is reserved as
/// "bootstrap" and is always treated as committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

/// The reserved bootstrap transaction used for data loaded outside any
/// explicit transaction (e.g. benchmark loaders).
pub const BOOTSTRAP_TXN: TxnId = TxnId(0);

/// Base of the id range used for *local* transactions on a read replica.
/// Transactions replicated from a primary keep their primary-assigned ids
/// (small, monotonic from 1); a replica's own read transactions allocate
/// from this disjoint high range so the two can never collide no matter how
/// far the primary's id space grows.
pub const REPLICA_LOCAL_TXN_BASE: u64 = 1 << 62;

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnStatus {
    /// Still running.
    InProgress,
    /// Committed; its effects are durable and visible to later snapshots.
    Committed,
    /// Aborted; its effects must be ignored.
    Aborted,
}

/// A snapshot of transaction state, defining tuple visibility.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The transaction this snapshot belongs to (its own writes are visible).
    pub txn: TxnId,
    /// Every id `>= horizon` was not yet started when the snapshot was taken.
    pub horizon: TxnId,
    /// The other transactions that were in progress when the snapshot was
    /// taken, in ascending id order.
    pub active: Vec<TxnId>,
    /// The commit counter at snapshot time: only transactions whose commit
    /// stamp is below this are visible. The id-based `horizon`/`active`
    /// tests cannot fence transactions whose ids lie outside the local
    /// allocation order — on a read replica, transactions stream in with
    /// the *primary's* (small) ids and commit whenever their `Commit`
    /// record applies, so without the commit floor a commit applied
    /// mid-scan would become visible part-way through and tear the read.
    pub commit_floor: u64,
}

impl Snapshot {
    /// What the snapshot alone says about seeing `other`'s effects: `None`
    /// when that turns on whether (and when) `other` committed.
    fn presumes(&self, other: TxnId) -> Option<bool> {
        if other == self.txn || other == BOOTSTRAP_TXN {
            Some(true)
        } else if other >= self.horizon || self.active.binary_search(&other).is_ok() {
            Some(false)
        } else {
            None
        }
    }
}

/// One running transaction's slot in the active list.
#[derive(Debug, Clone, Copy)]
struct ActiveTxn {
    id: TxnId,
    /// `next_commit_stamp` as of the transaction's begin: the earliest
    /// commit floor any snapshot it takes can carry. Vacuum reclaims a
    /// deleted version only when the deleter's commit stamp is below every
    /// active transaction's begin floor.
    begin_floor: u64,
    /// Whether the log names this transaction (its `Begin` was appended, or
    /// it arrived through the replication stream or recovery). Until then
    /// its id is in no tuple header and it settles without a trace.
    logged: bool,
    /// Set while the transaction's commit record is being written, and for
    /// as long as it is prepared: still in progress for visibility (the
    /// record may not be durable yet), but no second commit and no abort
    /// may race with the record hitting the device.
    claimed: bool,
}

/// Transaction table. Everything lives under one lock so the
/// active→claimed→committed transitions are atomic with respect to
/// snapshots.
#[derive(Debug)]
struct TxnTable {
    /// The next locally allocated id; also the `horizon` handed to snapshots.
    next_id: u64,
    /// The highest id the replication stream has named.
    max_streamed: u64,
    /// Running transactions, sorted by id.
    active: Vec<ActiveTxn>,
    /// Commit-order stamps of settled transactions that committed writes:
    /// assigned from `next_commit_stamp` the moment a transaction commits,
    /// so stamp order is exactly commit-visibility order. Transactions
    /// recovered as committed carry stamp 0 — before every snapshot of this
    /// incarnation.
    committed: HashMap<TxnId, u64>,
    /// The next commit stamp; also the `commit_floor` handed to snapshots.
    next_commit_stamp: u64,
    /// Two-phase-commit participants that voted yes: global transaction id →
    /// local transaction. A prepared transaction stays active and keeps its
    /// claim (no local commit or abort may race the coordinator's
    /// decision); only [`TransactionManager::finish_prepared`] resolves it.
    prepared: HashMap<u64, TxnId>,
    /// Outcomes of resolved 2PC transactions (gid → committed?). Kept so a
    /// coordinator recovering another participant's in-doubt transaction can
    /// ask this node what was decided (the recovery protocol commits an
    /// in-doubt gid iff some participant knows it committed, else presumes
    /// abort). Bounded by the log: reconstructed from Prepare/Decide records
    /// at replay, forgotten at a checkpoint.
    decided: HashMap<u64, bool>,
    /// Transactions started here with [`TransactionManager::begin`].
    started: u64,
    /// Transactions that settled without the log ever naming them.
    read_only: u64,
}

impl TxnTable {
    fn position(&self, txn: TxnId) -> Result<usize, usize> {
        self.active.binary_search_by_key(&txn, |a| a.id)
    }

    /// Adds `id` to the active list unless it is already there; returns
    /// whether it was added.
    fn admit(&mut self, id: TxnId, logged: bool, claimed: bool) -> bool {
        let Err(at) = self.position(id) else {
            return false;
        };
        let entry = ActiveTxn {
            id,
            begin_floor: self.next_commit_stamp,
            logged,
            claimed,
        };
        self.active.insert(at, entry);
        true
    }

    /// Removes the active entry at `at`. A committed writer gets its commit
    /// stamp; an aborted one, or a transaction the log never named, leaves
    /// nothing behind.
    fn retire(&mut self, at: usize, commit: bool) {
        let entry = self.active.remove(at);
        if !entry.logged {
            self.read_only += 1;
        } else if commit {
            self.stamp_commit(entry.id);
        }
    }

    fn stamp_commit(&mut self, txn: TxnId) {
        self.committed.insert(txn, self.next_commit_stamp);
        self.next_commit_stamp += 1;
    }

    /// Whether `other`'s effects are visible to `snapshot`: it committed,
    /// and did so before the snapshot's commit floor.
    fn sees(&self, snapshot: &Snapshot, other: TxnId) -> bool {
        snapshot.presumes(other).unwrap_or_else(|| {
            let stamp = self.committed.get(&other);
            stamp.is_some_and(|stamp| *stamp < snapshot.commit_floor)
        })
    }
}

/// Slots in a [`ScanVisibility`] memo.
const VISIBILITY_SLOTS: usize = 64;

/// Visibility decisions for the versions one scan walks under one snapshot.
///
/// Whether a snapshot sees a transaction's effects never changes while the
/// snapshot lives (a commit that lands later carries a stamp at or above the
/// snapshot's floor), so the answer is remembered per transaction id and the
/// transaction table's lock is taken once per distinct writer, not once per
/// row. Ids are near-sequential, so the memo is a small direct-mapped table:
/// a collision only costs the lookup it replaces.
pub struct ScanVisibility<'a> {
    txns: &'a TransactionManager,
    snapshot: &'a Snapshot,
    seen: [Option<(TxnId, bool)>; VISIBILITY_SLOTS],
}

impl ScanVisibility<'_> {
    fn sees(&mut self, other: TxnId) -> bool {
        let slot = &mut self.seen[(other.0 % VISIBILITY_SLOTS as u64) as usize];
        match *slot {
            Some((id, sees)) if id == other => sees,
            _ => {
                let sees = self.txns.table.read().sees(self.snapshot, other);
                *slot = Some((other, sees));
                sees
            }
        }
    }

    /// [`TransactionManager::is_visible`] for a version created by `xmin`
    /// and deleted or superseded by `xmax`.
    pub fn is_visible(&mut self, xmin: TxnId, xmax: Option<TxnId>) -> bool {
        self.sees(xmin) && !xmax.is_some_and(|x| self.sees(x))
    }
}

/// Counters and sizes of the transaction table, read under one lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TxnCounts {
    /// Transactions started here with [`TransactionManager::begin`]
    /// (replicated transactions are the primary's, not counted).
    pub started: u64,
    /// Of all settled transactions, those the log never named.
    pub read_only: u64,
    /// Transactions currently in progress.
    pub active: u64,
    /// Entries the table holds: active transactions plus commit stamps.
    pub entries: u64,
}

/// The transaction manager: id allocation, status tracking, snapshots.
#[derive(Debug)]
pub struct TransactionManager {
    table: RwLock<TxnTable>,
}

impl Default for TransactionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionManager {
    /// Creates a manager with no transactions.
    pub fn new() -> Self {
        TransactionManager {
            table: RwLock::new(TxnTable {
                next_id: 1,
                max_streamed: 0,
                active: Vec::new(),
                committed: HashMap::new(),
                next_commit_stamp: 1,
                prepared: HashMap::new(),
                decided: HashMap::new(),
                started: 0,
                read_only: 0,
            }),
        }
    }

    /// Starts a transaction, returning its id.
    pub fn begin(&self) -> TxnId {
        let mut table = self.table.write();
        let id = TxnId(table.next_id);
        table.next_id += 1;
        table.started += 1;
        table.admit(id, false, false);
        id
    }

    /// Records that `txn` is about to write its first log record. Returns
    /// `true` exactly once per running transaction: the caller must then
    /// append the transaction's `Begin` before the record itself. From here
    /// on the transaction's id may appear in tuple headers, so its outcome
    /// is kept when it settles.
    pub fn note_first_write(&self, txn: TxnId) -> bool {
        // Every write asks; only a transaction's first takes the exclusive
        // lock, so later ones do not stall the readers sharing it.
        let unlogged = |table: &TxnTable| {
            let at = table.position(txn).ok()?;
            (!table.active[at].logged).then_some(at)
        };
        if unlogged(&self.table.read()).is_none() {
            return false;
        }
        let mut table = self.table.write();
        let first = unlogged(&table);
        if let Some(at) = first {
            table.active[at].logged = true;
        }
        first.is_some()
    }

    /// Commits a transaction.
    pub fn commit(&self, txn: TxnId) -> StorageResult<()> {
        self.settle(txn, TxnStatus::Committed).map(drop)
    }

    /// Aborts a transaction.
    pub fn abort(&self, txn: TxnId) -> StorageResult<()> {
        self.settle(txn, TxnStatus::Aborted).map(drop)
    }

    /// Settles an unclaimed running transaction as `to`, returning whether
    /// the log names it (and so needs the matching outcome record).
    pub(crate) fn settle(&self, txn: TxnId, to: TxnStatus) -> StorageResult<bool> {
        let mut table = self.table.write();
        match table.position(txn) {
            // A committer owns a claimed transaction until its commit
            // record is settled; nobody else may finish it meanwhile.
            Ok(at) if !table.active[at].claimed => {
                let logged = table.active[at].logged;
                table.retire(at, to == TxnStatus::Committed);
                Ok(logged)
            }
            _ => Err(StorageError::InvalidTransaction(txn.0)),
        }
    }

    /// Atomically claims an in-progress transaction for commit, returning
    /// whether the log names it (a transaction that wrote nothing has no
    /// commit record to write). Between this call and
    /// [`TransactionManager::finish_commit`] the transaction stays in
    /// progress for visibility (its commit record may not be durable yet),
    /// but no concurrent `commit`, `abort`, or second `begin_commit` can
    /// succeed — so two racing committers cannot both write a durable
    /// commit record with only one of them winning the in-memory transition.
    pub fn begin_commit(&self, txn: TxnId) -> StorageResult<bool> {
        let mut table = self.table.write();
        match table.position(txn) {
            Ok(at) if !table.active[at].claimed => {
                table.active[at].claimed = true;
                Ok(table.active[at].logged)
            }
            _ => Err(StorageError::InvalidTransaction(txn.0)),
        }
    }

    /// Releases a claim taken by [`TransactionManager::begin_commit`]
    /// without committing (the commit record could not be written); the
    /// transaction is in progress again.
    pub fn cancel_commit(&self, txn: TxnId) {
        let mut table = self.table.write();
        if let Ok(at) = table.position(txn) {
            table.active[at].claimed = false;
        }
    }

    /// Completes a commit claimed by [`TransactionManager::begin_commit`]:
    /// the transaction becomes `Committed` and visible to new snapshots.
    pub fn finish_commit(&self, txn: TxnId) -> StorageResult<()> {
        let mut table = self.table.write();
        match table.position(txn) {
            Ok(at) if table.active[at].claimed => {
                table.retire(at, true);
                Ok(())
            }
            _ => Err(StorageError::InvalidTransaction(txn.0)),
        }
    }

    /// Converts a commit claim taken by [`TransactionManager::begin_commit`]
    /// into a prepared (in-doubt) state under `gid`. The transaction keeps
    /// its claim — local `commit`/`abort` keep failing — and stays in
    /// progress for visibility until [`TransactionManager::finish_prepared`]
    /// applies the coordinator's decision. Fails if `gid` is already in use.
    pub fn mark_prepared(&self, txn: TxnId, gid: u64) -> StorageResult<()> {
        let mut table = self.table.write();
        let claimed = table.position(txn).is_ok_and(|at| table.active[at].claimed);
        if !claimed || table.prepared.contains_key(&gid) {
            return Err(StorageError::InvalidTransaction(txn.0));
        }
        table.prepared.insert(gid, txn);
        Ok(())
    }

    /// The local transaction prepared under `gid`, if any.
    pub fn prepared_txn(&self, gid: u64) -> Option<TxnId> {
        self.table.read().prepared.get(&gid).copied()
    }

    /// Every prepared (in-doubt) transaction as `(gid, txn)` pairs, in
    /// ascending gid order. Used by promotion to carry the in-doubt set
    /// into the new primary's checkpoint image.
    pub fn prepared_entries(&self) -> Vec<(u64, TxnId)> {
        let mut entries: Vec<(u64, TxnId)> = self
            .table
            .read()
            .prepared
            .iter()
            .map(|(g, t)| (*g, *t))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Registers a prepare replicated from the primary's stream: the
    /// transaction (already active via
    /// [`TransactionManager::begin_replicated`], or admitted here when a
    /// checkpoint image delivers the Prepare without a Begin) becomes
    /// in-doubt under `gid`, so a replica promoted to primary can resolve
    /// it. Unlike [`TransactionManager::mark_prepared`] there is no local
    /// commit claim to convert. Idempotent.
    pub fn mark_prepared_replicated(&self, txn: TxnId, gid: u64) {
        let mut table = self.table.write();
        table.prepared.insert(gid, txn);
        table.max_streamed = table.max_streamed.max(txn.0);
        table.admit(txn, true, false);
    }

    /// Replica-side settlement of a replicated `Decide`: forgets the
    /// prepared entry for `txn` and records the outcome under its gid (the
    /// status flip itself is [`TransactionManager::commit_replicated`] /
    /// `abort_replicated`, exactly as for a plain commit).
    pub fn settle_prepared_replicated(&self, txn: TxnId, commit: bool) {
        let mut table = self.table.write();
        let gid = table
            .prepared
            .iter()
            .find_map(|(g, t)| (*t == txn).then_some(*g));
        if let Some(gid) = gid {
            table.prepared.remove(&gid);
            table.decided.insert(gid, commit);
        }
    }

    /// Global transaction ids currently prepared and awaiting a decision,
    /// in ascending order.
    pub fn in_doubt(&self) -> Vec<u64> {
        let mut gids: Vec<u64> = self.table.read().prepared.keys().copied().collect();
        gids.sort_unstable();
        gids
    }

    /// Applies the coordinator's decision to the transaction prepared under
    /// `gid`, committing or aborting it. Returns the resolved local
    /// transaction, or `None` if no transaction is prepared under `gid`
    /// (already decided — the decision is idempotent).
    pub fn finish_prepared(&self, gid: u64, commit: bool) -> Option<TxnId> {
        let mut table = self.table.write();
        let txn = table.prepared.remove(&gid)?;
        if let Ok(at) = table.position(txn) {
            table.retire(at, commit);
        }
        table.decided.insert(gid, commit);
        Some(txn)
    }

    /// What this node knows about global transaction `gid`:
    /// `Some(true)`/`Some(false)` when a decision was applied here, `None`
    /// when the gid is unknown or still in-doubt. The coordinator recovery
    /// protocol commits an in-doubt gid iff some participant answers
    /// `Some(true)`, and otherwise presumes abort.
    pub fn outcome(&self, gid: u64) -> Option<bool> {
        self.table.read().decided.get(&gid).copied()
    }

    /// Re-registers decisions recovered from the log (gid → committed?), so
    /// post-crash outcome queries keep answering.
    pub fn recover_decided(&self, decided: impl IntoIterator<Item = (u64, bool)>) {
        let mut table = self.table.write();
        table.decided.extend(decided);
    }

    /// Re-registers transactions recovered in-doubt from the log: each is
    /// in progress (its effects stay invisible), holds a commit claim, and
    /// awaits the coordinator's decision under its global id.
    pub fn recover_prepared(&self, prepared: impl IntoIterator<Item = (u64, TxnId)>) {
        let mut table = self.table.write();
        for (gid, txn) in prepared {
            if table.prepared.insert(gid, txn).is_none() {
                table.admit(txn, true, true);
            }
        }
    }

    /// The status of a transaction. The bootstrap transaction is always
    /// committed; unknown ids report as aborted (their effects are ignored)
    /// — which includes a transaction that committed without writing, whose
    /// id nothing refers to.
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        if txn == BOOTSTRAP_TXN {
            return TxnStatus::Committed;
        }
        let table = self.table.read();
        if table.position(txn).is_ok() {
            TxnStatus::InProgress
        } else if table.committed.contains_key(&txn) {
            TxnStatus::Committed
        } else {
            TxnStatus::Aborted
        }
    }

    /// Takes a snapshot on behalf of `txn`. Costs O(running transactions).
    pub fn snapshot(&self, txn: TxnId) -> Snapshot {
        let table = self.table.read();
        Snapshot {
            txn,
            horizon: TxnId(table.next_id),
            active: table
                .active
                .iter()
                .map(|a| a.id)
                .filter(|id| *id != txn)
                .collect(),
            commit_floor: table.next_commit_stamp,
        }
    }

    /// Decides whether a tuple version is visible to `snapshot`.
    ///
    /// A version is visible iff its inserting transaction is visible and its
    /// deleting transaction (if any) is not.
    pub fn is_visible(&self, snapshot: &Snapshot, header: &TupleHeader) -> bool {
        let table = self.table.read();
        table.sees(snapshot, header.xmin) && !header.xmax.is_some_and(|x| table.sees(snapshot, x))
    }

    /// A memo of visibility decisions under `snapshot`, for one scan.
    pub fn visibility<'a>(&'a self, snapshot: &'a Snapshot) -> ScanVisibility<'a> {
        ScanVisibility {
            txns: self,
            snapshot,
            seen: [None; VISIBILITY_SLOTS],
        }
    }

    /// Returns `true` if a version whose `xmax` is set can be physically
    /// removed: the deleter committed and no active transaction might still
    /// need the old version. Used by vacuum.
    pub fn is_dead_for_all(&self, header: &TupleHeader) -> bool {
        let Some(xmax) = header.xmax else {
            return false;
        };
        let table = self.table.read();
        let stamp = match table.committed.get(&xmax) {
            Some(stamp) => *stamp,
            None if xmax == BOOTSTRAP_TXN => 0,
            None => return false,
        };
        // The deleter must have committed before every active transaction
        // *began* (commit stamp below every begin floor): only then can no
        // current — or future — snapshot of an active transaction still see
        // the old version. Comparing transaction ids instead would be
        // wrong: a lower id only means an earlier begin, and a reader that
        // began while the deleter was still in progress must keep seeing
        // the pre-delete version for its whole lifetime.
        table.active.iter().all(|a| stamp < a.begin_floor)
    }

    /// Counters and sizes of the transaction table.
    pub(crate) fn counts(&self) -> TxnCounts {
        let table = self.table.read();
        TxnCounts {
            started: table.started,
            read_only: table.read_only,
            active: table.active.len() as u64,
            entries: (table.active.len() + table.committed.len()) as u64,
        }
    }

    /// Number of transactions currently in progress.
    pub fn active_count(&self) -> u64 {
        self.table.read().active.len() as u64
    }

    /// Registers a transaction replicated from a primary as in progress.
    /// Unlike [`TransactionManager::begin`], the id is the primary's — the
    /// local allocator is untouched (replica-local transactions live in the
    /// disjoint [`REPLICA_LOCAL_TXN_BASE`] range). Idempotent.
    pub fn begin_replicated(&self, txn: TxnId) {
        if txn != BOOTSTRAP_TXN {
            let mut table = self.table.write();
            table.max_streamed = table.max_streamed.max(txn.0);
            table.admit(txn, true, false);
        }
    }

    /// Marks a replicated transaction committed, making its tuple versions
    /// visible to new replica snapshots. Tolerates a missing `Begin` (e.g. a
    /// checkpoint image raced the stream): the stamp is installed either
    /// way.
    pub fn commit_replicated(&self, txn: TxnId) {
        self.finish_replicated(txn, true)
    }

    /// Marks a replicated transaction aborted. Also overrides an earlier
    /// replicated commit, mirroring the replay rule that a superseding
    /// `Abort` record wins.
    pub fn abort_replicated(&self, txn: TxnId) {
        self.finish_replicated(txn, false)
    }

    fn finish_replicated(&self, txn: TxnId, commit: bool) {
        if txn == BOOTSTRAP_TXN {
            return;
        }
        let mut table = self.table.write();
        table.max_streamed = table.max_streamed.max(txn.0);
        if let Ok(at) = table.position(txn) {
            table.active.remove(at);
        }
        if commit {
            // The stamp makes the commit visible only to snapshots taken
            // from here on — a replica read mid-scan keeps its consistent
            // view even as the stream applies commits under it.
            table.stamp_commit(txn);
        } else {
            // Abort overriding an earlier replicated commit: withdraw the
            // stamp.
            table.committed.remove(&txn);
        }
    }

    /// Aborts every replicated transaction that is still in progress and
    /// *not* prepared, returning how many there were. Called at promotion:
    /// the old primary's stream is dead, so a streamed `Begin` whose
    /// outcome never arrived can never resolve on this timeline — exactly
    /// like in-flight work at a crash, it aborts. Prepared (in-doubt)
    /// transactions are exempt: the successor resolves those through the
    /// coordinator's decision. Replica-local transactions (ids in the
    /// reserved high range) are untouched — those drain on their own.
    ///
    /// If the promotion that requested this ultimately fails and the node
    /// resumes applying from a live primary, a later streamed `Commit`
    /// simply overrides the abort (superseding stream records win), so the
    /// node still converges to the primary's truth.
    pub fn abort_orphaned_replicated(&self) -> u64 {
        let mut guard = self.table.write();
        let table = &mut *guard;
        let before = table.active.len();
        let prepared = &table.prepared;
        table
            .active
            .retain(|a| a.id.0 >= REPLICA_LOCAL_TXN_BASE || prepared.values().any(|p| *p == a.id));
        (before - table.active.len()) as u64
    }

    /// Moves local id allocation to at least `base`. Called once when an
    /// engine is put into replica mode, with [`REPLICA_LOCAL_TXN_BASE`], so
    /// replica-local read transactions can never collide with ids arriving
    /// on the replication stream.
    pub fn reserve_local_ids(&self, base: u64) {
        let mut table = self.table.write();
        table.next_id = table.next_id.max(base);
    }

    /// Moves local id allocation back out of the replica-local range, to
    /// just past every id the stream ever named. Called once a replica has
    /// become a primary: its transactions now go into tuple headers and onto
    /// its *own* replicas' streams, where an id from the reserved range
    /// would sit above their snapshot horizons (their local readers allocate
    /// there too) and stay invisible after it commits. A no-op on a node
    /// that never was a replica.
    pub(crate) fn leave_replica_id_range(&self) {
        let mut table = self.table.write();
        if table.next_id >= REPLICA_LOCAL_TXN_BASE {
            table.next_id = table.max_streamed + 1;
        }
    }

    /// Discards every *replicated* transaction's state (replica reset
    /// before a fresh bootstrap). Replica-local read transactions (ids in
    /// the reserved high range) survive: a client holding one open across a
    /// stream reset must still be able to commit it, and the id allocator
    /// is left alone so snapshots handed out before the reset stay
    /// internally consistent. Replicated in-doubt entries are rebuilt from
    /// the fresh image's Prepare records (local prepares never happen on a
    /// replica).
    pub fn clear_for_reset(&self) {
        let mut table = self.table.write();
        table.active.retain(|a| a.id.0 >= REPLICA_LOCAL_TXN_BASE);
        table
            .committed
            .retain(|id, _| id.0 >= REPLICA_LOCAL_TXN_BASE);
        table
            .prepared
            .retain(|_, txn| txn.0 >= REPLICA_LOCAL_TXN_BASE);
    }

    /// Restores transaction-manager state after WAL replay: every
    /// transaction in `committed` is registered as committed (so tuple
    /// versions carrying it as `xmin`/`xmax` resolve correctly), and the id
    /// allocator is advanced past `max_seen` so post-recovery transactions
    /// never collide with logged ones. Transactions seen in the log but not
    /// in `committed` need no entry: unknown ids report as aborted, which is
    /// exactly the fate of in-flight work at a crash.
    pub fn recover(&self, committed: impl IntoIterator<Item = TxnId>, max_seen: TxnId) {
        let mut table = self.table.write();
        for txn in committed {
            if txn != BOOTSTRAP_TXN {
                table.committed.insert(txn, 0);
            }
        }
        table.next_id = table.next_id.max(max_seen.0 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(xmin: TxnId, xmax: Option<TxnId>) -> TupleHeader {
        TupleHeader {
            xmin,
            xmax,
            label: vec![],
        }
    }

    /// Begins a transaction and marks it as having written, as the engine
    /// does before a transaction's id goes into a tuple header.
    fn begin_writer(mgr: &TransactionManager) -> TxnId {
        let txn = mgr.begin();
        assert!(mgr.note_first_write(txn), "first write reported once");
        assert!(!mgr.note_first_write(txn));
        txn
    }

    #[test]
    fn committed_inserts_become_visible() {
        let mgr = TransactionManager::new();
        let writer = begin_writer(&mgr);
        let reader = mgr.begin();

        // Before the writer commits, its insert is invisible to the reader.
        let snap = mgr.snapshot(reader);
        assert!(!mgr.is_visible(&snap, &header(writer, None)));

        mgr.commit(writer).unwrap();
        // A snapshot taken while the writer was active still cannot see it
        // (snapshot isolation), but a fresh snapshot can.
        assert!(!mgr.is_visible(&snap, &header(writer, None)));
        let reader2 = mgr.begin();
        let snap2 = mgr.snapshot(reader2);
        assert!(mgr.is_visible(&snap2, &header(writer, None)));
    }

    #[test]
    fn own_writes_are_visible() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        let snap = mgr.snapshot(t);
        assert!(mgr.is_visible(&snap, &header(t, None)));
        // A tuple the transaction itself deleted is no longer visible to it.
        assert!(!mgr.is_visible(&snap, &header(TxnId(0), Some(t))));
    }

    #[test]
    fn aborted_transactions_are_invisible() {
        let mgr = TransactionManager::new();
        let t = begin_writer(&mgr);
        mgr.abort(t).unwrap();
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        assert!(!mgr.is_visible(&snap, &header(t, None)));
        // A delete by an aborted transaction does not hide the tuple.
        assert!(mgr.is_visible(&snap, &header(TxnId(0), Some(t))));
    }

    #[test]
    fn deleted_tuples_visible_to_older_snapshots() {
        let mgr = TransactionManager::new();
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        let deleter = begin_writer(&mgr);
        mgr.commit(deleter).unwrap();
        // The delete committed after the reader's snapshot, so the reader
        // still sees the old version.
        assert!(mgr.is_visible(&snap, &header(TxnId(0), Some(deleter))));
        // A new snapshot does not.
        let reader2 = mgr.begin();
        let snap2 = mgr.snapshot(reader2);
        assert!(!mgr.is_visible(&snap2, &header(TxnId(0), Some(deleter))));
    }

    #[test]
    fn double_commit_rejected() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        mgr.commit(t).unwrap();
        assert!(mgr.commit(t).is_err());
        assert!(mgr.abort(t).is_err());
        assert!(mgr.commit(TxnId(9999)).is_err());
    }

    #[test]
    fn begin_commit_claims_exclusively() {
        let mgr = TransactionManager::new();
        let t = begin_writer(&mgr);
        assert!(mgr.begin_commit(t).unwrap(), "the log names a writer");
        // While claimed, the transaction is still invisible to new snapshots.
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        assert!(!mgr.is_visible(&snap, &header(t, None)));
        // A second committer, a direct commit, and an abort all lose.
        assert!(mgr.begin_commit(t).is_err());
        assert!(mgr.commit(t).is_err());
        assert!(mgr.abort(t).is_err());
        mgr.finish_commit(t).unwrap();
        assert_eq!(mgr.status(t), TxnStatus::Committed);
        // The claim is consumed: finishing twice fails.
        assert!(mgr.finish_commit(t).is_err());
        let snap2 = mgr.snapshot(mgr.begin());
        assert!(mgr.is_visible(&snap2, &header(t, None)));
    }

    #[test]
    fn cancel_commit_returns_txn_to_in_progress() {
        let mgr = TransactionManager::new();
        let t = mgr.begin();
        mgr.begin_commit(t).unwrap();
        mgr.cancel_commit(t);
        assert_eq!(mgr.status(t), TxnStatus::InProgress);
        assert!(mgr.finish_commit(t).is_err(), "claim was released");
        // The transaction can be claimed again, or aborted.
        mgr.begin_commit(t).unwrap();
        mgr.cancel_commit(t);
        mgr.abort(t).unwrap();
        assert!(mgr.begin_commit(t).is_err(), "aborted txn cannot commit");
    }

    #[test]
    fn reset_clears_replicated_but_keeps_local_txns() {
        let mgr = TransactionManager::new();
        mgr.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
        // A replicated stream's transactions...
        mgr.begin_replicated(TxnId(5));
        mgr.begin_replicated(TxnId(6));
        mgr.commit_replicated(TxnId(5));
        // ...and a replica-local read transaction open across the reset.
        let local = mgr.begin();
        assert!(local.0 >= REPLICA_LOCAL_TXN_BASE);
        assert_eq!(mgr.active_count(), 2);
        mgr.clear_for_reset();
        // Replicated statuses gone (unknown ⇒ aborted), local one intact.
        assert_eq!(mgr.status(TxnId(5)), TxnStatus::Aborted);
        assert_eq!(mgr.status(TxnId(6)), TxnStatus::Aborted);
        assert_eq!(mgr.status(local), TxnStatus::InProgress);
        assert_eq!(mgr.active_count(), 1);
        mgr.commit(local).unwrap();
        assert_eq!(mgr.active_count(), 0);
        assert_eq!(mgr.counts().entries, 0, "a read leaves nothing behind");
    }

    #[test]
    fn a_transaction_that_wrote_nothing_leaves_nothing_behind() {
        let mgr = TransactionManager::new();
        let writer = begin_writer(&mgr);
        mgr.commit(writer).unwrap();
        for i in 0..1000 {
            let t = mgr.begin();
            assert_eq!(mgr.status(t), TxnStatus::InProgress);
            if i % 3 == 0 {
                mgr.abort(t).unwrap();
            } else if i % 3 == 1 {
                mgr.commit(t).unwrap();
            } else {
                assert!(!mgr.begin_commit(t).unwrap(), "nothing to make durable");
                mgr.finish_commit(t).unwrap();
            }
            assert!(mgr.commit(t).is_err(), "settled once");
        }
        let counts = mgr.counts();
        assert_eq!((counts.started, counts.read_only), (1001, 1000));
        assert_eq!(
            (counts.active, counts.entries),
            (0, 1),
            "the writer's stamp"
        );
        // An aborted writer leaves nothing either: unknown means aborted.
        let doomed = begin_writer(&mgr);
        mgr.abort(doomed).unwrap();
        assert_eq!(mgr.status(doomed), TxnStatus::Aborted);
        assert_eq!(mgr.counts().entries, 1);
    }

    #[test]
    fn snapshots_list_the_running_transactions_in_id_order() {
        let mgr = TransactionManager::new();
        mgr.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
        // Local ids are huge, streamed ids small, and they interleave in
        // arrival order; the list stays sorted for the snapshot's search.
        let first = mgr.begin();
        mgr.begin_replicated(TxnId(9));
        let second = mgr.begin();
        mgr.begin_replicated(TxnId(4));
        mgr.begin_replicated(TxnId(9)); // idempotent
        let snap = mgr.snapshot(second);
        assert_eq!(snap.active, vec![TxnId(4), TxnId(9), first]);
        assert_eq!(snap.horizon, TxnId(second.0 + 1));
        mgr.commit_replicated(TxnId(4));
        mgr.commit(first).unwrap();
        assert_eq!(mgr.snapshot(second).active, vec![TxnId(9)]);
        assert!(!mgr.is_visible(&snap, &header(TxnId(4), None)));
        assert!(mgr.is_visible(&mgr.snapshot(second), &header(TxnId(4), None)));
    }

    #[test]
    fn a_promoted_replica_allocates_below_its_replicas_local_range() {
        let successor = TransactionManager::new();
        successor.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
        successor.begin_replicated(TxnId(7));
        successor.commit_replicated(TxnId(7));
        successor.abort_replicated(TxnId(9)); // outcome without a Begin
        for _ in 0..5 {
            let reader = successor.begin();
            successor.commit(reader).unwrap();
        }
        successor.leave_replica_id_range();
        let writer = begin_writer(&successor);
        assert_eq!(
            writer,
            TxnId(10),
            "past every streamed id, aborted ones too"
        );
        successor.leave_replica_id_range();
        assert_eq!(
            successor.begin(),
            TxnId(11),
            "idempotent; no reuse on a primary"
        );
        // A surviving replica that has run fewer local reads than the
        // successor had still sees the successor's commit once it streams in.
        let survivor = TransactionManager::new();
        survivor.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
        survivor.begin_replicated(writer);
        survivor.commit_replicated(writer);
        let snap = survivor.snapshot(survivor.begin());
        assert!(survivor.is_visible(&snap, &header(writer, None)));
    }

    #[test]
    fn bootstrap_always_committed() {
        let mgr = TransactionManager::new();
        assert_eq!(mgr.status(BOOTSTRAP_TXN), TxnStatus::Committed);
        let r = mgr.begin();
        let snap = mgr.snapshot(r);
        assert!(mgr.is_visible(&snap, &header(BOOTSTRAP_TXN, None)));
    }

    #[test]
    fn replicated_commit_applied_mid_snapshot_stays_invisible() {
        // Regression: on a replica, transactions stream in with small
        // (primary) ids that the id-based horizon cannot fence. A commit
        // applied after a snapshot was taken must stay invisible to that
        // snapshot, or a single primary transaction could be read torn.
        let mgr = TransactionManager::new();
        mgr.reserve_local_ids(REPLICA_LOCAL_TXN_BASE);
        let reader = mgr.begin();
        let snap = mgr.snapshot(reader);
        // The stream now delivers Begin/Commit for primary txn 7.
        mgr.begin_replicated(TxnId(7));
        assert!(!mgr.is_visible(&snap, &header(TxnId(7), None)));
        mgr.commit_replicated(TxnId(7));
        assert!(
            !mgr.is_visible(&snap, &header(TxnId(7), None)),
            "commit applied mid-snapshot must not become visible"
        );
        // A fresh snapshot sees it.
        let snap2 = mgr.snapshot(mgr.begin());
        assert!(mgr.is_visible(&snap2, &header(TxnId(7), None)));
        // And a replicated delete applied mid-snapshot keeps the row
        // visible to the old snapshot.
        mgr.begin_replicated(TxnId(8));
        mgr.commit_replicated(TxnId(8));
        assert!(mgr.is_visible(&snap, &header(BOOTSTRAP_TXN, Some(TxnId(8)))));
        assert!(!mgr.is_visible(
            &mgr.snapshot(mgr.begin()),
            &header(BOOTSTRAP_TXN, Some(TxnId(8)))
        ));
    }

    #[test]
    fn vacuum_spares_versions_visible_to_overlapping_readers() {
        // Regression: a reader that began while the deleter was still in
        // progress must keep its pre-delete version — comparing transaction
        // ids (begin order) instead of commit stamps would reclaim it.
        let mgr = TransactionManager::new();
        let deleter = begin_writer(&mgr);
        let reader = mgr.begin(); // begins after the deleter, id is larger
        let snap = mgr.snapshot(reader);
        mgr.commit(deleter).unwrap();
        let h = header(BOOTSTRAP_TXN, Some(deleter));
        assert!(
            mgr.is_visible(&snap, &h),
            "reader's snapshot predates the delete commit"
        );
        assert!(
            !mgr.is_dead_for_all(&h),
            "version still needed by the overlapping reader"
        );
        mgr.commit(reader).unwrap();
        assert!(mgr.is_dead_for_all(&h), "reclaimable once the reader ends");
    }

    #[test]
    fn vacuum_eligibility() {
        let mgr = TransactionManager::new();
        let deleter = begin_writer(&mgr);
        let h = header(BOOTSTRAP_TXN, Some(deleter));
        assert!(!mgr.is_dead_for_all(&h), "deleter still in progress");
        mgr.commit(deleter).unwrap();
        assert!(mgr.is_dead_for_all(&h), "no active transactions remain");
        // A live tuple is never dead.
        assert!(!mgr.is_dead_for_all(&header(BOOTSTRAP_TXN, None)));
        // An older active transaction keeps the version alive.
        let _old = mgr.begin();
        let deleter2 = begin_writer(&mgr);
        mgr.commit(deleter2).unwrap();
        assert!(!mgr.is_dead_for_all(&header(BOOTSTRAP_TXN, Some(deleter2))));
    }
}
