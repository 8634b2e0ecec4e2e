//! Log-shipping read replicas: continuous apply plus a read-only front end.
//!
//! A replica node is two loops sharing one in-memory [`Database`]:
//!
//! * the **apply loop** polls the primary's replication endpoint
//!   (`ReplPoll` over the ordinary wire protocol) from its applied-seq
//!   watermark, applies each batch through
//!   [`ifdb_storage::ReplicaApplier`] and polls again at once — that next
//!   poll is the acknowledgement of what was just applied, and a poll with
//!   nothing to ship parks on the primary's log until more becomes
//!   shippable, so there is no timer anywhere. It refreshes the relational
//!   catalog when DDL streams through, and handles the three stream
//!   events — **reset** (the primary compacted history past our watermark:
//!   discard state and re-bootstrap from the checkpoint image), **epoch
//!   change** (the primary restarted: sequence numbers are incomparable,
//!   re-bootstrap), and **disconnect** (reconnect with backoff and resume
//!   from the watermark — the applier skips records it already holds, so
//!   overlap after a torn connection is harmless);
//! * the **read front end** is a stock `ifdb-server` over the same
//!   database, marked read-only ([`Database::replica_over`]): every
//!   connection gets a real DIFC [`ifdb::Session`], so Query by Label,
//!   declassifying views, and the commit-label rule are enforced on the
//!   replica *exactly* as on the primary — the paper's guarantees do not
//!   weaken on a follower. Writes are refused with `READ_ONLY`.
//!
//! The DIFC authority state and the catalog's constraint/view metadata are
//! code, not logged data (the same contract as [`Database::open`] after a
//! crash): the caller's `bootstrap` closure re-creates principals, tags and
//! views — with the same `authority_seed` and creation order as the
//! primary, so the numeric tag ids embedded in replicated tuples line up.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use ifdb::{Database, DatabaseConfig, IfdbError, IfdbResult, TableDef};
use ifdb_client::protocol::{read_frame_id, write_frame_id, Request, Response};
use ifdb_platform::Authenticator;
use ifdb_storage::{ReplicaApplier, StorageEngine, Wal};

use crate::{start_with_applied_watermark, ServerConfig, ServerHandle};

/// Configuration of a replica node.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Address of the primary `ifdb-server`.
    pub primary_addr: String,
    /// The primary's replication secret
    /// ([`ServerConfig::replication_secret`]).
    pub replication_secret: String,
    /// Configuration of the replica's own read front end (listen address,
    /// worker pool, ...). Its `replication_secret` should stay `None`:
    /// cascading replication is not supported.
    pub server: ServerConfig,
    /// Authority-state seed; **must** equal the primary's so principal and
    /// tag ids re-created by the bootstrap closure line up with the ids
    /// stored in replicated tuples.
    pub seed: u64,
    /// Backoff between reconnect attempts after the replication connection
    /// fails.
    pub reconnect_interval: Duration,
    /// Maximum records requested per poll (0 = primary's default). On the
    /// primary, a poll holds one serving thread while it runs — up to
    /// [`crate::REPL_POLL_PARK`] when it parks with nothing to ship — so a
    /// primary whose commits wait for this replica needs one thread beyond
    /// those commits.
    pub batch_max: u32,
    /// The application's first-boot table DDL, re-run on **promotion**.
    /// Constraints (uniques, foreign keys, label constraints) are code, not
    /// logged data: tables arriving over the replication stream carry
    /// `constraints_pending` and are read-only. Re-running the same
    /// [`TableDef`]s re-attaches the constraints to the replicated rows
    /// (exactly the `Database::open` recovery contract), which is what
    /// lifts the promoted node's tables into writability. Tables not named
    /// here stay read-only after promotion.
    pub first_boot_tables: Vec<TableDef>,
}

impl ReplicaConfig {
    /// A replica of `primary_addr` with defaults: ephemeral listen port,
    /// 50 ms reconnect backoff.
    pub fn new(primary_addr: &str, replication_secret: &str, seed: u64) -> Self {
        ReplicaConfig {
            primary_addr: primary_addr.to_string(),
            replication_secret: replication_secret.to_string(),
            server: ServerConfig::default(),
            seed,
            reconnect_interval: Duration::from_millis(50),
            batch_max: 0,
            first_boot_tables: Vec::new(),
        }
    }

    /// Sets the first-boot DDL re-run on promotion
    /// ([`ReplicaConfig::first_boot_tables`]).
    pub fn with_first_boot_tables(mut self, tables: Vec<TableDef>) -> Self {
        self.first_boot_tables = tables;
        self
    }
}

/// A snapshot of a replica's apply-loop counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Applied-seq watermark: the highest primary log sequence applied.
    pub applied_seq: u64,
    /// The primary's last observed (durable) sequence number; lag is
    /// `primary_end_seq - applied_seq`.
    pub primary_end_seq: u64,
    /// Log records applied since start (across resets).
    pub records_applied: u64,
    /// Non-empty batches applied.
    pub batches: u64,
    /// Stream resets (bootstrap + re-bootstraps after checkpoint
    /// truncation or primary restart).
    pub resets: u64,
    /// Replication connections established (1 = never lost the stream).
    pub connects: u64,
    /// Batches refused because they carried a promotion generation lower
    /// than one this replica has already seen: a fenced (or not yet
    /// self-fenced "zombie") old primary kept serving its divergent tail
    /// after a successor was promoted, and the replica must not apply it.
    pub stale_batches_rejected: u64,
}

struct ReplicaShared {
    stop: AtomicBool,
    applied_seq: Arc<AtomicU64>,
    /// Signalled (under `applied_lock`) whenever the apply loop publishes
    /// `applied_seq`, for [`ReplicaHandle::wait_for_seq`].
    applied_lock: StdMutex<()>,
    applied_cvar: Condvar,
    epoch: Arc<AtomicU64>,
    primary_end_seq: AtomicU64,
    records_applied: AtomicU64,
    batches: AtomicU64,
    resets: AtomicU64,
    connects: AtomicU64,
    stale_batches_rejected: AtomicU64,
    /// The address the apply loop (re)connects to. Mutable so a failover
    /// orchestrator can re-point a surviving replica at the promoted
    /// successor; takes effect on the next reconnect.
    primary_addr: StdMutex<String>,
    /// Promotion rendezvous between requesters ([`ReplicaHandle::promote`],
    /// the wire `Promote` hook) and the apply loop, which owns the applier
    /// and performs the actual switch between polls.
    promote: StdMutex<PromoteSlot>,
    promote_cvar: Condvar,
}

impl ReplicaShared {
    fn new(primary_addr: &str) -> ReplicaShared {
        ReplicaShared {
            stop: AtomicBool::new(false),
            applied_seq: Arc::new(AtomicU64::new(0)),
            applied_lock: StdMutex::new(()),
            applied_cvar: Condvar::new(),
            epoch: Arc::new(AtomicU64::new(0)),
            primary_end_seq: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            stale_batches_rejected: AtomicU64::new(0),
            primary_addr: StdMutex::new(primary_addr.to_string()),
            promote: StdMutex::new(PromoteSlot::default()),
            promote_cvar: Condvar::new(),
        }
    }

    /// Publishes the applied-seq watermark and wakes its waiters.
    fn publish_applied(&self, seq: u64) {
        self.applied_seq.store(seq, Ordering::Release);
        let _guard = self.applied_lock.lock().expect("applied lock");
        self.applied_cvar.notify_all();
    }

    /// Blocks until the applied-seq reaches `seq` or `timeout` elapses;
    /// returns whether it did.
    fn wait_applied(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.applied_lock.lock().expect("applied lock");
        while self.applied_seq.load(Ordering::Acquire) < seq {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            guard = self
                .applied_cvar
                .wait_timeout(guard, deadline - now)
                .expect("applied lock")
                .0;
        }
        true
    }
}

#[derive(Default)]
struct PromoteSlot {
    /// Set by a requester; consumed by the apply loop.
    requested: bool,
    /// The apply loop's answer: the new promotion generation, or why the
    /// promotion failed. A success is sticky (promotion is idempotent).
    result: Option<Result<u64, String>>,
}

/// How long a promotion waits for replica-local read transactions to drain
/// before giving up (the promotion checkpoint needs a quiesced database
/// apart from replicated prepared transactions).
const PROMOTE_DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// How long [`ReplicaHandle::promote`] and the wire `Promote` hook wait for
/// the apply loop to pick up and finish the promotion.
const PROMOTE_WAIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running replica node: the apply loop and the read front end.
pub struct ReplicaHandle {
    server: ServerHandle,
    db: Database,
    shared: Arc<ReplicaShared>,
    apply_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ReplicaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaHandle")
            .field("addr", &self.server.addr())
            .field(
                "applied_seq",
                &self.shared.applied_seq.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl ReplicaHandle {
    /// The address the replica's read front end listens on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The replica's database (read-only; fed by the apply loop).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The read front end's server handle (statistics etc.).
    pub fn server(&self) -> &ServerHandle {
        &self.server
    }

    /// A cloneable view of the applied-seq watermark, for samplers that
    /// outlive a borrow of the handle (e.g. lag monitors).
    pub fn applied_seq_handle(&self) -> Arc<AtomicU64> {
        self.shared.applied_seq.clone()
    }

    /// Apply-loop counters.
    pub fn stats(&self) -> ReplicaStats {
        ReplicaStats {
            applied_seq: self.shared.applied_seq.load(Ordering::Acquire),
            primary_end_seq: self.shared.primary_end_seq.load(Ordering::Relaxed),
            records_applied: self.shared.records_applied.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            resets: self.shared.resets.load(Ordering::Relaxed),
            connects: self.shared.connects.load(Ordering::Relaxed),
            stale_batches_rejected: self.shared.stale_batches_rejected.load(Ordering::Relaxed),
        }
    }

    /// Promotes this replica to a primary (see the module docs): the apply
    /// loop drains replica-local transactions, re-anchors the write-ahead
    /// log with a promotion checkpoint under the next promotion generation,
    /// lifts read-only mode, best-effort fences the old primary, and exits.
    /// Blocks until the switch completes; returns the new generation.
    /// Idempotent — promoting an already promoted node returns its
    /// generation again.
    pub fn promote(&self) -> IfdbResult<u64> {
        request_promote(&self.shared, PROMOTE_WAIT_TIMEOUT).map_err(|detail| IfdbError::Remote {
            code: ifdb_client::protocol::code::REMOTE as u16,
            detail: format!("promotion failed: {detail}"),
        })
    }

    /// Re-points the apply loop at a different primary (a freshly promoted
    /// successor). Takes effect on the next reconnect; callers typically
    /// pair it with dropping the current stream by letting it error out.
    pub fn set_primary(&self, addr: &str) {
        *self.shared.primary_addr.lock().expect("primary_addr lock") = addr.to_string();
    }

    /// Blocks until the replica's applied-seq reaches `seq` or the timeout
    /// elapses; returns whether it caught up.
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        self.shared.wait_applied(seq, timeout)
    }

    /// Stops the apply loop and shuts the read front end down.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.apply_thread.take() {
            let _ = t.join();
        }
        self.server.shutdown();
    }
}

/// One pull connection to the primary's replication endpoint.
///
/// The connection pipelines: while the apply loop is busy applying batch
/// *N*, the poll for batch *N+1* is already in flight ([`Self::prefetch`]),
/// overlapping the primary's WAL scan and the network transfer with local
/// apply work instead of serializing them.
struct StreamConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
    /// An in-flight prefetched poll: `(req_id, from_seq, max)`.
    pending: Option<(u32, u64, u32)>,
}

impl StreamConn {
    fn connect(addr: &str) -> std::io::Result<StreamConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(StreamConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 1,
            pending: None,
        })
    }

    fn send_poll(
        &mut self,
        secret: &str,
        from_seq: u64,
        max: u32,
        applied_seq: u64,
        generation: u64,
    ) -> IfdbResult<u32> {
        let req = Request::ReplPoll {
            secret: secret.to_string(),
            from_seq,
            max,
            applied_seq,
            generation,
        };
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        write_frame_id(&mut self.writer, id, &req.encode())?;
        Ok(id)
    }

    fn recv(&mut self, expect_id: u32) -> IfdbResult<Response> {
        let (id, payload) = read_frame_id(&mut self.reader)?.ok_or_else(|| IfdbError::Remote {
            code: ifdb_client::protocol::code::PROTOCOL as u16,
            detail: "primary closed the replication connection".into(),
        })?;
        // id 0 is a connection-level frame (e.g. a shutdown notice); it
        // decodes to an error the caller turns into a reconnect.
        if id != 0 && id != expect_id {
            return Err(IfdbError::Remote {
                code: ifdb_client::protocol::code::PROTOCOL as u16,
                detail: "replication response id does not match".into(),
            });
        }
        Response::decode(&payload)
    }

    /// One poll round trip — answered by the in-flight prefetch when its
    /// position matches, otherwise by a fresh request (draining a stale
    /// prefetch first to keep the FIFO stream in sync).
    fn poll(
        &mut self,
        secret: &str,
        from_seq: u64,
        max: u32,
        applied_seq: u64,
        generation: u64,
    ) -> IfdbResult<Response> {
        if let Some((id, p_from, p_max)) = self.pending.take() {
            if p_from == from_seq && p_max == max {
                return self.recv(id);
            }
            let _ = self.recv(id)?;
        }
        let id = self.send_poll(secret, from_seq, max, applied_seq, generation)?;
        self.recv(id)
    }

    /// Sends the next poll without waiting for its response.
    fn prefetch(
        &mut self,
        secret: &str,
        from_seq: u64,
        max: u32,
        applied_seq: u64,
        generation: u64,
    ) {
        if self.pending.is_none() {
            if let Ok(id) = self.send_poll(secret, from_seq, max, applied_seq, generation) {
                self.pending = Some((id, from_seq, max));
            }
        }
    }
}

/// Starts a replica of the primary at `config.primary_addr`.
///
/// `bootstrap` re-creates the code-not-data state (principals, tags,
/// declassifying views, procedures; see the [module docs](self)) on the
/// fresh replica database. It runs once, before the initial sync, and the
/// authority state it builds survives stream resets (only storage-level
/// state is discarded on reset).
///
/// The call performs the initial sync — connect, bootstrap snapshot, apply
/// until caught up with the primary's position at connect time — before
/// starting the read front end, so a returned handle serves non-empty,
/// near-current data immediately. Fails if the primary is unreachable or
/// refuses replication.
pub fn start_replica(
    config: ReplicaConfig,
    auth: Arc<Authenticator>,
    bootstrap: impl FnOnce(&Database) -> IfdbResult<()>,
) -> IfdbResult<ReplicaHandle> {
    let db = Database::replica_over(
        StorageEngine::in_memory(),
        DatabaseConfig::in_memory().with_seed(config.seed),
    );
    bootstrap(&db)?;

    let shared = Arc::new(ReplicaShared::new(&config.primary_addr));

    // Initial sync: catch up to the primary's position as of now, so the
    // front end never serves an empty database to its first client.
    let mut applier = ReplicaApplier::new();
    let mut conn = StreamConn::connect(&config.primary_addr).map_err(|e| IfdbError::Remote {
        code: ifdb_client::protocol::code::PROTOCOL as u16,
        detail: format!("connect {}: {e}", config.primary_addr),
    })?;
    shared.connects.fetch_add(1, Ordering::Relaxed);
    loop {
        let caught_up = apply_one_poll(&config, &db, &shared, &mut applier, &mut conn)?;
        if caught_up {
            break;
        }
    }

    // The front end authenticates HA control requests (`Promote`, `Fence`
    // — and, after promotion, `ReplPoll`) with the same replication secret
    // the replica uses toward its primary, unless the caller configured a
    // different one explicitly.
    let mut server_config = config.server.clone();
    if server_config.replication_secret.is_none() {
        server_config.replication_secret = Some(config.replication_secret.clone());
    }
    let server = start_with_applied_watermark(
        db.clone(),
        auth,
        server_config,
        shared.applied_seq.clone(),
        shared.epoch.clone(),
    )?;

    // Wire `Promote` requests funnel into the apply loop through the same
    // rendezvous as `ReplicaHandle::promote`.
    {
        let hook_shared = shared.clone();
        let mut hook = server.shared.ha.promote.lock().expect("promote lock");
        *hook = Some(Box::new(move || {
            request_promote(&hook_shared, PROMOTE_WAIT_TIMEOUT)
        }));
    }

    let loop_shared = shared.clone();
    let loop_db = db.clone();
    let loop_config = config.clone();
    let loop_server = server.shared.clone();
    let apply_thread = std::thread::Builder::new()
        .name("ifdb-replica-apply".into())
        .spawn(move || {
            apply_loop(
                loop_config,
                loop_db,
                loop_shared,
                loop_server,
                applier,
                Some(conn),
            );
        })
        .expect("spawn replica apply thread");

    Ok(ReplicaHandle {
        server,
        db,
        shared,
        apply_thread: Some(apply_thread),
    })
}

/// Issues one poll and applies its batch. Returns `Ok(true)` when the
/// replica has caught up with the primary's current end (empty batch).
fn apply_one_poll(
    config: &ReplicaConfig,
    db: &Database,
    shared: &ReplicaShared,
    applier: &mut ReplicaApplier,
    conn: &mut StreamConn,
) -> IfdbResult<bool> {
    // Every poll advertises our applied-seq (feeding the primary's
    // semi-sync acknowledgement gate) and the highest promotion generation
    // we have seen (fencing: a deposed primary that sees a higher
    // generation in a poll fences itself before serving a single record).
    let known_generation = db.engine().wal().generation();
    let resp = conn.poll(
        &config.replication_secret,
        applier.applied_seq() + 1,
        config.batch_max,
        applier.applied_seq(),
        known_generation,
    )?;
    let Response::ReplBatch {
        epoch,
        generation,
        reset,
        first_seq,
        end_seq,
        records,
    } = resp
    else {
        if let Response::Error {
            code,
            detail,
            label0,
            label1,
            aux,
            ..
        } = resp
        {
            return Err(ifdb_client::protocol::decode_error(
                code, detail, label0, label1, aux,
            ));
        }
        return Err(IfdbError::Remote {
            code: ifdb_client::protocol::code::PROTOCOL as u16,
            detail: "unexpected replication response".into(),
        });
    };
    // Generation check (the replica-side half of fencing): a batch from a
    // lower promotion generation than one we have already seen is the
    // divergent tail of a deposed primary — a "zombie" that kept serving
    // before (or instead of) fencing itself. It must never be applied, not
    // even transiently: applying it could resurrect effects the successor
    // never acknowledged. The primary-side poll check above usually fences
    // the zombie first; this check is the backstop when it does not (e.g. a
    // response that was already in flight, or a primary that skips the
    // self-fence).
    if generation < known_generation {
        shared
            .stale_batches_rejected
            .fetch_add(1, Ordering::Relaxed);
        return Err(IfdbError::Remote {
            code: ifdb_client::protocol::code::FENCED as u16,
            detail: format!(
                "rejecting batch from stale primary: generation {generation} < known {known_generation}"
            ),
        });
    }
    if generation > known_generation {
        // Learned of a promotion from the stream itself (e.g. after being
        // re-pointed at the successor); remember it for future polls.
        db.engine().wal().set_generation(generation);
    }
    let known_epoch = shared.epoch.load(Ordering::Acquire);
    let epoch_changed = known_epoch != 0 && known_epoch != epoch;
    if epoch_changed || reset {
        // Epoch change: the primary restarted and our watermark refers to
        // a log that no longer exists — discard and re-poll from scratch.
        // Reset: same recovery, but the batch in hand is already the start
        // of the new bootstrap, so it applies below.
        applier.reset(db.engine());
        shared.publish_applied(0);
        shared.resets.fetch_add(1, Ordering::Relaxed);
        db.resync_catalog()?;
        if epoch_changed && !reset {
            shared.epoch.store(epoch, Ordering::Release);
            return Ok(false);
        }
    }
    shared.epoch.store(epoch, Ordering::Release);
    shared.primary_end_seq.store(end_seq, Ordering::Relaxed);
    if records.is_empty() {
        // An empty batch can still move the stream position: the primary
        // skips its checkpoint image for a replica that already has the
        // state it describes, answering with `first_seq` past the image.
        // The watermark must follow, or a second checkpoint would mistake
        // this replica for a lagging one and force a needless re-bootstrap.
        applier.advance_to(first_seq.saturating_sub(1));
        shared.publish_applied(applier.applied_seq());
        return Ok(true);
    }
    // Clean mid-stream batch with more behind it: pipeline the next poll
    // now, so the primary prepares batch N+1 while we apply batch N. Dirty
    // batches (reset / epoch change) skip the prefetch — the next position
    // is only trustworthy once this batch has applied.
    let next_from = first_seq + records.len() as u64;
    if !reset && !epoch_changed && next_from <= end_seq {
        conn.prefetch(
            &config.replication_secret,
            next_from,
            config.batch_max,
            applier.applied_seq(),
            db.engine().wal().generation(),
        );
    }
    let mut decoded = Vec::with_capacity(records.len());
    for bytes in &records {
        decoded.push(Wal::decode_record(bytes).ok_or_else(|| IfdbError::Remote {
            code: ifdb_client::protocol::code::PROTOCOL as u16,
            detail: "undecodable record on the replication stream".into(),
        })?);
    }
    let applied = applier.apply_batch(db.engine(), first_seq, &decoded)?;
    // Publish the watermark only after the whole batch applied, so a
    // read-your-writes client that observes seq S sees every effect ≤ S.
    shared.publish_applied(applier.applied_seq());
    shared
        .records_applied
        .store(applier.records_applied(), Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    if applied.saw_ddl {
        db.resync_catalog()?;
    }
    Ok(applier.applied_seq() >= end_seq)
}

/// The background apply loop: poll, apply, poll again at once; when the
/// stream drops, back off and reconnect, resuming from the watermark. The
/// backoff is the loop's only sleep: a caught-up replica's poll parks on
/// the primary's log (see [`crate::REPL_POLL_PARK`]), and each poll carries
/// the acknowledgement of the batch applied before it. Between polls it
/// watches for a promotion request; a successful promotion ends the loop —
/// the node is a primary now and there is nothing left to apply.
fn apply_loop(
    config: ReplicaConfig,
    db: Database,
    shared: Arc<ReplicaShared>,
    server: Arc<crate::Shared>,
    mut applier: ReplicaApplier,
    mut conn: Option<StreamConn>,
) {
    while !shared.stop.load(Ordering::Relaxed) {
        if take_promote_request(&shared) {
            let result = run_promotion(&config, &db, &shared, &server);
            let promoted = result.is_ok();
            finish_promote(&shared, result);
            if promoted {
                return;
            }
            continue;
        }
        let Some(stream) = conn.as_mut() else {
            let addr = shared
                .primary_addr
                .lock()
                .expect("primary_addr lock")
                .clone();
            match StreamConn::connect(&addr) {
                Ok(c) => {
                    shared.connects.fetch_add(1, Ordering::Relaxed);
                    conn = Some(c);
                }
                Err(_) => {
                    std::thread::sleep(config.reconnect_interval);
                }
            }
            continue;
        };
        if apply_one_poll(&config, &db, &shared, &mut applier, stream).is_err() {
            // Torn frame, checksum mismatch, half-closed socket, apply
            // failure, stale-generation batch: drop the connection and
            // resume from the watermark on a fresh one (possibly to a
            // re-pointed primary). Records the new connection may
            // re-deliver are skipped by the applier.
            conn = None;
            std::thread::sleep(config.reconnect_interval);
        }
    }
}

/// Consumes a pending promotion request, if any.
fn take_promote_request(shared: &ReplicaShared) -> bool {
    let mut slot = shared.promote.lock().expect("promote lock");
    if slot.requested && slot.result.is_none() {
        slot.requested = false;
        true
    } else {
        false
    }
}

/// Publishes the apply loop's promotion outcome and wakes every waiter.
fn finish_promote(shared: &ReplicaShared, result: Result<u64, String>) {
    let mut slot = shared.promote.lock().expect("promote lock");
    slot.result = Some(result);
    shared.promote_cvar.notify_all();
}

/// Requests a promotion and blocks until the apply loop reports the
/// outcome. Sticky-idempotent: once a promotion has succeeded, every later
/// request returns the same generation immediately.
fn request_promote(shared: &ReplicaShared, timeout: Duration) -> Result<u64, String> {
    let deadline = Instant::now() + timeout;
    let mut slot = shared.promote.lock().expect("promote lock");
    match &slot.result {
        Some(Ok(generation)) => return Ok(*generation),
        Some(Err(_)) => slot.result = None, // retry after a failure
        None => {}
    }
    slot.requested = true;
    loop {
        if let Some(result) = &slot.result {
            return result.clone();
        }
        let now = Instant::now();
        if now >= deadline {
            return Err("timed out waiting for the apply loop".into());
        }
        let (guard, _) = shared
            .promote_cvar
            .wait_timeout(slot, deadline - now)
            .expect("promote lock");
        slot = guard;
    }
}

/// The promotion itself, run on the apply thread (which owns the applier,
/// so no batch can race the switch):
///
/// 1. retry [`Database::promote_to_primary`] until replica-local read
///    transactions drain (bounded by [`PROMOTE_DRAIN_TIMEOUT`]) — this
///    re-anchors the write-ahead log with a checkpoint image that carries
///    every replicated row *and* every still-undecided prepared transaction
///    under the next promotion generation, and lifts read-only mode;
/// 2. flip the front end's watermark to the local log (its own epoch);
/// 3. best-effort fence the old primary so a zombie that comes back cannot
///    acknowledge writes the new timeline will never contain.
fn run_promotion(
    config: &ReplicaConfig,
    db: &Database,
    shared: &ReplicaShared,
    server: &crate::Shared,
) -> Result<u64, String> {
    let generation = db.engine().wal().generation() + 1;
    let deadline = Instant::now() + PROMOTE_DRAIN_TIMEOUT;
    loop {
        match db.promote_to_primary(generation) {
            Ok(_) => break,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("database did not quiesce: {e}"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    // Re-attach the code-not-data constraint state before the node serves
    // its first write: replicated tables are `constraints_pending` (DDL over
    // the stream carries schemas, not constraint code), and a primary must
    // never run without enforcement the old primary had.
    for def in &config.first_boot_tables {
        if let Err(e) = db.create_table(def.clone()) {
            return Err(format!(
                "first-boot DDL re-run failed for {:?}: {e}",
                def.name
            ));
        }
    }
    server.ha.promoted.store(true, Ordering::Release);
    let old_primary = shared
        .primary_addr
        .lock()
        .expect("primary_addr lock")
        .clone();
    // Best effort: the old primary is typically dead or partitioned (that
    // is why we are promoting); if it is reachable, fence it immediately
    // instead of waiting for its first stale poll or write.
    let _ = send_fence(&old_primary, &config.replication_secret, generation);
    Ok(generation)
}

/// One-shot `Fence` notice to `addr`: a successor with promotion
/// generation `generation` exists.
fn send_fence(addr: &str, secret: &str, generation: u64) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let req = Request::Fence {
        secret: secret.to_string(),
        generation,
    };
    write_frame_id(&mut writer, 1, &req.encode())
        .map_err(|e| std::io::Error::other(format!("{e}")))?;
    let mut reader = BufReader::new(stream);
    let _ = read_frame_id(&mut reader);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_for_seq_returns_true_once_the_apply_loop_publishes_it() {
        let shared = ReplicaShared::new("127.0.0.1:1");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| shared.wait_applied(7, Duration::from_secs(30)));
            shared.publish_applied(3);
            shared.publish_applied(7);
            assert!(waiter.join().unwrap());
        });
        assert!(shared.wait_applied(7, Duration::ZERO), "reached: no wait");
    }

    #[test]
    fn wait_for_seq_returns_false_on_timeout() {
        let shared = ReplicaShared::new("127.0.0.1:1");
        shared.publish_applied(6);
        let started = Instant::now();
        assert!(!shared.wait_applied(7, Duration::from_millis(30)));
        assert!(started.elapsed() >= Duration::from_millis(30));
    }
}
