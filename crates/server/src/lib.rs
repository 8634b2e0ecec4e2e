//! `ifdb-server`: the concurrent network front end of the IFDB reproduction.
//!
//! The paper's IFDB is a *server*: application processes connect over a wire
//! protocol, each connection carries a process label and acts for one
//! principal, and the DBMS enforces Query by Label per connection while many
//! clients operate concurrently (Section 7). This crate provides that front
//! door for the reproduction:
//!
//! * an **event-driven, run-to-completion core** (the default
//!   [`Backend::Reactor`]): `workers` identical serving threads wait on one
//!   epoll instance (the in-tree [`polling`] crate) where every connection
//!   is registered one-shot; the thread that receives a connection's event
//!   reads its frames, executes them and writes the replies itself, with
//!   no thread hand-off, so thousands of mostly-idle labeled connections
//!   cost a few KB each and no thread of their own;
//! * a **pipelined wire protocol**: clients send many request frames per
//!   flush; the server executes each connection's requests strictly in
//!   FIFO order (so the §7.2 label piggybacking on responses stays
//!   coherent) and echoes each request's id on its response;
//! * **reactor-native backpressure**: a connection whose response queue
//!   outgrows [`ServerConfig::outbound_buffer_limit`] stops being *read*
//!   until the peer drains it, so a slow reader cannot balloon server
//!   memory; the accept-time refusal remains only as a connection-count
//!   quota ([`ServerConfig::max_connections`]);
//! * the legacy **blocking thread pool** ([`Backend::ThreadPool`]) kept as
//!   an alternative backend (and as the bench baseline): a bounded accept
//!   queue feeding `workers` threads, one connection served per thread;
//! * per-connection [`ifdb::Session`] state: the process label, the open
//!   transaction, and result cursors for streamed batches;
//! * a **server-wide prepared-statement cache** ([`StatementCache`]): value-
//!   free statement templates are deduplicated across connections and
//!   executions send a 4-byte id plus parameters;
//! * per-connection **statement timeouts** (which also cancel any
//!   queued-but-unexecuted pipelined statements behind the timed-out one)
//!   and **graceful shutdown** that drains in-flight transactions *and*
//!   pipelined request queues briefly, then aborts stragglers, so recovery
//!   after a restart stays clean.
//!
//! The wire protocol lives in [`ifdb_client::protocol`]; this crate is the
//! serving half.

#![deny(missing_docs)]

mod pool;
mod qos;
mod reactor;
pub mod replica;

pub use replica::{start_replica, ReplicaConfig, ReplicaHandle, ReplicaStats};

use std::collections::{HashMap, VecDeque};
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use ifdb::{Database, IfdbError, IfdbResult, QosConfig, Row, Session, SessionApi, StatementResult};
use ifdb_client::protocol::{
    code, decode_template, encode_error, write_frame_id, MetricsSnapshot, Request, Response,
    WireRow, PROTOCOL_VERSION,
};
use ifdb_difc::Label;
use ifdb_platform::Authenticator;
use parking_lot::RwLock;

/// Which serving core a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The event-driven core: `workers` serving threads share one epoll
    /// instance, and whichever thread receives a connection's event reads,
    /// executes and replies for it. Scales to thousands of mostly-idle
    /// connections.
    #[default]
    Reactor,
    /// The blocking thread-per-connection pool: `workers` threads, each
    /// serving one connection at a time, with a bounded accept queue.
    /// Concurrency is capped at `workers`.
    ThreadPool,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Which serving core to run; [`Backend::Reactor`] by default.
    pub backend: Backend,
    /// Serving threads. On the reactor backend each one waits for events,
    /// then reads, executes and replies for the connection it received, so
    /// this bounds how many statements run at once (a statement blocked in
    /// an fsync or a semi-sync wait holds one of them, and so does a
    /// replication poll parked for at most [`REPL_POLL_PARK`]) but not how
    /// many connections are open. On the thread-pool backend each serves one
    /// connection at a time, so it also caps concurrent connections.
    pub workers: usize,
    /// Thread-pool backend only — bounded accept queue: connections beyond
    /// `workers` wait here; beyond the backlog they are refused with
    /// `SERVER_BUSY`.
    pub accept_backlog: usize,
    /// Reactor backend only — hard cap on concurrently open connections;
    /// beyond it, new connections are refused with `SERVER_BUSY`. This is
    /// the only accept-time refusal the reactor performs: load is otherwise
    /// absorbed by per-connection backpressure, not by refusing admission.
    pub max_connections: usize,
    /// Reactor backend only — per-connection bound (bytes) on buffered
    /// response data. A connection whose un-flushed responses exceed it is
    /// paused (no more of its requests are read or executed) until the peer
    /// drains below half the bound, so a slow reader holds at most ~this
    /// much server memory instead of ballooning it.
    pub outbound_buffer_limit: usize,
    /// Per-connection statement timeout. A statement that exceeds it inside
    /// an explicit transaction aborts the transaction and reports
    /// `STATEMENT_TIMEOUT`; an auto-committed statement past the deadline is
    /// delivered (its effects are already durable) but counted as slow.
    pub statement_timeout: Duration,
    /// Default rows per result batch when the client does not ask for a
    /// specific fetch size.
    pub fetch_batch: usize,
    /// Maximum number of distinct statement templates the server-wide cache
    /// holds; further distinct shapes are refused (steady-state workloads
    /// use a handful).
    pub stmt_cache_capacity: usize,
    /// Shared secret that marks a connection as a trusted platform (web/app
    /// server), allowing password-less user switches on the session-cookie
    /// path.
    pub platform_secret: Option<String>,
    /// Shared secret that authorizes replication polls
    /// (`Request::ReplPoll`). `None` disables replication entirely. A
    /// replica is *fully trusted*: the stream carries every tuple version
    /// regardless of label — label enforcement happens again on the replica
    /// when it serves reads.
    pub replication_secret: Option<String>,
    /// Default (and maximum) records per replication batch when the replica
    /// does not ask for a specific size.
    pub replication_batch: usize,
    /// How long shutdown waits for connections with open transactions to
    /// finish before aborting them.
    pub drain_timeout: Duration,
    /// How the logical database is partitioned across primary shard nodes,
    /// shared verbatim with shard-aware clients ([`ifdb_client::shard`]).
    /// `None` means this server is an unsharded (single) primary. The map
    /// is descriptive on the server side — statements are routed by the
    /// client — but carrying it here lets operators configure every node
    /// from one description and lets tooling introspect the topology.
    pub shard_map: Option<Arc<ifdb_client::shard::ShardMap>>,
    /// Which shard of [`ServerConfig::shard_map`] this node serves
    /// (ignored when `shard_map` is `None`).
    pub shard_id: usize,
    /// Semi-synchronous replication: when set, a write acknowledgement
    /// (`Commit`'s `Ok`, an auto-committed `Execute`'s `Affected`) is
    /// withheld until a replica has reported — via the `applied_seq`
    /// piggybacked on its `ReplPoll` — that it has applied at least the
    /// acknowledged sequence. If no replica confirms within this window the
    /// client gets `REPLICATION_LAG`: the commit is durable *locally* but
    /// its replication is indeterminate, so a failover may or may not carry
    /// it. `None` (the default) acknowledges as soon as the local log does.
    pub sync_replication: Option<Duration>,
    /// The initial QoS policy: per-statement execution budgets, per-principal
    /// admission quotas, and scheduling weights. Unlimited by default; hot-
    /// reloadable at runtime via the authenticated `Reconfigure` wire request
    /// (admission quotas are enforced on the reactor backend only).
    pub qos: QosConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::Reactor,
            workers: 16,
            accept_backlog: 32,
            max_connections: 4096,
            outbound_buffer_limit: 1 << 20,
            statement_timeout: Duration::from_secs(5),
            fetch_batch: 256,
            stmt_cache_capacity: 4096,
            platform_secret: None,
            replication_secret: None,
            replication_batch: 512,
            drain_timeout: Duration::from_secs(2),
            shard_map: None,
            shard_id: 0,
            sync_replication: None,
            qos: QosConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Starts a [`ServerConfigBuilder`] from the defaults. Unlike mutating
    /// the public fields directly, the builder's [`ServerConfigBuilder::build`]
    /// cross-validates the result and refuses inconsistent combinations
    /// (a shard id without a shard map, semi-sync without replication,
    /// admission quotas on the thread-pool backend).
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`] that validates cross-field consistency at
/// [`ServerConfigBuilder::build`] time. Every setter mirrors one public
/// config field; invalid *combinations* — each field being individually
/// fine — are what the builder exists to catch before a server silently
/// misbehaves.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the bind address (port 0 for ephemeral).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Selects the serving core.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Sets the serving thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the statement timeout.
    pub fn statement_timeout(mut self, timeout: Duration) -> Self {
        self.config.statement_timeout = timeout;
        self
    }

    /// Sets the trusted-platform secret.
    pub fn platform_secret(mut self, secret: impl Into<String>) -> Self {
        self.config.platform_secret = Some(secret.into());
        self
    }

    /// Enables replication with the given shared secret.
    pub fn replication_secret(mut self, secret: impl Into<String>) -> Self {
        self.config.replication_secret = Some(secret.into());
        self
    }

    /// Enables semi-synchronous replication with the given confirmation
    /// window (requires [`Self::replication_secret`]).
    pub fn sync_replication(mut self, window: Duration) -> Self {
        self.config.sync_replication = Some(window);
        self
    }

    /// Declares the shard topology and which shard this node serves.
    pub fn shard(mut self, map: Arc<ifdb_client::shard::ShardMap>, shard_id: usize) -> Self {
        self.config.shard_map = Some(map);
        self.config.shard_id = shard_id;
        self
    }

    /// Sets the initial QoS policy (budgets, quotas, weights).
    pub fn qos(mut self, qos: QosConfig) -> Self {
        self.config.qos = qos;
        self
    }

    /// Applies `f` to the partially built config for the fields without a
    /// dedicated setter — the escape hatch that keeps the builder total
    /// over the flat struct without fifteen trivial methods.
    pub fn tune(mut self, f: impl FnOnce(&mut ServerConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> IfdbResult<ServerConfig> {
        let c = &self.config;
        let invalid = |detail: String| IfdbError::Remote {
            code: code::PROTOCOL as u16,
            detail,
        };
        if c.workers == 0 {
            return Err(invalid("workers must be at least 1".into()));
        }
        match &c.shard_map {
            None => {
                if c.shard_id != 0 {
                    return Err(invalid(format!(
                        "shard_id {} is set but no shard_map is configured",
                        c.shard_id
                    )));
                }
            }
            Some(map) => {
                if c.shard_id >= map.shards() {
                    return Err(invalid(format!(
                        "shard_id {} out of range for a {}-shard map",
                        c.shard_id,
                        map.shards()
                    )));
                }
            }
        }
        if c.sync_replication.is_some() && c.replication_secret.is_none() {
            return Err(invalid(
                "sync_replication requires replication_secret: no replica could ever confirm"
                    .into(),
            ));
        }
        let quotas_limited =
            c.qos.default_quota != ifdb::PrincipalQuota::unlimited() || !c.qos.overrides.is_empty();
        if quotas_limited && c.backend == Backend::ThreadPool {
            return Err(invalid(
                "admission quotas require the reactor backend; the thread-pool backend does not \
                 consult the QoS gate"
                    .into(),
            ));
        }
        Ok(self.config)
    }
}

/// A snapshot of the server's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served (or queued).
    pub connections_accepted: u64,
    /// Connections refused by admission control (queue full).
    pub connections_rejected: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Protocol requests handled.
    pub requests: u64,
    /// Statements executed (Execute messages).
    pub statements: u64,
    /// Prepared-statement cache hits (an Execute resolved a cached template,
    /// or a Prepare found its template already cached).
    pub stmt_cache_hits: u64,
    /// Prepared-statement cache misses (a Prepare registered a new
    /// template).
    pub stmt_cache_misses: u64,
    /// Distinct templates resident in the cache.
    pub stmt_cache_size: u64,
    /// Statements that exceeded the statement timeout inside an explicit
    /// transaction (transaction aborted).
    pub statement_timeouts: u64,
    /// Auto-committed statements that finished past the deadline (delivered,
    /// but flagged).
    pub slow_statements: u64,
    /// In-flight transactions aborted because their connection died or the
    /// server shut down before they finished.
    pub txns_aborted_on_disconnect: u64,
    /// Requests that arrived (or were already queued) after shutdown began
    /// and were still executed during the drain window.
    pub requests_drained_on_shutdown: u64,
    /// Pipelined requests still queued when the shutdown drain deadline
    /// passed; they were discarded, not executed.
    pub requests_aborted_on_shutdown: u64,
    /// Times the reactor paused a connection because its buffered
    /// responses exceeded [`ServerConfig::outbound_buffer_limit`].
    pub backpressure_pauses: u64,
    /// Queued-but-unexecuted pipelined statements cancelled because an
    /// earlier statement on the same connection hit the statement timeout.
    pub pipelined_cancelled: u64,
    /// Response frames encoded into a connection's write buffer (reactor
    /// backend only; the thread-pool backend writes frames directly to its
    /// per-connection socket writer and does not count here).
    pub frames_encoded: u64,
    /// Total response payload bytes encoded into write buffers (reactor
    /// backend only), before framing overhead.
    pub response_bytes: u64,
}

impl ServerStats {
    /// Prepared-statement cache hit rate in `[0, 1]`; 1.0 with no traffic.
    pub fn stmt_cache_hit_rate(&self) -> f64 {
        let total = self.stmt_cache_hits + self.stmt_cache_misses;
        if total == 0 {
            1.0
        } else {
            self.stmt_cache_hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    connections_active: AtomicU64,
    requests: AtomicU64,
    statements: AtomicU64,
    stmt_cache_hits: AtomicU64,
    stmt_cache_misses: AtomicU64,
    statement_timeouts: AtomicU64,
    slow_statements: AtomicU64,
    txns_aborted_on_disconnect: AtomicU64,
    requests_drained_on_shutdown: AtomicU64,
    requests_aborted_on_shutdown: AtomicU64,
    backpressure_pauses: AtomicU64,
    pipelined_cancelled: AtomicU64,
    frames_encoded: AtomicU64,
    response_bytes: AtomicU64,
}

/// Lock stripes in the statement cache's template→id map. Power of two;
/// selected by the template's FNV-1a hash, so concurrent prepares of
/// *different* shapes (the bench's many-connection warm-up, or a fleet of
/// app servers reconnecting at once) contend only when they collide on a
/// stripe instead of serializing on one map lock.
const STMT_CACHE_STRIPES: usize = 16;

/// The server-wide prepared-statement cache: statement templates (value-free
/// shapes, see [`ifdb_client::protocol::encode_template`]) deduplicated
/// across every connection. Ids are global, so two connections preparing the
/// same shape share one entry, and the bound template is parsed once per
/// execution from its cached bytes rather than shipped in full per request.
///
/// The template→id map is striped by template hash
/// (`STMT_CACHE_STRIPES` stripes); the id-ordered template list stays
/// global because it allocates the dense statement ids and enforces the
/// capacity bound. Hit/miss accounting lives in the server's global
/// counters and is unaffected by striping.
pub struct StatementCache {
    by_template: [RwLock<HashMap<Arc<[u8]>, u32>>; STMT_CACHE_STRIPES],
    templates: RwLock<Vec<Arc<[u8]>>>,
    capacity: usize,
}

impl StatementCache {
    fn new(capacity: usize) -> Self {
        StatementCache {
            by_template: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            templates: RwLock::new(Vec::new()),
            capacity,
        }
    }

    fn stripe(&self, template: &[u8]) -> &RwLock<HashMap<Arc<[u8]>, u32>> {
        let h = ifdb_client::protocol::frame_checksum(template) as usize;
        &self.by_template[h % STMT_CACHE_STRIPES]
    }

    /// Registers a template, returning `(id, was_cached)`.
    fn prepare(&self, template: Vec<u8>) -> IfdbResult<(u32, bool)> {
        let stripe = self.stripe(&template);
        if let Some(id) = stripe.read().get(template.as_slice()) {
            return Ok((*id, true));
        }
        let mut by_template = stripe.write();
        if let Some(id) = by_template.get(template.as_slice()) {
            return Ok((*id, true));
        }
        // The global list allocates the id and holds the capacity line; a
        // racing prepare of a *different* shape on another stripe contends
        // only here, briefly, not on the lookup path above.
        let mut templates = self.templates.write();
        if templates.len() >= self.capacity {
            return Err(IfdbError::Remote {
                code: code::SERVER_BUSY as u16,
                detail: format!(
                    "statement cache full ({} templates); workload exceeds the configured shape budget",
                    self.capacity
                ),
            });
        }
        let arc: Arc<[u8]> = template.into();
        let id = templates.len() as u32 + 1; // 0 is reserved
        templates.push(arc.clone());
        by_template.insert(arc, id);
        Ok((id, false))
    }

    fn resolve(&self, id: u32) -> Option<Arc<[u8]>> {
        self.templates
            .read()
            .get((id as usize).checked_sub(1)?)
            .cloned()
    }

    fn len(&self) -> usize {
        self.templates.read().len()
    }
}

struct Shared {
    db: Database,
    auth: Arc<Authenticator>,
    config: ServerConfig,
    shutdown: AtomicBool,
    shutdown_at: StdMutex<Option<Instant>>,
    queue: StdMutex<VecDeque<TcpStream>>,
    queue_cvar: Condvar,
    counters: Counters,
    cache: StatementCache,
    /// The QoS gate: hot-reloadable execution budgets, per-principal
    /// admission quotas, and scheduling weights.
    qos: qos::QosGate,
    /// Watermark source for `Ok`/`Affected`/`Watermark` responses. A
    /// primary reports its write-ahead log's last sequence number; a
    /// replica front end reports the applied-seq of its replication stream
    /// (with the primary's log epoch).
    watermark: WatermarkSource,
    /// High-availability state: fencing, semi-sync acknowledgement, and the
    /// promotion hook (replica front ends only).
    ha: HaShared,
}

/// Server-side high-availability state shared by every connection.
///
/// Fencing is one-way: once a poll (or an explicit `Fence` request) proves
/// a successor with a higher promotion generation exists, this node stops
/// acknowledging writes and serving replication forever — a fenced primary
/// can only be restarted as a replica of the successor. The semi-sync
/// fields track the highest applied-seq any replica has confirmed, feeding
/// [`ServerConfig::sync_replication`] acknowledgement gating.
struct HaShared {
    /// Set when a higher promotion generation has been observed; this node
    /// is a deposed primary and refuses writes, prepares, and replication.
    fenced: AtomicBool,
    /// The generation that fenced us (diagnostics; 0 while unfenced).
    fenced_by: AtomicU64,
    /// Highest applied-seq confirmed by any replica's `ReplPoll`.
    repl_applied: StdMutex<u64>,
    /// Signalled whenever `repl_applied` advances.
    repl_cvar: Condvar,
    /// Replica front ends install a hook that funnels a wire `Promote` into
    /// the apply loop (see `replica::start_replica`); `None` on primaries.
    promote: StdMutex<Option<PromoteHook>>,
    /// Set once a replica front end has been promoted: the watermark now
    /// comes from the local write-ahead log regardless of the original
    /// [`WatermarkSource`].
    promoted: AtomicBool,
}

/// Blocks until promotion completes; returns the new generation.
type PromoteHook = Box<dyn Fn() -> Result<u64, String> + Send + Sync>;

impl Default for HaShared {
    fn default() -> Self {
        HaShared {
            fenced: AtomicBool::new(false),
            fenced_by: AtomicU64::new(0),
            repl_applied: StdMutex::new(0),
            repl_cvar: Condvar::new(),
            promote: StdMutex::new(None),
            promoted: AtomicBool::new(false),
        }
    }
}

/// Where a server's reported watermark comes from.
enum WatermarkSource {
    /// The database's own write-ahead log (a primary).
    Wal,
    /// An externally maintained applied-seq plus the observed log epoch
    /// (a replica front end; see `replica::start_replica`).
    Applied {
        seq: Arc<AtomicU64>,
        epoch: Arc<AtomicU64>,
    },
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The watermark piggybacked on responses: last WAL seq (primary) or
    /// applied-seq (replica). A promoted replica front end reports its own
    /// log again — its writes are no longer anybody else's applied-seq.
    fn current_seq(&self) -> u64 {
        if self.ha.promoted.load(Ordering::Acquire) {
            return self.db.engine().wal().last_seq();
        }
        match &self.watermark {
            WatermarkSource::Wal => self.db.engine().wal().last_seq(),
            WatermarkSource::Applied { seq, .. } => seq.load(Ordering::Acquire),
        }
    }

    /// The log epoch the watermark belongs to.
    fn current_epoch(&self) -> u64 {
        if self.ha.promoted.load(Ordering::Acquire) {
            return self.db.engine().wal().epoch();
        }
        match &self.watermark {
            WatermarkSource::Wal => self.db.engine().wal().epoch(),
            WatermarkSource::Applied { epoch, .. } => epoch.load(Ordering::Acquire),
        }
    }

    fn is_fenced(&self) -> bool {
        self.ha.fenced.load(Ordering::Acquire)
    }

    /// Fences this node: a successor with promotion generation `by` exists.
    /// Idempotent; keeps the highest fencing generation for diagnostics.
    fn fence(&self, by: u64) {
        self.ha.fenced_by.fetch_max(by, Ordering::AcqRel);
        self.ha.fenced.store(true, Ordering::Release);
    }

    fn fenced_error(&self) -> IfdbError {
        IfdbError::Remote {
            code: code::FENCED as u16,
            detail: format!(
                "node fenced: a successor primary with promotion generation {} exists",
                self.ha.fenced_by.load(Ordering::Acquire)
            ),
        }
    }

    /// This node's role as reported by `HaStatus`.
    fn ha_role(&self) -> ifdb_client::protocol::HaRole {
        use ifdb_client::protocol::HaRole;
        if self.is_fenced() {
            HaRole::Fenced
        } else if self.ha.promoted.load(Ordering::Acquire)
            || matches!(self.watermark, WatermarkSource::Wal)
        {
            HaRole::Primary
        } else {
            HaRole::Replica
        }
    }

    /// Records a replica's confirmed applied-seq (from its `ReplPoll`) and
    /// wakes any commit waiting on semi-sync acknowledgement.
    fn note_repl_applied(&self, applied_seq: u64) {
        if applied_seq == 0 {
            return;
        }
        let mut confirmed = self.ha.repl_applied.lock().expect("repl_applied lock");
        if applied_seq > *confirmed {
            *confirmed = applied_seq;
            self.ha.repl_cvar.notify_all();
        }
    }

    /// Semi-sync gate: waits until a replica has confirmed applying at
    /// least `seq`, or `timeout` elapses. Returns whether it was confirmed.
    fn wait_repl_applied(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut confirmed = self.ha.repl_applied.lock().expect("repl_applied lock");
        while *confirmed < seq {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .ha
                .repl_cvar
                .wait_timeout(confirmed, deadline - now)
                .expect("repl_applied lock");
            confirmed = guard;
        }
        true
    }

    /// Applies the semi-sync gate to a successful write acknowledgement:
    /// with [`ServerConfig::sync_replication`] set on a primary, the `Ok`
    /// for `seq` is withheld until a replica confirms it, and times out as
    /// `REPLICATION_LAG` — the write is locally durable but its replication
    /// is indeterminate.
    fn gate_write_ack(&self, seq: u64) -> IfdbResult<()> {
        let Some(window) = self.config.sync_replication else {
            return Ok(());
        };
        if self.ha.promoted.load(Ordering::Acquire)
            || !matches!(self.watermark, WatermarkSource::Wal)
        {
            // Semi-sync gating is a primary-only concern; a freshly
            // promoted node acks locally until its own replicas attach.
            return Ok(());
        }
        // Never wait for records the stream withholds (past the last
        // fsync). A commit that wrote is durable, so this still covers it;
        // what is cut off is other sessions' unfinished work, which a
        // commit that wrote nothing — and so flushed nothing — would
        // otherwise wait on until someone else happened to commit.
        let seq = seq.min(self.db.engine().wal().shippable_seq());
        if self.wait_repl_applied(seq, window) {
            return Ok(());
        }
        Err(IfdbError::Remote {
            code: code::REPLICATION_LAG as u16,
            detail: format!(
                "commit at seq {seq} is durable locally but no replica confirmed it within {window:?}; replication outcome indeterminate"
            ),
        })
    }

    fn past_drain_deadline(&self) -> bool {
        let at = self.shutdown_at.lock().expect("shutdown lock");
        match *at {
            Some(t) => t.elapsed() >= self.config.drain_timeout,
            None => false,
        }
    }
}

/// The backend-specific half of a running server.
enum BackendHandle {
    Pool {
        accept_thread: Option<std::thread::JoinHandle<()>>,
        workers: Vec<std::thread::JoinHandle<()>>,
    },
    Reactor(reactor::ReactorHandle),
}

/// A handle to a running server: its bound address, statistics, and the
/// shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    backend: BackendHandle,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("backend", &self.shared.config.backend)
            .finish()
    }
}

impl ServerHandle {
    /// The address the server is listening on (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The database the server fronts.
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: c.connections_rejected.load(Ordering::Relaxed),
            connections_active: c.connections_active.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            statements: c.statements.load(Ordering::Relaxed),
            stmt_cache_hits: c.stmt_cache_hits.load(Ordering::Relaxed),
            stmt_cache_misses: c.stmt_cache_misses.load(Ordering::Relaxed),
            stmt_cache_size: self.shared.cache.len() as u64,
            statement_timeouts: c.statement_timeouts.load(Ordering::Relaxed),
            slow_statements: c.slow_statements.load(Ordering::Relaxed),
            txns_aborted_on_disconnect: c.txns_aborted_on_disconnect.load(Ordering::Relaxed),
            requests_drained_on_shutdown: c.requests_drained_on_shutdown.load(Ordering::Relaxed),
            requests_aborted_on_shutdown: c.requests_aborted_on_shutdown.load(Ordering::Relaxed),
            backpressure_pauses: c.backpressure_pauses.load(Ordering::Relaxed),
            pipelined_cancelled: c.pipelined_cancelled.load(Ordering::Relaxed),
            frames_encoded: c.frames_encoded.load(Ordering::Relaxed),
            response_bytes: c.response_bytes.load(Ordering::Relaxed),
        }
    }

    /// The unified metrics tree: engine, server, QoS and audit counters in
    /// one snapshot — the in-process twin of the `Stats` wire request.
    pub fn metrics(&self) -> MetricsSnapshot {
        metrics_snapshot(&self.shared)
    }

    /// Gracefully shuts the server down: stop accepting, let connections
    /// with open transactions — or with pipelined requests still queued —
    /// finish within the drain timeout, abort the stragglers, and join
    /// every thread. In-flight transactions that do not commit in time are
    /// aborted (never left active), so a subsequent recovery replays a
    /// clean history. Requests executed during the window count as
    /// `requests_drained_on_shutdown`; requests still queued at the
    /// deadline count as `requests_aborted_on_shutdown`. Returns the final
    /// counter snapshot (the handle is gone afterwards).
    pub fn shutdown(mut self) -> ServerStats {
        {
            let mut at = self.shared.shutdown_at.lock().expect("shutdown lock");
            *at = Some(Instant::now());
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match &mut self.backend {
            BackendHandle::Pool {
                accept_thread,
                workers,
            } => {
                self.shared.queue_cvar.notify_all();
                if let Some(t) = accept_thread.take() {
                    let _ = t.join();
                }
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                // Refuse anything still queued.
                let mut queue = self.shared.queue.lock().expect("queue lock");
                while let Some(stream) = queue.pop_front() {
                    refuse(stream, code::SHUTTING_DOWN, "server is shutting down");
                }
            }
            BackendHandle::Reactor(handle) => handle.shutdown_join(),
        }
        self.stats()
    }
}

/// Starts a server over `db`, authenticating users against `auth`.
pub fn start(
    db: Database,
    auth: Arc<Authenticator>,
    config: ServerConfig,
) -> IfdbResult<ServerHandle> {
    start_inner(db, auth, config, WatermarkSource::Wal)
}

/// Starts a replica front end: identical to [`start`] except that
/// `Ok`/`Affected`/`Watermark` responses report the externally maintained
/// applied-seq (and its epoch) instead of the local write-ahead log's
/// position. Used by `replica::start_replica`.
pub(crate) fn start_with_applied_watermark(
    db: Database,
    auth: Arc<Authenticator>,
    config: ServerConfig,
    seq: Arc<AtomicU64>,
    epoch: Arc<AtomicU64>,
) -> IfdbResult<ServerHandle> {
    start_inner(db, auth, config, WatermarkSource::Applied { seq, epoch })
}

fn start_inner(
    db: Database,
    auth: Arc<Authenticator>,
    config: ServerConfig,
    watermark: WatermarkSource,
) -> IfdbResult<ServerHandle> {
    let listener = TcpListener::bind(&config.addr).map_err(|e| IfdbError::Remote {
        code: code::REMOTE as u16,
        detail: format!("bind {}: {e}", config.addr),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| IfdbError::Remote {
            code: code::REMOTE as u16,
            detail: format!("nonblocking: {e}"),
        })?;
    let addr = listener.local_addr().map_err(|e| IfdbError::Remote {
        code: code::REMOTE as u16,
        detail: format!("local_addr: {e}"),
    })?;
    let shared = Arc::new(Shared {
        db,
        auth,
        cache: StatementCache::new(config.stmt_cache_capacity),
        qos: qos::QosGate::new(config.qos.clone()),
        config,
        shutdown: AtomicBool::new(false),
        shutdown_at: StdMutex::new(None),
        queue: StdMutex::new(VecDeque::new()),
        queue_cvar: Condvar::new(),
        counters: Counters::default(),
        watermark,
        ha: HaShared::default(),
    });

    let backend = match shared.config.backend {
        Backend::ThreadPool => pool::start(listener, shared.clone()),
        Backend::Reactor => BackendHandle::Reactor(reactor::start(listener, shared.clone())?),
    };

    Ok(ServerHandle {
        addr,
        shared,
        backend,
    })
}

/// Sends a one-shot error frame on a connection we will not serve, then
/// drops it. Request id 0 marks it as connection-level (unsolicited — the
/// peer has not necessarily sent anything yet). Best effort: the peer may
/// already be gone.
fn refuse(stream: TcpStream, code_: u8, detail: &str) {
    let mut w = BufWriter::new(stream);
    let resp = Response::Error {
        code: code_,
        detail: detail.to_string(),
        label0: Vec::new(),
        label1: Vec::new(),
        aux: 0,
        session_label: None,
    };
    let _ = write_frame_id(&mut w, 0, &resp.encode());
}

/// One result cursor: the rows remaining to stream.
struct Cursor {
    rows: std::vec::IntoIter<Row>,
}

/// Everything the server keeps for one connection.
struct ConnState {
    session: Session,
    trusted: bool,
    cursors: HashMap<u32, Cursor>,
    next_cursor: u32,
    /// Set when a statement hits the post-hoc timeout. While set,
    /// [`handle_request`] answers every further statement on this connection
    /// with a cancellation error instead of executing it — a pipelining
    /// client has already sent the rest of its batch (some of it possibly
    /// still in socket buffers, not yet parsed), and none of it may run
    /// against the now-aborted transaction. The state is **sticky** until a
    /// client-visible sync point (`Begin`/`Commit`/`Abort`) arrives, so
    /// late-arriving frames of the same batch are cancelled too, on both
    /// backends.
    cancel_queued: bool,
}

fn ok_or_err(r: IfdbResult<Response>) -> Response {
    match r {
        Ok(resp) => resp,
        Err(e) => encode_error(&e),
    }
}

fn handle_request(
    shared: &Arc<Shared>,
    state: &mut Option<ConnState>,
    request: Request,
) -> Response {
    if shared.shutting_down() {
        // Still executed — this request made it in before (or while)
        // shutdown began and is being drained rather than dropped.
        shared
            .counters
            .requests_drained_on_shutdown
            .fetch_add(1, Ordering::Relaxed);
    }
    match request {
        Request::Hello {
            version,
            user,
            password,
            platform_secret,
            label,
        } => ok_or_err(handle_hello(
            shared,
            state,
            version,
            user,
            password,
            platform_secret,
            label,
        )),
        Request::Goodbye => Response::Bye,
        // Watermark and replication polls need no user session: the former
        // is a read of a public counter, the latter authenticates with the
        // replication secret on every poll.
        Request::Watermark => Response::Watermark {
            seq: shared.current_seq(),
            epoch: shared.current_epoch(),
        },
        Request::ReplPoll {
            secret,
            from_seq,
            max,
            applied_seq,
            generation,
        } => handle_repl_poll(shared, &secret, from_seq, max, applied_seq, generation),
        // The HA control plane is sessionless too: Promote/Fence carry the
        // replication secret on every request, HaStatus (like Watermark) is
        // a read of public role/position counters used by failover probes.
        Request::Promote { secret } => handle_promote(shared, &secret),
        Request::Fence { secret, generation } => handle_fence(shared, &secret, generation),
        Request::HaStatus => ha_status_response(shared),
        // The QoS control plane is sessionless as well: Reconfigure carries
        // the platform secret on every request (same trust anchor as
        // password-less logins), Stats is a read of public counters.
        Request::Reconfigure { secret, config } => handle_reconfigure(shared, &secret, &config),
        Request::Stats => Response::Stats {
            snapshot: metrics_snapshot(shared),
        },
        other => {
            let Some(conn) = state.as_mut() else {
                return encode_error(&IfdbError::Remote {
                    code: code::PROTOCOL as u16,
                    detail: "handshake required before any other message".into(),
                });
            };
            // Sticky statement-timeout cancellation: after a timeout aborts
            // the transaction, nothing the client pipelined behind the
            // timed-out statement may execute — including frames that were
            // still in socket buffers when the timeout fired and are only
            // being parsed now. Everything is answered with a cancellation
            // error until a client-visible sync point re-synchronizes the
            // connection.
            if conn.cancel_queued {
                // TxnPrepare is a sync point like Commit: it ends the
                // transaction either way, and executing it against the
                // timeout-aborted transaction correctly yields a no vote.
                if matches!(
                    other,
                    Request::Begin | Request::Commit | Request::Abort | Request::TxnPrepare { .. }
                ) {
                    conn.cancel_queued = false;
                } else {
                    shared
                        .counters
                        .pipelined_cancelled
                        .fetch_add(1, Ordering::Relaxed);
                    let e = IfdbError::Remote {
                        code: code::STATEMENT_TIMEOUT as u16,
                        detail: "cancelled: an earlier pipelined statement timed out".into(),
                    };
                    return match encode_error(&e) {
                        Response::Error {
                            code,
                            detail,
                            label0,
                            label1,
                            aux,
                            ..
                        } => Response::Error {
                            code,
                            detail,
                            label0,
                            label1,
                            aux,
                            session_label: Some(conn.session.label().to_array()),
                        },
                        resp => resp,
                    };
                }
            }
            match handle_message(shared, conn, other) {
                Ok(resp) => resp,
                // A failed statement can still have changed the process
                // label (a trigger raised it before the statement aborted);
                // attach the authoritative label so the client mirror — and
                // its output gate — follows error paths too.
                Err(e) => match encode_error(&e) {
                    Response::Error {
                        code,
                        detail,
                        label0,
                        label1,
                        aux,
                        ..
                    } => Response::Error {
                        code,
                        detail,
                        label0,
                        label1,
                        aux,
                        session_label: Some(conn.session.label().to_array()),
                    },
                    resp => resp,
                },
            }
        }
    }
}

/// The longest a replication poll that finds nothing to ship waits for the
/// log before answering with an empty batch.
///
/// A replica re-polls as soon as it has applied an answer, so this bounds
/// how long a poll holds its serving thread, how many polls an idle replica
/// sends (one per bound), and how long a fence, a shutdown or a promotion
/// waits for a parked poll to notice it.
pub const REPL_POLL_PARK: Duration = Duration::from_millis(20);

/// Serves one replication poll: authenticates the replica by the shared
/// secret, records the applied-seq it acknowledges (the semi-sync gate's
/// confirmation), then reads a batch from the write-ahead log's replication
/// stream (see [`ifdb_storage::wal::Wal::read_replication_batch`] for the
/// resume/reset/skip-image rules). A poll already past everything shippable
/// parks until the log's shippable horizon moves, for at most
/// [`REPL_POLL_PARK`]. A bootstrap poll (`from_seq <= 1`) first asks the
/// engine to checkpoint soon, compacting history so the snapshot the
/// replica ships is anchored at a checkpoint image rather than the full
/// record-by-record history.
fn handle_repl_poll(
    shared: &Arc<Shared>,
    secret: &str,
    from_seq: u64,
    max: u32,
    applied_seq: u64,
    generation: u64,
) -> Response {
    match &shared.config.replication_secret {
        Some(expected) if expected == secret => {}
        Some(_) => {
            return encode_error(&IfdbError::Remote {
                code: code::REPLICATION_DENIED as u16,
                detail: "invalid replication secret".into(),
            })
        }
        None => {
            return encode_error(&IfdbError::Remote {
                code: code::REPLICATION_DENIED as u16,
                detail: "replication is not enabled on this server".into(),
            })
        }
    }
    if shared.db.is_read_only() && !shared.ha.promoted.load(Ordering::Acquire) {
        // A replica front end does not serve replication (its log is in
        // discard mode); after promotion the same endpoint starts serving
        // the promotion checkpoint image under its own epoch.
        return encode_error(&IfdbError::Remote {
            code: code::REPLICATION_DENIED as u16,
            detail: "node is a replica; poll the primary".into(),
        });
    }
    let wal = shared.db.engine().wal();
    // Fencing: the poll carries the highest promotion generation the
    // replica knows of. Seeing a generation above our own is proof that a
    // successor was promoted while we were away — fence *before* serving a
    // single record, so a deposed primary cannot feed anyone its divergent
    // tail. The check is one-way (a fenced node never un-fences).
    if generation > wal.generation() {
        shared.fence(generation);
    }
    if shared.is_fenced() {
        return encode_error(&shared.fenced_error());
    }
    shared.note_repl_applied(applied_seq);
    if from_seq <= 1 && wal.len() > shared.config.replication_batch {
        // Fresh replica, long history: anchor the snapshot at a checkpoint
        // so bootstrap replays O(live data), not O(history). Best effort —
        // under write load the checkpoint is deferred and the replica
        // simply ships the longer history.
        let _ = shared.db.checkpoint_soon();
    }
    // Nothing to ship yet: park on the log instead of answering at once and
    // having the replica ask again on a timer. The acknowledgement above is
    // already recorded, so a commit waiting on it never waits on this park.
    // During a shutdown drain the poll answers at once, as before.
    if from_seq > wal.shippable_seq() && !shared.shutting_down() {
        wal.wait_shippable(from_seq - 1, REPL_POLL_PARK);
        // Fenced or stopping while parked: say so, and ship nothing.
        if shared.is_fenced() {
            return encode_error(&shared.fenced_error());
        }
        if shared.shutting_down() {
            return encode_error(&IfdbError::Remote {
                code: code::SHUTTING_DOWN as u16,
                detail: "server is shutting down".into(),
            });
        }
    }
    let batch_max = if max == 0 {
        shared.config.replication_batch
    } else {
        (max as usize).min(shared.config.replication_batch)
    };
    let batch = wal.read_replication_batch(from_seq, batch_max);
    Response::ReplBatch {
        epoch: wal.epoch(),
        generation: wal.generation(),
        reset: batch.reset,
        first_seq: batch.first_seq,
        end_seq: batch.end_seq,
        records: batch
            .records
            .iter()
            .map(ifdb_storage::Wal::encode_record)
            .collect(),
    }
}

/// Checks the replication secret for the sessionless HA control requests.
fn check_repl_secret(shared: &Shared, secret: &str) -> Option<Response> {
    match &shared.config.replication_secret {
        Some(expected) if expected == secret => None,
        Some(_) => Some(encode_error(&IfdbError::Remote {
            code: code::REPLICATION_DENIED as u16,
            detail: "invalid replication secret".into(),
        })),
        None => Some(encode_error(&IfdbError::Remote {
            code: code::REPLICATION_DENIED as u16,
            detail: "replication is not enabled on this server".into(),
        })),
    }
}

/// Serves `HaStatus`: the node's role, promotion generation, log epoch and
/// watermark. Unauthenticated by design — failover probes race the fault
/// they are reacting to, and the answer reveals only topology, not data.
fn ha_status_response(shared: &Arc<Shared>) -> Response {
    Response::HaStatus {
        role: shared.ha_role(),
        generation: shared.db.engine().wal().generation(),
        epoch: shared.current_epoch(),
        seq: shared.current_seq(),
    }
}

/// Serves `Promote`: turns a caught-up replica front end into a primary.
/// On a replica the request funnels through the promotion hook into the
/// apply loop (which owns the applier and the stream connection); on a node
/// that is already a primary it is an idempotent success. A fenced node
/// refuses — it has been deposed and must rejoin as a replica.
fn handle_promote(shared: &Arc<Shared>, secret: &str) -> Response {
    if let Some(refusal) = check_repl_secret(shared, secret) {
        return refusal;
    }
    if shared.is_fenced() {
        return encode_error(&shared.fenced_error());
    }
    let hook = shared.ha.promote.lock().expect("promote lock");
    match hook.as_ref() {
        None => ha_status_response(shared),
        Some(run) => match run() {
            Ok(_generation) => ha_status_response(shared),
            Err(detail) => encode_error(&IfdbError::Remote {
                code: code::REMOTE as u16,
                detail: format!("promotion failed: {detail}"),
            }),
        },
    }
}

/// Serves `Fence`: an out-of-band notice (normally from a freshly promoted
/// successor) that a higher promotion generation exists. Fencing only takes
/// effect for a strictly higher generation, so a stale or duplicate fence
/// request cannot depose a current primary.
fn handle_fence(shared: &Arc<Shared>, secret: &str, generation: u64) -> Response {
    if let Some(refusal) = check_repl_secret(shared, secret) {
        return refusal;
    }
    if generation > shared.db.engine().wal().generation() {
        shared.fence(generation);
    }
    ha_status_response(shared)
}

/// Serves `Reconfigure`: swaps the QoS policy (execution budgets, admission
/// quotas, scheduling weights) atomically, without a restart and without
/// touching any connection. Authenticated by the platform secret — the same
/// trust anchor that authorizes password-less user switches — so a tenant
/// cannot raise its own limits. Statements already executing finish under
/// the budget they were armed with; every later statement (on every already-
/// open connection) sees the new policy.
fn handle_reconfigure(shared: &Arc<Shared>, secret: &str, config: &[u64]) -> Response {
    match &shared.config.platform_secret {
        Some(expected) if expected == secret => {}
        Some(_) => {
            return encode_error(&IfdbError::Remote {
                code: code::REMOTE as u16,
                detail: "invalid platform secret".into(),
            })
        }
        None => {
            return encode_error(&IfdbError::Remote {
                code: code::REMOTE as u16,
                detail: "reconfiguration requires a platform secret to be configured".into(),
            })
        }
    }
    let Some(new) = QosConfig::from_wire(config) else {
        return encode_error(&IfdbError::Remote {
            code: code::PROTOCOL as u16,
            detail: "malformed QoS configuration payload".into(),
        });
    };
    shared.qos.reconfigure(new);
    Response::Ok {
        label: Vec::new(),
        seq: shared.current_seq(),
    }
}

/// Assembles the unified metrics tree served by `Request::Stats` (and by
/// [`ServerHandle::metrics`] in-process): the storage engine's counters, the
/// serving front end's, the QoS gate's, and the audit plane's, as one
/// [`MetricsSnapshot`]. The tree is open — counters are named, not
/// positional — so groups grow without a protocol bump.
fn metrics_snapshot(shared: &Arc<Shared>) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    let c = &shared.counters;
    let server = snap.group_mut("server");
    server
        .push(
            "connections_accepted",
            c.connections_accepted.load(Ordering::Relaxed),
        )
        .push(
            "connections_rejected",
            c.connections_rejected.load(Ordering::Relaxed),
        )
        .push(
            "connections_active",
            c.connections_active.load(Ordering::Relaxed),
        )
        .push("requests", c.requests.load(Ordering::Relaxed))
        .push("statements", c.statements.load(Ordering::Relaxed))
        .push("stmt_cache_hits", c.stmt_cache_hits.load(Ordering::Relaxed))
        .push(
            "stmt_cache_misses",
            c.stmt_cache_misses.load(Ordering::Relaxed),
        )
        .push("stmt_cache_size", shared.cache.len() as u64)
        .push(
            "statement_timeouts",
            c.statement_timeouts.load(Ordering::Relaxed),
        )
        .push("slow_statements", c.slow_statements.load(Ordering::Relaxed))
        .push(
            "backpressure_pauses",
            c.backpressure_pauses.load(Ordering::Relaxed),
        )
        .push(
            "pipelined_cancelled",
            c.pipelined_cancelled.load(Ordering::Relaxed),
        )
        .push("frames_encoded", c.frames_encoded.load(Ordering::Relaxed))
        .push("response_bytes", c.response_bytes.load(Ordering::Relaxed));
    let e = shared.db.engine().stats();
    let engine = snap.group_mut("engine");
    engine
        .push("buffer_hits", e.buffer_hits)
        .push("buffer_misses", e.buffer_misses)
        .push("writebacks", e.writebacks)
        .push("evictions", e.evictions)
        .push("tuples_inserted", e.tuples_inserted)
        .push("tuples_deleted", e.tuples_deleted)
        .push("tuples_scanned", e.tuples_scanned)
        .push("full_table_scans", e.full_table_scans)
        .push("index_point_lookups", e.index_point_lookups)
        .push("index_range_scans", e.index_range_scans)
        .push("label_checks", e.label_checks)
        .push("label_page_checks", e.label_page_checks)
        .push("txns_started", e.txns_started)
        .push("txns_read_only", e.txns_read_only)
        .push("txns_active", e.txns_active)
        .push("txn_table_entries", e.txn_table_entries)
        .push("wal_bytes", e.wal_bytes)
        .push("wal_fsyncs", e.wal_fsyncs)
        .push("commits_batched", e.commits_batched)
        .push("checkpoints", e.checkpoints)
        .push("vacuums", e.vacuums)
        .push("replica_records_applied", e.replica_records_applied);
    let q = &shared.qos;
    let qos_group = snap.group_mut("qos");
    qos_group
        .push("admitted", q.admitted.load(Ordering::Relaxed))
        .push("completed", q.completed.load(Ordering::Relaxed))
        .push("in_flight", q.in_flight_total())
        .push(
            "refused_in_flight",
            q.refused_in_flight.load(Ordering::Relaxed),
        )
        .push("refused_rate", q.refused_rate.load(Ordering::Relaxed))
        .push("reconfigures", q.reconfigures.load(Ordering::Relaxed))
        .push("sched_yields", q.sched_yields.load(Ordering::Relaxed));
    let audit = snap.group_mut("audit");
    audit
        .push("chained_records", e.audit_records)
        .push("events", shared.db.audit().len() as u64)
        .push(
            "declassifications",
            shared.db.audit().declassification_count() as u64,
        );
    snap
}

#[allow(clippy::too_many_arguments)]
fn handle_hello(
    shared: &Arc<Shared>,
    state: &mut Option<ConnState>,
    version: u32,
    user: String,
    password: String,
    platform_secret: Option<String>,
    label: Vec<u64>,
) -> IfdbResult<Response> {
    if version != PROTOCOL_VERSION {
        return Err(IfdbError::Remote {
            code: code::PROTOCOL as u16,
            detail: format!("protocol version {version} unsupported (want {PROTOCOL_VERSION})"),
        });
    }
    if state.is_some() {
        return Err(IfdbError::Remote {
            code: code::PROTOCOL as u16,
            detail: "duplicate handshake".into(),
        });
    }
    let trusted = match (&shared.config.platform_secret, &platform_secret) {
        (Some(expected), Some(got)) if expected == got => true,
        (_, None) => false,
        _ => {
            return Err(IfdbError::Remote {
                code: code::REMOTE as u16,
                detail: "invalid platform secret".into(),
            })
        }
    };
    let principal = authenticate(shared, &user, Some(&password), trusted)?;
    let mut session = shared.db.session(principal);
    let initial = Label::from_array(&label);
    if !initial.is_empty() {
        session.raise_label(&initial)?;
    }
    let resp = Response::HelloOk {
        principal: principal.0,
        label: session.label().to_array(),
    };
    *state = Some(ConnState {
        session,
        trusted,
        cursors: HashMap::new(),
        next_cursor: 1,
        cancel_queued: false,
    });
    Ok(resp)
}

fn authenticate(
    shared: &Arc<Shared>,
    user: &str,
    password: Option<&str>,
    trusted: bool,
) -> IfdbResult<ifdb_difc::PrincipalId> {
    if user.is_empty() {
        return Ok(shared.db.anonymous());
    }
    match password {
        Some(p) => shared
            .auth
            .authenticate(user, p)
            .ok_or_else(|| IfdbError::Remote {
                code: code::REMOTE as u16,
                detail: format!("authentication failed for {user:?}"),
            }),
        None => {
            // Password-less switch: only the trusted platform (which already
            // authenticated the user at its layer) may do this.
            if !trusted {
                return Err(IfdbError::Remote {
                    code: code::REMOTE as u16,
                    detail: "trusted login requires the platform secret".into(),
                });
            }
            shared
                .auth
                .principal_of(user)
                .ok_or_else(|| IfdbError::Remote {
                    code: code::REMOTE as u16,
                    detail: format!("unknown user {user:?}"),
                })
        }
    }
}

/// Per-connection bound on open cursors: a client that executes queries
/// but never drains or closes its cursors must not grow server memory
/// without limit, so the oldest cursor is discarded beyond this.
const MAX_CURSORS_PER_CONNECTION: usize = 64;

fn result_rows_response(conn: &mut ConnState, rows: Vec<Row>, batch: usize) -> Response {
    let columns = rows
        .first()
        .map(|r| (*r.columns).clone())
        .unwrap_or_default();
    let label = conn.session.label().to_array();
    let batch = batch.max(1);
    if rows.len() <= batch {
        return Response::Rows {
            columns,
            rows: rows.into_iter().map(to_wire_row).collect(),
            cursor: 0,
            label,
        };
    }
    let mut iter = rows.into_iter();
    let first: Vec<WireRow> = iter.by_ref().take(batch).map(to_wire_row).collect();
    if conn.cursors.len() >= MAX_CURSORS_PER_CONNECTION {
        // Abandoned-cursor protection: drop the oldest (smallest id still
        // open). The owner, if it ever fetches it, gets "unknown cursor".
        if let Some(oldest) = conn.cursors.keys().min().copied() {
            conn.cursors.remove(&oldest);
        }
    }
    let id = conn.next_cursor;
    conn.next_cursor = conn.next_cursor.wrapping_add(1).max(1);
    conn.cursors.insert(id, Cursor { rows: iter });
    Response::Rows {
        columns,
        rows: first,
        cursor: id,
        label,
    }
}

fn ok_with_label(shared: &Shared, session: &Session) -> Response {
    Response::Ok {
        label: session.label().to_array(),
        seq: shared.current_seq(),
    }
}

fn to_wire_row(r: Row) -> WireRow {
    WireRow {
        label: r.label.to_array(),
        values: r.values,
    }
}

fn handle_message(
    shared: &Arc<Shared>,
    conn: &mut ConnState,
    request: Request,
) -> IfdbResult<Response> {
    let session = &mut conn.session;
    // A fenced node is a deposed primary: a successor with a higher
    // promotion generation is accepting writes, so anything that could
    // create or acknowledge new effects here must be refused — the client
    // treats `FENCED` as a routing signal and fails over. Reads of already
    // durable 2PC state (`TxnRecover`/`TxnOutcome`) and externally decided
    // outcomes (`TxnDecide`) stay allowed: successor-driven resolution must
    // be able to settle in-doubt transactions on the old primary too.
    if shared.is_fenced()
        && matches!(
            request,
            Request::Begin
                | Request::Commit
                | Request::Execute { .. }
                | Request::CallProcedure { .. }
                | Request::TxnPrepare { .. }
        )
    {
        return Err(shared.fenced_error());
    }
    match request {
        Request::Hello { .. }
        | Request::Goodbye
        | Request::Watermark
        | Request::ReplPoll { .. }
        | Request::Promote { .. }
        | Request::Fence { .. }
        | Request::HaStatus
        | Request::Reconfigure { .. }
        | Request::Stats => unreachable!("handled by caller"),
        Request::Login { user, password } => {
            let principal = authenticate(shared, &user, password.as_deref(), conn.trusted)?;
            session.reset(principal);
            conn.cursors.clear();
            Ok(Response::HelloOk {
                principal: principal.0,
                label: session.label().to_array(),
            })
        }
        Request::Prepare { template } => {
            let (id, cached) = shared.cache.prepare(template)?;
            if cached {
                shared
                    .counters
                    .stmt_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                shared
                    .counters
                    .stmt_cache_misses
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(Response::Prepared { id })
        }
        Request::Execute {
            stmt,
            params,
            fetch,
        } => {
            // Admission: over-quota principals are refused here, before the
            // statement touches the executor; the guard's Drop releases the
            // in-flight slot on every exit path. The current execution
            // budget is stamped onto the session so a Reconfigure applies
            // from the very next statement.
            let _admitted = shared.qos.admit(session.principal().0)?;
            session.set_execution_constraints(shared.qos.constraints());
            shared.counters.statements.fetch_add(1, Ordering::Relaxed);
            let template = shared
                .cache
                .resolve(stmt)
                .ok_or_else(|| IfdbError::Remote {
                    code: code::INVALID_STATEMENT as u16,
                    detail: format!("unknown statement id {stmt}"),
                })?;
            shared
                .counters
                .stmt_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            let statement = decode_template(&template, &params)?;
            let started = Instant::now();
            let was_explicit = session.in_transaction();
            let result = session.execute(&statement);
            let elapsed = started.elapsed();
            if elapsed > shared.config.statement_timeout {
                if was_explicit && session.in_transaction() {
                    // The statement ran too long inside an explicit
                    // transaction: abort it so its snapshot and locks are
                    // released, and tell the client why. Anything a
                    // pipelining client queued behind this statement must
                    // be cancelled, not run against the aborted
                    // transaction — the dispatch layer acts on the flag.
                    let _ = session.abort();
                    conn.cancel_queued = true;
                    shared
                        .counters
                        .statement_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(IfdbError::Remote {
                        code: code::STATEMENT_TIMEOUT as u16,
                        detail: format!(
                            "statement exceeded timeout ({elapsed:?}); transaction aborted"
                        ),
                    });
                }
                // Auto-committed work cannot be retracted; deliver, but
                // count it so operators can see the slow shapes.
                shared
                    .counters
                    .slow_statements
                    .fetch_add(1, Ordering::Relaxed);
            }
            let batch = if fetch == 0 {
                shared.config.fetch_batch
            } else {
                fetch as usize
            };
            Ok(match result? {
                StatementResult::Affected(n) => {
                    let seq = shared.current_seq();
                    if !session.in_transaction() {
                        // Auto-committed write: the Affected is its commit
                        // acknowledgement, so the semi-sync gate applies.
                        shared.gate_write_ack(seq)?;
                    }
                    Response::Affected {
                        n: n as u64,
                        label: session.label().to_array(),
                        seq,
                    }
                }
                StatementResult::Rows(rs) => result_rows_response(conn, rs.rows, batch),
            })
        }
        Request::Fetch { cursor, max } => {
            let batch = if max == 0 {
                shared.config.fetch_batch
            } else {
                max as usize
            }
            .max(1);
            let c = conn
                .cursors
                .get_mut(&cursor)
                .ok_or_else(|| IfdbError::Remote {
                    code: code::INVALID_STATEMENT as u16,
                    detail: format!("unknown cursor {cursor}"),
                })?;
            let rows: Vec<WireRow> = c.rows.by_ref().take(batch).map(to_wire_row).collect();
            let done = c.rows.len() == 0;
            if done {
                conn.cursors.remove(&cursor);
            }
            Ok(Response::Batch { rows, done })
        }
        Request::CloseCursor { cursor } => {
            conn.cursors.remove(&cursor);
            Ok(ok_with_label(shared, session))
        }
        Request::Begin => {
            session.begin()?;
            Ok(ok_with_label(shared, session))
        }
        Request::Commit => {
            // Commit runs deferred triggers, which can change the process
            // label; the Ok response carries the post-commit label so the
            // client mirror follows. Under semi-sync replication the Ok is
            // additionally withheld until a replica confirms the commit's
            // sequence (timing out as indeterminate `REPLICATION_LAG`).
            session.commit()?;
            shared.gate_write_ack(shared.current_seq())?;
            Ok(ok_with_label(shared, session))
        }
        Request::Abort => {
            session.abort()?;
            Ok(ok_with_label(shared, session))
        }
        Request::AddSecrecy { tag } => {
            session.add_secrecy(ifdb_difc::TagId(tag))?;
            Ok(Response::LabelIs {
                tags: session.label().to_array(),
            })
        }
        Request::RaiseLabel { tags } => {
            session.raise_label(&Label::from_array(&tags))?;
            Ok(Response::LabelIs {
                tags: session.label().to_array(),
            })
        }
        Request::Declassify { tag } => {
            session.declassify(ifdb_difc::TagId(tag))?;
            Ok(Response::LabelIs {
                tags: session.label().to_array(),
            })
        }
        Request::DeclassifyAll { tags } => {
            session.declassify_all(&Label::from_array(&tags))?;
            Ok(Response::LabelIs {
                tags: session.label().to_array(),
            })
        }
        Request::Delegate { grantee, tag } => {
            session.delegate(ifdb_difc::PrincipalId(grantee), ifdb_difc::TagId(tag))?;
            Ok(ok_with_label(shared, session))
        }
        Request::CallProcedure { name, args } => {
            let _admitted = shared.qos.admit(session.principal().0)?;
            session.set_execution_constraints(shared.qos.constraints());
            shared.counters.statements.fetch_add(1, Ordering::Relaxed);
            let rs = session.call_procedure(&name, &args)?;
            if !session.in_transaction() {
                // Statements the procedure auto-committed are acknowledged
                // by this reply: the semi-sync gate applies, as it does to
                // an auto-committed `Execute` and to `Commit`.
                shared.gate_write_ack(shared.current_seq())?;
            }
            let columns = rs
                .rows
                .first()
                .map(|r| (*r.columns).clone())
                .unwrap_or_default();
            Ok(Response::ProcResult {
                label: session.label().to_array(),
                columns,
                rows: rs.rows.into_iter().map(to_wire_row).collect(),
            })
        }
        Request::TxnPrepare { gid } => {
            // 2PC phase one, participant side: run deferred triggers,
            // enforce the commit-label rule (a violation here is this
            // shard's no vote), and make the write set durable under `gid`
            // without deciding it. Success is the yes vote; the Ok carries
            // the post-trigger label like Commit's does.
            session.prepare_commit(gid)?;
            Ok(ok_with_label(shared, session))
        }
        Request::TxnDecide { gid, commit } => {
            // 2PC phase two: finish the prepared transaction. Addressed by
            // gid, not by this connection's session — the decision may
            // arrive on a different connection than the prepare (coordinator
            // reconnect after a crash). Idempotent: unknown gids (already
            // decided, or never prepared here) succeed without effect.
            shared.db.decide_prepared(gid, commit)?;
            Ok(ok_with_label(shared, session))
        }
        Request::TxnRecover => Ok(Response::InDoubt {
            gids: shared.db.in_doubt(),
        }),
        Request::TxnOutcome { gid } => Ok(Response::TxnOutcome {
            committed: shared.db.prepared_outcome(gid),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_cache_dedups_and_bounds() {
        let cache = StatementCache::new(2);
        let (a1, hit1) = cache.prepare(vec![1, 2, 3]).unwrap();
        assert!(!hit1);
        let (a2, hit2) = cache.prepare(vec![1, 2, 3]).unwrap();
        assert!(hit2);
        assert_eq!(a1, a2);
        let (b, _) = cache.prepare(vec![9]).unwrap();
        assert_ne!(a1, b);
        assert_eq!(cache.len(), 2);
        // Beyond capacity, new shapes are refused; known shapes still hit.
        assert!(cache.prepare(vec![7, 7]).is_err());
        assert!(cache.prepare(vec![9]).unwrap().1);
        // Resolution round-trips.
        assert_eq!(cache.resolve(a1).unwrap().as_ref(), &[1, 2, 3]);
        assert!(cache.resolve(0).is_none());
        assert!(cache.resolve(99).is_none());
    }
}
