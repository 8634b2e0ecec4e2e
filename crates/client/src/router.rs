//! Topology-aware routing: writes to the primary, labeled reads to
//! replicas.
//!
//! A [`RoutedConnection`] bundles one [`Connection`] to the primary and one
//! per read replica, and implements [`SessionApi`] so application code (and
//! the platform's request scripts) runs unchanged over a replicated
//! topology:
//!
//! * **writes, explicit transactions, and stored procedures** always go to
//!   the primary — replicas refuse them anyway (`READ_ONLY`);
//! * **reads outside an explicit transaction** round-robin across the
//!   replicas (falling back to the primary when none are configured or a
//!   replica fails);
//! * **reads inside an explicit transaction** stay on the primary: they
//!   must see the transaction's own writes under its snapshot;
//! * **label operations** are mirrored to every connection, so a replica
//!   session always holds the same principal and process label as the
//!   primary session and Query by Label filters replica reads identically.
//!
//! # Read-your-writes and bounded staleness
//!
//! Replication is asynchronous, so a replica read can be stale. With
//! [`RouterConfig::read_your_writes`] enabled, the router remembers the
//! primary watermark piggybacked on each write acknowledgement
//! ([`Connection::last_write_seq`]) and, before a replica read, polls the
//! replica's applied-seq ([`Connection::watermark`]) until it reaches that
//! barrier. The wait is bounded by [`RouterConfig::staleness_timeout`]:
//! past it, the read falls back to the primary, so a stalled replica
//! degrades latency, never correctness.
//!
//! # Sharded primaries and two-phase commit
//!
//! With a [`ShardMap`] configured ([`RouterConfig::sharded`]), the router
//! additionally acts as the **transaction coordinator** over N primary
//! shard nodes (shard 0 is the `primary` connection, the *home shard* for
//! unmapped tables and unroutable statements):
//!
//! * every statement is routed to the shard owning its shard-key value;
//! * `begin` is **lazy** — a per-shard transaction branch is begun on a
//!   shard the first time a statement of the transaction touches it, so a
//!   transaction that stays on one shard never pays for the others;
//! * `commit` of a transaction that touched **one** shard is a plain
//!   `Commit` on that shard — the fast path is wire-identical to the
//!   unsharded client;
//! * `commit` of a **cross-shard** transaction runs two-phase commit: the
//!   coordinator puts a `TxnPrepare` on every participant's socket before
//!   reading any vote (phase one is concurrent across shards, one flush
//!   per shard), then delivers the decision the same way. Each participant
//!   enforces the IFDB commit-label rule at prepare time, so one shard's
//!   refusal (its *no* vote) aborts the transaction on every shard;
//! * the process label is mirrored to every shard connection, and the
//!   output gate checks the **union** of all shard labels — contamination
//!   acquired on any shard gates release, exactly as a single node would;
//! * a coordinator that crashed between phases leaves participants *in
//!   doubt*; a new router over the same topology calls
//!   [`RoutedConnection::resolve_in_doubt`] to finish them (commit iff any
//!   participant already learned the commit, else presumed abort).

use std::time::{Duration, Instant};

use ifdb::{
    Aggregate, Delete, IfdbError, IfdbResult, Insert, Join, ResultSet, Select, SessionApi,
    Statement, StatementResult, Update,
};
use ifdb_difc::{Label, PrincipalId, TagId};
use ifdb_storage::Datum;

use crate::protocol::Request;
use crate::shard::{ShardMap, HOME_SHARD};
use crate::{ClientConfig, Connection};
use std::sync::Arc;

/// Configuration of a routed (primary + replicas) client.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Connection configuration for the primary.
    pub primary: ClientConfig,
    /// One connection configuration per read replica. The user, password
    /// and initial label should match the primary's so sessions are
    /// label-symmetric.
    pub replicas: Vec<ClientConfig>,
    /// When `true`, replica reads wait until the replica has applied this
    /// client's last write before serving (read-your-writes).
    pub read_your_writes: bool,
    /// Bound on the read-your-writes wait; past it the read falls back to
    /// the primary.
    pub staleness_timeout: Duration,
    /// How long to sleep between watermark polls during a
    /// read-your-writes wait.
    pub poll_interval: Duration,
    /// How tables are partitioned across primary shard nodes. `None` (or a
    /// single-shard map) is the classic one-primary topology.
    pub shard_map: Option<Arc<ShardMap>>,
    /// Connection configuration for shards `1..` when `shard_map` is set
    /// (`primary` is shard 0, the home shard); must hold exactly
    /// `shard_map.shards() - 1` entries.
    pub shard_nodes: Vec<ClientConfig>,
    /// When `true` (the default), a write that fails because the primary is
    /// fenced or unreachable probes the replicas for a promoted successor
    /// (`HaStatus`) and adopts it as the new primary. Fenced refusals are
    /// retried there (the old primary determinately refused, so the retry
    /// is exactly-once); transport failures are *not* retried — the write
    /// is indeterminate and the error surfaces — but the adoption still
    /// routes every later statement to the successor.
    pub write_failover: bool,
    /// Bound on the write-unavailability window: how long a failed write
    /// keeps probing for a promoted successor before giving up with the
    /// original error.
    pub failover_timeout: Duration,
}

impl RouterConfig {
    /// A router over `primary` with the given replicas, read-your-writes
    /// enabled with a 2-second staleness bound.
    pub fn new(primary: ClientConfig, replicas: Vec<ClientConfig>) -> Self {
        RouterConfig {
            primary,
            replicas,
            read_your_writes: true,
            staleness_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(1),
            shard_map: None,
            shard_nodes: Vec::new(),
            write_failover: true,
            failover_timeout: Duration::from_secs(10),
        }
    }

    /// A router over `map.shards()` primary shard nodes, one [`ClientConfig`]
    /// per shard in shard-id order (`nodes[0]` is the home shard). Each
    /// shard can still have its own replica chain server-side; this router
    /// talks to the primaries.
    ///
    /// # Panics
    /// When `nodes.len() != map.shards()`.
    pub fn sharded(map: Arc<ShardMap>, mut nodes: Vec<ClientConfig>) -> Self {
        assert_eq!(
            nodes.len(),
            map.shards(),
            "one ClientConfig per shard, in shard-id order"
        );
        let primary = nodes.remove(0);
        let mut config = Self::new(primary, Vec::new());
        config.shard_map = Some(map);
        config.shard_nodes = nodes;
        config
    }

    /// Enables or disables read-your-writes waiting.
    pub fn with_read_your_writes(mut self, on: bool) -> Self {
        self.read_your_writes = on;
        self
    }

    /// Starts a [`RouterConfigBuilder`] over `primary`. Unlike the direct
    /// constructors, the builder's [`RouterConfigBuilder::build`] validates
    /// cross-field consistency (shard node counts, read-your-writes without
    /// replicas, zero timeouts) instead of panicking or silently
    /// misrouting.
    pub fn builder(primary: ClientConfig) -> RouterConfigBuilder {
        RouterConfigBuilder {
            config: RouterConfig::new(primary, Vec::new()),
        }
    }
}

/// Builder for [`RouterConfig`] that validates the topology at
/// [`RouterConfigBuilder::build`] time.
#[derive(Debug, Clone)]
pub struct RouterConfigBuilder {
    config: RouterConfig,
}

impl RouterConfigBuilder {
    /// Adds a read replica.
    pub fn replica(mut self, replica: ClientConfig) -> Self {
        self.config.replicas.push(replica);
        self
    }

    /// Enables or disables read-your-writes waiting.
    pub fn read_your_writes(mut self, on: bool) -> Self {
        self.config.read_your_writes = on;
        self
    }

    /// Bounds the read-your-writes wait.
    pub fn staleness_timeout(mut self, timeout: Duration) -> Self {
        self.config.staleness_timeout = timeout;
        self
    }

    /// Declares the shard topology: `map` plus one [`ClientConfig`] per
    /// shard `1..` (the builder's primary is shard 0, the home shard).
    pub fn shards(mut self, map: Arc<ShardMap>, nodes: Vec<ClientConfig>) -> Self {
        self.config.shard_map = Some(map);
        self.config.shard_nodes = nodes;
        self
    }

    /// Enables or disables write failover to a promoted successor.
    pub fn write_failover(mut self, on: bool) -> Self {
        self.config.write_failover = on;
        self
    }

    /// Applies `f` to the partially built config for fields without a
    /// dedicated setter.
    pub fn tune(mut self, f: impl FnOnce(&mut RouterConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> IfdbResult<RouterConfig> {
        let c = &self.config;
        let invalid = |detail: String| IfdbError::Remote {
            code: crate::protocol::code::PROTOCOL as u16,
            detail,
        };
        if let Some(map) = &c.shard_map {
            let want = map.shards().saturating_sub(1);
            if c.shard_nodes.len() != want {
                return Err(invalid(format!(
                    "shard map declares {} shards but {} non-home shard nodes were configured \
                     (want {want}: the primary is shard 0)",
                    map.shards(),
                    c.shard_nodes.len()
                )));
            }
            if !c.replicas.is_empty() && map.shards() > 1 {
                return Err(invalid(
                    "replica read routing and multi-shard routing cannot be combined: replicas \
                     mirror a single primary's log"
                        .into(),
                ));
            }
        }
        if c.read_your_writes && c.poll_interval.is_zero() {
            return Err(invalid(
                "read_your_writes requires a non-zero poll_interval".into(),
            ));
        }
        if c.staleness_timeout.is_zero() && c.read_your_writes && !c.replicas.is_empty() {
            return Err(invalid(
                "a zero staleness_timeout with read_your_writes sends every replica read \
                 straight back to the primary; disable read_your_writes instead"
                    .into(),
            ));
        }
        Ok(self.config)
    }
}

/// Counters exposed by a [`RoutedConnection`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Reads served by a replica.
    pub reads_on_replica: u64,
    /// Reads served by the primary (no replicas, in-transaction reads, or
    /// staleness fallbacks).
    pub reads_on_primary: u64,
    /// Read-your-writes waits that had to poll at least once.
    pub ryw_waits: u64,
    /// Replica reads that fell back to the primary because the replica did
    /// not catch up within the staleness bound (or failed).
    pub ryw_fallbacks: u64,
    /// Statements routed to a shard other than the home shard.
    pub statements_cross_shard: u64,
    /// Transactions committed on the single-shard fast path (plain
    /// `Commit`, no two-phase overhead).
    pub single_shard_commits: u64,
    /// Cross-shard transactions committed via two-phase commit.
    pub distributed_commits: u64,
    /// Cross-shard transactions aborted because a participant voted no at
    /// prepare time (commit-label violation, conflict, …).
    pub distributed_aborts: u64,
    /// Commit decisions that could not be delivered to a prepared
    /// participant (it is in doubt there until
    /// [`RoutedConnection::resolve_in_doubt`] runs against it).
    pub decides_undelivered: u64,
    /// In-doubt transactions finished by
    /// [`RoutedConnection::resolve_in_doubt`].
    pub in_doubt_resolved: u64,
    /// Write failovers: a fenced or unreachable primary was replaced by a
    /// promoted successor found among the replicas.
    pub failovers: u64,
    /// Primary operations that failed, triggered a failover probe, and
    /// found no promoted successor within the failover timeout.
    pub failover_give_ups: u64,
}

/// A topology-aware client connection: one primary, any number of read
/// replicas, one [`SessionApi`] surface.
pub struct RoutedConnection {
    primary: Connection,
    replicas: Vec<Connection>,
    next_replica: usize,
    read_your_writes: bool,
    staleness_timeout: Duration,
    poll_interval: Duration,
    write_failover: bool,
    failover_timeout: Duration,
    /// The primary's log epoch at connect time. A replica reporting a
    /// different epoch is not comparable to this client's write barrier
    /// (the primary restarted), so read-your-writes falls back to the
    /// primary immediately instead of stalling out the staleness bound.
    primary_epoch: u64,
    /// The shard topology; `None` is the classic one-primary router.
    shard_map: Option<Arc<ShardMap>>,
    /// Connections to shards `1..` (shard 0 is `primary`).
    shard_conns: Vec<Connection>,
    /// An explicit transaction is open at the router level. Begins are
    /// lazy: no shard has begun until a statement touches it.
    router_txn: bool,
    /// Shards with an open transaction branch, in touch order.
    touched: Vec<usize>,
    /// Global-transaction-id generator: a coarse wall-clock seed (so gids
    /// stay unique across coordinator restarts — participants durably
    /// remember decided gids) plus a local counter.
    gid_seed: u64,
    gid_counter: u64,
    stats: RouterStats,
}

impl std::fmt::Debug for RoutedConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutedConnection")
            .field("replicas", &self.replicas.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RoutedConnection {
    /// Connects to the primary, every replica, and (when sharded) every
    /// shard node.
    pub fn connect(config: &RouterConfig) -> IfdbResult<RoutedConnection> {
        if let Some(map) = &config.shard_map {
            if config.shard_nodes.len() + 1 != map.shards() {
                return Err(IfdbError::Remote {
                    code: crate::protocol::code::PROTOCOL as u16,
                    detail: format!(
                        "shard map describes {} shards but {} node configs given",
                        map.shards(),
                        config.shard_nodes.len() + 1
                    ),
                });
            }
        }
        let mut primary = Connection::connect(&config.primary)?;
        let (_, primary_epoch) = primary.watermark_full()?;
        let replicas = config
            .replicas
            .iter()
            .map(Connection::connect)
            .collect::<IfdbResult<Vec<_>>>()?;
        let shard_conns = config
            .shard_nodes
            .iter()
            .map(Connection::connect)
            .collect::<IfdbResult<Vec<_>>>()?;
        let gid_seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(1)
            << 10;
        Ok(RoutedConnection {
            primary,
            replicas,
            next_replica: 0,
            read_your_writes: config.read_your_writes,
            staleness_timeout: config.staleness_timeout,
            poll_interval: config.poll_interval,
            write_failover: config.write_failover,
            failover_timeout: config.failover_timeout,
            primary_epoch,
            shard_map: config.shard_map.clone(),
            shard_conns,
            router_txn: false,
            touched: Vec::new(),
            gid_seed,
            gid_counter: 0,
            stats: RouterStats::default(),
        })
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// The primary connection (e.g. to read its label mirror or watermark).
    pub fn primary(&mut self) -> &mut Connection {
        &mut self.primary
    }

    /// Closes every connection.
    pub fn close(mut self) -> IfdbResult<()> {
        for replica in self.replicas.drain(..) {
            let _ = replica.close();
        }
        for shard in self.shard_conns.drain(..) {
            let _ = shard.close();
        }
        self.primary.close()
    }

    // ---------------------------------------------- sharded coordination

    /// Whether this router coordinates more than one shard.
    fn sharded(&self) -> bool {
        self.shard_map.as_ref().is_some_and(|m| m.shards() > 1)
    }

    /// The connection serving `shard` (0 is the primary/home shard).
    fn shard_conn(&mut self, shard: usize) -> &mut Connection {
        if shard == HOME_SHARD {
            &mut self.primary
        } else {
            &mut self.shard_conns[shard - 1]
        }
    }

    /// The shard owning `stmt`. A statement on a replicated catalog table
    /// stays on a shard the open transaction already touches (it never adds
    /// a commit participant); other unroutable statements go to the home
    /// shard.
    fn route(&self, stmt: &Statement) -> usize {
        let Some(map) = &self.shard_map else {
            return HOME_SHARD;
        };
        if let Some(shard) = map.shard_for_statement(stmt) {
            return shard;
        }
        if self.router_txn && map.is_replicated(crate::shard::statement_table(stmt)) {
            if let Some(&shard) = self.touched.last() {
                return shard;
            }
        }
        HOME_SHARD
    }

    /// Lazily begins this transaction's branch on `shard` the first time a
    /// statement touches it. Outside an explicit transaction this is a
    /// no-op (statements auto-commit on their shard).
    fn ensure_branch(&mut self, shard: usize) -> IfdbResult<()> {
        if !self.router_txn || self.touched.contains(&shard) {
            return Ok(());
        }
        self.shard_conn(shard).begin()?;
        self.touched.push(shard);
        Ok(())
    }

    /// Runs one statement on its owning shard (beginning the branch if
    /// needed), counting cross-shard routing.
    fn run_on_shard(&mut self, stmt: &Statement) -> IfdbResult<StatementResult> {
        let shard = self.route(stmt);
        if shard != HOME_SHARD {
            self.stats.statements_cross_shard += 1;
        }
        self.ensure_branch(shard)?;
        self.shard_conn(shard).run(stmt)
    }

    /// A fresh global transaction id.
    fn next_gid(&mut self) -> u64 {
        self.gid_counter += 1;
        self.gid_seed.wrapping_add(self.gid_counter)
    }

    /// Two-phase commit across the touched shards. Phase one puts a
    /// `TxnPrepare` on every participant's socket before reading any vote,
    /// so the prepares (each participant's fsync included) overlap; phase
    /// two delivers the decision the same way. One flush per shard per
    /// phase.
    fn commit_two_phase(&mut self, participants: &[usize]) -> IfdbResult<()> {
        let gid = self.next_gid();
        let sent: Vec<(usize, IfdbResult<u32>)> = participants
            .iter()
            .map(|&s| (s, self.shard_conn(s).send_txn_prepare(gid)))
            .collect();
        let mut yes: Vec<usize> = Vec::new();
        let mut veto: Option<IfdbError> = None;
        for (shard, send) in sent {
            match send.and_then(|id| self.shard_conn(shard).recv_ok(id)) {
                Ok(()) => yes.push(shard),
                // A prepare error is this shard's no vote; the server has
                // already aborted its branch, so it needs no decide.
                Err(e) => {
                    if veto.is_none() {
                        veto = Some(e);
                    }
                }
            }
        }
        let commit = veto.is_none();
        let sent: Vec<(usize, IfdbResult<u32>)> = yes
            .iter()
            .map(|&s| {
                let req = Request::TxnDecide { gid, commit };
                (s, self.shard_conn(s).send_request(&req))
            })
            .collect();
        for (shard, send) in sent {
            if send
                .and_then(|id| self.shard_conn(shard).recv_ok(id))
                .is_err()
            {
                // The participant is prepared but unreachable: it stays in
                // doubt there and resolves via `resolve_in_doubt` (or the
                // decided-gid memory of its peers). The *decision* stands —
                // other participants may already have applied it.
                self.stats.decides_undelivered += 1;
            }
        }
        match veto {
            Some(e) => {
                self.stats.distributed_aborts += 1;
                Err(e)
            }
            None => {
                self.stats.distributed_commits += 1;
                Ok(())
            }
        }
    }

    /// Finishes transactions left in doubt by a crashed coordinator: asks
    /// every shard for its in-doubt gids, resolves each one — **commit**
    /// iff any participant already learned the commit decision, otherwise
    /// presumed abort (the coordinator never sends a commit decision
    /// before collecting yes votes from *all* participants, so no
    /// participant can have committed) — and re-delivers the decision
    /// everywhere. Returns the `(gid, committed)` pairs resolved.
    pub fn resolve_in_doubt(&mut self) -> IfdbResult<Vec<(u64, bool)>> {
        let shards = self.shard_map.as_ref().map_or(1, |m| m.shards());
        let mut gids: Vec<u64> = Vec::new();
        for s in 0..shards {
            for gid in self.shard_conn(s).txn_recover()? {
                if !gids.contains(&gid) {
                    gids.push(gid);
                }
            }
        }
        let mut resolved = Vec::with_capacity(gids.len());
        for gid in gids {
            let mut committed = false;
            for s in 0..shards {
                if self.shard_conn(s).txn_outcome(gid)? == Some(true) {
                    committed = true;
                    break;
                }
            }
            for s in 0..shards {
                self.shard_conn(s).txn_decide(gid, committed)?;
            }
            self.stats.in_doubt_resolved += 1;
            resolved.push((gid, committed));
        }
        Ok(resolved)
    }

    // ---------------------------------------------------- write failover

    /// Whether a failed primary operation should trigger a failover probe:
    /// the primary refused because it is fenced (a successor exists), it
    /// announced a shutdown (it is going away), or the transport failed
    /// (the primary may be dead). Everything else — label violations,
    /// conflicts, replication lag — is the primary working as intended.
    fn failover_trigger(e: &IfdbError) -> bool {
        Self::determinate_refusal(e)
            || matches!(
                e,
                IfdbError::Remote { code, .. }
                    if *code == crate::protocol::code::PROTOCOL as u16
            )
    }

    /// Whether a failover-triggering error proves the operation had no
    /// effect on the old primary, making it safe to re-run on the
    /// successor: a `FENCED` refusal (deposed primaries refuse before
    /// executing) or a `SHUTTING_DOWN` notice (sent unsolicited at a frame
    /// boundary or instead of accepting — never after running a request).
    fn determinate_refusal(e: &IfdbError) -> bool {
        crate::is_fenced_error(e)
            || matches!(
                e,
                IfdbError::Remote { code, .. }
                    if *code == crate::protocol::code::SHUTTING_DOWN as u16
            )
    }

    /// Probes the replicas for a node that has been promoted to primary and
    /// adopts it: the replica connection *becomes* the primary connection
    /// (its session already mirrors this client's principal and label), the
    /// epoch baseline moves to the successor's log, and the read-your-writes
    /// barrier resets — a watermark taken under the old primary's epoch must
    /// never satisfy a barrier on the new timeline. Bounded by
    /// [`RouterConfig::failover_timeout`].
    fn fail_over_primary(&mut self) -> IfdbResult<()> {
        let deadline = Instant::now() + self.failover_timeout;
        loop {
            for idx in 0..self.replicas.len() {
                let Ok(status) = self.replicas[idx].ha_status() else {
                    continue;
                };
                if status.role != crate::protocol::HaRole::Primary {
                    continue;
                }
                let successor = self.replicas.swap_remove(idx);
                let deposed = std::mem::replace(&mut self.primary, successor);
                drop(deposed);
                // The successor's log is a new timeline: sequence numbers
                // from the old primary are incomparable, so the epoch
                // baseline follows it and the stale barrier is void (the
                // adopted connection has no acknowledged writes yet, so
                // `last_write_seq` is already 0 there).
                self.primary_epoch = status.epoch;
                self.next_replica = 0;
                self.stats.failovers += 1;
                return Ok(());
            }
            if Instant::now() >= deadline {
                self.stats.failover_give_ups += 1;
                return Err(IfdbError::Remote {
                    code: crate::protocol::code::FENCED as u16,
                    detail: "primary unavailable and no promoted successor found".into(),
                });
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Runs `op` against the primary with write failover: when it fails
    /// because the primary is fenced, shutting down, or unreachable, adopt
    /// the promoted successor and — only when the failed attempt provably
    /// had no effect (a fenced/shutting-down refusal is determinate for any
    /// op; a transport failure only for effect-free ops like `begin`) —
    /// run it once more there. A non-retriable failure still performs the
    /// adoption so every later statement routes to the successor, but the
    /// original (indeterminate) error surfaces to the caller.
    fn with_primary_failover<T>(
        &mut self,
        transport_retriable: bool,
        mut op: impl FnMut(&mut Connection) -> IfdbResult<T>,
    ) -> IfdbResult<T> {
        let in_txn = self.router_txn || self.primary.in_transaction();
        match op(&mut self.primary) {
            Ok(v) => Ok(v),
            Err(e) => {
                if !self.write_failover || !Self::failover_trigger(&e) {
                    return Err(e);
                }
                let determinate = Self::determinate_refusal(&e);
                if self.fail_over_primary().is_err() {
                    return Err(e);
                }
                // A transaction that was open on the deposed primary died
                // with it; the caller must restart it from the top. Never
                // re-run one of its statements against the successor.
                if in_txn || (!determinate && !transport_retriable) {
                    return Err(e);
                }
                op(&mut self.primary)
            }
        }
    }

    /// Picks the replica for the next read and waits out the
    /// read-your-writes barrier on it. Returns `None` when the read should
    /// go to the primary instead.
    fn replica_for_read(&mut self) -> Option<usize> {
        if self.replicas.is_empty() || self.primary.in_transaction() {
            return None;
        }
        let idx = self.next_replica % self.replicas.len();
        self.next_replica = self.next_replica.wrapping_add(1);
        if !self.read_your_writes {
            return Some(idx);
        }
        let barrier = self.primary.last_write_seq();
        if barrier == 0 {
            return Some(idx);
        }
        let deadline = Instant::now() + self.staleness_timeout;
        let mut polled = false;
        loop {
            match self.replicas[idx].watermark_full() {
                Ok((_, epoch)) if epoch != self.primary_epoch => {
                    // The replica follows a different log incarnation than
                    // the one this client's barrier came from (primary
                    // restart, or the replica has not synced yet): seq
                    // comparison is meaningless, don't stall on it.
                    self.stats.ryw_fallbacks += 1;
                    return None;
                }
                Ok((seq, _)) if seq >= barrier => {
                    if polled {
                        self.stats.ryw_waits += 1;
                    }
                    return Some(idx);
                }
                Ok(_) => {
                    polled = true;
                    if Instant::now() >= deadline {
                        self.stats.ryw_fallbacks += 1;
                        return None;
                    }
                    std::thread::sleep(self.poll_interval);
                }
                Err(_) => {
                    self.stats.ryw_fallbacks += 1;
                    return None;
                }
            }
        }
    }

    /// Runs a read statement on a replica when possible, otherwise on the
    /// primary. A replica-side failure falls back to the primary so a dying
    /// replica degrades latency, not availability.
    fn routed_read(&mut self, stmt: &Statement) -> IfdbResult<ResultSet> {
        if self.sharded() {
            let shard = self.route(stmt);
            // Reads owned by another shard — or any read inside an open
            // transaction — go to the owning shard node; only home-shard
            // reads outside a transaction use the replica rotation below.
            if shard != HOME_SHARD || self.router_txn {
                return self.run_on_shard(stmt).map(StatementResult::into_rows);
            }
        }
        if let Some(idx) = self.replica_for_read() {
            match self.replicas[idx].run(stmt) {
                Ok(r) => {
                    self.stats.reads_on_replica += 1;
                    return Ok(r.into_rows());
                }
                Err(_) => {
                    self.stats.ryw_fallbacks += 1;
                }
            }
        }
        self.stats.reads_on_primary += 1;
        // Reads are effect-free, so a transport failure may retry on the
        // promoted successor too.
        self.with_primary_failover(true, |c| c.run(stmt))
            .map(StatementResult::into_rows)
    }

    /// Executes a batch of statements **pipelined** (one flush, responses
    /// read back-to-back — see [`Connection::pipeline`]), routing the whole
    /// batch to one connection: an all-read batch outside a transaction goes
    /// to a replica behind the usual read-your-writes barrier; any batch
    /// containing a write, or running inside a transaction, goes to the
    /// primary. The batch is never split across connections — per-connection
    /// FIFO execution is what keeps the piggybacked-label sequence coherent.
    pub fn pipeline(
        &mut self,
        stmts: &[Statement],
    ) -> IfdbResult<Vec<IfdbResult<StatementResult>>> {
        if self.sharded() {
            return self.pipeline_sharded(stmts);
        }
        let all_reads = stmts.iter().all(|s| {
            matches!(
                s,
                Statement::Select(_) | Statement::Join(_) | Statement::Aggregate(_)
            )
        });
        if all_reads {
            if let Some(idx) = self.replica_for_read() {
                match self.replicas[idx].pipeline(stmts) {
                    Ok(results) => {
                        self.stats.reads_on_replica += stmts.len() as u64;
                        return Ok(results);
                    }
                    Err(_) => {
                        self.stats.ryw_fallbacks += 1;
                    }
                }
            }
            self.stats.reads_on_primary += stmts.len() as u64;
        }
        self.primary.pipeline(stmts)
    }

    /// Sharded pipeline: the batch is partitioned by owning shard and each
    /// partition runs pipelined on its shard (statement order within a
    /// shard — which is what the per-connection label contract covers — is
    /// preserved; statements on different shards touch disjoint data by
    /// construction of the routing). A single-shard batch is forwarded
    /// whole, clone-free.
    fn pipeline_sharded(
        &mut self,
        stmts: &[Statement],
    ) -> IfdbResult<Vec<IfdbResult<StatementResult>>> {
        if stmts.is_empty() {
            return Ok(Vec::new());
        }
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, stmt) in stmts.iter().enumerate() {
            let shard = self.route(stmt);
            if shard != HOME_SHARD {
                self.stats.statements_cross_shard += 1;
            }
            match groups.iter_mut().find(|(s, _)| *s == shard) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((shard, vec![i])),
            }
        }
        if groups.len() == 1 {
            let shard = groups[0].0;
            self.ensure_branch(shard)?;
            return self.shard_conn(shard).pipeline(stmts);
        }
        let mut out: Vec<Option<IfdbResult<StatementResult>>> =
            stmts.iter().map(|_| None).collect();
        for (shard, idxs) in groups {
            self.ensure_branch(shard)?;
            let part: Vec<Statement> = idxs.iter().map(|&i| stmts[i].clone()).collect();
            let results = self.shard_conn(shard).pipeline(&part)?;
            for (i, r) in idxs.into_iter().zip(results) {
                out[i] = Some(r);
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every statement assigned to exactly one shard"))
            .collect())
    }

    /// Applies a label operation to the primary and mirrors it to every
    /// shard node and every replica, keeping the sessions label-symmetric.
    /// The primary's outcome decides success. A **shard** that refuses is
    /// an error — writes may route there, and they must run under the same
    /// label. A replica that refuses (e.g. it has not learned a delegation
    /// yet) is dropped from the read rotation rather than serving reads
    /// under a weaker label.
    fn mirrored<T>(
        &mut self,
        mut op: impl FnMut(&mut Connection) -> IfdbResult<T>,
    ) -> IfdbResult<T> {
        let out = op(&mut self.primary)?;
        for shard in &mut self.shard_conns {
            op(shard)?;
        }
        let mut alive = Vec::with_capacity(self.replicas.len());
        for mut replica in self.replicas.drain(..) {
            if op(&mut replica).is_ok() {
                alive.push(replica);
            }
        }
        self.replicas = alive;
        Ok(out)
    }

    /// The coordinator's output-gate label: the union of every shard
    /// session's process label. Contamination acquired on any shard (a
    /// trigger on a remote shard raised its session label during this
    /// client's statement) gates release exactly as it would on one node.
    fn merged_label(&self) -> Label {
        let mut label = self.primary.current_label();
        for shard in &self.shard_conns {
            label = label.union(&shard.current_label());
        }
        label
    }
}

impl SessionApi for RoutedConnection {
    fn select(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        self.routed_read(&Statement::Select(q.clone()))
    }
    fn select_join(&mut self, join: &Join) -> IfdbResult<ResultSet> {
        self.routed_read(&Statement::Join(join.clone()))
    }
    fn select_aggregate(&mut self, agg: &Aggregate) -> IfdbResult<ResultSet> {
        self.routed_read(&Statement::Aggregate(agg.clone()))
    }
    fn insert(&mut self, ins: &Insert) -> IfdbResult<()> {
        if self.sharded() {
            return self
                .run_on_shard(&Statement::Insert(ins.clone()))
                .map(|_| ());
        }
        self.with_primary_failover(false, |c| c.insert(ins))
    }
    fn update(&mut self, upd: &Update) -> IfdbResult<usize> {
        if self.sharded() {
            return self
                .run_on_shard(&Statement::Update(upd.clone()))
                .map(|r| r.affected());
        }
        self.with_primary_failover(false, |c| c.update(upd))
    }
    fn delete(&mut self, del: &Delete) -> IfdbResult<usize> {
        if self.sharded() {
            return self
                .run_on_shard(&Statement::Delete(del.clone()))
                .map(|r| r.affected());
        }
        self.with_primary_failover(false, |c| c.delete(del))
    }
    fn begin(&mut self) -> IfdbResult<()> {
        if self.sharded() {
            if self.router_txn {
                return Err(IfdbError::Remote {
                    code: crate::protocol::code::PROTOCOL as u16,
                    detail: "transaction already open".into(),
                });
            }
            // Lazy: branches begin on each shard at first touch, so a
            // single-shard transaction pays exactly the unsharded wire cost.
            self.router_txn = true;
            return Ok(());
        }
        // Begin is effect-free: safe to retry on the successor even after
        // a transport failure.
        self.with_primary_failover(true, |c| c.begin())
    }
    fn commit(&mut self) -> IfdbResult<()> {
        if self.sharded() && self.router_txn {
            self.router_txn = false;
            let participants = std::mem::take(&mut self.touched);
            return match participants.len() {
                // Nothing touched: the empty transaction commits trivially.
                0 => Ok(()),
                // Fast path: one shard saw the transaction, a plain Commit
                // finishes it — wire-identical to the unsharded client.
                1 => {
                    self.stats.single_shard_commits += 1;
                    self.shard_conn(participants[0]).commit()
                }
                _ => self.commit_two_phase(&participants),
            };
        }
        // Commit is never retried across a failover — the transaction's
        // branch died with the deposed primary — but the adoption still
        // happens, so the caller's *next* transaction lands on the
        // successor immediately.
        self.with_primary_failover(false, |c| c.commit())
    }
    fn abort(&mut self) -> IfdbResult<()> {
        if self.sharded() && self.router_txn {
            self.router_txn = false;
            let participants = std::mem::take(&mut self.touched);
            let mut first_err = None;
            for shard in participants {
                if let Err(e) = self.shard_conn(shard).abort() {
                    first_err.get_or_insert(e);
                }
            }
            return match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            };
        }
        self.primary.abort()
    }
    fn in_transaction(&self) -> bool {
        self.router_txn || self.primary.in_transaction()
    }
    fn add_secrecy(&mut self, tag: TagId) -> IfdbResult<()> {
        self.mirrored(|c| c.add_secrecy(tag))
    }
    fn raise_label(&mut self, other: &Label) -> IfdbResult<()> {
        let other = other.clone();
        self.mirrored(move |c| c.raise_label(&other))
    }
    fn declassify(&mut self, tag: TagId) -> IfdbResult<()> {
        self.mirrored(|c| c.declassify(tag))
    }
    fn declassify_all(&mut self, tags: &Label) -> IfdbResult<()> {
        let tags = tags.clone();
        self.mirrored(move |c| c.declassify_all(&tags))
    }
    fn delegate(&mut self, grantee: PrincipalId, tag: TagId) -> IfdbResult<()> {
        // Authority mutations go to the primary only: replicas rebuild
        // authority from their bootstrap, and refuse local grants.
        self.primary.delegate(grantee, tag)
    }
    fn call_procedure(&mut self, name: &str, args: &[Datum]) -> IfdbResult<ResultSet> {
        // Procedures can write, so a transport failure stays indeterminate
        // (no retry); a fenced refusal fails over and retries.
        self.with_primary_failover(false, |c| c.call_procedure(name, args))
    }
    fn principal(&self) -> PrincipalId {
        self.primary.principal()
    }
    fn current_label(&self) -> Label {
        self.merged_label()
    }
    fn check_release_to_world(&self) -> IfdbResult<()> {
        // The output gate over the merged label: a release is clean only
        // if *no* shard session is contaminated.
        let label = self.merged_label();
        if label.is_empty() {
            Ok(())
        } else {
            Err(ifdb::IfdbError::Difc(
                ifdb_difc::DifcError::ContaminatedOutput { label },
            ))
        }
    }
    fn execute_batch(&mut self, stmts: &[Statement]) -> Vec<IfdbResult<StatementResult>> {
        match self.pipeline(stmts) {
            Ok(results) => results,
            Err(e) => stmts.iter().map(|_| Err(e.clone())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_refuses_read_your_writes_with_a_zero_poll_interval() {
        // The read-your-writes wait would spin.
        let built = RouterConfig::builder(ClientConfig::anonymous("127.0.0.1:1"))
            .replica(ClientConfig::anonymous("127.0.0.1:2"))
            .tune(|c| c.poll_interval = Duration::ZERO)
            .build();
        assert!(built.is_err());
    }
}
