//! `ifdb-client`: the TCP client for the IFDB network query service.
//!
//! A [`Connection`] is the remote counterpart of an in-process
//! [`ifdb::Session`]: it speaks the [`protocol`] to an `ifdb-server`,
//! mirrors the process label locally (so the platform's output gate can
//! check releases without a network round trip, as PHP-IF does), and
//! implements [`ifdb::SessionApi`] — application code written against
//! `&mut dyn SessionApi` runs unchanged over the wire.
//!
//! Statements are automatically prepared: the first execution of a statement
//! *shape* sends a `Prepare` carrying the value-free template and caches the
//! returned statement id per connection; every further execution of that
//! shape sends only the id and the parameters. The id is this connection's
//! own: the server numbers each connection's templates from 1 and keeps
//! them for that connection only, so another connection prepares the same
//! shape itself.

#![deny(missing_docs)]

pub mod protocol;
pub mod router;
pub mod shard;

pub use router::{RoutedConnection, RouterConfig, RouterStats};

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use ifdb::{
    Aggregate, Delete, IfdbError, IfdbResult, Insert, Join, ResultSet, Row, Select, SessionApi,
    Statement, StatementResult, Update,
};
use ifdb_difc::{DifcError, Label, PrincipalId, TagId};
use ifdb_storage::Datum;

use std::io::Write;

use protocol::{
    decode_error, encode_template, frame_into, read_frame_id, write_frame_id, Request, Response,
    WireRow, PROTOCOL_VERSION,
};

/// Client configuration for one connection.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, e.g. `"127.0.0.1:5433"`.
    pub addr: String,
    /// The user to authenticate as; empty for anonymous.
    pub user: String,
    /// The user's password.
    pub password: String,
    /// Platform secret for trusted (web/app server) connections; enables
    /// password-less [`Connection::login_as`].
    pub platform_secret: Option<String>,
    /// Initial process label.
    pub label: Vec<TagId>,
    /// Preferred result batch size (rows per fetch); 0 lets the server pick.
    pub fetch_batch: u32,
    /// Socket read timeout (guards against a hung server); `None` blocks
    /// forever.
    pub read_timeout: Option<Duration>,
}

impl ClientConfig {
    /// An anonymous connection to `addr` with default batching.
    pub fn anonymous(addr: &str) -> Self {
        ClientConfig {
            addr: addr.to_string(),
            user: String::new(),
            password: String::new(),
            platform_secret: None,
            label: Vec::new(),
            fetch_batch: 0,
            read_timeout: Some(Duration::from_secs(30)),
        }
    }

    /// Sets the user and password.
    pub fn with_user(mut self, user: &str, password: &str) -> Self {
        self.user = user.to_string();
        self.password = password.to_string();
        self
    }

    /// Sets the initial label.
    pub fn with_label(mut self, tags: &[TagId]) -> Self {
        self.label = tags.to_vec();
        self
    }

    /// Sets the platform secret (trusted connections).
    pub fn with_platform_secret(mut self, secret: &str) -> Self {
        self.platform_secret = Some(secret.to_string());
        self
    }

    /// Sets the fetch batch size.
    pub fn with_fetch_batch(mut self, rows: u32) -> Self {
        self.fetch_batch = rows;
        self
    }
}

/// Client-side counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClientStats {
    /// Round trips performed.
    pub round_trips: u64,
    /// Statements executed.
    pub statements: u64,
    /// Prepare messages sent (distinct statement shapes seen first-hand).
    pub prepares: u64,
    /// Result batches fetched beyond the inline first batch.
    pub extra_fetches: u64,
    /// Statements sent through [`Connection::pipeline`] batches.
    pub pipelined: u64,
}

/// A connection to an `ifdb-server`, acting for one principal with one
/// process label. Implements [`SessionApi`].
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    principal: PrincipalId,
    label: Label,
    in_txn: bool,
    fetch_batch: u32,
    prepared: HashMap<Vec<u8>, u32>,
    stats: ClientStats,
    last_write_seq: u64,
    next_req_id: u32,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("principal", &self.principal)
            .field("label", &self.label)
            .field("in_txn", &self.in_txn)
            .field("prepared", &self.prepared.len())
            .finish()
    }
}

fn io_err(detail: String) -> IfdbError {
    IfdbError::Remote {
        code: protocol::code::PROTOCOL as u16,
        detail,
    }
}

impl Connection {
    /// Connects and performs the handshake: authenticate as `config.user`,
    /// raise the initial label, and mirror the granted label locally.
    pub fn connect(config: &ClientConfig) -> IfdbResult<Connection> {
        let stream = TcpStream::connect(&config.addr)
            .map_err(|e| io_err(format!("connect {}: {e}", config.addr)))?;
        stream
            .set_nodelay(true)
            .map_err(|e| io_err(format!("nodelay: {e}")))?;
        stream
            .set_read_timeout(config.read_timeout)
            .map_err(|e| io_err(format!("timeout: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| io_err(format!("clone: {e}")))?,
        );
        let writer = BufWriter::new(stream);
        let mut conn = Connection {
            reader,
            writer,
            principal: PrincipalId(0),
            label: Label::empty(),
            in_txn: false,
            fetch_batch: config.fetch_batch,
            prepared: HashMap::new(),
            stats: ClientStats::default(),
            last_write_seq: 0,
            next_req_id: 1,
        };
        let resp = conn.call(&Request::Hello {
            version: PROTOCOL_VERSION,
            user: config.user.clone(),
            password: config.password.clone(),
            platform_secret: config.platform_secret.clone(),
            label: config.label.iter().map(|t| t.0).collect(),
        })?;
        match resp {
            Response::HelloOk { principal, label } => {
                conn.principal = PrincipalId(principal);
                conn.label = Label::from_array(&label);
                Ok(conn)
            }
            other => Err(unexpected(other)),
        }
    }

    /// Client-side counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The server watermark piggybacked on this connection's most recent
    /// write or commit acknowledgement (0 before any write). A replica whose
    /// applied-seq has reached this value has applied everything this
    /// connection has written — the read-your-writes barrier.
    pub fn last_write_seq(&self) -> u64 {
        self.last_write_seq
    }

    /// Asks the server for its current watermark: on a primary, the last
    /// write-ahead-log sequence number; on a replica, the applied-seq of its
    /// replication stream.
    pub fn watermark(&mut self) -> IfdbResult<u64> {
        self.watermark_full().map(|(seq, _)| seq)
    }

    /// Like [`Connection::watermark`], but also returns the log epoch the
    /// watermark belongs to. Sequence numbers are only comparable within
    /// one epoch — a topology-aware client uses the epoch to notice a
    /// primary restart (after which an old read-your-writes barrier is
    /// meaningless) instead of waiting out its staleness bound.
    pub fn watermark_full(&mut self) -> IfdbResult<(u64, u64)> {
        match self.call(&Request::Watermark)? {
            Response::Watermark { seq, epoch } => Ok((seq, epoch)),
            other => Err(unexpected(other)),
        }
    }

    /// Re-authenticates this connection as `user` with a password,
    /// aborting any open transaction and resetting the label. Used when a
    /// pooled connection is handed to a new request.
    pub fn login(&mut self, user: &str, password: &str) -> IfdbResult<()> {
        self.login_inner(user, Some(password))
    }

    /// Trusted user switch without a password (session-cookie path).
    /// Requires the connection to have presented the platform secret at
    /// handshake time; the server refuses it otherwise.
    pub fn login_as(&mut self, user: &str) -> IfdbResult<()> {
        self.login_inner(user, None)
    }

    fn login_inner(&mut self, user: &str, password: Option<&str>) -> IfdbResult<()> {
        let resp = self.call(&Request::Login {
            user: user.to_string(),
            password: password.map(str::to_string),
        })?;
        match resp {
            Response::HelloOk { principal, label } => {
                self.principal = PrincipalId(principal);
                self.label = Label::from_array(&label);
                self.in_txn = false;
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    /// Cleanly shuts the connection down.
    pub fn close(mut self) -> IfdbResult<()> {
        match self.call(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn next_id(&mut self) -> u32 {
        let id = self.next_req_id;
        self.next_req_id = self.next_req_id.wrapping_add(1).max(1);
        id
    }

    /// Reads the response for `expect_id` (responses arrive in request
    /// order), keeping wire errors as [`Response::Error`] but mirroring any
    /// piggybacked session label immediately — failed statements can still
    /// have contaminated the process, and a pipelined batch must apply the
    /// contamination before decoding later responses.
    fn recv_raw(&mut self, expect_id: u32) -> IfdbResult<Response> {
        let (id, payload) = read_frame_id(&mut self.reader)?
            .ok_or_else(|| io_err("server closed the connection".into()))?;
        // id 0 is a connection-level frame the server sends unprompted — an
        // accept refusal or a shutdown notice. It decodes to an error below
        // and stands in for whatever response was expected.
        if id != 0 && id != expect_id {
            return Err(io_err(format!(
                "response id {id} does not match request {expect_id}"
            )));
        }
        let resp = Response::decode(&payload)?;
        if let Response::Error {
            session_label: Some(tags),
            ..
        } = &resp
        {
            self.label = Label::from_array(tags);
        }
        Ok(resp)
    }

    /// Turns a wire [`Response::Error`] into the matching [`IfdbError`].
    fn reify(resp: Response) -> IfdbResult<Response> {
        match resp {
            Response::Error {
                code,
                detail,
                label0,
                label1,
                aux,
                ..
            } => Err(decode_error(code, detail, label0, label1, aux)),
            resp => Ok(resp),
        }
    }

    /// One round trip: send a request frame, read the matching response. A
    /// wire [`Response::Error`] is decoded into the matching [`IfdbError`].
    fn call(&mut self, req: &Request) -> IfdbResult<Response> {
        self.stats.round_trips += 1;
        let id = self.next_id();
        write_frame_id(&mut self.writer, id, &req.encode())?;
        Self::reify(self.recv_raw(id)?)
    }

    fn flush_batch(&mut self, buf: &[u8]) -> IfdbResult<()> {
        self.stats.round_trips += 1;
        self.writer
            .write_all(buf)
            .map_err(|e| io_err(format!("write: {e}")))?;
        self.writer
            .flush()
            .map_err(|e| io_err(format!("flush: {e}")))?;
        Ok(())
    }

    /// Executes a batch of statements **pipelined**: every request goes out
    /// in (at most) two flushes — one for unseen statement shapes to
    /// prepare, one carrying all the executes — and the responses are read
    /// back-to-back, so the batch costs ~one round trip instead of one per
    /// statement.
    ///
    /// The server executes the batch strictly in order on this connection's
    /// session, exactly as if the statements had been sent one at a time:
    /// each response piggybacks the process label *after* its statement, so
    /// a label-raising statement is observed by the responses of every later
    /// statement in the same batch (§7.2 ordering contract).
    ///
    /// Returns one result per statement; a statement error (constraint
    /// violation, DIFC denial, timeout) fails its own slot without aborting
    /// the rest of the batch. Transport-level failures fail the whole call.
    pub fn pipeline(
        &mut self,
        stmts: &[Statement],
    ) -> IfdbResult<Vec<IfdbResult<StatementResult>>> {
        if stmts.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.statements += stmts.len() as u64;
        self.stats.pipelined += stmts.len() as u64;

        // Encode every statement shape; collect unseen templates once each.
        let mut encoded = Vec::with_capacity(stmts.len());
        let mut to_prepare: Vec<Vec<u8>> = Vec::new();
        for stmt in stmts {
            let (template, params) = encode_template(stmt);
            if !self.prepared.contains_key(&template) && !to_prepare.contains(&template) {
                to_prepare.push(template.clone());
            }
            encoded.push((template, params));
        }

        // Phase 1: prepare every unseen shape in one flush. A prepare
        // failure (e.g. the per-connection template bound) fails the whole
        // batch, but the remaining responses are still drained to keep the
        // stream in sync.
        if !to_prepare.is_empty() {
            let mut buf = Vec::new();
            let mut ids = Vec::with_capacity(to_prepare.len());
            for template in &to_prepare {
                self.stats.prepares += 1;
                let id = self.next_id();
                frame_into(
                    &mut buf,
                    id,
                    &Request::Prepare {
                        template: template.clone(),
                    }
                    .encode(),
                )?;
                ids.push(id);
            }
            self.flush_batch(&buf)?;
            let mut first_err = None;
            for (template, req_id) in to_prepare.into_iter().zip(ids) {
                match Self::reify(self.recv_raw(req_id)?) {
                    Ok(Response::Prepared { id }) => {
                        self.prepared.insert(template, id);
                    }
                    Ok(other) => {
                        first_err.get_or_insert(unexpected(other));
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }

        // Phase 2: every execute in one flush, then read the responses in
        // request order.
        let mut buf = Vec::new();
        let mut ids = Vec::with_capacity(encoded.len());
        for (template, params) in &encoded {
            let stmt_id = *self.prepared.get(template).expect("prepared above");
            let id = self.next_id();
            frame_into(
                &mut buf,
                id,
                &Request::Execute {
                    stmt: stmt_id,
                    params: params.clone(),
                    fetch: self.fetch_batch,
                }
                .encode(),
            )?;
            ids.push(id);
        }
        self.flush_batch(&buf)?;

        let mut results: Vec<IfdbResult<StatementResult>> = Vec::with_capacity(ids.len());
        // Cursors opened by batch statements are drained *after* the batch
        // responses (Fetch requests would otherwise interleave with the
        // batch's own response stream).
        struct PendingCursor {
            idx: usize,
            columns: std::sync::Arc<Vec<String>>,
            rows: Vec<Row>,
            cursor: u32,
        }
        let mut pending: Vec<PendingCursor> = Vec::new();
        for (idx, req_id) in ids.into_iter().enumerate() {
            match Self::reify(self.recv_raw(req_id)?) {
                Ok(Response::Affected { n, label, seq }) => {
                    self.label = Label::from_array(&label);
                    self.last_write_seq = self.last_write_seq.max(seq);
                    results.push(Ok(StatementResult::Affected(n as usize)));
                }
                Ok(Response::Rows {
                    columns,
                    rows,
                    cursor,
                    label,
                }) => {
                    self.label = Label::from_array(&label);
                    let columns = std::sync::Arc::new(columns);
                    let out: Vec<Row> = rows.into_iter().map(|r| wire_row(&columns, r)).collect();
                    if cursor != 0 {
                        pending.push(PendingCursor {
                            idx,
                            columns,
                            rows: out,
                            cursor,
                        });
                        results.push(Ok(StatementResult::Rows(ResultSet::new(Vec::new()))));
                    } else {
                        results.push(Ok(StatementResult::Rows(ResultSet::new(out))));
                    }
                }
                Ok(other) => results.push(Err(unexpected(other))),
                Err(e) => results.push(Err(e)),
            }
        }
        for p in pending {
            let (idx, columns, mut out, mut cursor) = (p.idx, p.columns, p.rows, p.cursor);
            while cursor != 0 {
                self.stats.extra_fetches += 1;
                let resp = self.call(&Request::Fetch {
                    cursor,
                    max: self.fetch_batch,
                })?;
                let Response::Batch { rows, done } = resp else {
                    return Err(unexpected(resp));
                };
                out.extend(rows.into_iter().map(|r| wire_row(&columns, r)));
                if done {
                    cursor = 0;
                }
            }
            results[idx] = Ok(StatementResult::Rows(ResultSet::new(out)));
        }
        Ok(results)
    }

    /// Executes a closed statement: auto-prepares its shape on first sight,
    /// then sends the statement id plus extracted parameters, draining any
    /// result cursor into a complete [`ResultSet`].
    pub fn run(&mut self, stmt: &Statement) -> IfdbResult<StatementResult> {
        self.stats.statements += 1;
        let (template, params) = encode_template(stmt);
        let id = match self.prepared.get(&template) {
            Some(id) => *id,
            None => {
                self.stats.prepares += 1;
                let resp = self.call(&Request::Prepare {
                    template: template.clone(),
                })?;
                let Response::Prepared { id } = resp else {
                    return Err(unexpected(resp));
                };
                self.prepared.insert(template, id);
                id
            }
        };
        let resp = self.call(&Request::Execute {
            stmt: id,
            params,
            fetch: self.fetch_batch,
        })?;
        match resp {
            Response::Affected { n, label, seq } => {
                self.label = Label::from_array(&label);
                self.last_write_seq = self.last_write_seq.max(seq);
                Ok(StatementResult::Affected(n as usize))
            }
            Response::Rows {
                columns,
                rows,
                cursor,
                label,
            } => {
                self.label = Label::from_array(&label);
                let columns = std::sync::Arc::new(columns);
                let mut out: Vec<Row> = rows.into_iter().map(|r| wire_row(&columns, r)).collect();
                let mut cursor = cursor;
                while cursor != 0 {
                    self.stats.extra_fetches += 1;
                    let resp = self.call(&Request::Fetch {
                        cursor,
                        max: self.fetch_batch,
                    })?;
                    let Response::Batch { rows, done } = resp else {
                        return Err(unexpected(resp));
                    };
                    out.extend(rows.into_iter().map(|r| wire_row(&columns, r)));
                    if done {
                        cursor = 0;
                    }
                }
                Ok(StatementResult::Rows(ResultSet::new(out)))
            }
            other => Err(unexpected(other)),
        }
    }

    fn label_op(&mut self, req: Request) -> IfdbResult<()> {
        let resp = self.call(&req)?;
        match resp {
            Response::LabelIs { tags } => {
                self.label = Label::from_array(&tags);
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    fn simple(&mut self, req: Request) -> IfdbResult<()> {
        match self.call(&req)? {
            Response::Ok { label, seq } => {
                // Commit can run deferred triggers that contaminate the
                // process; every Ok carries the authoritative label so the
                // local mirror (and therefore the output gate) follows.
                self.label = Label::from_array(&label);
                self.last_write_seq = self.last_write_seq.max(seq);
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    // ------------------------------------------------- two-phase commit

    /// Sends `req` (one flush) and returns its request id without reading
    /// the response. The 2PC coordinator uses this to put a phase's frame
    /// on every shard's socket before reading any shard's answer, so one
    /// phase runs concurrently across all participants.
    pub(crate) fn send_request(&mut self, req: &Request) -> IfdbResult<u32> {
        self.stats.round_trips += 1;
        let id = self.next_id();
        write_frame_id(&mut self.writer, id, &req.encode())?;
        Ok(id)
    }

    /// Reads the response for a [`Connection::send_request`] id, expecting
    /// a bare `Ok` acknowledgement; mirrors the piggybacked label and
    /// watermark like [`Connection::simple`].
    pub(crate) fn recv_ok(&mut self, req_id: u32) -> IfdbResult<()> {
        match Self::reify(self.recv_raw(req_id)?)? {
            Response::Ok { label, seq } => {
                self.label = Label::from_array(&label);
                self.last_write_seq = self.last_write_seq.max(seq);
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    /// The write half of [`Connection::txn_prepare`]: puts the prepare on
    /// the socket and returns its request id for a later
    /// [`Connection::recv_ok`]. The coordinator sends every participant's
    /// prepare before reading any vote.
    pub(crate) fn send_txn_prepare(&mut self, gid: u64) -> IfdbResult<u32> {
        let id = self.send_request(&Request::TxnPrepare { gid })?;
        self.in_txn = false;
        Ok(id)
    }

    /// Phase one of two-phase commit: asks the server to *prepare* this
    /// connection's open transaction under global id `gid` — run deferred
    /// triggers, enforce the commit-label rule, and make the write set
    /// durable without deciding its fate. On success the server votes yes
    /// and the transaction can only be finished by [`Connection::txn_decide`];
    /// on error the server has aborted it (a no vote). Either way the
    /// transaction leaves this session.
    pub fn txn_prepare(&mut self, gid: u64) -> IfdbResult<()> {
        let id = self.send_txn_prepare(gid)?;
        self.recv_ok(id)
    }

    /// Phase two of two-phase commit: delivers the coordinator's decision
    /// for `gid`. Idempotent — deciding an unknown gid (already decided,
    /// or never prepared here) succeeds without effect, so a recovering
    /// coordinator can blindly re-send decisions.
    pub fn txn_decide(&mut self, gid: u64, commit: bool) -> IfdbResult<()> {
        let id = self.send_request(&Request::TxnDecide { gid, commit })?;
        self.recv_ok(id)
    }

    /// The global transaction ids this server holds *in doubt*: prepared
    /// before a crash and not yet decided. A recovering coordinator
    /// resolves each one via [`Connection::txn_outcome`] across all shards
    /// and re-sends the decision.
    pub fn txn_recover(&mut self) -> IfdbResult<Vec<u64>> {
        match self.call(&Request::TxnRecover)? {
            Response::InDoubt { gids } => Ok(gids),
            other => Err(unexpected(other)),
        }
    }

    /// What this server knows about `gid`: `Some(true)` committed,
    /// `Some(false)` aborted, `None` never decided here (still in doubt,
    /// or forgotten after a checkpoint). A gid is safe to presume aborted
    /// only when *no* participant reports it committed.
    pub fn txn_outcome(&mut self, gid: u64) -> IfdbResult<Option<bool>> {
        match self.call(&Request::TxnOutcome { gid })? {
            Response::TxnOutcome { committed } => Ok(committed),
            other => Err(unexpected(other)),
        }
    }

    /// The node's high-availability status: role (primary / replica /
    /// fenced), promotion generation, log epoch, and watermark. Used by
    /// failover probes to find the promoted successor after a primary
    /// fault; needs no authentication.
    pub fn ha_status(&mut self) -> IfdbResult<HaNodeStatus> {
        match self.call(&Request::HaStatus)? {
            Response::HaStatus {
                role,
                generation,
                epoch,
                seq,
            } => Ok(HaNodeStatus {
                role,
                generation,
                epoch,
                seq,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Promotes the replica this connection talks to into a primary,
    /// authenticating with the replication secret. Blocks until the switch
    /// completes (or fails); returns the node's post-promotion status.
    /// Idempotent on a node that is already a primary.
    pub fn promote(&mut self, secret: &str) -> IfdbResult<HaNodeStatus> {
        match self.call(&Request::Promote {
            secret: secret.to_string(),
        })? {
            Response::HaStatus {
                role,
                generation,
                epoch,
                seq,
            } => Ok(HaNodeStatus {
                role,
                generation,
                epoch,
                seq,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Fences the node this connection talks to: tells it a successor with
    /// promotion generation `generation` exists. Takes effect only for a
    /// generation strictly above the node's own. Returns the node's status
    /// after the notice.
    pub fn fence(&mut self, secret: &str, generation: u64) -> IfdbResult<HaNodeStatus> {
        match self.call(&Request::Fence {
            secret: secret.to_string(),
            generation,
        })? {
            Response::HaStatus {
                role,
                generation,
                epoch,
                seq,
            } => Ok(HaNodeStatus {
                role,
                generation,
                epoch,
                seq,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Hot-reloads the server's QoS policy (per-statement execution budgets,
    /// per-principal admission quotas, scheduling weights), authenticated by
    /// the platform secret. No restart, no dropped connections: statements
    /// already executing finish under the limits they were admitted with,
    /// every later statement on every connection runs under `config`.
    pub fn reconfigure(&mut self, secret: &str, config: &ifdb::QosConfig) -> IfdbResult<()> {
        match self.call(&Request::Reconfigure {
            secret: secret.to_string(),
            config: config.to_wire(),
        })? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's unified metrics tree: engine, server, QoS and
    /// audit counters in one [`protocol::MetricsSnapshot`]. Authenticated by
    /// the platform secret, as [`Connection::reconfigure`] is.
    pub fn server_stats(&mut self, secret: &str) -> IfdbResult<protocol::MetricsSnapshot> {
        match self.call(&Request::Stats {
            secret: secret.to_string(),
        })? {
            Response::Stats { snapshot } => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }
}

/// A node's high-availability status, as reported by
/// [`Connection::ha_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaNodeStatus {
    /// The node's role: primary, replica, or fenced ex-primary.
    pub role: protocol::HaRole,
    /// The promotion generation of the node's log (1 on a never-failed-over
    /// timeline; each promotion increments it).
    pub generation: u64,
    /// The log epoch its watermark belongs to.
    pub epoch: u64,
    /// Its current watermark (last WAL seq on a primary, applied-seq on a
    /// replica).
    pub seq: u64,
}

/// Whether an error is the server's `FENCED` refusal: the node is a deposed
/// primary and a successor holds a higher promotion generation. A routing
/// client treats this as the signal to fail writes over.
pub fn is_fenced_error(e: &IfdbError) -> bool {
    matches!(e, IfdbError::Remote { code, .. } if *code == protocol::code::FENCED as u16)
}

/// Whether an error leaves a committed-or-not question *indeterminate*: the
/// write may or may not be durable (and may or may not survive a failover).
/// True for `REPLICATION_LAG` (locally durable, replication unconfirmed)
/// and for transport-level failures (the request — or its acknowledgement —
/// may have been lost in flight). A determinate server-side refusal (label
/// violation, conflict, read-only, fenced, ...) returns false: the write
/// certainly did not happen.
pub fn is_indeterminate_commit_error(e: &IfdbError) -> bool {
    matches!(
        e,
        IfdbError::Remote { code, .. }
            if *code == protocol::code::REPLICATION_LAG as u16
                || *code == protocol::code::PROTOCOL as u16
    )
}

fn unexpected(resp: Response) -> IfdbError {
    io_err(format!("unexpected response {resp:?}"))
}

fn wire_row(columns: &std::sync::Arc<Vec<String>>, r: WireRow) -> Row {
    Row {
        columns: columns.clone(),
        label: Label::from_array(&r.label),
        values: r.values,
    }
}

impl SessionApi for Connection {
    fn select(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        self.run(&Statement::Select(q.clone()))
            .map(StatementResult::into_rows)
    }
    fn select_join(&mut self, join: &Join) -> IfdbResult<ResultSet> {
        self.run(&Statement::Join(join.clone()))
            .map(StatementResult::into_rows)
    }
    fn select_aggregate(&mut self, agg: &Aggregate) -> IfdbResult<ResultSet> {
        self.run(&Statement::Aggregate(agg.clone()))
            .map(StatementResult::into_rows)
    }
    fn insert(&mut self, ins: &Insert) -> IfdbResult<()> {
        self.run(&Statement::Insert(ins.clone())).map(|_| ())
    }
    fn update(&mut self, upd: &Update) -> IfdbResult<usize> {
        self.run(&Statement::Update(upd.clone()))
            .map(|r| r.affected())
    }
    fn delete(&mut self, del: &Delete) -> IfdbResult<usize> {
        self.run(&Statement::Delete(del.clone()))
            .map(|r| r.affected())
    }
    fn begin(&mut self) -> IfdbResult<()> {
        self.simple(Request::Begin)?;
        self.in_txn = true;
        Ok(())
    }
    fn commit(&mut self) -> IfdbResult<()> {
        // Whatever the outcome, the transaction is finished server-side
        // (commit errors abort it), matching Session semantics.
        let r = self.simple(Request::Commit);
        self.in_txn = false;
        r
    }
    fn abort(&mut self) -> IfdbResult<()> {
        let r = self.simple(Request::Abort);
        self.in_txn = false;
        r
    }
    fn in_transaction(&self) -> bool {
        self.in_txn
    }
    fn add_secrecy(&mut self, tag: TagId) -> IfdbResult<()> {
        self.label_op(Request::AddSecrecy { tag: tag.0 })
    }
    fn raise_label(&mut self, other: &Label) -> IfdbResult<()> {
        self.label_op(Request::RaiseLabel {
            tags: other.to_array(),
        })
    }
    fn declassify(&mut self, tag: TagId) -> IfdbResult<()> {
        self.label_op(Request::Declassify { tag: tag.0 })
    }
    fn declassify_all(&mut self, tags: &Label) -> IfdbResult<()> {
        self.label_op(Request::DeclassifyAll {
            tags: tags.to_array(),
        })
    }
    fn delegate(&mut self, grantee: PrincipalId, tag: TagId) -> IfdbResult<()> {
        self.simple(Request::Delegate {
            grantee: grantee.0,
            tag: tag.0,
        })
    }
    fn call_procedure(&mut self, name: &str, args: &[Datum]) -> IfdbResult<ResultSet> {
        self.stats.statements += 1;
        let resp = self.call(&Request::CallProcedure {
            name: name.to_string(),
            args: args.to_vec(),
        })?;
        match resp {
            Response::ProcResult {
                label,
                columns,
                rows,
            } => {
                self.label = Label::from_array(&label);
                let columns = std::sync::Arc::new(columns);
                Ok(ResultSet::new(
                    rows.into_iter().map(|r| wire_row(&columns, r)).collect(),
                ))
            }
            other => Err(unexpected(other)),
        }
    }
    fn principal(&self) -> PrincipalId {
        self.principal
    }
    fn current_label(&self) -> Label {
        self.label.clone()
    }
    fn check_release_to_world(&self) -> IfdbResult<()> {
        // The platform runtime's local gate check, against the mirrored
        // label — no round trip, exactly as PHP-IF tracks the process label
        // in the runtime (Section 7.2).
        if self.label.is_empty() {
            Ok(())
        } else {
            Err(IfdbError::Difc(DifcError::ContaminatedOutput {
                label: self.label.clone(),
            }))
        }
    }
    fn execute_batch(&mut self, stmts: &[Statement]) -> Vec<IfdbResult<StatementResult>> {
        // Pipelined: the whole batch in one round trip. A transport failure
        // fails every slot.
        match self.pipeline(stmts) {
            Ok(results) => results,
            Err(e) => stmts.iter().map(|_| Err(e.clone())).collect(),
        }
    }
}
