//! The traced run: a layer peel taken from outside the program.
//!
//! One client replays the operation stream of one client of one repeat. Each
//! operation is run once per depth, every depth against its own identically
//! loaded database, and the benchmark records a span around each call into
//! the layer below:
//!
//! | span | what runs |
//! |---|---|
//! | `client.call` | the operation over the wire ([`ifdb_client::Connection`]) |
//! | `client.codec` | encode, frame, unframe and decode of every request and reply of the operation |
//! | `core.session` | the operation on an in-process [`ifdb::Session`] |
//! | `core.session.baseline` | the same with DIFC disabled ([`ifdb::DatabaseConfig::baseline`]) |
//! | `storage.engine` | reads: begin + snapshot + index lookup / fetch / scan on the engine; writes: the operation's log records applied to a fresh engine |
//! | `storage.wal` | the operation's log records appended (and commit-synced) to a scratch log |
//! | `difc.memo` | the label decisions for the rows the operation examined |
//!
//! A layer's self time is its span minus the spans of the layers below it,
//! so the self times sum to `client.call` by construction.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ifdb::prelude::*;
use ifdb_client::protocol::{
    decode_template, encode_template, frame_into, try_take_frame, Request, Response, WireRow,
};
use ifdb_difc::memo::{LabelDecision, LabelDecisionMemo};
use ifdb_storage::{
    DurabilityConfig, LogRecord, ReplicaApplier, ReplicationBatch, StorageEngine, Wal,
};

use crate::fixture::{self, Deployment, Loaded, ScratchDir, AUTH_SEED};
use crate::gen::ReadOp;
use crate::ops::{run_op, Op, OpContext};
use crate::run::{client_ops, RunOptions};

/// One recorded span. `parent_id` 0 marks an operation's root span; every
/// span of one operation shares its `op_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id, unique within a trace.
    pub span_id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent_id: u64,
    /// Index of the operation in the replayed stream.
    pub op_id: u64,
    /// Layer-boundary name.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

/// In-memory span recorder (single-threaded: the traced run has one client).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span; returns its id for [`Tracer::close`] and for children.
    pub fn open(&mut self, parent_id: u64, op_id: u64, name: &'static str) -> u64 {
        let span_id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            span_id,
            parent_id,
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        span_id
    }

    /// Ends the span `span_id`.
    pub fn close(&mut self, span_id: u64) {
        let end_ns = self.now_ns();
        self.spans[span_id as usize - 1].end_ns = end_ns;
    }

    /// Total microseconds and count of the spans named `name`.
    pub fn total_us(&self, name: &str) -> (f64, u64) {
        let mut total = 0u64;
        let mut count = 0;
        for s in self.spans.iter().filter(|s| s.name == name) {
            total += s.end_ns - s.start_ns;
            count += 1;
        }
        (total as f64 / 1e3, count)
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"span_id\":{},\"parent_id\":{},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.span_id, s.parent_id, s.op_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What a statement returned, as captured for the codec replay.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A query's rows.
    Rows(ResultSet),
    /// A write's affected count.
    Affected(usize),
    /// The statement failed (nothing to encode).
    Failed,
}

/// One wire-level step of an operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `Begin`, `Commit` or `Abort`: a bare request, acknowledged with `Ok`.
    Control(Request),
    /// One executed statement and its reply.
    Exec(Box<Statement>, Reply),
}

/// A [`SessionApi`] forwarder that records the steps an operation takes
/// (when asked to) and times its commits. Everything else passes through,
/// batches included, so a wrapped connection still pipelines.
pub struct Probe<S> {
    inner: S,
    record: bool,
    /// Steps recorded since the last `clear`.
    pub steps: Vec<Step>,
    /// Total nanoseconds spent inside `commit`.
    pub commit_ns: u64,
    /// Commits timed.
    pub commits: u64,
}

impl<S: SessionApi> Probe<S> {
    /// Wraps `inner`; `record` turns step capture on.
    pub fn new(inner: S, record: bool) -> Self {
        Probe {
            inner,
            record,
            steps: Vec::new(),
            commit_ns: 0,
            commits: 0,
        }
    }

    fn note(&mut self, stmt: impl FnOnce() -> Statement, reply: impl FnOnce() -> Reply) {
        if self.record {
            self.steps.push(Step::Exec(Box::new(stmt()), reply()));
        }
    }
}

fn rows_reply(r: &IfdbResult<ResultSet>) -> Reply {
    r.as_ref()
        .map_or(Reply::Failed, |rs| Reply::Rows(rs.clone()))
}

fn affected_reply(r: &IfdbResult<usize>) -> Reply {
    r.as_ref().map_or(Reply::Failed, |n| Reply::Affected(*n))
}

impl<S: SessionApi> SessionApi for Probe<S> {
    fn select(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        let r = self.inner.select(q);
        self.note(|| Statement::Select(q.clone()), || rows_reply(&r));
        r
    }
    fn select_join(&mut self, join: &Join) -> IfdbResult<ResultSet> {
        let r = self.inner.select_join(join);
        self.note(|| Statement::Join(join.clone()), || rows_reply(&r));
        r
    }
    fn select_aggregate(&mut self, agg: &Aggregate) -> IfdbResult<ResultSet> {
        let r = self.inner.select_aggregate(agg);
        self.note(|| Statement::Aggregate(agg.clone()), || rows_reply(&r));
        r
    }
    fn insert(&mut self, ins: &Insert) -> IfdbResult<()> {
        let r = self.inner.insert(ins);
        self.note(
            || Statement::Insert(ins.clone()),
            || r.as_ref().map_or(Reply::Failed, |()| Reply::Affected(1)),
        );
        r
    }
    fn update(&mut self, upd: &Update) -> IfdbResult<usize> {
        let r = self.inner.update(upd);
        self.note(|| Statement::Update(upd.clone()), || affected_reply(&r));
        r
    }
    fn delete(&mut self, del: &Delete) -> IfdbResult<usize> {
        let r = self.inner.delete(del);
        self.note(|| Statement::Delete(del.clone()), || affected_reply(&r));
        r
    }
    fn begin(&mut self) -> IfdbResult<()> {
        if self.record {
            self.steps.push(Step::Control(Request::Begin));
        }
        self.inner.begin()
    }
    fn commit(&mut self) -> IfdbResult<()> {
        if self.record {
            self.steps.push(Step::Control(Request::Commit));
        }
        let t = Instant::now();
        let r = self.inner.commit();
        self.commit_ns += t.elapsed().as_nanos() as u64;
        self.commits += 1;
        r
    }
    fn abort(&mut self) -> IfdbResult<()> {
        if self.record {
            self.steps.push(Step::Control(Request::Abort));
        }
        self.inner.abort()
    }
    fn in_transaction(&self) -> bool {
        self.inner.in_transaction()
    }
    fn add_secrecy(&mut self, tag: TagId) -> IfdbResult<()> {
        self.inner.add_secrecy(tag)
    }
    fn raise_label(&mut self, other: &Label) -> IfdbResult<()> {
        self.inner.raise_label(other)
    }
    fn declassify(&mut self, tag: TagId) -> IfdbResult<()> {
        self.inner.declassify(tag)
    }
    fn declassify_all(&mut self, tags: &Label) -> IfdbResult<()> {
        self.inner.declassify_all(tags)
    }
    fn delegate(&mut self, grantee: PrincipalId, tag: TagId) -> IfdbResult<()> {
        self.inner.delegate(grantee, tag)
    }
    fn call_procedure(&mut self, name: &str, args: &[Datum]) -> IfdbResult<ResultSet> {
        self.inner.call_procedure(name, args)
    }
    fn principal(&self) -> PrincipalId {
        self.inner.principal()
    }
    fn current_label(&self) -> Label {
        self.inner.current_label()
    }
    fn check_release_to_world(&self) -> IfdbResult<()> {
        self.inner.check_release_to_world()
    }
    fn execute_batch(&mut self, stmts: &[Statement]) -> Vec<IfdbResult<StatementResult>> {
        let results = self.inner.execute_batch(stmts);
        if self.record {
            for (stmt, r) in stmts.iter().zip(&results) {
                let reply = match r {
                    Ok(StatementResult::Rows(rs)) => Reply::Rows(rs.clone()),
                    Ok(StatementResult::Affected(n)) => Reply::Affected(*n),
                    Err(_) => Reply::Failed,
                };
                self.steps.push(Step::Exec(Box::new(stmt.clone()), reply));
            }
        }
        results
    }
}

/// Bytes the codec replay put on the (imaginary) wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBytes {
    /// Framed request bytes.
    pub request: u64,
    /// Framed response bytes.
    pub response: u64,
}

/// The server's default rows per result batch (`ServerConfig::fetch_batch`).
const FETCH_BATCH: usize = 256;
/// A plausible watermark for the `seq` field of acknowledgements.
const ACK_SEQ: u64 = 1 << 20;

/// One request/response exchange through both codecs: client encode and
/// frame, server unframe and decode, server encode and frame, client
/// unframe and decode.
fn exchange(req: &Request, resp: &Response, bytes: &mut WireBytes) -> IfdbResult<Response> {
    let mut wire = Vec::new();
    frame_into(&mut wire, 1, &req.encode())?;
    bytes.request += wire.len() as u64;
    let (_, _, message) = try_take_frame(&wire)?.expect("a whole frame was written");
    black_box(Request::decode(&message)?);
    wire.clear();
    frame_into(&mut wire, 1, &resp.encode())?;
    bytes.response += wire.len() as u64;
    let (_, _, message) = try_take_frame(&wire)?.expect("a whole frame was written");
    Response::decode(&message)
}

fn to_wire(rows: Vec<Row>) -> Vec<WireRow> {
    rows.into_iter()
        .map(|r| WireRow {
            label: r.label.to_array(),
            values: r.values,
        })
        .collect()
}

fn from_wire(columns: &Arc<Vec<String>>, rows: Vec<WireRow>) {
    for r in rows {
        black_box(Row {
            columns: columns.clone(),
            label: Label::from_array(&r.label),
            values: r.values,
        });
    }
}

/// Replays the codec work of an operation's captured steps: what
/// `Connection` and the server's reactor do to turn statements into frames
/// and frames into results, with no socket and no execution in between.
pub fn codec_replay(steps: Vec<Step>, session_label: &[u64]) -> IfdbResult<WireBytes> {
    let mut bytes = WireBytes::default();
    let ack = Response::Ok {
        label: session_label.to_vec(),
        seq: ACK_SEQ,
    };
    for step in steps {
        let (stmt, reply) = match step {
            Step::Control(request) => {
                exchange(&request, &ack, &mut bytes)?;
                continue;
            }
            Step::Exec(stmt, reply) => (stmt, reply),
        };
        let (template, params) = encode_template(&stmt);
        let execute = Request::Execute {
            stmt: 1,
            params,
            fetch: 0,
        };
        match reply {
            // Nothing came back that the codecs could be replayed on.
            Reply::Failed => continue,
            Reply::Affected(n) => {
                let resp = Response::Affected {
                    n: n as u64,
                    label: session_label.to_vec(),
                    seq: ACK_SEQ,
                };
                black_box(exchange(&execute, &resp, &mut bytes)?);
            }
            Reply::Rows(rs) => {
                let columns = rs.first().map(|r| (*r.columns).clone()).unwrap_or_default();
                let mut rest = rs.rows.into_iter();
                let first: Vec<Row> = rest.by_ref().take(FETCH_BATCH).collect();
                let resp = Response::Rows {
                    columns,
                    rows: to_wire(first),
                    cursor: u32::from(rest.len() > 0),
                    label: session_label.to_vec(),
                };
                let Response::Rows { columns, rows, .. } = exchange(&execute, &resp, &mut bytes)?
                else {
                    unreachable!("a Rows response decodes to Rows");
                };
                let columns = Arc::new(columns);
                from_wire(&columns, rows);
                while rest.len() > 0 {
                    let batch: Vec<Row> = rest.by_ref().take(FETCH_BATCH).collect();
                    let resp = Response::Batch {
                        rows: to_wire(batch),
                        done: rest.len() == 0,
                    };
                    let fetch = Request::Fetch { cursor: 1, max: 0 };
                    let Response::Batch { rows, .. } = exchange(&fetch, &resp, &mut bytes)? else {
                        unreachable!("a Batch response decodes to Batch");
                    };
                    from_wire(&columns, rows);
                }
            }
        }
        // The server resolves the cached template with the decoded
        // parameters before it can execute.
        if let Request::Execute { params, .. } = &execute {
            black_box(decode_template(&template, params)?);
        }
    }
    Ok(bytes)
}

/// Timings of the one-off maintenance calls made on the quiesced TPC-C
/// database after the traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Maintenance {
    /// `Database::vacuum`.
    pub vacuum_ms: f64,
    /// Reopening the directory with `recover()`.
    pub recovery_ms: f64,
    /// Log records that reopen replayed.
    pub recovery_replayed_records: u64,
    /// `Database::checkpoint` on the recovered database.
    pub checkpoint_ms: f64,
}

/// Everything the traced run measured.
#[derive(Debug, Default)]
pub struct TraceData {
    /// The spans.
    pub tracer: Tracer,
    /// Operations replayed.
    pub ops: u64,
    /// Operations that failed at the `client.call` depth.
    pub failed: u64,
    /// Bytes through the codec replay.
    pub wire: WireBytes,
    /// Log records the operations wrote.
    pub wal_records: u64,
    /// Rows the operations returned.
    pub rows_returned: u64,
    /// Rows (heap tuples scanned + index entries looked up) they examined.
    pub rows_examined: u64,
    /// Totals of the label-decision replay.
    pub memo: MemoTotals,
    /// Total nanoseconds inside `Connection::commit`.
    pub commit_ns: u64,
    /// Commits timed.
    pub commits: u64,
    /// Wall seconds the same stream took untraced (one client).
    pub untraced_s: f64,
    /// TPC-C only.
    pub maintenance: Maintenance,
}

/// The engine-level replay of a read: what the executor asks of storage,
/// without the executor.
fn engine_read(
    tracer: &mut Tracer,
    parent: u64,
    op_id: u64,
    engine: &StorageEngine,
    op: &ReadOp,
) -> IfdbResult<()> {
    let table = engine.table_by_name("data")?.id();
    // Through the transaction manager, not `StorageEngine::begin`: the
    // Begin/Commit log records are `storage.wal`'s span, not this one's.
    let begin = tracer.open(parent, op_id, "storage.engine.txn_begin");
    let txn = engine.txns().begin();
    let snapshot = engine.snapshot(txn);
    tracer.close(begin);
    match op {
        ReadOp::Point { id, .. } => {
            let lookup = tracer.open(parent, op_id, "storage.engine.point_lookup");
            for row in engine.index_lookup(table, "data_pkey", &vec![Datum::Int(*id)])? {
                black_box(engine.fetch_visible(&snapshot, table, row)?);
            }
            tracer.close(lookup);
        }
        ReadOp::ViewRange { .. } | ReadOp::ConfinedEq { .. } => {
            let scan = tracer.open(parent, op_id, "storage.engine.scan");
            engine.scan_visible(&snapshot, table, |_, version| {
                black_box(&version);
                true
            })?;
            tracer.close(scan);
        }
    }
    engine.txns().commit(txn)?;
    Ok(())
}

/// Totals of the memo replay over every operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoTotals {
    /// Label decisions replayed.
    pub decided: u64,
    /// Of those, answered from the memo.
    pub hits: u64,
    /// Most distinct labels one operation's memo held.
    pub distinct_labels: u64,
    /// Bytes of label in the headers of the rows decided.
    pub label_bytes: u64,
}

/// Replays label decisions through a fresh (scan-local) memo, exactly as
/// the executor consults it: strip what the enclosing view declassifies,
/// then apply the information-flow rule against the process label.
fn memo_replay(labels: &[&[u64]], declassified: &Label, process: &Label, totals: &mut MemoTotals) {
    let mut memo = LabelDecisionMemo::new();
    for raw in labels {
        let (_, decision) = memo.decide_raw(raw, |stored| {
            let effective = stored.difference(declassified);
            LabelDecision {
                admit: effective.is_subset_of(process),
                effective,
            }
        });
        black_box(decision.admit);
    }
    totals.decided += labels.len() as u64;
    totals.hits += memo.hits();
    totals.distinct_labels = totals.distinct_labels.max(memo.distinct_labels() as u64);
    totals.label_bytes += labels.iter().map(|l| 8 * l.len() as u64).sum::<u64>();
}

/// Operations each depth runs before the next depth takes its turn. The
/// host's speed drifts by a tenth and more within seconds; taking turns
/// block by block lets a drift fall on every depth alike, while 10
/// consecutive operations keep each depth as warm as it runs in the real
/// call.
const BLOCK: usize = 10;

/// What the untimed capture pass learned about one operation.
struct Captured {
    /// Its wire-level steps, for the codec replay.
    steps: Vec<Step>,
    /// Sequence number of the first log record it wrote.
    first_seq: u64,
    /// The log records it wrote.
    records: Vec<LogRecord>,
    /// Raw labels of the rows it returned.
    returned_labels: Vec<Vec<u64>>,
}

/// What the capture pass produced.
struct Capture {
    /// One entry per operation.
    ops: Vec<Captured>,
    /// The log records of the load, to prime the fresh engine with.
    load: ReplicationBatch,
    /// Labels of `data` in heap order — what a scan's memo is consulted
    /// with — packed into one allocation: a tuple's label sits in the tuple
    /// the scan just decoded, not behind a pointer of its own.
    label_words: Vec<u64>,
    /// `(start, length)` of each row's label in `label_words`.
    label_bounds: Vec<(usize, usize)>,
}

/// Runs every operation once, untimed, through a recording probe on a
/// database of its own.
fn capture(
    opts: &RunOptions,
    ops: &[Op],
    ctx: &OpContext,
    data: &mut TraceData,
) -> IfdbResult<Capture> {
    let db = fixture::load(
        opts.workload,
        opts.seed,
        DatabaseConfig::in_memory().with_seed(AUTH_SEED),
    )?;
    let engine = db.db.engine();
    let loaded_records = engine.wal().read_replication_batch(1, usize::MAX);
    let mut label_words: Vec<u64> = Vec::new();
    let mut label_bounds: Vec<(usize, usize)> = Vec::new();
    if !opts.workload.is_tpcc() {
        let txn = engine.txns().begin();
        let snapshot = engine.snapshot(txn);
        engine.scan_visible(&snapshot, engine.table_by_name("data")?.id(), |_, v| {
            label_bounds.push((label_words.len(), v.header.label.len()));
            label_words.extend_from_slice(&v.header.label);
            true
        })?;
        engine.txns().abort(txn)?;
    }
    let mut captured = Vec::with_capacity(ops.len());
    let mut probe = Probe::new(db.session()?, true);
    for op in ops {
        let seq_before = engine.wal().last_seq();
        let stats_before = engine.stats();
        run_op(&mut probe, ctx, op);
        let stats_after = engine.stats();
        let batch = engine
            .wal()
            .read_replication_batch(seq_before + 1, usize::MAX);
        let steps = std::mem::take(&mut probe.steps);
        let returned_labels: Vec<Vec<u64>> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Exec(_, Reply::Rows(rs)) => Some(rs.rows.iter()),
                _ => None,
            })
            .flatten()
            .map(|r| r.label.to_array())
            .collect();
        data.rows_returned += returned_labels.len() as u64;
        data.rows_examined += (stats_after.tuples_scanned - stats_before.tuples_scanned)
            + (stats_after.index_point_lookups - stats_before.index_point_lookups)
            + (stats_after.index_range_scans - stats_before.index_range_scans);
        data.wal_records += batch.records.len() as u64;
        captured.push(Captured {
            steps,
            first_seq: batch.first_seq,
            records: batch.records,
            returned_labels,
        });
    }
    Ok(Capture {
        ops: captured,
        load: loaded_records,
        label_words,
        label_bounds,
    })
}

/// Runs the traced replay of `opts.workload` and, for TPC-C, the one-off
/// maintenance calls on its quiesced database.
///
/// After an untimed capture pass, the operations are replayed block by
/// block, each block once per depth, every depth on a database of its own.
/// The `client.call` span of an operation is its root; the deeper spans name
/// it as their parent although they run after it, because they replay what
/// happened inside it.
pub fn run_traced(opts: &RunOptions) -> IfdbResult<TraceData> {
    let workload = opts.workload;
    let n = opts.ops_per_client();
    let ops = client_ops(workload, opts.seed, 0, 0, n);
    let mut data = TraceData {
        ops: n as u64,
        ..TraceData::default()
    };
    let ctx = OpContext {
        tpcc: fixture::tpcc_config(opts.seed),
        warehouse: 1,
        check_outputs: true,
    };
    let Capture {
        ops: mut captured,
        load: loaded_records,
        label_words,
        label_bounds,
    } = capture(opts, &ops, &ctx, &mut data)?;
    let load = |name: &str, difc: bool| -> IfdbResult<(Loaded, ScratchDir)> {
        let dir = ScratchDir::create(&format!("{}-trace-{name}", workload.name()))?;
        let config = fixture::db_config(workload, dir.path(), difc);
        Ok((fixture::load(workload, opts.seed, config)?, dir))
    };

    // Set-up stays on this thread; only the replay loop runs on a thread of
    // its own, as the server runs statements on executor threads that do
    // nothing else. A fresh thread allocates from a fresh arena; one that
    // has loaded databases or kept captures allocates measurably slower,
    // and the executor's scans allocate for every tuple.

    // client.call goes to this deployment; the same stream also runs
    // untraced on an identical second one, and the difference is what
    // recording spans costs.
    let (loaded, dir_call) = load("call", true)?;
    let deployment = Deployment::start(workload, loaded)?;
    let mut conn = Probe::new(deployment.connect()?, false);
    let (loaded, _dir_untraced) = load("untraced", true)?;
    let untraced = Deployment::start(workload, loaded)?;
    let mut plain = untraced.connect()?;
    // core.session with DIFC on and off; `difc.tax_frac` is the ratio.
    let (db_session, _dir_session) = load("session", true)?;
    let mut session = db_session.session()?;
    let (db_baseline, _dir_baseline) = load("baseline", false)?;
    let mut baseline = db_baseline.session()?;
    // Without enforcement the label-dependent row counts do not hold.
    let ctx_baseline = OpContext {
        check_outputs: false,
        ..ctx.clone()
    };
    // storage.engine. Reads: what the executor asks of storage, on a
    // database that sees one bare transaction per operation, so the
    // history its snapshots walk is the workload's. Writes: the
    // captured log records applied to a fresh engine.
    let db_engine = fixture::load(
        workload,
        opts.seed,
        DatabaseConfig::in_memory().with_seed(AUTH_SEED),
    )?;
    let engine = db_engine.db.engine();
    let fresh_engine = StorageEngine::in_memory();
    let mut applier = ReplicaApplier::new();
    if workload.is_tpcc() {
        applier.apply_batch(
            &fresh_engine,
            loaded_records.first_seq,
            &loaded_records.records,
        )?;
    }
    // storage.wal: a scratch log with the workload's durability.
    let dir_wal = ScratchDir::create(&format!("{}-trace-wal", workload.name()))?;
    let wal = if workload.is_tpcc() {
        Wal::create(
            &dir_wal.path().join("wal.log"),
            DurabilityConfig::GROUP_COMMIT,
        )?
    } else {
        Wal::in_memory()
    };
    // difc.memo: decisions for the rows each operation examined —
    // the whole table for a scan, the rows returned otherwise.
    let process = Label::from_tags(db_session.label.iter().copied());
    let process_raw = process.to_array();
    let view_declassifies = Label::from_tags(db_session.view_declassifies.iter().copied());
    let no_declassify = Label::empty();
    let table_labels: Vec<&[u64]> = label_bounds
        .iter()
        .map(|(at, len)| &label_words[*at..at + len])
        .collect();

    let replayed = std::thread::scope(|scope| {
        let replay = scope.spawn(|| -> IfdbResult<()> {
            let tracer = &mut data.tracer;
            let mut roots = Vec::with_capacity(n);
            for (b, block) in ops.chunks(BLOCK).enumerate() {
                let at = b * BLOCK;
                for op in block {
                    let span = tracer.open(0, roots.len() as u64, "client.call");
                    let out = run_op(&mut conn, &ctx, op);
                    tracer.close(span);
                    roots.push(span);
                    data.failed += u64::from(!out.ok);
                }
                let t = Instant::now();
                for op in block {
                    black_box(run_op(&mut plain, &ctx, op));
                }
                data.untraced_s += t.elapsed().as_secs_f64();

                for (k, c) in captured[at..at + block.len()].iter_mut().enumerate() {
                    let steps = std::mem::take(&mut c.steps);
                    let span = tracer.open(roots[at + k], (at + k) as u64, "client.codec");
                    let wire = codec_replay(steps, &process_raw)?;
                    tracer.close(span);
                    data.wire.request += wire.request;
                    data.wire.response += wire.response;
                }

                for (k, op) in block.iter().enumerate() {
                    let span = tracer.open(roots[at + k], (at + k) as u64, "core.session");
                    black_box(run_op(&mut session, &ctx, op));
                    tracer.close(span);
                }
                for (k, op) in block.iter().enumerate() {
                    let i = (at + k) as u64;
                    let span = tracer.open(roots[at + k], i, "core.session.baseline");
                    black_box(run_op(&mut baseline, &ctx_baseline, op));
                    tracer.close(span);
                }

                for (k, op) in block.iter().enumerate() {
                    let (i, root) = ((at + k) as u64, roots[at + k]);
                    match op {
                        Op::Read(read) => {
                            let span = tracer.open(root, i, "storage.engine");
                            engine_read(tracer, span, i, engine, read)?;
                            tracer.close(span);
                        }
                        Op::Tpcc(_) => {
                            let c = &captured[at + k];
                            let span = tracer.open(root, i, "storage.engine");
                            applier.apply_batch(&fresh_engine, c.first_seq, &c.records)?;
                            tracer.close(span);
                            // A sample beside the peel: begin + snapshot
                            // against a history of as many transactions as
                            // the workload has started.
                            let span = tracer.open(root, i, "storage.engine.txn_begin");
                            let txn = engine.txns().begin();
                            black_box(engine.snapshot(txn));
                            tracer.close(span);
                            engine.txns().abort(txn)?;
                        }
                    }
                }

                for (k, c) in captured[at..at + block.len()].iter_mut().enumerate() {
                    let i = (at + k) as u64;
                    let span = tracer.open(roots[at + k], i, "storage.wal");
                    for record in std::mem::take(&mut c.records) {
                        let name = if matches!(record, LogRecord::Commit { .. }) {
                            "storage.wal.commit"
                        } else {
                            "storage.wal.append"
                        };
                        let child = tracer.open(span, i, name);
                        wal.append(record)?;
                        tracer.close(child);
                    }
                    tracer.close(span);
                }

                for (k, op) in block.iter().enumerate() {
                    let returned: Vec<&[u64]>;
                    let (labels, declassified): (&[&[u64]], _) = match op {
                        Op::Read(ReadOp::ViewRange { .. }) => (&table_labels, &view_declassifies),
                        Op::Read(ReadOp::ConfinedEq { .. }) => (&table_labels, &no_declassify),
                        _ => {
                            let c = &captured[at + k];
                            returned = c.returned_labels.iter().map(Vec::as_slice).collect();
                            (&returned, &no_declassify)
                        }
                    };
                    let span = tracer.open(roots[at + k], (at + k) as u64, "difc.memo");
                    memo_replay(labels, declassified, &process, &mut data.memo);
                    tracer.close(span);
                }
            }
            Ok(())
        });
        replay.join().expect("replay thread panicked")
    });
    replayed?;
    data.commit_ns = conn.commit_ns;
    data.commits = conn.commits;
    drop((conn, plain));
    untraced.shutdown();
    let loaded = deployment.shutdown();

    // One timed public call each on the quiesced TPC-C database.
    if workload.is_tpcc() {
        let t = Instant::now();
        loaded.db.vacuum()?;
        data.maintenance.vacuum_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(loaded);
        let t = Instant::now();
        let recovered = fixture::recover_tpcc(workload, dir_call.path())?;
        data.maintenance.recovery_ms = t.elapsed().as_secs_f64() * 1e3;
        data.maintenance.recovery_replayed_records =
            recovered.engine().stats().recovery_replayed_records;
        let t = Instant::now();
        recovered.checkpoint()?;
        data.maintenance.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    Ok(data)
}
