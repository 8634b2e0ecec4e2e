//! The event-driven serving core: one epoll reactor thread for all I/O,
//! a small executor pool for statement execution.
//!
//! # Architecture
//!
//! ```text
//!                    ┌───────────────────────────────┐
//!   sockets ──epoll──▶ reactor thread (never blocks) │
//!                    │  accept / nonblocking read    │
//!                    │  incremental frame assembly   │──inbox──┐
//!                    │  nonblocking flush ◀──outbox──┼─────────┼──┐
//!                    └───────────────▲───────────────┘         │  │
//!                                    │ notify (eventfd)        ▼  │
//!                    ┌───────────────┴───────────────┐  ┌─────────┴─┐
//!                    │         ready queue           │──▶ executors │
//!                    └───────────────────────────────┘  └───────────┘
//! ```
//!
//! Per connection, the reactor owns the socket and its read/write buffers;
//! everything the executors touch lives in a shared [`ConnShared`]: a FIFO
//! **inbox** of decoded-frame requests, an **outbox** of encoded response
//! frames, and the session state. The reactor parses frames off the socket
//! into the inbox and schedules the connection (at most once — an atomic
//! idle/scheduled/running state machine); an executor drains the inbox **in
//! FIFO order** against the session — preserving the §7.2 contract that
//! each response piggybacks the process label *after* its statement — then
//! hands the outbox back to the reactor to flush. Two tiny critical
//! sections (inbox pop, outbox append) are all that is shared per request.
//!
//! # Backpressure
//!
//! A connection whose buffered responses exceed
//! [`crate::ServerConfig::outbound_buffer_limit`] (or whose inbox backs up)
//! is **paused**: the reactor drops its read interest, so the client's TCP
//! window fills and the pipeline stalls at the sender. Reading resumes once
//! the peer drains below half the bound. Accept-time refusal survives only
//! as the [`crate::ServerConfig::max_connections`] quota.
//!
//! # Shutdown
//!
//! On shutdown, connections that are mid-transaction or still have queued
//! pipelined requests keep draining until the deadline
//! ([`crate::ServerConfig::drain_timeout`]); idle connections get a
//! `SHUTTING_DOWN` notice (request id 0) and are closed once it flushes. At
//! the deadline, whatever is still queued is counted as aborted and every
//! remaining connection is torn down — dropping its session, which aborts
//! any open transaction.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use ifdb::IfdbError;
use ifdb_client::protocol::{code, frame_into, try_take_frame, Request, Response};
use parking_lot::Mutex;
use polling::{set_nonblocking, Events, Interest, Mode, Poller, WAKER_KEY};

use crate::{handle_request, refuse, ConnState, IfdbResult, Shared};

const LISTENER_KEY: usize = 0;
/// Read chunk size, and the per-wakeup cap on unparsed inbound bytes a
/// single connection may accumulate before yielding to others.
const READ_CHUNK: usize = 16 * 1024;
const MAX_UNPARSED_PER_WAKEUP: usize = 256 * 1024;
/// Inbox depth at which a connection is paused even if its responses are
/// small — the companion bound to the outbound byte limit.
const MAX_QUEUED_REQUESTS: usize = 1024;

const EXEC_IDLE: u8 = 0;
const EXEC_SCHEDULED: u8 = 1;
const EXEC_RUNNING: u8 = 2;

/// The executor-visible half of a connection.
struct ConnShared {
    token: usize,
    server: Arc<Shared>,
    /// FIFO of complete, checksum-verified request frames: `(req_id, msg)`.
    inbox: Mutex<VecDeque<(u32, Vec<u8>)>>,
    /// Encoded response frames awaiting the reactor's flush.
    outbox: Mutex<Vec<u8>>,
    /// The connection's session state machine (None before the handshake).
    session: Mutex<Option<ConnState>>,
    /// Idle / scheduled / running — guarantees the connection sits in the
    /// ready queue at most once, so one executor drains it at a time and
    /// FIFO order holds.
    exec_state: AtomicU8,
    /// Close the connection once the outbox has flushed.
    closing: AtomicBool,
    /// Bytes buffered toward the peer (outbox + the reactor's write
    /// buffer); drives backpressure.
    outbound_bytes: AtomicUsize,
    /// Reusable response-encoding buffer: one allocation amortized over
    /// every response frame this connection produces, instead of a fresh
    /// `Vec` per frame on the hot outbox path.
    scratch: Mutex<Vec<u8>>,
}

impl Drop for ConnShared {
    fn drop(&mut self) {
        // Last owner (reactor or a late-finishing executor): the session
        // dies here; its Drop aborts any open transaction. Count it so
        // operators see disconnect-aborts distinctly.
        if let Some(state) = self.session.get_mut().take() {
            if state.session.in_transaction() {
                self.server
                    .counters
                    .txns_aborted_on_disconnect
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl ConnShared {
    /// Appends one encoded response frame to the outbox, encoding through
    /// the connection's scratch buffer. One executor drains a connection at
    /// a time, so the scratch lock is uncontended; it exists to satisfy the
    /// shared-ownership structure, not for concurrency.
    fn push_response(&self, req_id: u32, resp: &Response) {
        let mut scratch = self.scratch.lock();
        resp.encode_into(&mut scratch);
        let counters = &self.server.counters;
        counters.frames_encoded.fetch_add(1, Ordering::Relaxed);
        counters
            .response_bytes
            .fetch_add(scratch.len() as u64, Ordering::Relaxed);
        let mut ob = self.outbox.lock();
        let before = ob.len();
        if frame_into(&mut ob, req_id, &scratch).is_ok() {
            self.outbound_bytes
                .fetch_add(ob.len() - before, Ordering::Relaxed);
        } else {
            // Response too large to frame: the stream cannot stay coherent.
            self.closing.store(true, Ordering::Release);
        }
    }
}

/// The executor pool's shared work queue.
struct ExecQueue {
    ready: StdMutex<VecDeque<Arc<ConnShared>>>,
    cvar: Condvar,
    stopped: AtomicBool,
}

impl ExecQueue {
    fn schedule(&self, conn: &Arc<ConnShared>) {
        if conn
            .exec_state
            .compare_exchange(
                EXEC_IDLE,
                EXEC_SCHEDULED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            self.ready
                .lock()
                .expect("ready lock")
                .push_back(conn.clone());
            self.cvar.notify_one();
        }
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
        self.cvar.notify_all();
    }
}

/// Tokens the executors hand back to the reactor for flushing.
struct FlushList {
    tokens: Mutex<Vec<usize>>,
}

/// A running reactor backend.
pub(crate) struct ReactorHandle {
    poller: Arc<Poller>,
    exec: Arc<ExecQueue>,
    reactor: Option<std::thread::JoinHandle<()>>,
    executors: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// Joins the reactor (which drains per the shutdown protocol — the
    /// shutdown flag must already be set) and then the executors.
    pub(crate) fn shutdown_join(&mut self) {
        let _ = self.poller.notify();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        self.exec.stop();
        for t in self.executors.drain(..) {
            let _ = t.join();
        }
    }
}

/// Spawns the reactor thread and `workers` executors over `listener`.
pub(crate) fn start(listener: TcpListener, shared: Arc<Shared>) -> IfdbResult<ReactorHandle> {
    let poller = Arc::new(Poller::new().map_err(|e| IfdbError::Remote {
        code: code::REMOTE as u16,
        detail: format!("epoll: {e}"),
    })?);
    poller
        .add(&listener, LISTENER_KEY, Interest::READ, Mode::Level)
        .map_err(|e| IfdbError::Remote {
            code: code::REMOTE as u16,
            detail: format!("epoll add listener: {e}"),
        })?;
    let exec = Arc::new(ExecQueue {
        ready: StdMutex::new(VecDeque::new()),
        cvar: Condvar::new(),
        stopped: AtomicBool::new(false),
    });
    let flush = Arc::new(FlushList {
        tokens: Mutex::new(Vec::new()),
    });

    let mut executors = Vec::new();
    for i in 0..shared.config.workers.max(1) {
        let shared = shared.clone();
        let exec = exec.clone();
        let poller2 = poller.clone();
        let flush2 = flush.clone();
        executors.push(
            std::thread::Builder::new()
                .name(format!("ifdb-exec-{i}"))
                .spawn(move || executor_loop(shared, exec, poller2, flush2))
                .expect("spawn executor"),
        );
    }
    let reactor = {
        let shared = shared.clone();
        let poller = poller.clone();
        let exec = exec.clone();
        let flush = flush.clone();
        std::thread::Builder::new()
            .name("ifdb-reactor".into())
            .spawn(move || Reactor::new(listener, shared, poller, exec, flush).run())
            .expect("spawn reactor")
    };
    Ok(ReactorHandle {
        poller,
        exec,
        reactor: Some(reactor),
        executors,
    })
}

/// The reactor-private half of a connection.
struct ConnIo {
    stream: TcpStream,
    conn: Arc<ConnShared>,
    /// Unparsed inbound bytes (partial frames).
    rbuf: Vec<u8>,
    /// In-flight outbound bytes taken from the outbox.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Reading paused by backpressure.
    paused: bool,
    /// SHUTTING_DOWN notice already queued.
    notified_shutdown: bool,
}

struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    exec: Arc<ExecQueue>,
    flush: Arc<FlushList>,
    conns: HashMap<usize, ConnIo>,
    next_token: usize,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        poller: Arc<Poller>,
        exec: Arc<ExecQueue>,
        flush: Arc<FlushList>,
    ) -> Reactor {
        Reactor {
            listener,
            shared,
            poller,
            exec,
            flush,
            conns: HashMap::new(),
            next_token: 1,
        }
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let shutting = self.shared.shutting_down();
            // Block until something is ready; during shutdown poll briefly
            // so the drain deadline is noticed, otherwise with a long
            // safety timeout (the waker covers every expected wake-up).
            let timeout = if shutting {
                Duration::from_millis(10)
            } else {
                Duration::from_millis(500)
            };
            let _ = self.poller.wait(&mut events, Some(timeout));

            let mut dead: Vec<usize> = Vec::new();
            for ev in events.iter() {
                match ev.key {
                    WAKER_KEY => {}
                    LISTENER_KEY => self.accept_ready(),
                    token => {
                        let alive = match self.conns.get_mut(&token) {
                            Some(_) => {
                                let mut ok = true;
                                if ev.readable || ev.closed {
                                    ok = self.handle_read(token);
                                }
                                if ok && ev.writable {
                                    ok = self.flush_conn(token);
                                }
                                ok
                            }
                            // Stale event for a token already torn down.
                            None => true,
                        };
                        if !alive {
                            dead.push(token);
                        }
                    }
                }
            }
            for token in dead {
                self.teardown(token);
            }

            // Flush outboxes the executors filled since the last pass.
            let tokens = std::mem::take(&mut *self.flush.tokens.lock());
            for token in tokens {
                if self.conns.contains_key(&token) && !self.flush_conn(token) {
                    self.teardown(token);
                }
            }

            if self.shared.shutting_down() && !self.shutdown_pass() {
                break;
            }
        }
    }

    /// One shutdown maintenance pass. Returns `false` once every connection
    /// is gone (the reactor exits).
    fn shutdown_pass(&mut self) -> bool {
        let past_deadline = self.shared.past_drain_deadline();
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            // Requests that reached the socket before this pass are part of
            // the pipeline: pick them up, so they drain — or count as
            // aborted at the deadline — instead of vanishing unread behind
            // an "idle" verdict.
            if !self.conns[&token].notified_shutdown && !self.handle_read(token) {
                self.teardown(token);
                continue;
            }
            if past_deadline {
                self.teardown(token);
                continue;
            }
            let c = self.conns.get_mut(&token).expect("conn exists");
            if c.notified_shutdown {
                continue;
            }
            // Busy connections — executor active, requests queued, bytes
            // unflushed, or an open transaction — keep draining until the
            // deadline. (try_lock: a held session lock means an executor is
            // mid-statement, which is the busy case.)
            let busy = c.conn.exec_state.load(Ordering::Acquire) != EXEC_IDLE
                || !c.conn.inbox.lock().is_empty()
                || c.conn.outbound_bytes.load(Ordering::Relaxed) > 0
                || !c.rbuf.is_empty()
                || match c.conn.session.try_lock() {
                    Some(guard) => guard
                        .as_ref()
                        .map(|s| s.session.in_transaction())
                        .unwrap_or(false),
                    None => true,
                };
            if busy {
                continue;
            }
            // Idle: tell the peer and close once the notice flushes.
            c.notified_shutdown = true;
            c.conn.push_response(
                0,
                &Response::Error {
                    code: code::SHUTTING_DOWN,
                    detail: "server is shutting down".into(),
                    label0: Vec::new(),
                    label1: Vec::new(),
                    aux: 0,
                    session_label: None,
                },
            );
            c.conn.closing.store(true, Ordering::Release);
            if !self.flush_conn(token) {
                self.teardown(token);
            }
        }
        !self.conns.is_empty()
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutting_down() {
                        refuse(stream, code::SHUTTING_DOWN, "server is shutting down");
                        continue;
                    }
                    if self.conns.len() >= self.shared.config.max_connections {
                        self.shared
                            .counters
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        refuse(stream, code::SERVER_BUSY, "connection quota exceeded");
                        continue;
                    }
                    if stream.set_nodelay(true).is_err() || set_nonblocking(&stream, true).is_err()
                    {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1; // tokens are never reused
                    if self
                        .poller
                        .add(&stream, token, Interest::READ, Mode::Level)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared
                        .counters
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .counters
                        .connections_active
                        .fetch_add(1, Ordering::Relaxed);
                    let conn = Arc::new(ConnShared {
                        token,
                        server: self.shared.clone(),
                        inbox: Mutex::new(VecDeque::new()),
                        outbox: Mutex::new(Vec::new()),
                        session: Mutex::new(None),
                        exec_state: AtomicU8::new(EXEC_IDLE),
                        closing: AtomicBool::new(false),
                        outbound_bytes: AtomicUsize::new(0),
                        scratch: Mutex::new(Vec::new()),
                    });
                    self.conns.insert(
                        token,
                        ConnIo {
                            stream,
                            conn,
                            rbuf: Vec::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            interest: Interest::READ,
                            paused: false,
                            notified_shutdown: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Drains readable bytes, assembles frames into the inbox, schedules
    /// the connection, and applies read-side backpressure. Returns `false`
    /// when the connection is finished.
    fn handle_read(&mut self, token: usize) -> bool {
        let c = self.conns.get_mut(&token).expect("conn exists");
        if c.paused {
            // Level-triggered readable events keep firing for a paused
            // connection only if we left its interest on — we did not, so
            // this is a stale event from the same wait batch.
            return true;
        }
        let mut chunk = [0u8; READ_CHUNK];
        let mut peer_closed = false;
        loop {
            match (&c.stream).read(&mut chunk) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    c.rbuf.extend_from_slice(&chunk[..n]);
                    if c.rbuf.len() >= MAX_UNPARSED_PER_WAKEUP {
                        // Fairness: parse what we have; level-triggered
                        // epoll re-delivers the rest next pass.
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer_closed = true;
                    break;
                }
            }
        }
        // Incremental frame assembly over the unparsed prefix.
        let mut consumed = 0;
        let mut queued_any = false;
        loop {
            match try_take_frame(&c.rbuf[consumed..]) {
                Ok(Some((n, req_id, msg))) => {
                    consumed += n;
                    c.conn.inbox.lock().push_back((req_id, msg));
                    queued_any = true;
                }
                Ok(None) => break,
                Err(_) => {
                    // Corrupt framing: the stream cannot resync. Drop the
                    // connection (the old blocking server did the same).
                    return false;
                }
            }
        }
        if consumed > 0 {
            c.rbuf.drain(..consumed);
        }
        if queued_any {
            self.exec.schedule(&c.conn);
        }
        if peer_closed {
            // EOF: tear the connection down immediately. Requests already
            // handed to the executor still run (it holds its own Arc on
            // the ConnShared), but their responses are dropped — the flush
            // pass skips tokens whose connection is gone.
            return false;
        }
        self.apply_backpressure(token);
        true
    }

    /// Pauses reading when the connection's buffered responses (or queued
    /// requests) exceed their bounds; resumes below half the bound.
    fn apply_backpressure(&mut self, token: usize) {
        let c = self.conns.get_mut(&token).expect("conn exists");
        let limit = self.shared.config.outbound_buffer_limit.max(1);
        let buffered = c.conn.outbound_bytes.load(Ordering::Relaxed);
        let queued = c.conn.inbox.lock().len();
        let should_pause = buffered > limit || queued > MAX_QUEUED_REQUESTS;
        let may_resume = buffered <= limit / 2 && queued <= MAX_QUEUED_REQUESTS / 2;
        if should_pause && !c.paused {
            c.paused = true;
            self.shared
                .counters
                .backpressure_pauses
                .fetch_add(1, Ordering::Relaxed);
            self.update_interest(token);
        } else if c.paused && may_resume {
            c.paused = false;
            self.update_interest(token);
        }
    }

    /// Re-registers the connection's epoll interest from its current state:
    /// readable unless paused, writable while bytes are pending.
    fn update_interest(&mut self, token: usize) {
        let c = self.conns.get_mut(&token).expect("conn exists");
        let pending_write =
            c.wpos < c.wbuf.len() || c.conn.outbound_bytes.load(Ordering::Relaxed) > 0;
        let want = Interest {
            readable: !c.paused,
            writable: pending_write,
        };
        if want != c.interest {
            c.interest = want;
            let _ = self.poller.modify(&c.stream, token, want, Mode::Level);
        }
    }

    /// Writes as much buffered response data as the socket accepts,
    /// refilling from the outbox. Returns `false` when the connection is
    /// finished (fatal write error, or close-after-flush completed).
    fn flush_conn(&mut self, token: usize) -> bool {
        let c = self.conns.get_mut(&token).expect("conn exists");
        loop {
            if c.wpos == c.wbuf.len() {
                c.wbuf.clear();
                c.wpos = 0;
                let mut ob = c.conn.outbox.lock();
                if ob.is_empty() {
                    break;
                }
                std::mem::swap(&mut c.wbuf, &mut *ob);
            }
            match (&c.stream).write(&c.wbuf[c.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    c.wpos += n;
                    c.conn.outbound_bytes.fetch_sub(n, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        let done = c.wpos == c.wbuf.len() && c.conn.outbound_bytes.load(Ordering::Relaxed) == 0;
        if done
            && c.conn.closing.load(Ordering::Acquire)
            && c.conn.exec_state.load(Ordering::Acquire) == EXEC_IDLE
        {
            return false;
        }
        self.apply_backpressure(token);
        self.update_interest(token);
        true
    }

    fn teardown(&mut self, token: usize) {
        if let Some(c) = self.conns.remove(&token) {
            let _ = self.poller.delete(&c.stream);
            self.shared
                .counters
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
            if self.shared.shutting_down() {
                let queued = c.conn.inbox.lock().len() as u64;
                if queued > 0 {
                    self.shared
                        .counters
                        .requests_aborted_on_shutdown
                        .fetch_add(queued, Ordering::Relaxed);
                }
            }
            // Socket closes on drop. The ConnShared (and its session) dies
            // with the last Arc — immediately, unless an executor is still
            // finishing a statement for it.
        }
    }
}

/// One statement executor: drains scheduled connections' inboxes in FIFO
/// order against their sessions, appending response frames to the outbox
/// and waking the reactor to flush.
fn executor_loop(
    shared: Arc<Shared>,
    exec: Arc<ExecQueue>,
    poller: Arc<Poller>,
    flush: Arc<FlushList>,
) {
    loop {
        let conn = {
            let mut q = exec.ready.lock().expect("ready lock");
            loop {
                if exec.stopped.load(Ordering::Acquire) {
                    return;
                }
                if let Some(c) = q.pop_front() {
                    break c;
                }
                let (g, _) = exec
                    .cvar
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("ready lock");
                q = g;
            }
        };
        conn.exec_state.store(EXEC_RUNNING, Ordering::Release);
        let wrote = drain_inbox(&shared, &conn);
        conn.exec_state.store(EXEC_IDLE, Ordering::Release);
        // Re-check: the reactor may have pushed between our last pop and
        // the idle transition, and skipped scheduling because we looked
        // busy.
        if !conn.inbox.lock().is_empty() && !conn.closing.load(Ordering::Acquire) {
            exec.schedule(&conn);
        }
        // Hand the token back whenever there are bytes to flush OR the
        // connection is closing: a panic on the very first drained request
        // produces no response bytes, but the reactor must still observe
        // `closing` and tear the connection down — without the token it
        // would never revisit an idle, write-quiet connection, leaking it
        // and leaving the peer hung.
        if wrote || conn.closing.load(Ordering::Acquire) {
            flush.tokens.lock().push(conn.token);
            let _ = poller.notify();
        }
    }
}

/// Processes every queued request of one connection in FIFO order. Returns
/// whether any response bytes were produced.
fn drain_inbox(shared: &Arc<Shared>, conn: &Arc<ConnShared>) -> bool {
    let mut wrote = false;
    // Weighted scheduling (deficit round robin by connection): one executor
    // turn drains at most the principal's quantum of messages, then yields.
    // `executor_loop`'s inbox re-check pushes the connection to the *back*
    // of the ready queue, so a heavy pipelining principal keeps making
    // progress but cannot starve its neighbors' queued statements.
    let quantum = {
        let guard = conn.session.lock();
        guard.as_ref().map_or(usize::MAX, |c| {
            shared.qos.drain_quantum(c.session.principal().0)
        })
    };
    let mut handled = 0usize;
    loop {
        if conn.closing.load(Ordering::Acquire) {
            // Post-Goodbye (or post-panic) frames are dead: the old server
            // closed the socket with them unread.
            conn.inbox.lock().clear();
            break;
        }
        let Some((req_id, msg)) = conn.inbox.lock().pop_front() else {
            break;
        };
        let mut guard = conn.session.lock();
        let state = &mut *guard;
        let request = match Request::decode(&msg) {
            Ok(r) => r,
            Err(e) => {
                conn.push_response(req_id, &ifdb_client::protocol::encode_error(&e));
                conn.closing.store(true, Ordering::Release);
                wrote = true;
                break;
            }
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let is_goodbye = matches!(request, Request::Goodbye);
        // A panicking statement must not take the executor down: close the
        // connection instead, dropping its session (which aborts any open
        // transaction), as the thread-pool backend's catch_unwind did.
        let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, state, request)
        }));
        match resp {
            Ok(resp) => {
                conn.push_response(req_id, &resp);
                wrote = true;
            }
            Err(_) => {
                *state = None;
                conn.closing.store(true, Ordering::Release);
                break;
            }
        }
        if is_goodbye {
            conn.closing.store(true, Ordering::Release);
            break;
        }
        handled += 1;
        if handled >= quantum {
            // Quantum exhausted: yield the executor. Anything still queued
            // re-schedules this connection behind the other ready ones.
            if !conn.inbox.lock().is_empty() {
                shared.qos.sched_yields.fetch_add(1, Ordering::Relaxed);
            }
            break;
        }
        // Statement timeouts need no special-casing here: `handle_request`
        // keeps a sticky per-connection cancel state, so every frame queued
        // (or still arriving) behind a timed-out statement is answered with
        // a cancellation error as it is popped — including frames that were
        // still unparsed in rbuf or the kernel socket buffer when the
        // timeout fired.
    }
    wrote
}
