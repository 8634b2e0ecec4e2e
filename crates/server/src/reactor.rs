//! The run-to-completion serving core: `workers` identical threads wait on
//! one shared epoll instance, and the thread that sees a connection become
//! readable also reads its frames, executes them and writes the replies.
//!
//! # Architecture
//!
//! ```text
//!             ┌──────── one Poller: every socket registered one-shot ────────┐
//!   sockets ──▶ kernel ready list:  conn 7 ▸ conn 3 ▸ listener ▸ conn 9 ▸ …  │
//!             └──────┬────────────────────────┬───────────────────────┬──────┘
//!                    ▼ one event per wait     ▼                       ▼
//!             serving thread 0         serving thread 1    …   serving thread N-1
//!             owns conn 7:  read ▸ ≤ quantum frames through `handle_request`
//!                           ▸ encode replies ▸ write until WouldBlock ▸ re-arm
//! ```
//!
//! # Ownership: armed → owned → re-armed
//!
//! Every connection (and the listener) is registered with
//! [`Mode::Oneshot`], so its event goes to exactly one waiting thread and
//! disarms the registration. That thread **owns** the connection — its
//! socket, buffers and session, all behind the connection's own lock —
//! until it re-arms it as the last step of its turn. Nothing else touches
//! an owned connection, so per-connection FIFO order holds by construction,
//! and with it the §7.2 contract that each reply piggybacks the process
//! label *after* its statement. There is no hand-off: the statement runs on
//! the thread that read it, and its reply is written by that same thread.
//!
//! A statement that blocks (an fsync, a semi-synchronous replication wait)
//! holds only its own thread and its own connection; every other connection
//! keeps being served by the remaining threads.
//!
//! # Fairness and backpressure
//!
//! One turn runs at most the principal's deficit-round-robin quantum of
//! frames ([`crate::qos::QosGate::drain_quantum`]). A connection that yields
//! with whole frames left is re-armed with WRITE interest too: its socket is
//! writable, so the kernel queues it again at once, *behind* the connections
//! already waiting. A connection whose unwritten replies pass
//! [`crate::ServerConfig::outbound_buffer_limit`] is **paused**: re-armed
//! WRITE-only, it neither reads nor runs a frame until the peer drains it
//! below half the bound, so the client's TCP window fills and the pipeline
//! stalls at the sender. Received-but-unrun bytes are capped too. Accept-time
//! refusal survives only as the [`crate::ServerConfig::max_connections`]
//! quota.
//!
//! # Shutdown
//!
//! Once shutdown begins, every thread wakes (one notify wakes one waiter, so
//! a thread that consumes the waker passes it on while a thread that has
//! not seen the flag is still asleep) and polls on a short tick. Each tick
//! a thread makes a pass over the connections no other thread owns: it
//! runs requests already in the socket, keeps connections that are
//! mid-transaction or have pipelined requests or unwritten replies draining
//! until the deadline ([`crate::ServerConfig::drain_timeout`]), and sends
//! idle ones a `SHUTTING_DOWN` notice (request id 0), closing them once it
//! is written. At the deadline, whatever is still queued is counted
//! as aborted and every remaining connection is torn down — dropping its
//! session, which aborts any open transaction. A thread exits once no
//! connection is left.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ifdb::IfdbError;
use ifdb_client::protocol::{code, encode_error, frame_into, try_take_frame, Request, Response};
use parking_lot::Mutex;
use polling::{set_nonblocking, Events, Interest, Mode, Poller, WAKER_KEY};

use crate::{handle_request, refuse, ConnState, Counters, IfdbResult, Shared};

const LISTENER_KEY: usize = 0;
/// Bytes one `read` asks for.
const READ_CHUNK: usize = 16 * 1024;
/// Received bytes a connection may hold unrun; past this it is not read
/// until it has run some of them.
const MAX_INBOUND: usize = 256 * 1024;
/// How long a thread waits for an event before re-checking the world; the
/// waker covers every expected wake-up, so this is only a safety net.
const IDLE_WAIT: Duration = Duration::from_millis(500);
/// The shutdown drain's polling period.
const SHUTDOWN_TICK: Duration = Duration::from_millis(10);

/// One connection: everything a serving thread needs, behind the lock its
/// owner holds for the length of a turn.
struct ConnIo {
    token: usize,
    stream: TcpStream,
    /// The session state machine (None before the handshake).
    state: Option<ConnState>,
    /// Received bytes not yet run: whole frames waiting behind a quantum
    /// yield or backpressure, then at most one partial frame.
    rbuf: Vec<u8>,
    /// Encoded replies not yet written.
    wbuf: Vec<u8>,
    /// Reusable encoding buffer for one reply payload.
    scratch: Vec<u8>,
    /// Torn down: a thread that was waiting for the lock does nothing.
    dead: bool,
    /// Close once `wbuf` drains (Goodbye, panic, undecodable frame,
    /// shutdown notice); nothing more is read or run.
    closing: bool,
    /// Backpressure: neither read nor run until `wbuf` drains below half
    /// the outbound bound.
    paused: bool,
    /// The last turn stopped at the quantum with whole frames left.
    yielded: bool,
}

impl ConnIo {
    fn new(token: usize, stream: TcpStream) -> ConnIo {
        ConnIo {
            token,
            stream,
            state: None,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            scratch: Vec::new(),
            dead: false,
            closing: false,
            paused: false,
            yielded: false,
        }
    }

    /// Reads until the socket is drained or the inbound cap is reached —
    /// past which it reads only to complete a frame larger than the cap.
    /// Returns `false` once the peer is gone.
    fn fill(&mut self, chunk: &mut [u8]) -> bool {
        while self.rbuf.len() < MAX_INBOUND || whole_frame(&self.rbuf).is_none() {
            match (&self.stream).read(chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        // Almost surely drained; if not, the READ re-arm
                        // fires again at once. Saves the WouldBlock read.
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Writes replies until the socket pushes back. Returns `false` on a
    /// fatal write error.
    fn flush(&mut self) -> bool {
        let mut written = 0;
        while written < self.wbuf.len() {
            match (&self.stream).write(&self.wbuf[written..]) {
                Ok(0) => return false,
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.wbuf.drain(..written);
        true
    }

    /// Encodes one reply frame onto the write buffer.
    fn reply(&mut self, counters: &Counters, req_id: u32, resp: &Response) {
        resp.encode_into(&mut self.scratch);
        counters.frames_encoded.fetch_add(1, Ordering::Relaxed);
        counters
            .response_bytes
            .fetch_add(self.scratch.len() as u64, Ordering::Relaxed);
        if frame_into(&mut self.wbuf, req_id, &self.scratch).is_err() {
            // Too large to frame: the stream cannot stay coherent.
            self.closing = true;
        }
    }

    /// Requests queued, replies unwritten, or a transaction open.
    fn busy(&self) -> bool {
        !self.rbuf.is_empty()
            || !self.wbuf.is_empty()
            || self
                .state
                .as_ref()
                .is_some_and(|s| s.session.in_transaction())
    }
}

/// The length of the whole frame at the head of `buf`, if there is one.
fn whole_frame(buf: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(buf.get(..4)?.try_into().ok()?) as usize;
    Some(8 + len).filter(|total| buf.len() >= *total)
}

/// Whole frames in `buf`.
fn whole_frames(mut buf: &[u8]) -> u64 {
    let mut n = 0;
    while let Some(len) = whole_frame(buf) {
        buf = &buf[len..];
        n += 1;
    }
    n
}

/// What every serving thread shares.
struct Core {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    /// Every open connection by token (tokens are never reused).
    conns: Mutex<HashMap<usize, Arc<Mutex<ConnIo>>>>,
    next_token: AtomicUsize,
    /// Threads blocked in `wait` that have not seen the shutdown flag.
    sleepers: AtomicUsize,
}

/// A running serving core.
pub(crate) struct ReactorHandle {
    core: Arc<Core>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// Wakes the serving threads (the shutdown flag must already be set)
    /// and joins them once they have drained every connection.
    pub(crate) fn shutdown_join(&mut self) {
        let _ = self.core.poller.notify();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Spawns `workers` serving threads over `listener`.
pub(crate) fn start(listener: TcpListener, shared: Arc<Shared>) -> IfdbResult<ReactorHandle> {
    let remote = |what: &str, e: std::io::Error| IfdbError::Remote {
        code: code::REMOTE as u16,
        detail: format!("{what}: {e}"),
    };
    let poller = Poller::new().map_err(|e| remote("epoll", e))?;
    poller
        .add(&listener, LISTENER_KEY, Interest::READ, Mode::Oneshot)
        .map_err(|e| remote("epoll add listener", e))?;
    let workers = shared.config.workers.max(1);
    let core = Arc::new(Core {
        shared,
        poller,
        listener,
        conns: Mutex::new(HashMap::new()),
        next_token: AtomicUsize::new(LISTENER_KEY + 1),
        sleepers: AtomicUsize::new(0),
    });
    let threads = (0..workers)
        .map(|i| {
            let core = core.clone();
            std::thread::Builder::new()
                .name(format!("ifdb-serve-{i}"))
                .spawn(move || core.serve_loop())
                .expect("spawn serving thread")
        })
        .collect();
    Ok(ReactorHandle { core, threads })
}

impl Core {
    /// One serving thread: take one event, serve it to completion, repeat.
    fn serve_loop(&self) {
        // One event per wait: a thread that took several would serve them
        // in series while its peers sat idle.
        let mut events = Events::with_capacity(1);
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut last_pass = Instant::now();
        loop {
            self.wait(&mut events);
            for ev in events.iter() {
                match ev.key {
                    // One notify wakes one waiter: pass the shutdown on
                    // while a thread that has not seen it is still asleep.
                    WAKER_KEY => {
                        if self.shared.shutting_down() && self.sleepers.load(Ordering::SeqCst) > 0 {
                            let _ = self.poller.notify();
                        }
                    }
                    LISTENER_KEY => self.accept(),
                    token => self.dispatch(token, ev.closed, &mut chunk),
                }
            }
            if self.shared.shutting_down() && last_pass.elapsed() >= SHUTDOWN_TICK {
                last_pass = Instant::now();
                if !self.shutdown_pass(&mut chunk) {
                    return;
                }
            }
        }
    }

    /// Blocks for the next event — briefly once shutdown has begun, so the
    /// drain deadline is noticed. A thread that has not seen shutdown
    /// counts itself a sleeper meanwhile; it reads the flag only after
    /// counting in, so a shutdown that begins in between sees the count.
    fn wait(&self, events: &mut Events) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let shutting = self.shared.shutdown.load(Ordering::SeqCst);
        if shutting {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
        let timeout = if shutting { SHUTDOWN_TICK } else { IDLE_WAIT };
        let _ = self.poller.wait(events, Some(timeout));
        if !shutting {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Accepts every pending connection, then re-arms the listener.
    fn accept(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let _ = self
            .poller
            .modify(&self.listener, LISTENER_KEY, Interest::READ, Mode::Oneshot);
    }

    fn admit(&self, stream: TcpStream) {
        let counters = &self.shared.counters;
        if self.shared.shutting_down() {
            refuse(stream, code::SHUTTING_DOWN, "server is shutting down");
            return;
        }
        if self.conns.lock().len() >= self.shared.config.max_connections {
            counters
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            refuse(stream, code::SERVER_BUSY, "connection quota exceeded");
            return;
        }
        if stream.set_nodelay(true).is_err() || set_nonblocking(&stream, true).is_err() {
            return;
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        // Registered under the map lock: the first event can fire before
        // `add` returns, and the thread that takes it must find the entry.
        let mut conns = self.conns.lock();
        if self
            .poller
            .add(&stream, token, Interest::READ, Mode::Oneshot)
            .is_err()
        {
            return;
        }
        conns.insert(token, Arc::new(Mutex::new(ConnIo::new(token, stream))));
        drop(conns);
        counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        counters.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Serves the connection whose event this thread received. A hang-up
    /// or error ends it; frames it sent but that have not run are dropped.
    fn dispatch(&self, token: usize, closed: bool, chunk: &mut [u8]) {
        // Absent: a stale event for a connection already torn down.
        let Some(conn) = self.conns.lock().get(&token).cloned() else {
            return;
        };
        let mut io = conn.lock();
        if io.dead {
            return;
        }
        if closed || !self.serve(&mut io, chunk) {
            self.teardown(&mut io);
        }
    }

    /// One turn on an owned connection: write what is pending, read, run
    /// up to a quantum of frames, write their replies, re-arm. Returns
    /// `false` when the connection is finished.
    fn serve(&self, io: &mut ConnIo, chunk: &mut [u8]) -> bool {
        let limit = self.shared.config.outbound_buffer_limit.max(1);
        if !io.flush() {
            return false;
        }
        if io.paused && io.wbuf.len() <= limit / 2 {
            io.paused = false;
        }
        io.yielded = false;
        let runs = !io.closing && !io.paused;
        if runs && !(io.fill(chunk) && self.run(io, limit) && io.flush()) {
            return false;
        }
        if io.closing && io.wbuf.is_empty() {
            return false;
        }
        let interest = Interest {
            readable: !io.paused && !io.closing,
            writable: !io.wbuf.is_empty() || io.yielded,
        };
        self.poller
            .modify(&io.stream, io.token, interest, Mode::Oneshot)
            .is_ok()
    }

    /// Runs whole frames from `rbuf` through `handle_request`, in order,
    /// until none is left, the quantum is spent, the replies back up past
    /// `limit`, or the connection starts closing. Returns `false` when the
    /// connection is finished (corrupt framing, a failed write).
    ///
    /// Statement timeouts need no special-casing here: `handle_request`
    /// keeps a sticky per-connection cancel state, so every frame queued
    /// (or still arriving) behind a timed-out statement is answered with a
    /// cancellation error when its turn comes.
    fn run(&self, io: &mut ConnIo, limit: usize) -> bool {
        let shared = &self.shared;
        // Weighted scheduling (deficit round robin by connection): one turn
        // runs at most the principal's quantum of frames.
        let quantum = io.state.as_ref().map_or(usize::MAX, |c| {
            shared.qos.drain_quantum(c.session.principal().0)
        });
        let (mut at, mut handled) = (0, 0);
        let alive = loop {
            if io.closing || (shared.shutting_down() && shared.past_drain_deadline()) {
                break true;
            }
            if handled == quantum {
                if whole_frame(&io.rbuf[at..]).is_some() {
                    io.yielded = true;
                    shared.qos.sched_yields.fetch_add(1, Ordering::Relaxed);
                }
                break true;
            }
            let (n, req_id, msg) = match try_take_frame(&io.rbuf[at..]) {
                Ok(Some(frame)) => frame,
                Ok(None) => break true,
                // Corrupt framing: the stream cannot resync.
                Err(_) => break false,
            };
            at += n;
            handled += 1;
            self.execute(io, req_id, &msg);
            if io.wbuf.len() > limit {
                if !io.flush() {
                    break false;
                }
                if io.wbuf.len() > limit {
                    io.paused = true;
                    shared
                        .counters
                        .backpressure_pauses
                        .fetch_add(1, Ordering::Relaxed);
                    break true;
                }
            }
        };
        if io.closing {
            // Frames behind a Goodbye (or a panic) are dead: the socket
            // closes on them.
            io.rbuf.clear();
        } else {
            io.rbuf.drain(..at);
        }
        alive
    }

    /// Executes one request frame and encodes its reply.
    fn execute(&self, io: &mut ConnIo, req_id: u32, msg: &[u8]) {
        let shared = &self.shared;
        let request = match Request::decode(msg) {
            Ok(r) => r,
            Err(e) => {
                io.reply(&shared.counters, req_id, &encode_error(&e));
                io.closing = true;
                return;
            }
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let is_goodbye = matches!(request, Request::Goodbye);
        // A panicking statement must not take the thread down: close the
        // connection instead, dropping its session (which aborts any open
        // transaction).
        let state = &mut io.state;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, state, request)
        })) {
            Ok(resp) => io.reply(&shared.counters, req_id, &resp),
            Err(_) => {
                io.state = None;
                io.closing = true;
            }
        }
        if is_goodbye {
            io.closing = true;
        }
    }

    /// Closes an owned connection: deregisters it, counts what it leaves
    /// behind, and drops its session (aborting any open transaction).
    fn teardown(&self, io: &mut ConnIo) {
        io.dead = true;
        let _ = self.poller.delete(&io.stream);
        self.conns.lock().remove(&io.token);
        let counters = &self.shared.counters;
        counters.connections_active.fetch_sub(1, Ordering::Relaxed);
        if self.shared.shutting_down() {
            counters
                .requests_aborted_on_shutdown
                .fetch_add(whole_frames(&io.rbuf), Ordering::Relaxed);
        }
        if let Some(state) = io.state.take() {
            if state.session.in_transaction() {
                counters
                    .txns_aborted_on_disconnect
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        // The socket closes when the last handle on the connection drops:
        // at once, unless a thread is still waiting for its lock.
    }

    /// One shutdown pass over every connection no other thread owns.
    /// Returns `false` once no connection is left (the thread exits).
    fn shutdown_pass(&self, chunk: &mut [u8]) -> bool {
        let past_deadline = self.shared.past_drain_deadline();
        let conns: Vec<_> = self.conns.lock().values().cloned().collect();
        for conn in conns {
            // Owned by a thread mid-turn: the next pass looks again.
            let Some(mut io) = conn.try_lock() else {
                continue;
            };
            if io.dead {
                continue;
            }
            // Requests already in the socket are part of the pipeline: run
            // them — or, past the deadline, read them so they count as
            // aborted — instead of judging the connection idle unread.
            if !self.serve(&mut io, chunk) || past_deadline {
                self.teardown(&mut io);
                continue;
            }
            // A closing connection still has bytes to write, so it is busy.
            if io.busy() {
                continue;
            }
            // Idle: tell the peer, and close once the notice is written.
            let notice = Response::Error {
                code: code::SHUTTING_DOWN,
                detail: "server is shutting down".into(),
                label0: Vec::new(),
                label1: Vec::new(),
                aux: 0,
                session_label: None,
            };
            io.reply(&self.shared.counters, 0, &notice);
            io.closing = true;
            if !self.serve(&mut io, chunk) {
                self.teardown(&mut io);
            }
        }
        !self.conns.lock().is_empty()
    }
}
