//! End-to-end tests of the pipelined wire protocol against a real server:
//! batched execution on both backends, label flow through a pipeline,
//! reactor backpressure on slow readers, shutdown drain accounting,
//! cancellation of queued statements behind a timeout, and the serving
//! core's scheduling: the DRR bound, a blocked statement holding only its
//! own thread, and per-connection order under many pipelining connections.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ifdb::prelude::*;
use ifdb::{SessionApi, Statement, StatementResult};
use ifdb_client::protocol::{
    frame_into, read_frame_id, write_frame_id, Request, Response, PROTOCOL_VERSION,
};
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{start, Backend, ServerConfig};

fn notes_db() -> (Database, Arc<Authenticator>) {
    let db = Database::in_memory();
    db.create_table(
        TableDef::new("notes")
            .column("id", DataType::Int)
            .column("owner", DataType::Text)
            .column("body", DataType::Text)
            .primary_key(&["id"]),
    )
    .unwrap();
    (db, Arc::new(Authenticator::new()))
}

fn seed_rows(addr: &str, n: i64, body_len: usize) {
    let mut c = Connection::connect(&ClientConfig::anonymous(addr)).unwrap();
    let body = "x".repeat(body_len);
    c.begin().unwrap();
    for i in 0..n {
        c.insert(&Insert::new(
            "notes",
            vec![
                Datum::Int(i),
                Datum::from("anon"),
                Datum::from(body.as_str()),
            ],
        ))
        .unwrap();
    }
    c.commit().unwrap();
    c.close().unwrap();
}

/// A minimal raw-protocol client: lets tests control exactly when frames are
/// written and read, which `Connection` (correctly) does not.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
}

impl RawClient {
    fn connect(addr: &str) -> RawClient {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut c = RawClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
            next_id: 1,
        };
        let (id, resp) = c.call(&Request::Hello {
            version: PROTOCOL_VERSION,
            user: String::new(),
            password: String::new(),
            platform_secret: None,
            label: Vec::new(),
        });
        assert!(matches!(resp, Response::HelloOk { .. }), "{resp:?}");
        assert_eq!(id, 1);
        c
    }

    /// Queues one request frame without flushing; returns its id.
    fn send(&mut self, req: &Request) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        write_frame_id(&mut self.writer, id, &req.encode()).unwrap();
        id
    }

    /// Sends `reqs` in one write, so the server receives them together.
    fn send_all(&mut self, reqs: &[Request]) {
        let mut batch = Vec::new();
        for req in reqs {
            frame_into(&mut batch, self.next_id, &req.encode()).unwrap();
            self.next_id += 1;
        }
        self.writer.write_all(&batch).unwrap();
        self.flush();
    }

    fn flush(&mut self) {
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> (u32, Response) {
        let (id, payload) = read_frame_id(&mut self.reader).unwrap().expect("frame");
        (id, Response::decode(&payload).unwrap())
    }

    fn call(&mut self, req: &Request) -> (u32, Response) {
        self.send(req);
        self.flush();
        self.recv()
    }

    /// Prepares SELECT * FROM notes and returns the statement id.
    fn prepare_select_star(&mut self) -> u32 {
        self.prepare(&Statement::Select(Select::star("notes")))
    }

    /// Prepares `stmt`'s template and returns the statement id.
    fn prepare(&mut self, stmt: &Statement) -> u32 {
        let template = ifdb_client::protocol::encode_template(stmt).0;
        match self.call(&Request::Prepare { template }) {
            (_, Response::Prepared { id }) => id,
            (_, other) => panic!("prepare: {other:?}"),
        }
    }
}

fn insert_note(id: i64) -> Statement {
    Statement::Insert(Insert::new(
        "notes",
        vec![Datum::Int(id), Datum::from("anon"), Datum::from("b")],
    ))
}

#[test]
fn pipelined_batches_execute_in_order_on_both_backends() {
    for backend in [Backend::Reactor, Backend::ThreadPool] {
        let (db, auth) = notes_db();
        let server = start(
            db,
            auth,
            ServerConfig {
                backend,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut c =
            Connection::connect(&ClientConfig::anonymous(&server.addr().to_string())).unwrap();

        // One flush: five inserts and the read that must observe them all.
        let mut stmts: Vec<Statement> = (0..5)
            .map(|i| {
                Statement::Insert(Insert::new(
                    "notes",
                    vec![Datum::Int(i), Datum::from("anon"), Datum::from("b")],
                ))
            })
            .collect();
        stmts.push(Statement::Select(
            Select::star("notes").order("id", Order::Asc),
        ));
        let results = c.pipeline(&stmts).unwrap();
        assert_eq!(results.len(), 6);
        for r in &results[..5] {
            assert!(matches!(r, Ok(StatementResult::Affected(1))), "{r:?}");
        }
        // FIFO execution: the batched read ran after the batched writes.
        match &results[5] {
            Ok(StatementResult::Rows(rows)) => {
                assert_eq!(rows.len(), 5);
                assert_eq!(rows.first().unwrap().get_int("id"), Some(0));
            }
            other => panic!("{other:?}"),
        }
        assert!(c.stats().pipelined >= 6, "{:?}", c.stats());

        // A mid-batch failure is per-statement, not whole-batch: the
        // duplicate key fails, its neighbours succeed.
        let results = c
            .pipeline(&[
                Statement::Insert(Insert::new(
                    "notes",
                    vec![Datum::Int(100), Datum::from("anon"), Datum::from("b")],
                )),
                Statement::Insert(Insert::new(
                    "notes",
                    vec![Datum::Int(0), Datum::from("anon"), Datum::from("dup")],
                )),
                Statement::Insert(Insert::new(
                    "notes",
                    vec![Datum::Int(101), Datum::from("anon"), Datum::from("b")],
                )),
            ])
            .unwrap();
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(ifdb::IfdbError::UniqueViolation { .. })
        ));
        assert!(results[2].is_ok());

        c.close().unwrap();
        server.shutdown();
    }
}

#[test]
fn pipelined_label_raise_is_observed_by_the_following_read() {
    use ifdb::{TriggerDef, TriggerEvent, TriggerTiming};

    let (db, auth) = notes_db();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let alice_tag = db.create_tag(alice, "alice_notes", &[]).unwrap();
    auth.register("alice", "pw-a", alice);
    // A secret note of Alice's, and a trigger that contaminates any session
    // inserting into `notes` — the §7.2 scenario where process state changes
    // mid-pipeline.
    {
        let mut s = db.session(alice);
        s.add_secrecy(alice_tag).unwrap();
        s.insert(&Insert::new(
            "notes",
            vec![Datum::Int(1), Datum::from("alice"), Datum::from("secret")],
        ))
        .unwrap();
    }
    db.create_trigger(TriggerDef {
        name: "contaminate".into(),
        table: "notes".into(),
        events: vec![TriggerEvent::Insert],
        timing: TriggerTiming::Immediate,
        authority: None,
        body: Arc::new(move |session, _inv| {
            session.add_secrecy(alice_tag)?;
            Ok(())
        }),
    })
    .unwrap();
    let server = start(db, auth, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let mut c =
        Connection::connect(&ClientConfig::anonymous(&addr).with_user("alice", "pw-a")).unwrap();
    assert!(c.current_label().is_empty());

    // One pipelined flush: the contaminating insert (which fails the
    // commit-label rule but raises the process label), then a read. The two
    // requests are already in flight together — the server must still run
    // them in order, and the read's piggybacked label must carry the raise.
    let results = c
        .pipeline(&[
            Statement::Insert(Insert::new(
                "notes",
                vec![Datum::Int(90), Datum::from("alice"), Datum::from("x")],
            )),
            Statement::Select(Select::star("notes")),
        ])
        .unwrap();
    assert!(matches!(
        results[0],
        Err(ifdb::IfdbError::CommitLabelViolation { .. })
    ));
    // The read ran *after* the contamination, so it sees the secret row —
    // and its response label told the client mirror about the raise.
    match &results[1] {
        Ok(StatementResult::Rows(rows)) => {
            assert_eq!(rows.len(), 1);
            assert_eq!(rows.first().unwrap().get_text("owner"), Some("alice"));
        }
        other => panic!("{other:?}"),
    }
    assert!(c.current_label().contains(alice_tag));
    assert!(c.check_release_to_world().is_err());
    c.declassify(alice_tag).unwrap();
    c.check_release_to_world().unwrap();
    c.close().unwrap();
    server.shutdown();
}

#[test]
fn slow_reader_is_paused_not_buffered_without_bound() {
    let (db, auth) = notes_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            backend: Backend::Reactor,
            outbound_buffer_limit: 256 * 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    // ~600 KB per SELECT * response: a couple of responses exceed the
    // outbound bound even after the kernel's socket buffers soak some up.
    seed_rows(&addr, 2000, 256);

    let mut raw = RawClient::connect(&addr);
    let stmt = raw.prepare_select_star();
    let baseline = server.stats().requests;

    // Wave 1: a burst of large reads, never reading a byte back. The
    // serving thread answers them into the write buffer and writes until the
    // client-side TCP window fills, then must pause the connection.
    let wave = 30u32;
    for _ in 0..wave {
        raw.send(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 1 << 20,
        });
    }
    raw.flush();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().backpressure_pauses == 0 {
        assert!(
            Instant::now() < deadline,
            "reactor never paused the slow reader: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Wave 2 arrives while paused: the server must NOT read it — that is
    // the memory bound. Its request counter stays where wave 1 left it.
    let before = server.stats().requests;
    assert!(before <= baseline + wave as u64);
    for _ in 0..wave {
        raw.send(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 1 << 20,
        });
    }
    raw.flush();
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        server.stats().requests,
        before,
        "paused connection was still being read"
    );

    // The slow reader catches up: reading drains the buffers, the reactor
    // resumes, and every single response arrives, in request order.
    let mut got = Vec::new();
    for _ in 0..(2 * wave) {
        let (id, resp) = raw.recv();
        match resp {
            Response::Rows { rows, cursor, .. } => {
                assert_eq!(cursor, 0);
                assert_eq!(rows.len(), 2000);
            }
            other => panic!("{other:?}"),
        }
        got.push(id);
    }
    let first = got[0];
    for (i, id) in got.iter().enumerate() {
        assert_eq!(*id, first + i as u32, "responses out of order: {got:?}");
    }
    let (_, resp) = raw.call(&Request::Goodbye);
    assert!(matches!(resp, Response::Bye));
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_pipelined_requests() {
    let (db, auth) = notes_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            backend: Backend::Reactor,
            drain_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    seed_rows(&addr, 3000, 64);

    let mut raw = RawClient::connect(&addr);
    let stmt = raw.prepare_select_star();
    let n = 50u32;
    for _ in 0..n {
        raw.send(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 1 << 20,
        });
    }
    raw.flush();

    // Read the responses from another thread (a drain would deadlock
    // otherwise: the server cannot finish flushing to a non-reading peer).
    let reader = std::thread::spawn(move || {
        let mut rows_responses = 0u32;
        for _ in 0..n {
            let (_, resp) = raw.recv();
            match resp {
                Response::Rows { .. } => rows_responses += 1,
                other => panic!("{other:?}"),
            }
        }
        rows_responses
    });
    // Shut down while most of the pipeline is still queued server-side: all
    // of it must drain — executed and answered, not dropped.
    let stats = server.shutdown();
    assert_eq!(reader.join().unwrap(), n);
    assert!(
        stats.requests_drained_on_shutdown > 0,
        "expected queued pipelined requests to drain during shutdown: {stats:?}"
    );
    assert_eq!(stats.requests_aborted_on_shutdown, 0, "{stats:?}");
}

#[test]
fn shutdown_past_deadline_aborts_queued_requests() {
    let (db, auth) = notes_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            backend: Backend::Reactor,
            drain_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    seed_rows(&addr, 3000, 64);

    let mut raw = RawClient::connect(&addr);
    let stmt = raw.prepare_select_star();
    for _ in 0..50 {
        raw.send(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 1 << 20,
        });
    }
    raw.flush();
    // Zero drain window: whatever had not executed yet is counted as
    // aborted, and the connection is torn down immediately.
    let stats = server.shutdown();
    assert!(
        stats.requests_aborted_on_shutdown > 0,
        "expected queued requests to be aborted at the drain deadline: {stats:?}"
    );
}

#[test]
fn timeout_cancellation_is_sticky_until_a_sync_point_on_both_backends() {
    for backend in [Backend::Reactor, Backend::ThreadPool] {
        let (db, auth) = notes_db();
        let server = start(
            db,
            auth,
            ServerConfig {
                backend,
                statement_timeout: Duration::ZERO, // every statement "times out"
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let mut raw = RawClient::connect(&addr);
        let stmt = raw.prepare_select_star();

        let (_, resp) = raw.call(&Request::Begin);
        assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
        let (_, resp) = raw.call(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 0,
        });
        match resp {
            Response::Error { detail, .. } => assert!(detail.contains("timeout"), "{detail}"),
            other => panic!("{other:?}"),
        }

        // These frames arrive *after* the timeout was already processed —
        // the shape a one-shot queue drain misses (for a pipelining client
        // they could equally have been sitting unparsed in socket buffers).
        // Cancellation must be sticky: both are refused, not auto-committed
        // against the aborted transaction.
        raw.send(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 0,
        });
        raw.send(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 0,
        });
        raw.flush();
        for _ in 0..2 {
            let (_, resp) = raw.recv();
            match resp {
                Response::Error { detail, .. } => {
                    assert!(detail.contains("cancelled"), "{detail}")
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            server.stats().pipelined_cancelled,
            2,
            "{:?}",
            server.stats()
        );

        // Abort is a client-visible sync point: it clears the cancel state
        // (the server already aborted, so it reports "no transaction" —
        // fine) and the connection is usable again.
        let _ = raw.call(&Request::Abort);
        let (_, resp) = raw.call(&Request::Execute {
            stmt,
            params: Vec::new(),
            fetch: 0,
        });
        assert!(matches!(resp, Response::Rows { .. }), "{resp:?}");
        let (_, resp) = raw.call(&Request::Goodbye);
        assert!(matches!(resp, Response::Bye));
        server.shutdown();
    }
}

#[test]
fn executor_panic_closes_the_connection_instead_of_hanging_it() {
    use ifdb::{TriggerDef, TriggerEvent, TriggerTiming};

    for backend in [Backend::Reactor, Backend::ThreadPool] {
        let (db, auth) = notes_db();
        db.create_trigger(TriggerDef {
            name: "boom".into(),
            table: "notes".into(),
            events: vec![TriggerEvent::Insert],
            timing: TriggerTiming::Immediate,
            authority: None,
            body: Arc::new(|_, _| panic!("trigger panic for test")),
        })
        .unwrap();
        let server = start(
            db,
            auth,
            ServerConfig {
                backend,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let mut raw = RawClient::connect(&addr);
        let (template, params) =
            ifdb_client::protocol::encode_template(&Statement::Insert(Insert::new(
                "notes",
                vec![Datum::Int(1), Datum::from("anon"), Datum::from("b")],
            )));
        let stmt = match raw.call(&Request::Prepare { template }) {
            (_, Response::Prepared { id }) => id,
            (_, other) => panic!("prepare: {other:?}"),
        };
        // The panicking statement is the FIRST (and only) request the
        // connection runs: no response bytes are produced, so the server
        // must still notice the failed connection and close it — the
        // client observes EOF (or a reset), never a 30s hang.
        raw.send(&Request::Execute {
            stmt,
            params,
            fetch: 0,
        });
        raw.flush();
        let started = Instant::now();
        match read_frame_id(&mut raw.reader) {
            Ok(None) | Err(_) => {}
            Ok(Some((_, payload))) => panic!("{:?}", Response::decode(&payload)),
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "connection was left hanging after an executor panic"
        );
        server.shutdown();
    }
}

#[test]
fn statement_timeout_cancels_queued_pipelined_statements() {
    let (db, auth) = notes_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            backend: Backend::Reactor,
            statement_timeout: Duration::ZERO, // every statement "times out"
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    c.begin().unwrap();
    // Three reads in one flush. The first times out and aborts the
    // transaction; the two already queued behind it must be cancelled, not
    // executed against the aborted transaction.
    let results = c
        .pipeline(&[
            Statement::Select(Select::star("notes")),
            Statement::Select(Select::star("notes")),
            Statement::Select(Select::star("notes")),
        ])
        .unwrap();
    assert_eq!(results.len(), 3);
    let first = results[0].as_ref().unwrap_err();
    assert!(first.to_string().contains("timeout"), "{first:?}");
    for r in &results[1..] {
        let err = r.as_ref().unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err:?}");
    }
    let stats = server.stats();
    assert_eq!(stats.statement_timeouts, 1, "{stats:?}");
    assert_eq!(stats.pipelined_cancelled, 2, "{stats:?}");
    // The connection survives cancellation and is usable afterwards.
    let _ = c.abort();
    c.close().unwrap();
    server.shutdown();
}

/// Deficit round robin on one serving thread: a connection that pipelines
/// 2 000 inserts runs at most its quantum of them per turn, then queues
/// behind its neighbour. The first insert holds the thread until the
/// neighbour's `COUNT(*)` is queued too, so the count shows exactly how far
/// the heavy connection got ahead: a quantum, not the whole pipeline.
#[test]
fn drr_quantum_bounds_how_far_a_pipelining_neighbour_runs_ahead() {
    use ifdb::{TriggerDef, TriggerEvent, TriggerTiming};
    const PIPELINE: i64 = 2_000;
    // Weight 2 × the server's per-turn quantum of 4.
    const QUANTUM: i64 = 8;

    let (db, auth) = notes_db();
    let released = Arc::new(AtomicBool::new(false));
    let held = released.clone();
    db.create_trigger(TriggerDef {
        name: "hold_until_the_neighbour_is_queued".into(),
        table: "notes".into(),
        events: vec![TriggerEvent::Insert],
        timing: TriggerTiming::Immediate,
        authority: None,
        body: Arc::new(move |_, _| {
            while !held.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        }),
    })
    .unwrap();
    // Weight 1, the default, means no policy and no quantum at all.
    let weighted = QosConfig {
        default_quota: PrincipalQuota::unlimited().with_weight(2),
        ..QosConfig::default()
    };
    let config = ServerConfig::builder()
        .workers(1)
        .qos(weighted)
        .build()
        .unwrap();
    let server = start(db, auth, config).unwrap();
    let addr = server.addr().to_string();
    let mut heavy = RawClient::connect(&addr);
    let mut neighbour = RawClient::connect(&addr);
    let insert = heavy.prepare(&insert_note(0));
    let count = neighbour.prepare(&Statement::Aggregate(Aggregate {
        from: "notes".into(),
        predicate: Predicate::True,
        group_by: None,
        aggregates: vec![(AggFunc::Count, "id".into())],
    }));

    let inserts: Vec<Request> = (0..PIPELINE)
        .map(|id| Request::Execute {
            stmt: insert,
            params: ifdb_client::protocol::encode_template(&insert_note(id)).1,
            fetch: 0,
        })
        .collect();
    heavy.send_all(&inserts);
    neighbour.send(&Request::Execute {
        stmt: count,
        params: Vec::new(),
        fetch: 0,
    });
    neighbour.flush();
    std::thread::sleep(Duration::from_millis(100));
    released.store(true, Ordering::Release);

    let ran_ahead = match neighbour.recv().1 {
        Response::Rows { rows, .. } => match rows[0].values[0] {
            Datum::Int(n) => n,
            ref other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    };
    assert!(
        (1..=2 * QUANTUM).contains(&ran_ahead),
        "the heavy connection ran {ran_ahead} of its {PIPELINE} inserts before its \
         neighbour's one read"
    );
    assert!(server.metrics().get("qos", "sched_yields").unwrap() > 0);
    // The heavy connection's unrun inserts die with it.
    drop(heavy);
    server.shutdown();
}

/// A statement blocked in a semi-synchronous replication wait holds only its
/// own serving thread: with two threads and no replica, a writer waiting out
/// its window does not stall point reads on another connection.
#[test]
fn a_statement_blocked_in_semi_sync_holds_only_its_own_thread() {
    let (db, auth) = notes_db();
    // Seeded in-process: only acknowledgements over the wire are gated.
    db.anonymous_session()
        .insert(&Insert::new(
            "notes",
            vec![Datum::Int(1), Datum::from("anon"), Datum::from("b")],
        ))
        .unwrap();
    let window = Duration::from_secs(2);
    let config = ServerConfig::builder()
        .workers(2)
        .replication_secret("unused")
        .sync_replication(window)
        .build()
        .unwrap();
    let server = start(db, auth, config).unwrap();
    let addr = server.addr().to_string();
    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
            let started = Instant::now();
            let err = c.run(&insert_note(2)).unwrap_err();
            (started.elapsed(), err)
        })
    };
    // Wait until the write has executed and is waiting for a replica.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().statements == 0 {
        assert!(Instant::now() < deadline, "the write never ran");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut reader = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    let by_id = Select::star("notes").filter(Predicate::Eq("id".into(), Datum::Int(1)));
    let started = Instant::now();
    for _ in 0..50 {
        assert_eq!(reader.select(&by_id).unwrap().len(), 1);
    }
    let reads_took = started.elapsed();
    assert!(
        !writer.is_finished(),
        "the reads outlasted the writer's wait"
    );
    let (waited, err) = writer.join().unwrap();
    assert!(
        ifdb_client::is_indeterminate_commit_error(&err),
        "no replica confirmed it: {err}"
    );
    assert!(waited >= window - Duration::from_millis(50), "{waited:?}");
    assert!(
        reads_took < window / 2,
        "50 point reads took {reads_took:?} beside one blocked writer"
    );
    reader.close().unwrap();
    server.shutdown();
}

/// Per-connection order under concurrency: 16 connections each pipeline
/// batches that mix label raises, label resets and reads, on a server with
/// fewer serving threads than connections. Every reply must carry the label
/// a sequential model of *that* connection predicts, and every read must see
/// exactly the rows that label admits — a reply run out of order, or on
/// another connection's session, would show up as a wrong label or count.
#[test]
fn pipelined_label_changes_stay_in_order_across_sixteen_connections() {
    const CONNECTIONS: u64 = 16;
    const BATCHES: usize = 20;
    const TAGS: usize = 6;

    let (db, auth) = notes_db();
    let owner = db.create_principal("owner", PrincipalKind::User);
    let tags: Vec<u64> = (0..TAGS)
        .map(|i| db.create_tag(owner, &format!("t{i}"), &[]).unwrap().0)
        .collect();
    // One public row, and one row under each single-tag label.
    db.anonymous_session()
        .insert(&Insert::new(
            "notes",
            vec![Datum::Int(0), Datum::from("anon"), Datum::from("public")],
        ))
        .unwrap();
    for (i, tag) in tags.iter().enumerate() {
        let mut s = db.session(owner);
        s.add_secrecy(TagId(*tag)).unwrap();
        s.insert(&Insert::new(
            "notes",
            vec![
                Datum::Int(1 + i as i64),
                Datum::from("owner"),
                Datum::from("secret"),
            ],
        ))
        .unwrap();
    }
    let config = ServerConfig::builder().workers(4).build().unwrap();
    let server = start(db, auth, config).unwrap();
    let addr = server.addr().to_string();

    let start_line = Arc::new(std::sync::Barrier::new(CONNECTIONS as usize));
    let (done, finished) = mpsc::channel();
    let mut clients = Vec::new();
    for conn in 0..CONNECTIONS {
        let (addr, tags, start_line, done) =
            (addr.clone(), tags.clone(), start_line.clone(), done.clone());
        clients.push(std::thread::spawn(move || {
            let mut raw = RawClient::connect(&addr);
            let select = raw.prepare_select_star();
            // A small LCG: each connection replays its own fixed script.
            let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ conn;
            let mut next = move |n: u64| {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (seed >> 33) % n
            };
            let mut model = std::collections::BTreeSet::new();
            start_line.wait();
            for _ in 0..BATCHES {
                let mut expected = Vec::new();
                for _ in 0..1 + next(12) {
                    let id = match next(5) {
                        0 | 1 => {
                            let tag = tags[next(TAGS as u64) as usize];
                            model.insert(tag);
                            raw.send(&Request::RaiseLabel { tags: vec![tag] })
                        }
                        2 => {
                            model.clear();
                            raw.send(&Request::Login {
                                user: String::new(),
                                password: None,
                            })
                        }
                        _ => raw.send(&Request::Execute {
                            stmt: select,
                            params: Vec::new(),
                            fetch: 0,
                        }),
                    };
                    expected.push((id, model.iter().copied().collect::<Vec<u64>>()));
                }
                raw.flush();
                for (id, label) in expected {
                    let (got, resp) = raw.recv();
                    assert_eq!(got, id, "connection {conn}: replies out of order");
                    match resp {
                        Response::LabelIs { tags } => assert_eq!(tags, label, "conn {conn}"),
                        Response::HelloOk { label: now, .. } => {
                            assert_eq!(now, label, "conn {conn}")
                        }
                        Response::Rows {
                            rows, label: now, ..
                        } => {
                            assert_eq!(now, label, "conn {conn}");
                            assert_eq!(rows.len(), 1 + label.len(), "conn {conn}");
                        }
                        other => panic!("connection {conn}: {other:?}"),
                    }
                }
            }
            let (_, resp) = raw.call(&Request::Goodbye);
            assert!(matches!(resp, Response::Bye));
            done.send(conn).unwrap();
        }));
    }
    drop(done);
    // Watchdog: a lost or misrouted reply shows up as a timeout (or a
    // panicked connection thread), not a hung suite.
    for _ in 0..CONNECTIONS {
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a connection hung, or its replies disagreed with its model");
    }
    for client in clients {
        client.join().expect("connection thread panicked");
    }
    server.shutdown();
}
