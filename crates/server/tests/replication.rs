//! End-to-end replication tests: label-faithful replica reads (differential
//! vs the primary), catch-up across a primary checkpoint, torn frames
//! mid-stream (reconnect + resume from the watermark), read-your-writes
//! routing, read-only enforcement on the replica, and the parked poll
//! (idle cost, semi-sync under a full thread budget, fencing, shutdown).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ifdb::prelude::*;
use ifdb_client::protocol::{code, read_frame_id, write_frame_id, Request, Response};
use ifdb_client::{ClientConfig, Connection, RoutedConnection, RouterConfig};
use ifdb_platform::Authenticator;
use ifdb_server::{
    start, ReplicaConfig, ReplicaHandle, ServerConfig, ServerHandle, REPL_POLL_PARK,
};

const SEED: u64 = 0xB0B5;
const REPL_SECRET: &str = "repl-secret";

/// The code-not-data DIFC state, re-created identically on primary and
/// replica: with the same authority seed and the same creation order, the
/// principal and tag ids come out identical.
#[derive(Clone, Copy)]
struct Difc {
    alice: PrincipalId,
    bob: PrincipalId,
    alice_tag: TagId,
    bob_tag: TagId,
}

struct Fixture {
    db: Database,
    auth: Arc<Authenticator>,
    difc: Difc,
}

/// Builds the primary database: two users with private tags, a labeled
/// `messages` table, and a declassifying view over Alice's rows.
fn build_primary() -> Fixture {
    let db = Database::new(DatabaseConfig::in_memory().with_seed(SEED));
    let difc = setup_principals_and_views(&db);
    db.create_table(messages_def()).unwrap();

    let auth = Arc::new(Authenticator::new());
    register_users(&difc, &auth);

    // Three writers with three labels.
    let mut anon = db.anonymous_session();
    anon.insert(&Insert::new(
        "messages",
        vec![
            Datum::Int(1),
            Datum::from("anon"),
            Datum::from("hello world"),
        ],
    ))
    .unwrap();
    let mut s = db.session(difc.alice);
    s.add_secrecy(difc.alice_tag).unwrap();
    for i in 0..5 {
        s.insert(&Insert::new(
            "messages",
            vec![
                Datum::Int(10 + i),
                Datum::from("alice"),
                Datum::Text(format!("alice secret {i}")),
            ],
        ))
        .unwrap();
    }
    let mut s = db.session(difc.bob);
    s.add_secrecy(difc.bob_tag).unwrap();
    for i in 0..3 {
        s.insert(&Insert::new(
            "messages",
            vec![
                Datum::Int(20 + i),
                Datum::from("bob"),
                Datum::Text(format!("bob secret {i}")),
            ],
        ))
        .unwrap();
    }
    Fixture { db, auth, difc }
}

fn messages_def() -> TableDef {
    TableDef::new("messages")
        .column("id", DataType::Int)
        .column("author", DataType::Text)
        .column("body", DataType::Text)
        .primary_key(&["id"])
}

/// Creates the DIFC state on a database. Run with the same seed and in the
/// same order on primary and replica, the returned ids are identical —
/// exactly the recovery contract documented on [`Database::open`] and
/// [`Database::replica_over`].
fn setup_principals_and_views(db: &Database) -> Difc {
    let alice = db.create_principal("alice", PrincipalKind::User);
    let bob = db.create_principal("bob", PrincipalKind::User);
    let alice_tag = db.create_tag(alice, "alice_private", &[]).unwrap();
    let bob_tag = db.create_tag(bob, "bob_private", &[]).unwrap();
    db.create_declassifying_view(
        alice,
        "alice_digest",
        ViewSource::Select(Select::star("messages")),
        Label::singleton(alice_tag),
    )
    .unwrap();
    Difc {
        alice,
        bob,
        alice_tag,
        bob_tag,
    }
}

fn register_users(difc: &Difc, auth: &Authenticator) {
    auth.register("alice", "pw-a", difc.alice);
    auth.register("bob", "pw-b", difc.bob);
}

fn start_primary(fx: &Fixture, workers: usize) -> ServerHandle {
    start(
        fx.db.clone(),
        fx.auth.clone(),
        ServerConfig {
            workers,
            replication_secret: Some(REPL_SECRET.into()),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn start_replica_of(addr: &str) -> ReplicaHandle {
    let auth = Arc::new(Authenticator::new());
    ifdb_server::start_replica(
        ReplicaConfig::new(addr, REPL_SECRET, SEED),
        auth.clone(),
        move |db| {
            let difc = setup_principals_and_views(db);
            register_users(&difc, &auth);
            Ok(())
        },
    )
    .unwrap()
}

fn sorted_rows(rows: ResultSet) -> Vec<String> {
    let mut out: Vec<String> = rows
        .rows
        .iter()
        .map(|r| format!("{:?}|{:?}", r.label.to_array(), r.values))
        .collect();
    out.sort();
    out
}

fn connect(addr: &str, user: &str, pw: &str, label: &[TagId]) -> Connection {
    Connection::connect(
        &ClientConfig::anonymous(addr)
            .with_user(user, pw)
            .with_label(label),
    )
    .unwrap()
}

/// The differential: for every principal/label combination, a label-filtered
/// SELECT (and the declassifying view) must return identical results from
/// the primary and the replica.
#[test]
fn replica_label_filtered_reads_match_primary() {
    let fx = build_primary();
    let primary = start_primary(&fx, 8);
    let replica = start_replica_of(&primary.addr().to_string());
    assert!(replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(5)));

    let paddr = primary.addr().to_string();
    let raddr = replica.addr().to_string();
    let cases: Vec<(&str, &str, Vec<TagId>)> = vec![
        ("", "", vec![]),
        ("alice", "pw-a", vec![fx.difc.alice_tag]),
        ("bob", "pw-b", vec![fx.difc.bob_tag]),
    ];
    for (user, pw, label) in cases {
        let mut on_primary = connect(&paddr, user, pw, &label);
        let mut on_replica = connect(&raddr, user, pw, &label);
        for stmt in [
            Statement::Select(Select::star("messages")),
            Statement::Select(Select::star("alice_digest")),
        ] {
            let p = on_primary.run(&stmt).unwrap().into_rows();
            let r = on_replica.run(&stmt).unwrap().into_rows();
            assert_eq!(
                sorted_rows(p),
                sorted_rows(r),
                "replica ≡ primary for user {user:?} on {stmt:?}"
            );
        }
        // The replica's session label mirrors the primary's.
        assert_eq!(on_primary.current_label(), on_replica.current_label());
        on_primary.close().unwrap();
        on_replica.close().unwrap();
    }

    // Uncontaminated readers see only the public row; Alice sees hers.
    let mut anon = connect(&raddr, "", "", &[]);
    assert_eq!(
        anon.run(&Statement::Select(Select::star("messages")))
            .unwrap()
            .into_rows()
            .len(),
        1
    );
    let mut alice = connect(&raddr, "alice", "pw-a", &[fx.difc.alice_tag]);
    assert_eq!(
        alice
            .run(&Statement::Select(Select::star("messages")))
            .unwrap()
            .into_rows()
            .len(),
        6
    );
    anon.close().unwrap();
    alice.close().unwrap();

    replica.shutdown();
    primary.shutdown();
}

#[test]
fn replica_refuses_writes_and_authority_mutations() {
    let fx = build_primary();
    let primary = start_primary(&fx, 4);
    let replica = start_replica_of(&primary.addr().to_string());
    let raddr = replica.addr().to_string();

    let mut conn = connect(&raddr, "alice", "pw-a", &[]);
    let err = conn
        .run(&Statement::Insert(Insert::new(
            "messages",
            vec![Datum::Int(99), Datum::from("x"), Datum::from("y")],
        )))
        .unwrap_err();
    assert!(
        matches!(err, IfdbError::ReadOnlyReplica),
        "wire round-trips READ_ONLY: {err}"
    );
    let err = conn
        .delegate(PrincipalId(1), fx.difc.alice_tag)
        .unwrap_err();
    assert!(matches!(err, IfdbError::ReadOnlyReplica), "{err}");
    // Reads on the same connection still work after refused writes.
    assert!(conn
        .run(&Statement::Select(Select::star("messages")))
        .is_ok());
    conn.close().unwrap();

    replica.shutdown();
    primary.shutdown();
}

#[test]
fn replication_poll_requires_secret() {
    let fx = build_primary();
    let primary = start_primary(&fx, 2);
    // A poll with the wrong secret is refused; the server stays healthy.
    let err = ifdb_server::start_replica(
        ReplicaConfig::new(&primary.addr().to_string(), "wrong-secret", SEED),
        Arc::new(Authenticator::new()),
        |_| Ok(()),
    )
    .expect_err("wrong secret must fail");
    assert!(err.to_string().contains("replication"), "{err}");
    primary.shutdown();
}

/// A byte-corrupting TCP proxy: forwards transparently, but when armed it
/// flips one byte mid-stream on the primary→replica direction and then
/// drops the connection — a torn frame. Subsequent connections forward
/// cleanly, so the replica's reconnect resumes from its watermark.
struct CorruptingProxy {
    addr: String,
    target: Arc<Mutex<String>>,
    corrupt_next: Arc<AtomicBool>,
    live: Arc<Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CorruptingProxy {
    fn start(target_addr: &str) -> CorruptingProxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let target = Arc::new(Mutex::new(target_addr.to_string()));
        let corrupt_next = Arc::new(AtomicBool::new(false));
        let live = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let t_target = target.clone();
        let t_corrupt = corrupt_next.clone();
        let t_live = live.clone();
        let t_stop = stop.clone();
        let thread = std::thread::spawn(move || {
            while !t_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((client, _)) => {
                        let upstream_addr = t_target.lock().unwrap().clone();
                        let Ok(upstream) = TcpStream::connect(&upstream_addr) else {
                            continue;
                        };
                        {
                            let mut live = t_live.lock().unwrap();
                            live.clear();
                            live.push(client.try_clone().unwrap());
                            live.push(upstream.try_clone().unwrap());
                        }
                        pump_pair(client, upstream, t_corrupt.clone());
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });
        CorruptingProxy {
            addr,
            target,
            corrupt_next,
            live,
            stop,
            thread: Some(thread),
        }
    }

    fn arm_corruption(&self) {
        self.corrupt_next.store(true, Ordering::SeqCst);
    }

    /// Points new connections at `addr` and severs the live one, so the
    /// replica genuinely loses the stream until it reconnects.
    fn retarget(&self, addr: &str) {
        *self.target.lock().unwrap() = addr.to_string();
        for s in self.live.lock().unwrap().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for s in self.live.lock().unwrap().drain(..) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Forwards both directions until either side closes. When `corrupt` flips
/// to `true`, the primary→replica direction flips a byte in the next chunk
/// it forwards and closes — a torn frame mid-stream.
fn pump_pair(client: TcpStream, upstream: TcpStream, corrupt: Arc<AtomicBool>) {
    client.set_nodelay(true).ok();
    upstream.set_nodelay(true).ok();
    let c2u = (client.try_clone().unwrap(), upstream.try_clone().unwrap());
    let up = std::thread::spawn(move || pump(c2u.0, c2u.1, None));
    pump(upstream, client, Some(corrupt));
    let _ = up.join();
}

fn pump(mut from: TcpStream, mut to: TcpStream, corrupt: Option<Arc<AtomicBool>>) {
    from.set_read_timeout(Some(Duration::from_millis(200))).ok();
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if let Some(flag) = &corrupt {
                    if flag.swap(false, Ordering::SeqCst) {
                        // Flip one byte mid-frame, deliver, then tear the
                        // connection down.
                        buf[n / 2] ^= 0xFF;
                        let _ = to.write_all(&buf[..n]);
                        break;
                    }
                }
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            Err(ref e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Keep pumping; the stop condition is a closed peer.
                if to.peer_addr().is_err() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Both);
    let _ = from.shutdown(std::net::Shutdown::Both);
}

#[test]
fn torn_frame_mid_stream_reconnects_and_resumes_from_watermark() {
    let fx = build_primary();
    let primary = start_primary(&fx, 8);
    let proxy = CorruptingProxy::start(&primary.addr().to_string());
    let replica = start_replica_of(&proxy.addr);
    assert!(replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(5)));
    let connects_before = replica.stats().connects;

    // Arm the proxy, then keep writing: some batch hits the corrupted
    // frame, the replica rejects it (checksum), reconnects, and resumes.
    proxy.arm_corruption();
    let alice = fx.difc.alice;
    let mut s = fx.db.session(alice);
    s.add_secrecy(fx.difc.alice_tag).unwrap();
    for i in 0..50 {
        s.insert(&Insert::new(
            "messages",
            vec![
                Datum::Int(1000 + i),
                Datum::from("alice"),
                Datum::Text(format!("post-corruption {i}")),
            ],
        ))
        .unwrap();
    }
    drop(s);
    assert!(
        replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(10)),
        "replica must recover from the torn frame and catch up"
    );
    assert!(
        replica.stats().connects > connects_before,
        "the corrupted connection was dropped and re-established"
    );
    // Exactly-once apply: no duplicates, no gaps.
    let mut alice_conn = connect(
        &replica.addr().to_string(),
        "alice",
        "pw-a",
        &[fx.difc.alice_tag],
    );
    let rows = alice_conn
        .run(&Statement::Select(Select::star("messages")))
        .unwrap()
        .into_rows();
    assert_eq!(
        rows.len(),
        1 + 5 + 50,
        "all alice-visible rows exactly once"
    );
    alice_conn.close().unwrap();

    replica.shutdown();
    proxy.stop();
    primary.shutdown();
}

#[test]
fn replica_catches_up_across_primary_checkpoint() {
    let fx = build_primary();
    let primary = start_primary(&fx, 8);
    let proxy = CorruptingProxy::start(&primary.addr().to_string());
    let replica = start_replica_of(&proxy.addr);
    assert!(replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(5)));
    assert_eq!(replica.stats().resets, 0);

    // Cut the replica off (retarget the proxy into the void), then write
    // and checkpoint on the primary: the records the replica misses are
    // compacted away.
    proxy.retarget("127.0.0.1:1");
    let bob = fx.difc.bob;
    let mut s = fx.db.session(bob);
    s.add_secrecy(fx.difc.bob_tag).unwrap();
    for i in 0..10 {
        s.insert(&Insert::new(
            "messages",
            vec![
                Datum::Int(2000 + i),
                Datum::from("bob"),
                Datum::Text(format!("while replica away {i}")),
            ],
        ))
        .unwrap();
    }
    drop(s);
    fx.db.checkpoint().unwrap();

    // Reconnect: the replica's watermark predates the compacted history,
    // so the stream demands a reset and re-bootstraps from the checkpoint
    // image.
    proxy.retarget(&primary.addr().to_string());
    assert!(
        replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(10)),
        "replica re-bootstraps and catches up"
    );
    assert!(replica.stats().resets >= 1, "the stream was reset");
    let mut bob_conn = connect(
        &replica.addr().to_string(),
        "bob",
        "pw-b",
        &[fx.difc.bob_tag],
    );
    let rows = bob_conn
        .run(&Statement::Select(Select::star("messages")))
        .unwrap()
        .into_rows();
    assert_eq!(
        rows.len(),
        1 + 3 + 10,
        "bob-visible rows after re-bootstrap"
    );
    bob_conn.close().unwrap();

    // The stream keeps working after the reset.
    let mut s = fx.db.session(bob);
    s.add_secrecy(fx.difc.bob_tag).unwrap();
    s.insert(&Insert::new(
        "messages",
        vec![
            Datum::Int(3000),
            Datum::from("bob"),
            Datum::from("after reset"),
        ],
    ))
    .unwrap();
    drop(s);
    assert!(replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(5)));

    replica.shutdown();
    proxy.stop();
    primary.shutdown();
}

#[test]
fn routed_connection_read_your_writes() {
    let fx = build_primary();
    let primary = start_primary(&fx, 8);
    let replica = start_replica_of(&primary.addr().to_string());

    let primary_cfg = ClientConfig::anonymous(&primary.addr().to_string())
        .with_user("alice", "pw-a")
        .with_label(&[fx.difc.alice_tag]);
    let replica_cfg = ClientConfig::anonymous(&replica.addr().to_string())
        .with_user("alice", "pw-a")
        .with_label(&[fx.difc.alice_tag]);
    let mut routed =
        RoutedConnection::connect(&RouterConfig::new(primary_cfg, vec![replica_cfg])).unwrap();

    // Write on the primary, read immediately: read-your-writes must make
    // the write visible even though the read is served by the replica.
    for i in 0..20 {
        let id = 5000 + i;
        routed
            .insert(&Insert::new(
                "messages",
                vec![
                    Datum::Int(id),
                    Datum::from("alice"),
                    Datum::Text(format!("ryw {i}")),
                ],
            ))
            .unwrap();
        let rows = routed
            .select(&Select::star("messages").filter(Predicate::Eq("id".into(), Datum::Int(id))))
            .unwrap();
        assert_eq!(rows.len(), 1, "read-your-writes: write {i} visible");
    }
    let stats = routed.stats();
    assert!(
        stats.reads_on_replica > 0,
        "reads actually routed to the replica: {stats:?}"
    );
    // Writes went to the primary: the replica's database holds them only
    // via replication.
    assert!(replica.database().engine().stats().replica_records_applied > 0);
    routed.close().unwrap();

    replica.shutdown();
    primary.shutdown();
}

/// Lazy `Begin` end to end: a transaction that wrote nothing never existed
/// for the log, the mirror or a replica. Reads on the primary ship nothing;
/// reads on the replica (local ids in the reserved high range) leave the
/// replica's own log and transaction table untouched; and a *writer* still
/// streams its `Begin`, so promotion's orphan abort finds it.
#[test]
fn reads_ship_nothing_and_promotion_still_finds_streamed_writers() {
    let fx = build_primary();
    let primary = start_primary(&fx, 4);
    let replica = start_replica_of(&primary.addr().to_string());
    let paddr = primary.addr().to_string();
    let raddr = replica.addr().to_string();
    let primary_log = fx.db.engine().wal();
    let target = primary_log.last_seq();
    assert!(replica.wait_for_seq(target, Duration::from_secs(5)));
    let applied_before = replica.stats().records_applied;

    // Reads on the primary: auto-committed over the wire, and inside an
    // explicit transaction that commits and one that aborts.
    let select = Statement::Select(Select::star("messages"));
    let mut alice = connect(&paddr, "alice", "pw-a", &[fx.difc.alice_tag]);
    for _ in 0..40 {
        assert_eq!(alice.run(&select).unwrap().into_rows().len(), 6);
    }
    alice.close().unwrap();
    let mut s = fx.db.session(fx.difc.alice);
    s.add_secrecy(fx.difc.alice_tag).unwrap();
    let audit_seq = primary_log.last_seq();
    for commit in [true, false] {
        s.begin().unwrap();
        assert_eq!(s.select(&Select::star("messages")).unwrap().len(), 6);
        if commit {
            s.commit().unwrap();
        } else {
            s.abort().unwrap();
        }
    }
    drop(s);
    assert_eq!(
        primary_log.last_seq(),
        audit_seq,
        "a read appends nothing to the primary's log"
    );

    // Reads on the replica.
    let replica_engine = replica.database().engine();
    let replica_log = replica_engine.wal();
    let log_before = (replica_log.last_seq(), replica_log.bytes_written());
    let stats_before = replica_engine.stats();
    let mut bob = connect(&raddr, "bob", "pw-b", &[fx.difc.bob_tag]);
    for _ in 0..40 {
        assert_eq!(bob.run(&select).unwrap().into_rows().len(), 4);
    }
    bob.close().unwrap();
    let stats_after = replica_engine.stats();
    assert_eq!(
        (replica_log.last_seq(), replica_log.bytes_written()),
        log_before,
        "replica-local reads leave the replica's own log byte-identical"
    );
    assert_eq!(stats_after.txns_started - stats_before.txns_started, 40);
    assert!(
        stats_after.txns_started < 1_000_000,
        "begins are counted, not read off the reserved id range"
    );
    assert_eq!(
        stats_after.txn_table_entries,
        stats_before.txn_table_entries
    );
    assert_eq!(stats_after.txns_active, 0);

    // One writer in flight on the primary: its Begin and Insert stream over
    // (and nothing else has since the reads began, bar the label raise's
    // audit link).
    let mut writer = fx.db.anonymous_session();
    writer.begin().unwrap();
    assert_eq!(writer.select(&Select::star("messages")).unwrap().len(), 1);
    writer
        .insert(&Insert::new(
            "messages",
            vec![
                Datum::Int(99),
                Datum::from("anon"),
                Datum::from("in flight"),
            ],
        ))
        .unwrap();
    let shipped = primary_log.last_seq();
    assert!(replica.wait_for_seq(shipped, Duration::from_secs(5)));
    assert_eq!(
        replica.stats().records_applied - applied_before,
        shipped - target,
        "only records of writers (and audit links) were applied"
    );
    assert_eq!(replica_engine.stats().txns_active, 1, "the streamed writer");

    // The primary dies mid-transaction; the successor aborts the orphan.
    std::mem::forget(writer);
    primary.shutdown();
    replica.promote().unwrap();
    assert_eq!(replica_engine.stats().txns_active, 0, "orphan aborted");
    // Constraints are code, not data: re-attach them before writing.
    replica.database().create_table(messages_def()).unwrap();
    let mut anon = replica.database().anonymous_session();
    assert_eq!(anon.select(&Select::star("messages")).unwrap().len(), 1);
    anon.insert(&Insert::new(
        "messages",
        vec![Datum::Int(100), Datum::from("anon"), Datum::from("new era")],
    ))
    .unwrap();
    assert_eq!(anon.select(&Select::star("messages")).unwrap().len(), 2);
    replica.shutdown();
}

/// Under semi-synchronous replication on a durable (group-commit) primary,
/// the gate waits for what the stream can ship. A commit that wrote nothing
/// must not wait for records the stream withholds: another session's
/// unfinished writes sit past the last fsync, the reader appends no `Commit`
/// of its own to flush them, and nobody else may be about to. A commit that
/// wrote still waits for its own sequence number: its acknowledgement means
/// a replica applied it, and without a replica it waits out the window.
#[test]
fn semi_sync_gate_covers_a_writers_own_commit_and_nothing_unsynced() {
    let dir = std::env::temp_dir().join(format!("ifdb-semisync-reader-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::new(
        DatabaseConfig::on_disk(dir.clone(), 64)
            .with_seed(SEED)
            .with_durability(DurabilityConfig::GROUP_COMMIT),
    );
    let difc = setup_principals_and_views(&db);
    db.create_table(messages_def()).unwrap();
    let auth = Arc::new(Authenticator::new());
    register_users(&difc, &auth);
    let window = Duration::from_secs(1);
    let primary = start(
        db.clone(),
        auth,
        ServerConfig {
            replication_secret: Some(REPL_SECRET.into()),
            sync_replication: Some(window),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let replica = start_replica_of(&primary.addr().to_string());
    let mut conn = connect(&primary.addr().to_string(), "", "", &[]);
    let row = |id: i64| {
        Statement::Insert(Insert::new(
            "messages",
            vec![Datum::Int(id), Datum::from("anon"), Datum::from("hi")],
        ))
    };
    conn.run(&row(1)).unwrap();

    // Another session leaves a write in the log, unsynced and uncommitted.
    let mut idle_writer = db.anonymous_session();
    idle_writer.begin().unwrap();
    idle_writer
        .insert(&Insert::new(
            "messages",
            vec![Datum::Int(2), Datum::from("anon"), Datum::from("pending")],
        ))
        .unwrap();

    let started = std::time::Instant::now();
    conn.begin().unwrap();
    assert_eq!(conn.select(&Select::star("messages")).unwrap().len(), 1);
    conn.commit()
        .expect("a read-only commit has nothing to replicate");
    // A writer's commit flushes everything before it, as it always did, and
    // is acknowledged only once a replica holds it.
    conn.run(&row(3)).unwrap();
    assert!(started.elapsed() < window, "nobody waited out the window");
    let commit_seq = db.engine().wal().last_seq();
    assert!(
        replica.applied_seq_handle().load(Ordering::Acquire) >= commit_seq,
        "acknowledged means applied on a replica, the writer's own Commit included"
    );

    // With the replica gone the writer waits for its own sequence number,
    // and is indeterminate after the window.
    replica.shutdown();
    let started = std::time::Instant::now();
    let err = conn.run(&row(4)).unwrap_err();
    assert!(
        ifdb_client::is_indeterminate_commit_error(&err),
        "durable locally, unconfirmed remotely: {err}"
    );
    assert!(started.elapsed() >= window - Duration::from_millis(50));

    idle_writer.abort().unwrap();
    conn.close().unwrap();
    primary.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A stored procedure whose statements auto-commit is acknowledged by its
/// `ProcResult`, so under semi-synchronous replication that reply waits for
/// a replica exactly as an auto-committed `Execute` or a `Commit` does: with
/// a replica running, the procedure's rows are on it by the time the call
/// returns; with none, the call waits out the window and is indeterminate.
#[test]
fn semi_sync_gate_covers_procedures_that_write() {
    let fx = build_primary();
    fx.db
        .create_procedure(ifdb::StoredProcedure {
            name: "post".into(),
            authority: None,
            body: Arc::new(|session, args| {
                session.insert(&Insert::new(
                    "messages",
                    vec![args[0].clone(), Datum::from("anon"), Datum::from("posted")],
                ))?;
                Ok(ResultSet::default())
            }),
        })
        .unwrap();
    let window = Duration::from_secs(1);
    let primary = start(
        fx.db.clone(),
        fx.auth.clone(),
        ServerConfig {
            replication_secret: Some(REPL_SECRET.into()),
            sync_replication: Some(window),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let replica = start_replica_of(&primary.addr().to_string());
    let mut conn = connect(&primary.addr().to_string(), "", "", &[]);
    let on_replica = |id: i64| {
        let by_id = Select::star("messages").filter(Predicate::Eq("id".into(), Datum::Int(id)));
        replica
            .database()
            .anonymous_session()
            .select(&by_id)
            .unwrap()
            .len()
    };

    for id in [40, 41, 42] {
        conn.call_procedure("post", &[Datum::Int(id)]).unwrap();
        assert_eq!(
            on_replica(id),
            1,
            "acknowledged before the replica applied it"
        );
    }

    replica.shutdown();
    let started = std::time::Instant::now();
    let err = conn.call_procedure("post", &[Datum::Int(43)]).unwrap_err();
    assert!(
        ifdb_client::is_indeterminate_commit_error(&err),
        "durable locally, unconfirmed remotely: {err}"
    );
    assert!(started.elapsed() >= window - Duration::from_millis(50));
    conn.close().unwrap();
    primary.shutdown();
}

/// The tamper-evident audit chain is part of the replicated state: every
/// chain-worthy event on the primary (label raises, declassifications) must
/// arrive on the replica in order, verify there, and — after a promotion —
/// keep extending under the new primary without a seam.
#[test]
fn audit_chain_replicates_and_survives_promotion() {
    let fx = build_primary();
    // Audited activity beyond the fixture's inserts: a raise and a
    // declassification, both chained links.
    let mut s = fx.db.session(fx.difc.alice);
    s.add_secrecy(fx.difc.alice_tag).unwrap();
    s.declassify(fx.difc.alice_tag).unwrap();
    fx.db.verify_audit_chain().unwrap();
    let primary_events = fx.db.replay_audit();
    assert!(
        !primary_events.is_empty(),
        "the fixture's labeled writes must have chained events"
    );

    let primary = start_primary(&fx, 4);
    let replica = start_replica_of(&primary.addr().to_string());
    let target = fx.db.engine().wal().last_seq();
    assert!(
        replica.wait_for_seq(target, Duration::from_secs(20)),
        "replica did not catch up"
    );

    // The replica holds the same chain, link for link, and it verifies.
    replica.database().verify_audit_chain().unwrap();
    assert_eq!(replica.database().replay_audit(), primary_events);

    // Fail over. The promoted node's chain must keep verifying and keep
    // growing across the promotion seam.
    primary.shutdown();
    replica.promote().unwrap();
    let mut s = replica.database().session(fx.difc.bob);
    s.add_secrecy(fx.difc.bob_tag).unwrap();
    s.declassify(fx.difc.bob_tag).unwrap();

    replica.database().verify_audit_chain().unwrap();
    let after = replica.database().replay_audit();
    assert!(
        after.len() >= primary_events.len() + 2,
        "post-promotion events must extend the chain ({} -> {})",
        primary_events.len(),
        after.len()
    );
    assert_eq!(
        &after[..primary_events.len()],
        &primary_events[..],
        "the pre-failover history is immutable"
    );
    replica.shutdown();
}

/// A caught-up replica's poll parks on the primary's log instead of coming
/// back every millisecond: idle, the primary serves about one poll per
/// park bound, and a write still reaches the replica.
#[test]
fn an_idle_replica_does_not_busy_poll() {
    let fx = build_primary();
    let primary = start_primary(&fx, 4);
    let replica = start_replica_of(&primary.addr().to_string());
    assert!(replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(5)));

    let idle = Duration::from_secs(1);
    let before = primary.stats().requests;
    std::thread::sleep(idle);
    let polls = primary.stats().requests - before;
    let bound = (idle.as_millis() / REPL_POLL_PARK.as_millis()) as u64 + 5;
    assert!(
        polls <= bound,
        "{polls} requests while idle for {idle:?}; at most {bound} allowed"
    );

    let mut s = fx.db.anonymous_session();
    s.insert(&Insert::new(
        "messages",
        vec![Datum::Int(700), Datum::from("anon"), Datum::from("wake")],
    ))
    .unwrap();
    assert!(replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(5)));
    replica.shutdown();
    primary.shutdown();
}

/// Every serving thread but one blocked in the semi-sync gate: four writers
/// on five threads of a durable group-commit primary. The poll that
/// confirms their commits must always find the fifth thread, so no commit
/// waits out the window, and each acknowledged row is on the replica by
/// the time its call returns.
#[test]
fn semi_sync_writers_on_all_but_one_thread_are_never_lagged() {
    const WRITERS: i64 = 4;
    const ROWS: i64 = 300;
    let dir = std::env::temp_dir().join(format!("ifdb-semisync-stress-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = Database::new(
        DatabaseConfig::on_disk(dir.clone(), 64)
            .with_seed(SEED)
            .with_durability(DurabilityConfig::GROUP_COMMIT),
    );
    let difc = setup_principals_and_views(&db);
    db.create_table(messages_def()).unwrap();
    let auth = Arc::new(Authenticator::new());
    register_users(&difc, &auth);
    let config = ServerConfig::builder()
        .workers(WRITERS as usize + 1)
        .replication_secret(REPL_SECRET)
        .sync_replication(Duration::from_millis(250))
        .build()
        .unwrap();
    let primary = start(db.clone(), auth, config).unwrap();
    let replica = start_replica_of(&primary.addr().to_string());
    let addr = primary.addr().to_string();

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (addr, replica) = (&addr, &replica);
            scope.spawn(move || {
                let mut conn = connect(addr, "", "", &[]);
                for i in 0..ROWS {
                    let id = w * 10_000 + i;
                    conn.run(&Statement::Insert(Insert::new(
                        "messages",
                        vec![Datum::Int(id), Datum::from("anon"), Datum::from("acked")],
                    )))
                    .unwrap_or_else(|e| panic!("writer {w} row {i}: {e}"));
                    let by_id =
                        Select::star("messages").filter(Predicate::Eq("id".into(), Datum::Int(id)));
                    let on_replica = replica
                        .database()
                        .anonymous_session()
                        .select(&by_id)
                        .unwrap();
                    assert_eq!(
                        on_replica.len(),
                        1,
                        "row {id} acknowledged, not on the replica"
                    );
                }
                conn.close().unwrap();
            });
        }
    });
    assert_eq!(
        replica
            .database()
            .anonymous_session()
            .select(&Select::star("messages"))
            .unwrap()
            .len() as i64,
        WRITERS * ROWS
    );
    replica.shutdown();
    primary.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Fence` that lands while a poll is parked: the poll wakes to a
/// fenced node and answers `FENCED`, never a batch — not even the record
/// whose append woke it.
#[test]
fn a_poll_parked_when_the_node_is_fenced_answers_fenced() {
    let fx = build_primary();
    let primary = start_primary(&fx, 4);
    let wal = fx.db.engine().wal();
    let before = primary.stats().requests;
    let mut poller = TcpStream::connect(primary.addr()).unwrap();
    poller.set_nodelay(true).unwrap();
    let poll = Request::ReplPoll {
        secret: REPL_SECRET.into(),
        from_seq: wal.shippable_seq() + 1,
        max: 0,
        applied_seq: wal.shippable_seq(),
        generation: wal.generation(),
    };
    write_frame_id(&mut poller, 1, &poll.encode()).unwrap();
    // The poll is being served (and, a round trip later, parked).
    while primary.stats().requests == before {
        std::thread::yield_now();
    }
    let mut control = connect(&primary.addr().to_string(), "", "", &[]);
    control.fence(REPL_SECRET, wal.generation() + 1).unwrap();
    // An append the poll would otherwise ship wakes it.
    let mut s = fx.db.anonymous_session();
    s.insert(&Insert::new(
        "messages",
        vec![
            Datum::Int(800),
            Datum::from("anon"),
            Datum::from("divergent"),
        ],
    ))
    .unwrap();

    let (id, payload) = read_frame_id(&mut poller).unwrap().unwrap();
    assert_eq!(id, 1);
    match Response::decode(&payload).unwrap() {
        Response::Error { code: c, .. } => assert_eq!(c, code::FENCED),
        other => panic!("a fenced node answered a parked poll with {other:?}"),
    }
    control.close().unwrap();
    primary.shutdown();
}

/// Shutting a primary down with a replica attached (its poll parked) ends
/// within the drain window and aborts no request.
#[test]
fn shutdown_with_an_attached_replica_drains_cleanly() {
    let fx = build_primary();
    let primary = start_primary(&fx, 4);
    let replica = start_replica_of(&primary.addr().to_string());
    assert!(replica.wait_for_seq(fx.db.engine().wal().last_seq(), Duration::from_secs(5)));
    let drain = ServerConfig::default().drain_timeout;
    let started = Instant::now();
    let stats = primary.shutdown();
    assert!(
        started.elapsed() < drain,
        "shutdown took {:?}",
        started.elapsed()
    );
    assert_eq!(stats.requests_aborted_on_shutdown, 0);
    replica.shutdown();
}
