//! End-to-end smoke tests: a real TCP server, real client connections.

use std::sync::Arc;
use std::time::Duration;

use ifdb::prelude::*;
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig};

fn demo_db() -> (
    Database,
    Arc<Authenticator>,
    PrincipalId,
    PrincipalId,
    TagId,
    TagId,
) {
    let db = Database::in_memory();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let bob = db.create_principal("bob", PrincipalKind::User);
    let alice_tag = db.create_tag(alice, "alice_notes", &[]).unwrap();
    let bob_tag = db.create_tag(bob, "bob_notes", &[]).unwrap();
    db.create_table(
        TableDef::new("notes")
            .column("id", DataType::Int)
            .column("owner", DataType::Text)
            .column("body", DataType::Text)
            .primary_key(&["id"]),
    )
    .unwrap();
    // Alice and Bob each store a labeled note.
    for (p, tag, id, owner) in [(alice, alice_tag, 1, "alice"), (bob, bob_tag, 2, "bob")] {
        let mut s = db.session(p);
        s.add_secrecy(tag).unwrap();
        s.insert(&Insert::new(
            "notes",
            vec![Datum::Int(id), Datum::from(owner), Datum::from("secret")],
        ))
        .unwrap();
    }
    let auth = Arc::new(Authenticator::new());
    auth.register("alice", "pw-a", alice);
    auth.register("bob", "pw-b", bob);
    (db, auth, alice, bob, alice_tag, bob_tag)
}

#[test]
fn query_by_label_differs_per_connection() {
    let (db, auth, alice, _bob, alice_tag, bob_tag) = demo_db();
    let server = start(db, auth, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    // An anonymous connection sees nothing.
    let mut anon = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    assert!(anon.select(&Select::star("notes")).unwrap().is_empty());

    // Alice's connection, with her tag in the handshake label, sees her row
    // and only hers.
    let mut a = Connection::connect(
        &ClientConfig::anonymous(&addr)
            .with_user("alice", "pw-a")
            .with_label(&[alice_tag]),
    )
    .unwrap();
    assert_eq!(a.principal(), alice);
    let rows = a.select(&Select::star("notes")).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.first().unwrap().get_text("owner"), Some("alice"));

    // Bob's connection sees his row only.
    let mut b = Connection::connect(
        &ClientConfig::anonymous(&addr)
            .with_user("bob", "pw-b")
            .with_label(&[bob_tag]),
    )
    .unwrap();
    let rows = b.select(&Select::star("notes")).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.first().unwrap().get_text("owner"), Some("bob"));

    // Labels mirror across the wire: contaminated connections fail the gate
    // check locally; declassifying with authority clears it.
    assert!(a.check_release_to_world().is_err());
    a.declassify(alice_tag).unwrap();
    a.check_release_to_world().unwrap();

    // Wrong password is refused.
    assert!(
        Connection::connect(&ClientConfig::anonymous(&addr).with_user("alice", "wrong")).is_err()
    );

    a.close().unwrap();
    b.close().unwrap();
    anon.close().unwrap();
    server.shutdown();
}

/// A procedure body that begins, inserts and fails is rolled back in the
/// server: the connection, which cannot see the server session's
/// transaction, begins cleanly afterwards and the insert is gone.
#[test]
fn a_failed_procedure_rolls_back_the_transaction_it_opened_over_the_wire() {
    let (db, auth, ..) = demo_db();
    db.create_procedure(ifdb::StoredProcedure {
        name: "insert_then_fail".into(),
        authority: None,
        body: Arc::new(|session, args| {
            session.begin()?;
            session.insert(&Insert::new(
                "notes",
                vec![args[0].clone(), Datum::from("anon"), Datum::from("draft")],
            ))?;
            Err(IfdbError::InvalidStatement("the body failed".into()))
        }),
    })
    .unwrap();
    let server = start(db, auth, ServerConfig::default()).unwrap();
    let mut conn =
        Connection::connect(&ClientConfig::anonymous(&server.addr().to_string())).unwrap();
    for id in [10, 11] {
        let err = conn
            .call_procedure("insert_then_fail", &[Datum::Int(id)])
            .unwrap_err();
        assert!(
            err.to_string().contains("the body failed"),
            "call {id}: {err}"
        );
        assert!(!conn.in_transaction());
    }
    conn.begin().unwrap();
    assert!(conn.select(&Select::star("notes")).unwrap().is_empty());
    conn.commit().unwrap();
    conn.close().unwrap();
    server.shutdown();
}

#[test]
fn transactions_writes_and_prepared_cache() {
    let (db, auth, _alice, _bob, _at, _bt) = demo_db();
    let server = start(db, auth, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    // Explicit transaction: insert two rows, roll one back.
    c.begin().unwrap();
    assert!(c.in_transaction());
    c.insert(&Insert::new(
        "notes",
        vec![Datum::Int(10), Datum::from("anon"), Datum::from("a")],
    ))
    .unwrap();
    c.abort().unwrap();
    assert!(c.select(&Select::star("notes")).unwrap().is_empty());

    c.begin().unwrap();
    for i in 10..20 {
        c.insert(&Insert::new(
            "notes",
            vec![Datum::Int(i), Datum::from("anon"), Datum::from("b")],
        ))
        .unwrap();
    }
    c.commit().unwrap();
    assert!(!c.in_transaction());
    assert_eq!(c.select(&Select::star("notes")).unwrap().len(), 10);

    // The same INSERT shape executed 10 times prepared once.
    assert!(c.stats().prepares >= 1);
    let stats = server.stats();
    assert!(stats.stmt_cache_hits > stats.stmt_cache_misses);

    // Update/delete round-trip with parameters.
    let n = c
        .update(&Update::new(
            "notes",
            Predicate::Ge("id".into(), Datum::Int(15)),
            vec![("body", Datum::from("edited"))],
        ))
        .unwrap();
    assert_eq!(n, 5);
    let n = c
        .delete(&Delete::new(
            "notes",
            Predicate::Eq("body".into(), Datum::from("edited")),
        ))
        .unwrap();
    assert_eq!(n, 5);

    // A second connection prepares its own shapes: statement ids are the
    // connection's, so the first connection's prepares do not serve it.
    let before = server.stats();
    let mut c2 = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    assert_eq!(c2.select(&Select::star("notes")).unwrap().len(), 5);
    assert_eq!(c2.stats().prepares, 1);
    let after = server.stats();
    assert_eq!(after.stmt_cache_misses, before.stmt_cache_misses + 1);
    assert_eq!(after.stmt_cache_hits, before.stmt_cache_hits + 1);

    c.close().unwrap();
    c2.close().unwrap();
    server.shutdown();
}

#[test]
fn result_batches_stream_through_cursors() {
    let (db, auth, ..) = demo_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            fetch_batch: 16,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut c = Connection::connect(&ClientConfig::anonymous(&addr).with_fetch_batch(16)).unwrap();
    c.begin().unwrap();
    for i in 100..300 {
        c.insert(&Insert::new(
            "notes",
            vec![Datum::Int(i), Datum::from("anon"), Datum::from("x")],
        ))
        .unwrap();
    }
    c.commit().unwrap();
    let rows = c
        .select(&Select::star("notes").order("id", Order::Asc))
        .unwrap();
    assert_eq!(rows.len(), 200);
    assert_eq!(rows.first().unwrap().get_int("id"), Some(100));
    assert!(
        c.stats().extra_fetches > 0,
        "batches beyond the first were fetched"
    );
    c.close().unwrap();
    server.shutdown();
}

#[test]
fn login_switches_principal_and_resets_state() {
    let (db, auth, alice, bob, alice_tag, _bt) = demo_db();
    let secret = "platform-secret";
    let server = start(
        db,
        auth,
        ServerConfig {
            platform_secret: Some(secret.into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Trusted platform connection: password login, then cookie-path switch.
    let mut c =
        Connection::connect(&ClientConfig::anonymous(&addr).with_platform_secret(secret)).unwrap();
    c.login("alice", "pw-a").unwrap();
    assert_eq!(c.principal(), alice);
    c.add_secrecy(alice_tag).unwrap();
    c.begin().unwrap();

    // The trusted switch aborts the open transaction and clears the label.
    c.login_as("bob").unwrap();
    assert_eq!(c.principal(), bob);
    assert!(c.current_label().is_empty());
    assert!(!c.in_transaction());

    // An untrusted connection may not use the cookie path.
    let mut plain = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    assert!(plain.login_as("alice").is_err());
    // And a wrong platform secret is refused at the handshake.
    assert!(
        Connection::connect(&ClientConfig::anonymous(&addr).with_platform_secret("nope")).is_err()
    );

    c.close().unwrap();
    plain.close().unwrap();
    server.shutdown();
}

#[test]
fn trigger_contamination_reaches_the_client_label_mirror() {
    use ifdb::{SessionApi, TriggerDef, TriggerEvent, TriggerTiming};

    let (db, auth, alice, _bob, alice_tag, _bt) = demo_db();
    // An immediate insert trigger that contaminates the inserting session —
    // e.g. reading labeled audit state as part of validation.
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
    assert_eq!(c.principal(), alice);
    c.check_release_to_world().unwrap();
    // The trigger raises the label after the tuple was written with the old
    // (empty) label, so the implicit commit fails the commit-label rule —
    // but the contamination is *process* state and survives the abort.
    let err = c
        .insert(&Insert::new(
            "notes",
            vec![Datum::Int(90), Datum::from("alice"), Datum::from("x")],
        ))
        .unwrap_err();
    assert!(matches!(err, ifdb::IfdbError::CommitLabelViolation { .. }));
    // The Error response piggybacked the post-statement label, so the
    // client's mirror — and therefore the platform's output gate — sees the
    // contamination even though the statement failed.
    assert!(c.current_label().contains(alice_tag));
    assert!(c.check_release_to_world().is_err());
    // Alice owns the tag, so she can declassify over the wire and release.
    c.declassify(alice_tag).unwrap();
    c.check_release_to_world().unwrap();
    c.close().unwrap();
    server.shutdown();
}

#[test]
fn killed_connection_aborts_its_transaction() {
    let (db, auth, ..) = demo_db();
    let server = start(db, auth, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    {
        // Open a transaction, write, then drop the TCP connection without
        // commit or goodbye — simulating a killed client process.
        let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
        c.begin().unwrap();
        c.insert(&Insert::new(
            "notes",
            vec![Datum::Int(50), Datum::from("anon"), Datum::from("lost")],
        ))
        .unwrap();
        drop(c);
    }
    // The server notices the disconnect and aborts; the write never becomes
    // visible and the engine is not left with a stuck active transaction.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = server.stats();
        if stats.txns_aborted_on_disconnect >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never aborted the orphaned transaction: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    assert!(c.select(&Select::star("notes")).unwrap().is_empty());
    // Nothing is pinned by the dead connection: no transaction runs.
    assert_eq!(server.database().engine().stats().txns_active, 0);
    server.database().checkpoint().unwrap();
    c.close().unwrap();
    server.shutdown();
}

/// `max_connections` is the server's only accept-time refusal: past the cap
/// a new connection gets `SERVER_BUSY` instead of a handshake, the admitted
/// ones keep being served, and a closed one frees its slot.
#[test]
fn connections_past_the_cap_are_refused_until_one_closes() {
    let (db, auth, ..) = demo_db();
    let config = ServerConfig::builder()
        .tune(|c| c.max_connections = 2)
        .build()
        .unwrap();
    let server = start(db, auth, config).unwrap();
    let anon = ClientConfig::anonymous(&server.addr().to_string());

    let mut first = Connection::connect(&anon).unwrap();
    let mut second = Connection::connect(&anon).unwrap();
    match Connection::connect(&anon) {
        Err(ifdb::IfdbError::Remote { code, .. }) => {
            assert_eq!(code, ifdb_client::protocol::code::SERVER_BUSY as u16)
        }
        other => panic!("a third connection must be refused: {other:?}"),
    }
    assert_eq!(server.stats().connections_rejected, 1);
    for c in [&mut first, &mut second] {
        assert!(c.select(&Select::star("notes")).unwrap().is_empty());
    }

    first.close().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().connections_active > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the closed connection never freed its slot: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut third = Connection::connect(&anon).unwrap();
    assert!(third.select(&Select::star("notes")).unwrap().is_empty());
    assert_eq!(server.stats().connections_rejected, 1);

    third.close().unwrap();
    second.close().unwrap();
    server.shutdown();
}

#[test]
fn statement_timeout_aborts_explicit_transactions() {
    let (db, auth, ..) = demo_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            statement_timeout: Duration::ZERO, // every statement "times out"
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    c.begin().unwrap();
    let err = c.select(&Select::star("notes")).unwrap_err();
    assert!(matches!(err, ifdb::IfdbError::Remote { .. }));
    assert!(err.to_string().contains("timeout"));
    // Server aborted the transaction; resynchronize the client mirror.
    assert_eq!(server.stats().statement_timeouts, 1);
    let _ = c.abort(); // server reports "no transaction", which is fine
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_rejects_new_work() {
    let (db, auth, ..) = demo_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            drain_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    c.begin().unwrap();
    c.insert(&Insert::new(
        "notes",
        vec![
            Datum::Int(60),
            Datum::from("anon"),
            Datum::from("straggler"),
        ],
    ))
    .unwrap();
    let db = server.database().clone();
    // Shut down while the transaction is still open: the server waits out
    // the drain window, then aborts the straggler and exits cleanly.
    server.shutdown();
    let mut s = db.anonymous_session();
    assert!(s.select(&Select::star("notes")).unwrap().is_empty());
    // The straggler was aborted, not leaked: no transaction runs.
    assert_eq!(db.engine().stats().txns_active, 0);
    db.checkpoint().unwrap();
}

/// The metrics tree's `server` group carries every `ServerStats` counter
/// under its field's name, in process and over the wire.
#[test]
fn the_metrics_tree_reports_every_server_counter() {
    let (db, auth, ..) = demo_db();
    let config = ServerConfig::builder()
        .platform_secret("ops")
        .build()
        .unwrap();
    let server = start(db, auth, config).unwrap();
    let addr = server.addr().to_string();
    let mut c = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    assert!(c.select(&Select::star("notes")).unwrap().is_empty());
    c.close().unwrap();
    let mut killed = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    killed.begin().unwrap();
    killed
        .insert(&Insert::new(
            "notes",
            vec![Datum::Int(70), Datum::from("anon"), Datum::from("lost")],
        ))
        .unwrap();
    drop(killed);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = server.stats();
        if stats.txns_aborted_on_disconnect == 1 && stats.connections_active == 0 {
            break stats;
        }
        assert!(std::time::Instant::now() < deadline, "{stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    };
    // Destructured whole, so a counter added to `ServerStats` must be
    // added here too.
    macro_rules! named {
        ($($field:ident),* $(,)?) => {{
            let ifdb_server::ServerStats { $($field),* } = stats;
            [$((stringify!($field), $field)),*]
        }};
    }
    let named = named!(
        connections_accepted,
        connections_rejected,
        connections_active,
        requests,
        statements,
        stmt_cache_hits,
        stmt_cache_misses,
        statement_timeouts,
        slow_statements,
        txns_aborted_on_disconnect,
        requests_drained_on_shutdown,
        requests_aborted_on_shutdown,
        backpressure_pauses,
        pipelined_cancelled,
        frames_encoded,
        response_bytes,
    );
    let metrics = server.metrics();
    for (name, value) in named {
        assert_eq!(metrics.get("server", name), Some(value), "{name}");
    }
    // The wire request serves the same tree (its own traffic moves the
    // request and frame counters, so only presence is compared there).
    let mut ops = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
    let wire = ops.server_stats("ops").unwrap();
    for (name, _) in named {
        assert!(wire.get("server", name).is_some(), "{name}");
    }
    assert_eq!(wire.get("server", "txns_aborted_on_disconnect"), Some(1));
    ops.close().unwrap();
    server.shutdown();
}
