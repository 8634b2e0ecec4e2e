//! Concurrency stress for the network service: 16 connections hammer one
//! server with mixed reads, writes and declassifying-view queries while
//! other connections are killed mid-transaction, then the store is reopened
//! to prove that everything acknowledged as committed survived and nothing
//! in-flight leaked.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ifdb::prelude::*;
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig};
use ifdb_workloads::{run_network_tpcc, NetworkTpccConfig, TpccConfig, TpccDatabase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn items_table() -> TableDef {
    TableDef::new("items")
        .column("id", DataType::Int)
        .column("writer", DataType::Int)
        .column("payload", DataType::Text)
        .primary_key(&["id"])
}

/// 16 concurrent connections: half commit durable writes, half run reads
/// through a declassifying view; meanwhile connections are opened, begin
/// transactions, and are killed without cleanup. Afterwards the engine must
/// be unpoisoned (checkpoint succeeds), every acknowledged commit must
/// survive a reopen, and no killed connection's in-flight rows may appear.
#[test]
fn sixteen_connection_stress_with_kills_and_reopen() {
    let dir = std::env::temp_dir().join(format!("ifdb-net-stress-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db_config = DatabaseConfig::on_disk(dir.clone(), 256)
        .with_seed(0xBEEF)
        .with_durability(DurabilityConfig::GROUP_COMMIT);
    let db = Database::new(db_config.clone());
    db.create_table(items_table()).unwrap();

    let writer_principal = db.create_principal("writer", PrincipalKind::User);
    let secret_tag = db
        .create_tag(writer_principal, "stress_secret", &[])
        .unwrap();
    // A declassifying view over the secret rows, created with the writer's
    // authority: readers see the rows without holding the tag.
    db.create_declassifying_view(
        writer_principal,
        "items_public",
        ViewSource::Select(Select::star("items")),
        Label::singleton(secret_tag),
    )
    .unwrap();

    let auth = Arc::new(Authenticator::new());
    auth.register("writer", "pw", writer_principal);
    let server = start(
        db,
        auth,
        ServerConfig {
            workers: 24,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let acknowledged = Arc::new(AtomicU64::new(0));
    let next_id = Arc::new(AtomicU64::new(1));
    let reads_ok = Arc::new(AtomicU64::new(0));
    let kills = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        // 8 writers: labeled inserts inside explicit transactions.
        for w in 0..8u64 {
            let stop = stop.clone();
            let acknowledged = acknowledged.clone();
            let next_id = next_id.clone();
            let addr = addr.clone();
            scope.spawn(move || {
                let mut conn = Connection::connect(
                    &ClientConfig::anonymous(&addr)
                        .with_user("writer", "pw")
                        .with_label(&[secret_tag]),
                )
                .unwrap();
                let mut rng = StdRng::seed_from_u64(w);
                while !stop.load(Ordering::Relaxed) {
                    let n = rng.gen_range(1..4);
                    conn.begin().unwrap();
                    let mut ids = Vec::new();
                    for _ in 0..n {
                        let id = next_id.fetch_add(1, Ordering::Relaxed) as i64;
                        conn.insert(&Insert::new(
                            "items",
                            vec![
                                Datum::Int(id),
                                Datum::Int(w as i64),
                                Datum::Text(format!("payload-{id}")),
                            ],
                        ))
                        .unwrap();
                        ids.push(id);
                    }
                    conn.commit().unwrap();
                    // Group commit returned: these ids are durable.
                    acknowledged.fetch_add(ids.len() as u64, Ordering::Relaxed);
                }
                let _ = conn.close();
            });
        }
        // 8 readers through the declassifying view, uncontaminated.
        for r in 0..8u64 {
            let stop = stop.clone();
            let reads_ok = reads_ok.clone();
            let addr = addr.clone();
            scope.spawn(move || {
                let mut conn = Connection::connect(&ClientConfig::anonymous(&addr)).unwrap();
                let mut rng = StdRng::seed_from_u64(1000 + r);
                while !stop.load(Ordering::Relaxed) {
                    let rows = conn.select(&Select::star("items_public")).unwrap();
                    // Declassified rows carry an empty effective label, so
                    // an anonymous reader may see them; the reader stays
                    // releasable the whole time.
                    conn.check_release_to_world().unwrap();
                    if rng.gen_bool(0.2) {
                        let direct = conn.select(&Select::star("items")).unwrap();
                        assert!(
                            direct.is_empty(),
                            "unlabeled reader must not see raw labeled rows"
                        );
                    }
                    let _ = rows;
                    reads_ok.fetch_add(1, Ordering::Relaxed);
                }
                let _ = conn.close();
            });
        }
        // A killer loop: open connections, start transactions with a write
        // that must never survive, and drop the socket without cleanup.
        {
            let stop = stop.clone();
            let kills = kills.clone();
            let addr = addr.clone();
            scope.spawn(move || {
                let mut k = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    k += 1;
                    if let Ok(mut conn) = Connection::connect(
                        &ClientConfig::anonymous(&addr)
                            .with_user("writer", "pw")
                            .with_label(&[secret_tag]),
                    ) {
                        let _ = conn.begin();
                        let _ = conn.insert(&Insert::new(
                            "items",
                            vec![
                                Datum::Int(-k), // negative ids mark doomed rows
                                Datum::Int(99),
                                Datum::from("must-not-survive"),
                            ],
                        ));
                        drop(conn); // no abort, no goodbye
                        kills.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }
        std::thread::sleep(Duration::from_millis(1200));
        stop.store(true, Ordering::Relaxed);
    });

    let acked = acknowledged.load(Ordering::Relaxed);
    assert!(acked > 0, "writers made progress");
    assert!(
        reads_ok.load(Ordering::Relaxed) > 0,
        "readers made progress"
    );
    assert!(kills.load(Ordering::Relaxed) > 0, "kill loop ran");

    // Killed connections' transactions were aborted, not leaked: the engine
    // reaches zero running transactions (a straggler abort may still be
    // settling), and a checkpoint then compacts the log.
    let db = server.database().clone();
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.engine().stats().txns_active != 0 {
        assert!(Instant::now() < deadline, "transactions leaked");
        std::thread::sleep(Duration::from_millis(50));
    }
    db.checkpoint().unwrap();
    server.shutdown();

    // Post-stress reopen: every acknowledged row survived, no doomed row
    // did. The tag is re-created against the same seed so ids line up.
    drop(db);
    let reopened = Database::builder()
        .config(db_config)
        .recover()
        .first_boot_ddl([items_table()])
        .build()
        .unwrap();
    let writer_principal = reopened.create_principal("writer", PrincipalKind::User);
    let tag = reopened
        .create_tag(writer_principal, "stress_secret", &[])
        .unwrap();
    assert_eq!(tag, secret_tag, "deterministic seed keeps tag ids stable");
    let mut s = reopened.session(writer_principal);
    s.add_secrecy(tag).unwrap();
    let rows = s.select(&Select::star("items")).unwrap();
    assert!(
        rows.len() as u64 >= acked,
        "acknowledged commits must survive reopen: {} < {acked}",
        rows.len()
    );
    assert!(
        rows.iter().all(|r| r.get_int("id").unwrap_or(0) > 0),
        "no killed connection's in-flight row may survive"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The network TPC-C driver runs the full mix over real connections and
/// reports throughput; group commit batches fsyncs across terminals.
#[test]
fn network_tpcc_driver_reports_throughput() {
    let dir = std::env::temp_dir().join(format!("ifdb-net-tpcc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db_config = DatabaseConfig::on_disk(dir.clone(), 256)
        .with_seed(0x7ACC)
        .with_durability(DurabilityConfig::GROUP_COMMIT);
    let db = Database::new(db_config);
    let scale = TpccConfig {
        warehouses: 1,
        districts_per_warehouse: 4,
        customers_per_district: 10,
        items: 30,
        initial_orders_per_district: 3,
        tags_per_label: 1,
        seed: 5,
    };
    let tpcc = TpccDatabase::load(db, scale.clone()).unwrap();
    let label: Vec<TagId> = tpcc.label.iter().collect();
    let auth = Arc::new(Authenticator::new());
    auth.register("tpcc", "pw", tpcc.principal);
    let engine_before = tpcc.db.engine().stats();
    let server = start(tpcc.db.clone(), auth, ServerConfig::default()).unwrap();
    let outcome = run_network_tpcc(&NetworkTpccConfig {
        addr: server.addr().to_string(),
        user: "tpcc".into(),
        password: "pw".into(),
        label,
        tpcc: scale,
        connections: 4,
        duration: Duration::from_millis(600),
        mean_think_time: Duration::ZERO,
        max_think_time: Duration::ZERO,
        seed: 9,
    });
    let engine_after = server.database().engine().stats();
    assert_eq!(outcome.terminal_errors, 0);
    assert!(
        outcome.committed > 0,
        "terminals committed work: {outcome:?}"
    );
    assert!(outcome.notpm > 0.0);
    // Group-commit identity: every commit either led or followed a flush.
    let fsyncs = engine_after.wal_fsyncs - engine_before.wal_fsyncs;
    assert!(fsyncs > 0);
    // A transaction is one `CallProcedure`: each attempt, committed or
    // rolled back, is one request, and each connection adds its `Hello`
    // and its `Goodbye`.
    let stats = server.stats();
    let attempts = outcome.committed + outcome.conflicts;
    assert!(
        stats.requests >= outcome.committed && stats.requests <= attempts + 2 * 4,
        "{} requests for {attempts} attempts on 4 connections",
        stats.requests
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
