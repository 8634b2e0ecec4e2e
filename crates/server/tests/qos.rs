//! QoS-plane integration tests over real TCP: execution budgets killing
//! statements mid-scan, per-principal admission quotas, hot reconfiguration
//! without dropping connections, the unified `Stats` tree, and the
//! validating config builders.

use std::sync::Arc;
use std::time::Duration;

use ifdb::prelude::*;
use ifdb_client::{ClientConfig, Connection, RouterConfig};
use ifdb_difc::audit::AuditEvent;
use ifdb_platform::Authenticator;
use ifdb_server::{start, Backend, ServerConfig};

const PLATFORM_SECRET: &str = "qos-admin-secret";

/// A database with one public 100-row table and two users.
fn qos_db() -> (Database, Arc<Authenticator>) {
    let db = Database::in_memory();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let bob = db.create_principal("bob", PrincipalKind::User);
    db.create_table(
        TableDef::new("items")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut s = db.anonymous_session();
    for i in 0..100 {
        s.insert(&Insert::new(
            "items",
            vec![Datum::Int(i), Datum::Text(format!("row {i}"))],
        ))
        .unwrap();
    }
    let auth = Arc::new(Authenticator::new());
    auth.register("alice", "pw-a", alice);
    auth.register("bob", "pw-b", bob);
    (db, auth)
}

fn connect(addr: &str, user: &str, pw: &str) -> Connection {
    Connection::connect(&ClientConfig::anonymous(addr).with_user(user, pw)).unwrap()
}

#[test]
fn budget_kills_oversized_scan_and_audits_it() {
    let (db, auth) = qos_db();
    let server = start(
        db.clone(),
        auth,
        ServerConfig {
            qos: QosConfig {
                constraints: ExecutionConstraints::unlimited().with_max_rows(10),
                ..QosConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut c = connect(&addr, "alice", "pw-a");
    // A point lookup stays under the 10-row budget.
    let rows = c
        .select(&Select::star("items").filter(Predicate::Eq("id".into(), Datum::Int(3))))
        .unwrap();
    assert_eq!(rows.len(), 1);

    // A full scan of 100 rows is killed fail-closed: no partial result.
    let err = c.select(&Select::star("items")).unwrap_err();
    match &err {
        IfdbError::BudgetExceeded {
            resource,
            limit,
            used,
        } => {
            assert_eq!(resource, "rows");
            assert_eq!(*limit, 10);
            assert!(*used > 10);
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }

    // The kill is in the audit plane: the in-memory log, the tamper-evident
    // chain, and the metrics tree all saw it.
    let kills: Vec<_> = db
        .audit()
        .events()
        .into_iter()
        .filter(|e| matches!(e, AuditEvent::BudgetKill { .. }))
        .collect();
    assert_eq!(kills.len(), 1);
    db.verify_audit_chain().unwrap();
    assert!(db
        .replay_audit()
        .iter()
        .any(|e| matches!(e, AuditEvent::BudgetKill { resource, .. } if resource == "rows")));

    // The connection survived the kill.
    let rows = c
        .select(&Select::star("items").filter(Predicate::Eq("id".into(), Datum::Int(7))))
        .unwrap();
    assert_eq!(rows.len(), 1);
    c.close().unwrap();
    server.shutdown();
}

#[test]
fn rate_quota_refuses_but_never_starves_neighbors() {
    let (db, auth) = qos_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            qos: QosConfig {
                default_quota: PrincipalQuota::unlimited().with_max_rps(2),
                ..QosConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut alice = connect(&addr, "alice", "pw-a");
    let mut bob = connect(&addr, "bob", "pw-b");
    let probe = Select::star("items").filter(Predicate::Eq("id".into(), Datum::Int(1)));

    // Alice burns her 2-token burst, then is refused.
    alice.select(&probe).unwrap();
    alice.select(&probe).unwrap();
    let err = alice.select(&probe).unwrap_err();
    assert!(
        matches!(err, IfdbError::QuotaExceeded { .. }),
        "expected QuotaExceeded, got {err}"
    );

    // Bob's budget is his own: Alice's refusal does not touch him.
    bob.select(&probe).unwrap();

    // Tokens refill with time; Alice recovers on the same connection.
    std::thread::sleep(Duration::from_millis(1100));
    alice.select(&probe).unwrap();

    let snapshot = alice.server_stats().unwrap();
    assert!(snapshot.get("qos", "refused_rate").unwrap() >= 1);
    assert_eq!(snapshot.get("qos", "in_flight"), Some(0));

    alice.close().unwrap();
    bob.close().unwrap();
    server.shutdown();
}

#[test]
fn reconfigure_applies_live_without_dropping_connections() {
    let (db, auth) = qos_db();
    let server = start(
        db,
        auth,
        ServerConfig {
            platform_secret: Some(PLATFORM_SECRET.into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    let mut tenant = connect(&addr, "alice", "pw-a");
    let mut admin = connect(&addr, "bob", "pw-b");
    let full_scan = Select::star("items");

    // Unlimited policy: the full scan is fine.
    assert_eq!(tenant.select(&full_scan).unwrap().len(), 100);

    // A tenant cannot set its own limits.
    let err = admin
        .reconfigure("wrong-secret", &QosConfig::default())
        .unwrap_err();
    assert!(matches!(err, IfdbError::Remote { .. }));

    // Tighten the budget at runtime; the already-open tenant connection is
    // governed by the new policy from its very next statement.
    admin
        .reconfigure(
            PLATFORM_SECRET,
            &QosConfig {
                constraints: ExecutionConstraints::unlimited().with_max_rows(10),
                ..QosConfig::default()
            },
        )
        .unwrap();
    let err = tenant.select(&full_scan).unwrap_err();
    assert!(matches!(err, IfdbError::BudgetExceeded { .. }));

    // Loosen it again: same connection, back to full service — it was never
    // dropped or re-authenticated.
    admin
        .reconfigure(PLATFORM_SECRET, &QosConfig::default())
        .unwrap();
    assert_eq!(tenant.select(&full_scan).unwrap().len(), 100);

    let snapshot = admin.server_stats().unwrap();
    assert_eq!(snapshot.get("qos", "reconfigures"), Some(2));

    tenant.close().unwrap();
    admin.close().unwrap();
    server.shutdown();
}

#[test]
fn stats_request_serves_the_unified_tree() {
    let (db, auth) = qos_db();
    let server = start(db, auth, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let mut c = connect(&addr, "alice", "pw-a");
    c.select(&Select::star("items")).unwrap();
    let snapshot = c.server_stats().unwrap();

    // One tree, four planes.
    for group in ["server", "engine", "qos", "audit"] {
        assert!(
            snapshot.groups.iter().any(|g| g.name == group),
            "missing group {group}"
        );
    }
    assert!(snapshot.get("engine", "tuples_inserted").unwrap() >= 100);
    assert!(snapshot.get("server", "statements").unwrap() >= 1);
    assert!(snapshot.get("qos", "admitted").unwrap() >= 1);

    // The wire tree matches the in-process twin, modulo counters that move
    // between the two reads.
    let local = server.metrics();
    assert_eq!(
        local.groups.len(),
        snapshot.groups.len(),
        "wire and in-process trees must have the same shape"
    );

    c.close().unwrap();
    server.shutdown();
}

#[test]
fn server_config_builder_validates_combinations() {
    // Defaults build.
    ServerConfig::builder().build().unwrap();

    // A shard id without a shard map is refused.
    assert!(ServerConfig::builder()
        .tune(|c| c.shard_id = 2)
        .build()
        .is_err());

    // Semi-sync without replication can never be confirmed.
    assert!(ServerConfig::builder()
        .sync_replication(Duration::from_millis(100))
        .build()
        .is_err());
    ServerConfig::builder()
        .replication_secret("s")
        .sync_replication(Duration::from_millis(100))
        .build()
        .unwrap();

    // Admission quotas are enforced by the reactor only.
    assert!(ServerConfig::builder()
        .backend(Backend::ThreadPool)
        .qos(QosConfig {
            default_quota: PrincipalQuota::unlimited().with_max_in_flight(2),
            ..QosConfig::default()
        })
        .build()
        .is_err());
    ServerConfig::builder()
        .backend(Backend::Reactor)
        .qos(QosConfig {
            default_quota: PrincipalQuota::unlimited().with_max_in_flight(2),
            ..QosConfig::default()
        })
        .build()
        .unwrap();

    // Zero workers never serve anything.
    assert!(ServerConfig::builder().workers(0).build().is_err());
}

#[test]
fn router_config_builder_validates_topology() {
    let primary = ClientConfig::anonymous("127.0.0.1:1");

    RouterConfig::builder(primary.clone()).build().unwrap();

    // Shard node count must match the map (primary is shard 0).
    let map = Arc::new(ifdb_client::shard::ShardMap::new(2));
    assert!(RouterConfig::builder(primary.clone())
        .shards(map.clone(), vec![])
        .build()
        .is_err());
    RouterConfig::builder(primary.clone())
        .shards(map.clone(), vec![ClientConfig::anonymous("127.0.0.1:3")])
        .build()
        .unwrap();

    // Replica routing and multi-shard routing cannot be combined.
    assert!(RouterConfig::builder(primary)
        .replica(ClientConfig::anonymous("127.0.0.1:2"))
        .shards(map, vec![ClientConfig::anonymous("127.0.0.1:3")])
        .build()
        .is_err());
}
