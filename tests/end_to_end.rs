//! Cross-crate integration tests: the DIFC model, the storage engine, the
//! query engine, the platform, and the applications working together.

use ifdb_repro::cartel::{CartelApp, CartelConfig};
use ifdb_repro::difc::audit::AuditEvent;
use ifdb_repro::hotcrp::{HotcrpApp, HotcrpConfig};
use ifdb_repro::ifdb::prelude::*;
use ifdb_repro::ifdb::TableDef;
use ifdb_repro::platform::Request;
use ifdb_repro::workloads::{TpccConfig, TpccDatabase, TpccTransaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cartel_end_to_end_confidentiality() {
    let app = CartelApp::build(&CartelConfig {
        users: 4,
        cars_per_user: 2,
        measurements_per_car: 25,
        ..Default::default()
    });
    let alice = &app.policy.users()[0];
    let bob = &app.policy.users()[1];

    // The owner sees their car locations; other users and anonymous clients
    // see nothing.
    let own = app
        .server
        .handle(&Request::new("cars.php").as_user(&alice.username));
    assert!(own.is_ok());
    assert!(!own.body.is_empty());

    let foreign = app.server.handle(
        &Request::new("drives.php")
            .as_user(&bob.username)
            .param("user", &alice.username),
    );
    assert!(foreign.body.is_empty());

    let anon = app.server.handle(&Request::new("cars.php"));
    assert!(anon.body.is_empty());

    // The database-level audit shows that the authorized declassifications
    // happened: the scripts' own, chained, and those through views, counted.
    app.db.verify_audit_chain().unwrap();
    let chain = app.db.replay_audit();
    assert!(chain
        .iter()
        .any(|e| matches!(e, AuditEvent::Declassify { .. })));
    assert!(app.db.audit_counters().declassifications() > 0);
}

#[test]
fn hotcrp_end_to_end_review_and_decision_protection() {
    let app = HotcrpApp::build(&HotcrpConfig::default());
    let paper = &app.policy.papers()[0];
    let author = app.policy.person(paper.author).unwrap();

    // Decisions stay hidden until release, then become visible to authors.
    let before = app.server.handle(
        &Request::new("paper_status.php")
            .as_user(&author.username)
            .param("paper", &paper.paperid.to_string()),
    );
    assert!(!before.body.iter().any(|l| l.starts_with("decision:")));
    app.policy.release_decisions(&app.db).unwrap();
    let after = app.server.handle(
        &Request::new("paper_status.php")
            .as_user(&author.username)
            .param("paper", &paper.paperid.to_string()),
    );
    assert!(after.body.iter().any(|l| l.starts_with("decision:")));
}

#[test]
fn tpcc_runs_with_and_without_difc() {
    for difc in [true, false] {
        let db = ifdb_repro::ifdb::Database::new(
            ifdb_repro::ifdb::DatabaseConfig::in_memory()
                .with_difc(difc)
                .with_seed(99),
        );
        let tpcc = TpccDatabase::load(
            db,
            TpccConfig {
                warehouses: 1,
                districts_per_warehouse: 2,
                customers_per_district: 8,
                items: 30,
                initial_orders_per_district: 3,
                tags_per_label: if difc { 3 } else { 0 },
                seed: 2,
            },
        )
        .unwrap();
        let mut session = tpcc.session().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut committed = 0;
        for _ in 0..20 {
            let kind = TpccTransaction::draw(&mut rng);
            if tpcc.run_transaction(&mut session, &mut rng, kind).unwrap() {
                committed += 1;
            }
        }
        assert!(committed >= 15, "difc={difc}: most transactions commit");
    }
}

#[test]
fn labels_survive_the_full_stack() {
    // A small scenario crossing all layers: DIFC model objects, the storage
    // engine's tuple headers, the query engine's confinement, and the
    // platform's output gate.
    let db = Database::in_memory();
    let user = db.create_principal("user", PrincipalKind::User);
    let tag = db.create_tag(user, "user_data", &[]).unwrap();
    db.create_table(
        TableDef::new("Items")
            .column("id", DataType::Int)
            .column("body", DataType::Text)
            .primary_key(&["id"]),
    )
    .unwrap();

    let mut s = db.session(user);
    s.add_secrecy(tag).unwrap();
    for i in 0..50 {
        s.insert(&Insert::new(
            "Items",
            vec![Datum::Int(i), Datum::Text(format!("item {i}"))],
        ))
        .unwrap();
    }
    // Storage-level: every tuple header carries exactly one tag.
    let stats = db.engine().stats();
    assert_eq!(stats.tuples_inserted, 50);

    // Query-level: an empty-labeled session sees nothing; the owner's
    // contaminated session sees everything with the right label.
    assert!(db
        .anonymous_session()
        .select(&Select::star("Items"))
        .unwrap()
        .is_empty());
    let rows = s.select(&Select::star("Items")).unwrap();
    assert_eq!(rows.len(), 50);
    assert!(rows.iter().all(|r| r.label == Label::singleton(tag)));

    // Platform-level: the contaminated session cannot release; after
    // declassifying it can.
    assert!(s.check_release_to_world().is_err());
    s.declassify(tag).unwrap();
    assert!(s.check_release_to_world().is_ok());
}
