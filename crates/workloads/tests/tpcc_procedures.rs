//! TPC-C as stored procedures. The terminal draws a transaction's inputs and
//! makes one `CallProcedure`; the server runs the profile's body. These
//! tests pin that this changes where the statements run and nothing else:
//! the same cards, run as procedures on one database and as the terminal-side
//! body on its twin, leave the same rows, the same log bytes and the same
//! label checks; one transaction is one server request; and a write
//! conflict inside a procedure reaches the terminal as a rollback, after
//! which the retried card commits.

use std::sync::Arc;

use ifdb::prelude::*;
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig, ServerHandle};
use ifdb_workloads::tpcc::TpccDeck;
use ifdb_workloads::{
    run_client_side, run_transaction_at, TpccConfig, TpccDatabase, TpccInputs, TpccTransaction,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TABLES: [&str; 9] = [
    "warehouse",
    "district",
    "customer",
    "history",
    "item",
    "stock",
    "orders",
    "new_order",
    "order_line",
];

fn scale() -> TpccConfig {
    TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 4,
        customers_per_district: 10,
        items: 40,
        initial_orders_per_district: 4,
        tags_per_label: 2,
        seed: 5,
    }
}

/// A loaded TPC-C database, served, and one connection to it as the
/// benchmark user under the benchmark label.
fn served() -> (TpccDatabase, ServerHandle, Connection) {
    let db = Database::new(DatabaseConfig::in_memory().with_seed(7));
    let tpcc = TpccDatabase::load(db, scale()).unwrap();
    let auth = Arc::new(Authenticator::new());
    auth.register("tpcc", "pw", tpcc.principal);
    let server = start(tpcc.db.clone(), auth, ServerConfig::default()).unwrap();
    let label: Vec<TagId> = tpcc.label.iter().collect();
    let conn = Connection::connect(
        &ClientConfig::anonymous(&server.addr().to_string())
            .with_user("tpcc", "pw")
            .with_label(&label),
    )
    .unwrap();
    (tpcc, server, conn)
}

/// Every row of the nine tables, with its label, in a fixed order.
fn all_rows(tpcc: &TpccDatabase) -> Vec<(&'static str, Vec<u64>, Vec<Datum>)> {
    let mut s = tpcc.session().unwrap();
    let mut out = Vec::new();
    for table in TABLES {
        let mut rows: Vec<_> = s
            .select(&Select::star(table))
            .unwrap()
            .rows
            .into_iter()
            .map(|r| (table, r.label.to_array(), r.values))
            .collect();
        rows.sort_by(|a, b| a.2.cmp(&b.2));
        out.extend(rows);
    }
    out
}

#[test]
fn procedures_and_the_terminal_side_body_leave_the_same_state() {
    let config = scale();
    let (as_procs, procs_server, mut procs_conn) = served();
    let (client_side, client_server, mut client_conn) = served();
    let deck = TpccDeck::new(3);
    let mut kinds = std::collections::HashSet::new();
    for card in 0..300u64 {
        let kind = deck.deal();
        kinds.insert(format!("{kind:?}"));
        let w = 1 + (card % 2) as i64;
        let mut rng = StdRng::seed_from_u64(card);
        let called = run_transaction_at(&config, &mut procs_conn, &mut rng, kind, w).unwrap();
        let mut rng = StdRng::seed_from_u64(card);
        let inputs = TpccInputs::draw(&config, &mut rng, kind, w);
        let run = run_client_side(&mut client_conn, &inputs).unwrap();
        assert!(called && run, "card {card} ({kind:?}) commits both ways");
    }
    assert_eq!(kinds.len(), 5, "every profile ran");

    let rows = all_rows(&as_procs);
    assert!(rows.len() > 1_000, "{} rows", rows.len());
    assert!(rows == all_rows(&client_side), "the nine tables differ");
    let (a, b) = (
        as_procs.db.engine().stats(),
        client_side.db.engine().stats(),
    );
    assert_eq!(a.wal_bytes, b.wal_bytes, "log bytes");
    assert_eq!(a.label_checks, b.label_checks, "label checks");
    // The statement-at-a-time terminal needed several requests a card.
    let (called, run) = (
        procs_server.stats().requests,
        client_server.stats().requests,
    );
    assert!(
        5 * called < run,
        "{called} requests as procedures, {run} statement by statement"
    );
    procs_conn.close().unwrap();
    client_conn.close().unwrap();
    procs_server.shutdown();
    client_server.shutdown();
}

#[test]
fn one_transaction_is_one_server_request() {
    let config = scale();
    let (_tpcc, server, mut conn) = served();
    let mut rng = StdRng::seed_from_u64(11);
    for kind in [
        TpccTransaction::NewOrder,
        TpccTransaction::Payment,
        TpccTransaction::OrderStatus,
        TpccTransaction::Delivery,
        TpccTransaction::StockLevel,
    ] {
        let before = server.stats().requests;
        assert!(run_transaction_at(&config, &mut conn, &mut rng, kind, 1).unwrap());
        assert_eq!(server.stats().requests - before, 1, "{kind:?}");
    }
    conn.close().unwrap();
    server.shutdown();
}

#[test]
fn a_write_conflict_in_a_procedure_is_a_rollback_and_the_card_retries() {
    let config = scale();
    let (tpcc, server, mut conn) = served();
    let payment = |conn: &mut Connection| {
        let mut rng = StdRng::seed_from_u64(21);
        run_transaction_at(&config, conn, &mut rng, TpccTransaction::Payment, 1)
    };
    let ytd = || {
        let warehouse =
            Select::star("warehouse").filter(Predicate::Eq("w_id".into(), Datum::Int(1)));
        let rows = tpcc.session().unwrap().select(&warehouse).unwrap();
        rows.first().unwrap().get_float("w_ytd").unwrap()
    };
    let before = ytd();

    // Another transaction holds an uncommitted update of the warehouse row
    // every Payment at warehouse 1 updates.
    let mut holder = tpcc.session().unwrap();
    holder.begin().unwrap();
    holder
        .update(&Update::new(
            "warehouse",
            Predicate::Eq("w_id".into(), Datum::Int(1)),
            vec![("w_ytd", Datum::Float(0.0))],
        ))
        .unwrap();
    assert!(!payment(&mut conn).unwrap(), "the conflict is a rollback");
    assert!(!conn.in_transaction());
    holder.abort().unwrap();

    // The procedure left no transaction behind on the server: the same
    // card commits, and only its own payment is applied.
    assert!(payment(&mut conn).unwrap(), "the retried card commits");
    let paid = ytd() - before;
    assert!(paid > 0.0 && paid < 5000.0, "one payment applied: {paid}");
    conn.close().unwrap();
    server.shutdown();
}
