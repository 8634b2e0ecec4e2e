//! A thousand idle connections on one server: each parked connection costs
//! a bounded amount of resident memory, stays counted and answers when
//! spoken to, and an active client is still served beside them.
//!
//! This is its own test binary on purpose: the bound is on this process's
//! resident-set growth, which any test running concurrently in the same
//! process would inflate.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ifdb::prelude::*;
use ifdb_client::protocol::{read_frame_id, write_frame_id, Request, Response, PROTOCOL_VERSION};
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig};

const IDLE_CONNECTIONS: usize = 1_000;
/// Resident memory one parked connection may cost, client socket and server
/// state together. Measured at 0.4–1.1 KB; the bound catches a per-
/// connection buffer or thread, not allocator noise.
const MAX_KB_PER_CONNECTION: f64 = 96.0;
const ROWS: i64 = 100;

/// VmRSS of this process in KB, from `/proc/self/status`.
fn rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .expect("VmRSS line");
    line.trim().trim_end_matches("kB").trim().parse().unwrap()
}

/// A raw connection that sends only a `Hello` and reads its `HelloOk`: no
/// client-side buffers, so the resident growth is what the server and the
/// socket cost.
fn open_idle_connection(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        user: String::new(),
        password: String::new(),
        platform_secret: None,
        label: Vec::new(),
    };
    write_frame_id(&mut stream, 1, &hello.encode()).unwrap();
    stream.flush().unwrap();
    let (_, payload) = read_frame_id(&mut stream).unwrap().unwrap();
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::HelloOk { .. }
    ));
    stream
}

#[test]
fn a_thousand_idle_connections_cost_little_and_stay_served() {
    let db = Database::in_memory();
    let reader = db.create_principal("reader", PrincipalKind::User);
    let tag = db.create_tag(reader, "sensor_private", &[]).unwrap();
    db.create_table(
        TableDef::new("readings")
            .column("id", DataType::Int)
            .column("val", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut s = db.session(reader);
    s.add_secrecy(tag).unwrap();
    for i in 0..ROWS {
        s.insert(&Insert::new("readings", vec![Datum::Int(i), Datum::Int(i)]))
            .unwrap();
    }
    let auth = Arc::new(Authenticator::new());
    auth.register("reader", "pw", reader);
    let server = start(db, auth, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let rss_before = rss_kb();
    let mut parked: Vec<TcpStream> = (0..IDLE_CONNECTIONS)
        .map(|_| open_idle_connection(&addr))
        .collect();
    let kb_per_connection = (rss_kb() - rss_before).max(0.0) / IDLE_CONNECTIONS as f64;
    assert!(
        kb_per_connection <= MAX_KB_PER_CONNECTION,
        "{kb_per_connection:.2} KB per idle connection"
    );
    assert_eq!(
        server.stats().connections_active,
        IDLE_CONNECTIONS as u64,
        "every idle connection is held"
    );

    // An active client is served beside the parked ones, label and all.
    let mut active = Connection::connect(
        &ClientConfig::anonymous(&addr)
            .with_user("reader", "pw")
            .with_label(&[tag]),
    )
    .unwrap();
    let rows = active
        .select(&Select::star("readings").filter(Predicate::Eq("id".into(), Datum::Int(42))))
        .unwrap();
    assert_eq!(rows.len(), 1, "labeled point read answers");
    active.close().unwrap();

    // The parked connections are still alive: every 50th one answers.
    for stream in parked.iter_mut().step_by(50) {
        write_frame_id(stream, 2, &Request::Watermark.encode()).unwrap();
        stream.flush().unwrap();
        let (id, payload) = read_frame_id(stream).unwrap().unwrap();
        assert_eq!(id, 2);
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Watermark { .. }
        ));
    }

    drop(parked);
    server.shutdown();
}
