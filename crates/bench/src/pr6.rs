//! The PR 6 event-driven-server snapshot, emitted as `BENCH_pr6.json`.
//!
//! PR 6 replaced the thread-per-connection dispatch with an epoll reactor
//! and made the wire protocol pipelined. The panels measure exactly the two
//! things that change bought:
//!
//! * **pipelined labeled-read WIPS** — a fleet of pipelining clients, far
//!   more connections than serving threads, multiplexed over `WORKERS`
//!   threads; the gate holds the reactor's WIPS to a baseline band
//!   (`baseline_reactor_wips`).
//! * **1 000 idle connections on one core** — resident-set growth while a
//!   thousand authenticated connections sit parked on the reactor
//!   (acceptance: all of them stay connected, bounded KB per connection),
//!   plus the latency an active client sees while the thousand idlers are
//!   parked — the reactor must not scan or wake for them.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ifdb::prelude::*;
use ifdb::Statement;
use ifdb_client::protocol::{read_frame_id, write_frame_id, Request, Response, PROTOCOL_VERSION};
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ServerConfig, ServerHandle};
use serde::Serialize;

use crate::experiments::ExperimentScale;
use crate::report::{header, row, write_json};

const SEED: u64 = 0x6EED;
/// Serving threads per server.
const WORKERS: usize = 4;
/// Pipelining client connections offered to the server.
const CLIENTS: usize = 32;
/// Statements per pipelined batch.
const PIPELINE_DEPTH: usize = 16;
const READ_ROWS: i64 = 2_000;
const IDLE_CONNECTIONS: usize = 1_000;

/// The server's measurement under the pipelined read fleet.
#[derive(Debug, Clone, Serialize)]
pub struct FleetPoint {
    /// Serving threads.
    pub workers: usize,
    /// Client connections offered.
    pub clients: usize,
    /// Statements per pipelined flush.
    pub pipeline_depth: usize,
    /// Successful labeled reads per second.
    pub wips: f64,
    /// Total successful reads.
    pub reads: u64,
    /// Reads that failed mid-run.
    pub failed: u64,
    /// Clients that never got a served connection (refused, or no
    /// handshake answer within their read timeout).
    pub clients_unserved: u64,
}

/// The 1k-idle-connections panel.
#[derive(Debug, Clone, Serialize)]
pub struct IdlePanel {
    /// Idle connections opened (and still alive at the end).
    pub connections: u64,
    /// VmRSS before opening them, in KB (0 if `/proc` is unavailable).
    pub rss_before_kb: f64,
    /// VmRSS with all of them parked, in KB.
    pub rss_after_kb: f64,
    /// Per-connection resident growth, in KB (client fds + server state).
    pub kb_per_connection: f64,
    /// Mean latency of an active client's point reads while the idlers are
    /// parked, in microseconds.
    pub active_read_mean_us: f64,
    /// 99th-percentile of the same, in microseconds.
    pub active_read_p99_us: f64,
}

/// Everything `BENCH_pr6.json` records.
#[derive(Debug, Clone, Serialize)]
pub struct BenchPr6Report {
    /// The reactor under the pipelined read fleet.
    pub reactor: FleetPoint,
    /// Reactor WIPS (the bench-gate baseline-band metric).
    pub reactor_wips: f64,
    /// Panel 2: a thousand parked connections.
    pub idle: IdlePanel,
    /// Idle connections held (gate floor `min_idle_connections`).
    pub idle_connections: f64,
    /// Per-connection KB (gate ceiling `max_idle_kb_per_connection`).
    pub idle_kb_per_connection: f64,
}

struct Fixture {
    db: Database,
    auth: Arc<Authenticator>,
    tag: TagId,
}

fn build_fixture(rows: i64) -> Fixture {
    let db = Database::new(DatabaseConfig::in_memory().with_seed(SEED));
    let reader = db.create_principal("reader", PrincipalKind::User);
    let tag = db.create_tag(reader, "sensor_private", &[]).unwrap();
    db.create_table(
        TableDef::new("readings")
            .column("id", DataType::Int)
            .column("car", DataType::Int)
            .column("val", DataType::Float)
            .primary_key(&["id"]),
    )
    .unwrap();
    let auth = Arc::new(Authenticator::new());
    auth.register("reader", "pw", reader);
    let mut s = db.session(reader);
    s.add_secrecy(tag).unwrap();
    for i in 0..rows {
        s.insert(&Insert::new(
            "readings",
            vec![
                Datum::Int(i),
                Datum::Int(i % 64),
                Datum::Float(i as f64 * 0.25),
            ],
        ))
        .unwrap();
    }
    Fixture { db, auth, tag }
}

fn start_server(fx: &Fixture) -> ServerHandle {
    start(
        fx.db.clone(),
        fx.auth.clone(),
        ServerConfig {
            workers: WORKERS,
            max_connections: 4096,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Runs the pipelining client fleet against the server.
fn measure_fleet(fx: &Fixture, duration: Duration) -> FleetPoint {
    let server = start_server(fx);
    let addr = server.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let unserved = Arc::new(AtomicU64::new(0));

    let mut threads = Vec::new();
    for t in 0..CLIENTS {
        let addr = addr.clone();
        let tag = fx.tag;
        let stop = stop.clone();
        let reads = reads.clone();
        let failed = failed.clone();
        let unserved = unserved.clone();
        threads.push(std::thread::spawn(move || {
            let mut cfg = ClientConfig::anonymous(&addr)
                .with_user("reader", "pw")
                .with_label(&[tag]);
            // A handshake that is never answered becomes a counted
            // refusal instead of an unbounded stall.
            cfg.read_timeout = Some(Duration::from_millis(1_500));
            let Ok(mut conn) = Connection::connect(&cfg) else {
                unserved.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let mut key = (t as i64 * 37) % READ_ROWS;
            while !stop.load(Ordering::Relaxed) {
                let stmts: Vec<Statement> = (0..PIPELINE_DEPTH)
                    .map(|i| {
                        key = (key + 61 + i as i64) % READ_ROWS;
                        Statement::Select(
                            Select::star("readings")
                                .filter(Predicate::Eq("id".into(), Datum::Int(key))),
                        )
                    })
                    .collect();
                match conn.pipeline(&stmts) {
                    Ok(results) => {
                        let ok = results.iter().filter(|r| r.is_ok()).count() as u64;
                        reads.fetch_add(ok, Ordering::Relaxed);
                        failed.fetch_add(results.len() as u64 - ok, Ordering::Relaxed);
                    }
                    Err(_) => {
                        failed.fetch_add(PIPELINE_DEPTH as u64, Ordering::Relaxed);
                        break;
                    }
                }
            }
            let _ = conn.close();
        }));
    }
    let started = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let _ = t.join();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let total_reads = reads.load(Ordering::Relaxed);
    let point = FleetPoint {
        workers: WORKERS,
        clients: CLIENTS,
        pipeline_depth: PIPELINE_DEPTH,
        wips: total_reads as f64 / elapsed.max(1e-9),
        reads: total_reads,
        failed: failed.load(Ordering::Relaxed),
        clients_unserved: unserved.load(Ordering::Relaxed),
    };
    server.shutdown();
    point
}

/// VmRSS of this process in KB, from `/proc/self/status` (0 elsewhere).
fn rss_kb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .unwrap_or(0.0);
        }
    }
    0.0
}

/// A raw, unbuffered idle connection: handshake only, then parked. Avoids
/// per-connection client-side buffers so the RSS delta is dominated by what
/// the server (and the two sockets) actually cost.
fn open_idle_connection(addr: &str) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    write_frame_id(
        &mut stream,
        1,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            user: String::new(),
            password: String::new(),
            platform_secret: None,
            label: Vec::new(),
        }
        .encode(),
    )
    .ok()?;
    stream.flush().ok()?;
    let (_, payload) = read_frame_id(&mut stream).ok()??;
    matches!(Response::decode(&payload).ok()?, Response::HelloOk { .. }).then_some(stream)
}

/// Panel 2: a thousand parked connections on one reactor.
fn measure_idle(fx: &Fixture, probes: usize) -> IdlePanel {
    let server = start_server(fx);
    let addr = server.addr().to_string();

    let rss_before = rss_kb();
    let mut parked = Vec::with_capacity(IDLE_CONNECTIONS);
    for _ in 0..IDLE_CONNECTIONS {
        match open_idle_connection(&addr) {
            Some(s) => parked.push(s),
            None => break,
        }
    }
    let rss_after = rss_kb();
    let kb_per_connection = if parked.is_empty() {
        f64::INFINITY
    } else {
        (rss_after - rss_before).max(0.0) / parked.len() as f64
    };

    // An active client's latency while the thousand idlers are parked: the
    // reactor must not pay per-idle-connection work on their behalf.
    let mut active = Connection::connect(
        &ClientConfig::anonymous(&addr)
            .with_user("reader", "pw")
            .with_label(&[fx.tag]),
    )
    .unwrap();
    let mut lat_us: Vec<f64> = Vec::with_capacity(probes);
    for i in 0..probes {
        let key = (i as i64 * 997) % READ_ROWS;
        let t0 = Instant::now();
        let rows = active
            .select(&Select::star("readings").filter(Predicate::Eq("id".into(), Datum::Int(key))))
            .unwrap();
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(rows.len(), 1, "labeled point read must hit");
    }
    lat_us.sort_by(|a, b| a.total_cmp(b));
    let mean = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
    let p99 = lat_us
        .get((lat_us.len() * 99) / 100)
        .or_else(|| lat_us.last())
        .copied()
        .unwrap_or(0.0);
    active.close().unwrap();

    // The parked fleet is still alive: every probed connection answers.
    let mut alive = 0u64;
    for stream in parked.iter_mut().step_by(IDLE_CONNECTIONS / 20) {
        write_frame_id(stream, 2, &Request::Watermark.encode()).unwrap();
        stream.flush().unwrap();
        let (_, payload) = read_frame_id(stream).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Watermark { .. }
        ));
        alive += 1;
    }
    assert!(alive >= 20, "parked connections must still answer");

    let panel = IdlePanel {
        connections: parked.len() as u64,
        rss_before_kb: rss_before,
        rss_after_kb: rss_after,
        kb_per_connection,
        active_read_mean_us: mean,
        active_read_p99_us: p99,
    };
    drop(parked);
    server.shutdown();
    panel
}

/// Produces (and prints) the complete PR 6 snapshot.
pub fn bench_pr6_report(scale: ExperimentScale) -> BenchPr6Report {
    let (fleet_ms, probes) = match scale {
        ExperimentScale::Quick => (700, 200),
        ExperimentScale::Full => (2_000, 1_000),
    };

    header("pipelined labeled-read WIPS on the reactor");
    let fx = build_fixture(READ_ROWS);
    let reactor = measure_fleet(&fx, Duration::from_millis(fleet_ms));
    row(
        "reactor",
        format!(
            "{:.0} WIPS ({} reads, {} unserved clients)",
            reactor.wips, reactor.reads, reactor.clients_unserved
        ),
    );

    header("1k idle connections on the reactor (one core)");
    let idle = measure_idle(&fx, probes);
    row(
        "parked connections",
        format!(
            "{} ({:.1} KB each, RSS {:.0} -> {:.0} KB)",
            idle.connections, idle.kb_per_connection, idle.rss_before_kb, idle.rss_after_kb
        ),
    );
    row(
        "active read latency",
        format!(
            "mean {:.0} us, p99 {:.0} us",
            idle.active_read_mean_us, idle.active_read_p99_us
        ),
    );

    let report = BenchPr6Report {
        reactor_wips: reactor.wips,
        reactor,
        idle_connections: idle.connections as f64,
        idle_kb_per_connection: idle.kb_per_connection,
        idle,
    };
    write_json("bench_pr6", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactor_point_reads_labeled_rows() {
        let fx = build_fixture(200);
        let server = start_server(&fx);
        let addr = server.addr().to_string();
        let mut c = Connection::connect(
            &ClientConfig::anonymous(&addr)
                .with_user("reader", "pw")
                .with_label(&[fx.tag]),
        )
        .unwrap();
        let stmts: Vec<Statement> = (0..4)
            .map(|i| {
                Statement::Select(
                    Select::star("readings").filter(Predicate::Eq("id".into(), Datum::Int(i))),
                )
            })
            .collect();
        let results = c.pipeline(&stmts).unwrap();
        assert!(results.iter().all(|r| r.is_ok()));
        c.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn idle_connection_parks_and_answers() {
        let fx = build_fixture(10);
        let server = start_server(&fx);
        let addr = server.addr().to_string();
        let mut s = open_idle_connection(&addr).expect("handshake");
        write_frame_id(&mut s, 2, &Request::Watermark.encode()).unwrap();
        s.flush().unwrap();
        let (id, payload) = read_frame_id(&mut s).unwrap().unwrap();
        assert_eq!(id, 2);
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Watermark { .. }
        ));
        server.shutdown();
    }
}
