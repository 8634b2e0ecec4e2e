//! In-parent high-availability tests: the promotion lifecycle, generation
//! fencing of deposed (and zombie) primaries, semi-synchronous commit
//! acknowledgement, router write-failover with the read-your-writes
//! barrier across an epoch change, and the bounded unavailability window
//! of a failover drill.

use std::io::Write as _;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ifdb::prelude::*;
use ifdb::SessionApi;
use ifdb_chaos::cluster::{start_replica_node, tpcc_client, tpcc_config};
use ifdb_chaos::journal::read_journal_ids;
use ifdb_chaos::{FaultProxy, HaCluster, SEED};
use ifdb_client::protocol::{read_frame_id, write_frame_id, HaRole, Request, Response};
use ifdb_client::{Connection, RoutedConnection, RouterConfig};
use ifdb_workloads::{run_terminals, run_transaction_on, TerminalConfig};

fn journal_insert(id: i64) -> Insert {
    Insert::new(
        "chaos_journal",
        vec![Datum::Int(id), Datum::Int(0), Datum::Int(0)],
    )
}

/// Promotion end to end: the replica leaves read-only mode under a bumped
/// generation, serves writes, reports `Primary`, and the deposed primary is
/// fenced — refusing writes with `FENCED` — while promotion stays
/// idempotent.
#[test]
fn promotion_serves_writes_and_fences_the_old_primary() {
    let cluster = HaCluster::start(SEED, 1, None);
    let paddr = cluster.primary_addr();
    let label = cluster.fixture.tpcc_label.clone();

    let mut on_primary = Connection::connect(&tpcc_client(&paddr, &label)).unwrap();
    on_primary.insert(&journal_insert(1)).unwrap();
    assert!(cluster.wait_caught_up(Duration::from_secs(5)));

    let generation = cluster.replicas[0].promote().expect("promotion");
    assert_eq!(generation, 2, "first promotion bumps generation 1 -> 2");
    // Idempotent: a second request reports the same success.
    assert_eq!(cluster.replicas[0].promote().unwrap(), 2);

    // The promoted node serves writes and reports Primary.
    let raddr = cluster.replicas[0].addr().to_string();
    let mut on_successor = Connection::connect(&tpcc_client(&raddr, &label)).unwrap();
    let status = on_successor.ha_status().unwrap();
    assert_eq!(status.role, HaRole::Primary);
    assert_eq!(status.generation, 2);
    on_successor.insert(&journal_insert(2)).unwrap();
    let mut ids = read_journal_ids(&mut on_successor).unwrap();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2], "pre-promotion row survives, new row lands");

    // The deposed primary was fenced by the promotion and refuses writes.
    let status = on_primary.ha_status().unwrap();
    assert_eq!(status.role, HaRole::Fenced, "old primary must be fenced");
    let err = on_primary.insert(&journal_insert(3)).unwrap_err();
    assert!(
        ifdb_client::is_fenced_error(&err),
        "refusal is FENCED: {err}"
    );
    // Reads are refused too: the fenced node's unreplicated tail may
    // diverge from the successor's timeline, so nothing is served from it.
    let err = read_journal_ids(&mut on_primary).unwrap_err();
    assert!(
        ifdb_client::is_fenced_error(&err),
        "reads refuse FENCED: {err}"
    );

    on_primary.close().unwrap();
    on_successor.close().unwrap();
    cluster.shutdown();
}

/// Semi-synchronous replication: with the replica gone, a commit is
/// acknowledged only as *indeterminate* (`REPLICATION_LAG`) — durable
/// locally, unconfirmed remotely — after the configured window.
#[test]
fn semi_sync_commit_is_indeterminate_without_a_replica() {
    let window = Duration::from_millis(300);
    let mut cluster = HaCluster::start(SEED, 1, Some(window));
    let paddr = cluster.primary_addr();
    let label = cluster.fixture.tpcc_label.clone();
    assert!(cluster.wait_caught_up(Duration::from_secs(5)));

    let mut conn = Connection::connect(&tpcc_client(&paddr, &label)).unwrap();
    // With the replica connected, acks flow.
    conn.insert(&journal_insert(1)).unwrap();

    cluster.replicas.remove(0).shutdown();
    let started = Instant::now();
    let err = conn.insert(&journal_insert(2)).unwrap_err();
    assert!(
        started.elapsed() >= window - Duration::from_millis(50),
        "the gate must wait out the window"
    );
    assert!(
        ifdb_client::is_indeterminate_commit_error(&err),
        "unconfirmed commit is indeterminate, not a plain failure: {err}"
    );
    // Indeterminate means durable-but-unconfirmed: the row exists locally.
    let mut ids = read_journal_ids(&mut conn).unwrap();
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2]);

    conn.close().unwrap();
    cluster.shutdown();
}

/// A fake old primary that never fences itself: it answers every
/// `ReplPoll` with an empty batch stamped generation 1 — the divergent
/// tail of a deposed node that keeps serving. Real primaries self-fence
/// when a poll advertises a higher generation; the zombie ignores it.
struct ZombiePrimary {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ZombiePrimary {
    fn start() -> ZombiePrimary {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = stop.clone();
        let thread = std::thread::spawn(move || {
            while !loop_stop.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn_stop = loop_stop.clone();
                        std::thread::spawn(move || serve_zombie(stream, conn_stop));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        ZombiePrimary {
            addr,
            stop,
            thread: Some(thread),
        }
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve_zombie(mut stream: std::net::TcpStream, stop: Arc<AtomicBool>) {
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    while !stop.load(Ordering::Acquire) {
        let (req_id, payload) = match read_frame_id(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e)
                if e.to_string().contains("timed out") || e.to_string().contains("would block") =>
            {
                continue;
            }
            Err(_) => return,
        };
        let Ok(Request::ReplPoll { from_seq, .. }) = Request::decode(&payload) else {
            return;
        };
        // A stale-generation batch claiming fresh records: the replica must
        // refuse it *before* looking at epochs or reset flags.
        let batch = Response::ReplBatch {
            epoch: 0xDEAD_BEEF,
            generation: 1,
            reset: true,
            first_seq: from_seq,
            end_seq: from_seq + 100,
            records: Vec::new(),
        };
        if write_frame_id(&mut stream, req_id, &batch.encode()).is_err() {
            return;
        }
        let _ = stream.flush();
    }
}

/// Satellite 1 (regression): a replica that has learned generation 2 must
/// reject batches from a lower-generation primary — the zombie that kept
/// serving after its successor was promoted — without resetting or
/// applying anything.
#[test]
fn zombie_primary_batches_are_rejected_after_promotion() {
    let cluster = HaCluster::start(SEED, 1, None);
    let label = cluster.fixture.tpcc_label.clone();
    assert!(cluster.wait_caught_up(Duration::from_secs(5)));

    // Promote the replica, but aim its fence message at a dead address so
    // the old primary stays an unfenced zombie (the lost-fence scenario).
    cluster.replicas[0].set_primary("127.0.0.1:1");
    cluster.replicas[0].promote().expect("promotion");
    let successor_addr = cluster.replicas[0].addr().to_string();

    // The zombie is not fenced and still takes writes: split brain at the
    // old primary. Nothing downstream may ever apply this write.
    let paddr = cluster.primary_addr();
    let mut on_zombie = Connection::connect(&tpcc_client(&paddr, &label)).unwrap();
    on_zombie.insert(&journal_insert(901)).unwrap();
    on_zombie.close().unwrap();

    // A second-tier replica syncs from the promoted successor through a
    // retargetable proxy and learns generation 2 from the stream.
    let proxy = FaultProxy::start(&successor_addr).unwrap();
    let r2 = start_replica_node(proxy.addr(), SEED);
    let mut on_successor = Connection::connect(&tpcc_client(&successor_addr, &label)).unwrap();
    on_successor.insert(&journal_insert(902)).unwrap();
    let successor_seq = cluster.replicas[0].database().engine().wal().last_seq();
    assert!(
        r2.wait_for_seq(successor_seq, Duration::from_secs(5)),
        "r2 catch-up to seq {successor_seq}: {:?}",
        r2.stats()
    );
    let mut on_r2 = Connection::connect(&tpcc_client(&r2.addr().to_string(), &label)).unwrap();
    assert_eq!(on_r2.ha_status().unwrap().generation, 2);

    // Re-point the proxy at a mock zombie and sever: the replica reconnects
    // into stale-generation batches and must refuse every one.
    let zombie = ZombiePrimary::start();
    proxy.retarget(&zombie.addr);
    proxy.sever();
    let deadline = Instant::now() + Duration::from_secs(5);
    while r2.stats().stale_batches_rejected == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        r2.stats().stale_batches_rejected > 0,
        "the stale-generation batch must be counted as rejected: {:?}",
        r2.stats()
    );

    // The replica's data is exactly the successor's timeline: the
    // post-promotion write is there, the zombie's split-brain write is not,
    // and the zombie's `reset: true` flag wiped nothing.
    let mut ids = read_journal_ids(&mut on_r2).unwrap();
    ids.sort_unstable();
    assert_eq!(ids, vec![902], "successor timeline only, no zombie effects");

    on_r2.close().unwrap();
    on_successor.close().unwrap();
    zombie.stop();
    proxy.shutdown();
    r2.shutdown();
    cluster.shutdown();
}

/// Satellite 2 + tentpole: router write failover across a primary crash.
/// The first write after the crash adopts the promoted successor (and is
/// retried there when the old primary's refusal was provably effect-free);
/// the next write lands there. The read-your-writes barrier must not be
/// satisfied by a watermark taken under the old epoch: reads after failover
/// fall back to the new primary (returning the new write) instead of
/// trusting a stale replica, and replica reads resume once the survivor
/// re-syncs on the new timeline.
#[test]
fn router_failover_resets_the_read_your_writes_barrier() {
    let mut cluster = HaCluster::start(SEED, 2, None);
    let paddr = cluster.primary_addr();
    let label = cluster.fixture.tpcc_label.clone();
    assert!(cluster.wait_caught_up(Duration::from_secs(5)));

    let mut config = RouterConfig::new(
        tpcc_client(&paddr, &label),
        vec![
            tpcc_client(&cluster.replicas[0].addr().to_string(), &label),
            tpcc_client(&cluster.replicas[1].addr().to_string(), &label),
        ],
    );
    // A generous staleness bound: if a stale-epoch watermark wrongly
    // satisfied the barrier, the wrong data would come back instantly; if
    // the barrier wrongly *stalled*, the read would take these full 10s.
    config.staleness_timeout = Duration::from_secs(10);
    config.failover_timeout = Duration::from_secs(5);
    let mut router = RoutedConnection::connect(&config).unwrap();

    router.insert(&journal_insert(10)).unwrap();
    assert!(cluster.wait_caught_up(Duration::from_secs(5)));

    // Crash the primary and promote replica 0; replica 1 is re-pointed at
    // the successor (the orchestrator's job, here done by hand).
    cluster.stop_primary();
    let successor_addr = cluster.replicas[0].addr().to_string();
    cluster.replicas[1].set_primary(&successor_addr);
    cluster.replicas[0].promote().expect("promotion");

    // First write after the crash: the old primary's refusal is either a
    // determinate SHUTTING_DOWN notice (graceful teardown raced the write;
    // provably no effect → the router retries it on the successor and the
    // insert just works) or a transport death (indeterminate → surfaced).
    // Both adopt the promoted successor.
    match router.insert(&journal_insert(11)) {
        Ok(_) => {}
        Err(err) => assert!(
            ifdb_client::is_indeterminate_commit_error(&err),
            "a write that died with the primary is indeterminate: {err}"
        ),
    }
    assert_eq!(router.stats().failovers, 1, "successor adopted");

    // Next write: exactly-once onto the successor.
    router.insert(&journal_insert(12)).unwrap();

    // Read immediately: the barrier now lives on the successor's timeline.
    // Replica 1 may still be on the old epoch or mid-resync; the router
    // must fall back to the new primary, not stall and not serve stale.
    let started = Instant::now();
    let rows = router
        .select(&Select::star("chaos_journal"))
        .unwrap()
        .rows
        .iter()
        .filter_map(|r| match r.values.first() {
            Some(Datum::Int(id)) => Some(*id),
            _ => None,
        })
        .collect::<Vec<i64>>();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the old-epoch watermark must not stall the barrier"
    );
    assert!(rows.contains(&10) && rows.contains(&12), "{rows:?}");

    // Once the survivor re-syncs on the new timeline, replica reads resume
    // and stay label-correct.
    let successor_seq = cluster.replicas[0].database().engine().wal().last_seq();
    assert!(cluster.replicas[1].wait_for_seq(successor_seq, Duration::from_secs(5)));
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut served_by_replica = false;
    while Instant::now() < deadline {
        let rows = router.select(&Select::star("chaos_journal")).unwrap();
        assert!(rows.rows.len() >= 2);
        if router.stats().reads_on_replica > 0 {
            served_by_replica = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        served_by_replica,
        "replica reads resume on the new timeline"
    );

    router.close().unwrap();
    cluster.shutdown();
}

/// A failover drill's unavailability window is bounded, and the promoted
/// node is a first-class primary. A router connected before the primary
/// stops gets its first write acknowledged by the promoted successor well
/// within the bound (measured at 11–71 ms; the bound catches a stall, not
/// host speed), and the successor then serves a network TPC-C run without
/// losing a terminal.
#[test]
fn failover_window_is_bounded_and_the_successor_serves_tpcc() {
    const MAX_UNAVAILABLE: Duration = Duration::from_millis(2_500);
    let mut cluster = HaCluster::start(SEED, 1, None);
    let paddr = cluster.primary_addr();
    let raddr = cluster.replicas[0].addr().to_string();
    let label = cluster.fixture.tpcc_label.clone();
    assert!(cluster.wait_caught_up(Duration::from_secs(10)));

    // The router is connected before the stop, so the window includes its
    // discovery that the primary is gone.
    let mut config = RouterConfig::new(
        tpcc_client(&paddr, &label),
        vec![tpcc_client(&raddr, &label)],
    );
    config.failover_timeout = Duration::from_secs(10);
    let mut router = RoutedConnection::connect(&config).unwrap();

    let stopped_at = Instant::now();
    cluster.stop_primary();
    cluster.replicas[0].promote().expect("promotion");
    let mut marker = 8_000_000;
    let window = loop {
        marker += 1;
        if router.insert(&journal_insert(marker)).is_ok() {
            break stopped_at.elapsed();
        }
        assert!(
            stopped_at.elapsed() < MAX_UNAVAILABLE,
            "no write acknowledged within {MAX_UNAVAILABLE:?} of the stop"
        );
    };
    assert!(window < MAX_UNAVAILABLE, "unavailable for {window:?}");
    router.close().unwrap();

    let client = tpcc_client(&raddr, &label);
    let scale = tpcc_config(SEED);
    let config = TerminalConfig {
        terminals: 2,
        duration: Duration::from_millis(400),
        seed: SEED ^ 0x88,
    };
    let (outcome, conns) = run_terminals(
        &config,
        |_| Connection::connect(&client),
        |conn, rng, kind| run_transaction_on(&scale, conn, rng, kind),
    );
    for conn in conns {
        conn.close().unwrap();
    }
    assert_eq!(outcome.terminal_errors, 0, "{outcome:?}");
    assert!(
        outcome.committed > 0,
        "the promoted node commits: {outcome:?}"
    );
    cluster.shutdown();
}
