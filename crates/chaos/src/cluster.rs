//! Cluster fixtures for the chaos tests.
//!
//! Every node of a replicated cluster must hold **identical authority
//! state** (principals, tags) even though authority is code-not-data and
//! never travels over the replication stream: with the same authority seed
//! and the same creation order, the ids come out identical — the recovery
//! contract documented on `DatabaseBuilder::replica_over`. This module
//! centralizes that creation order so the primary fixture, every replica's
//! bootstrap closure, and the child-process primary all agree.
//!
//! The fixture is a deliberately tiny TPC-C database (seconds to load, real
//! multi-row transactions) plus a `chaos_journal` table the invariant
//! checker writes through, and one extra principal (`alice`) whose private
//! tag marks the labeled journal rows used to check label-faithful reads
//! across promotion.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ifdb::prelude::*;
use ifdb::TableDef;
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{start, ReplicaConfig, ReplicaHandle, ServerConfig, ServerHandle};
use ifdb_workloads::{TpccConfig, TpccDatabase};

/// The default authority seed shared by every node of a chaos cluster.
pub const SEED: u64 = 0xCAFE_F00D;
/// The replication secret shared by every node of a chaos cluster.
pub const REPL_SECRET: &str = "chaos-repl-secret";

/// The scaled-down TPC-C the chaos clusters run: small enough that a child
/// process loads it in well under a second, real enough that promotion
/// happens under multi-row read-write transactions.
pub fn tpcc_config(seed: u64) -> TpccConfig {
    TpccConfig {
        warehouses: 1,
        districts_per_warehouse: 2,
        customers_per_district: 5,
        items: 20,
        initial_orders_per_district: 2,
        tags_per_label: 1,
        seed,
    }
}

/// The journal table the invariant checker writes through. One row per
/// attempted marker write; `id` is globally unique per attempt, so the
/// primary key doubles as the exactly-once check.
pub fn journal_table_def() -> TableDef {
    TableDef::new("chaos_journal")
        .column("id", DataType::Int)
        .column("terminal", DataType::Int)
        .column("labeled", DataType::Int)
        .primary_key(&["id"])
}

/// Every table a chaos node creates on first boot — the DDL a replica
/// re-runs on promotion to re-attach the code-not-data constraints
/// ([`ReplicaConfig::first_boot_tables`]).
pub fn first_boot_tables() -> Vec<TableDef> {
    let mut defs = ifdb_workloads::table_defs();
    defs.push(journal_table_def());
    defs
}

/// A loaded primary database plus everything a test needs to talk to it.
pub struct PrimaryFixture {
    /// The database (shared with the serving node).
    pub db: Database,
    /// The authenticator registered with `tpcc`/`pw` and `alice`/`pw-a`.
    pub auth: Arc<Authenticator>,
    /// The TPC-C benchmark principal.
    pub tpcc_principal: PrincipalId,
    /// The benchmark label's tags (every TPC-C tuple carries them).
    pub tpcc_label: Vec<TagId>,
    /// The secrecy principal for labeled journal rows.
    pub alice: PrincipalId,
    /// Alice's private tag.
    pub alice_tag: TagId,
    /// The TPC-C scale the database was loaded with.
    pub tpcc: TpccConfig,
}

/// Builds the primary: TPC-C schema + data, the chaos journal table, and
/// the DIFC principals — in the one true creation order that
/// [`replica_authority`] mirrors.
pub fn build_primary_fixture(seed: u64) -> PrimaryFixture {
    let db = Database::new(DatabaseConfig::in_memory().with_seed(seed));
    let config = tpcc_config(seed);
    let loaded = TpccDatabase::load(db, config.clone()).expect("tpcc load");
    let db = loaded.db.clone();
    let (alice, alice_tag) = chaos_authority(&db);
    db.create_table(journal_table_def()).expect("journal table");
    let auth = Arc::new(Authenticator::new());
    auth.register("tpcc", "pw", loaded.principal);
    auth.register("alice", "pw-a", alice);
    PrimaryFixture {
        db,
        auth,
        tpcc_principal: loaded.principal,
        tpcc_label: loaded.label.iter().collect(),
        alice,
        alice_tag,
        tpcc: config,
    }
}

/// The authority ops [`TpccDatabase::load`] performs, replayed verbatim on
/// a replica so the ids line up (schema and data arrive via replication and
/// must **not** be re-created here).
fn tpcc_authority(db: &Database, tags_per_label: usize) -> (PrincipalId, Vec<TagId>) {
    let principal = db.create_principal("tpcc", PrincipalKind::User);
    let tags: Vec<TagId> = (0..tags_per_label)
        .map(|i| {
            db.create_tag(principal, &format!("tpcc_tag_{i}"), &[])
                .expect("tpcc tag")
        })
        .collect();
    (principal, tags)
}

/// The chaos-specific authority ops, after the TPC-C ones.
fn chaos_authority(db: &Database) -> (PrincipalId, TagId) {
    let alice = db.create_principal("alice", PrincipalKind::User);
    let alice_tag = db
        .create_tag(alice, "alice_private", &[])
        .expect("alice tag");
    (alice, alice_tag)
}

/// The replica bootstrap: re-creates the full authority sequence in the
/// primary's order and registers the users on the replica's authenticator.
/// Returns `(tpcc_principal, tpcc_tags, alice, alice_tag)`.
pub fn replica_authority(
    db: &Database,
    auth: &Authenticator,
    tags_per_label: usize,
) -> (PrincipalId, Vec<TagId>, PrincipalId, TagId) {
    let (tpcc_principal, tpcc_tags) = tpcc_authority(db, tags_per_label);
    let (alice, alice_tag) = chaos_authority(db);
    auth.register("tpcc", "pw", tpcc_principal);
    auth.register("alice", "pw-a", alice);
    (tpcc_principal, tpcc_tags, alice, alice_tag)
}

/// Starts a replica of `primary_addr` with the chaos bootstrap.
pub fn start_replica_node(primary_addr: &str, seed: u64) -> ReplicaHandle {
    start_replica_node_with_authority(primary_addr, seed).0
}

/// The authority ids a chaos node ends up with — identical on every node
/// of a cluster, by the seed-and-order contract.
#[derive(Debug, Clone)]
pub struct ClusterAuthority {
    /// The TPC-C benchmark label's tags.
    pub tpcc_label: Vec<TagId>,
    /// Alice's private tag (marks labeled journal rows).
    pub alice_tag: TagId,
}

/// Starts a replica and also returns the authority ids its bootstrap
/// created — what a parent process needs to talk to a cluster whose
/// primary lives in a *child* process (it cannot reach into that fixture).
pub fn start_replica_node_with_authority(
    primary_addr: &str,
    seed: u64,
) -> (ReplicaHandle, ClusterAuthority) {
    let auth = Arc::new(Authenticator::new());
    let tags_per_label = tpcc_config(seed).tags_per_label;
    let captured: Arc<Mutex<Option<ClusterAuthority>>> = Arc::new(Mutex::new(None));
    let slot = captured.clone();
    let handle = ifdb_server::start_replica(
        ReplicaConfig::new(primary_addr, REPL_SECRET, seed)
            .with_first_boot_tables(first_boot_tables()),
        auth.clone(),
        move |db| {
            let (_, tpcc_label, _, alice_tag) = replica_authority(db, &auth, tags_per_label);
            *slot.lock().expect("authority slot") = Some(ClusterAuthority {
                tpcc_label,
                alice_tag,
            });
            Ok(())
        },
    )
    .expect("start replica");
    let authority = captured
        .lock()
        .expect("authority slot")
        .take()
        .expect("bootstrap runs before start_replica returns");
    (handle, authority)
}

/// A `ClientConfig` for the `tpcc` user with the given label.
pub fn tpcc_client(addr: &str, label: &[TagId]) -> ClientConfig {
    ClientConfig::anonymous(addr)
        .with_user("tpcc", "pw")
        .with_label(label)
}

/// An in-parent HA cluster: one primary server, N replicas.
pub struct HaCluster {
    /// The primary's database and principals.
    pub fixture: PrimaryFixture,
    /// The primary server; `None` after [`HaCluster::stop_primary`].
    pub primary: Option<ServerHandle>,
    /// The replicas, in start order.
    pub replicas: Vec<ReplicaHandle>,
}

impl HaCluster {
    /// Builds the fixture, starts the primary (with replication enabled and
    /// the given semi-sync window) and `replicas` replicas.
    pub fn start(seed: u64, replicas: usize, sync_replication: Option<Duration>) -> HaCluster {
        let fixture = build_primary_fixture(seed);
        let primary = start(
            fixture.db.clone(),
            fixture.auth.clone(),
            ServerConfig {
                // A caught-up replica's poll parks on a serving thread for
                // up to `REPL_POLL_PARK`: one thread per replica, plus six
                // for client statements (some blocked in a semi-sync wait).
                workers: 6 + replicas,
                replication_secret: Some(REPL_SECRET.into()),
                sync_replication,
                ..ServerConfig::default()
            },
        )
        .expect("primary server");
        let addr = primary.addr().to_string();
        let replicas = (0..replicas)
            .map(|_| start_replica_node(&addr, seed))
            .collect();
        HaCluster {
            fixture,
            primary: Some(primary),
            replicas,
        }
    }

    /// The primary's listen address.
    ///
    /// # Panics
    /// After [`HaCluster::stop_primary`].
    pub fn primary_addr(&self) -> String {
        self.primary
            .as_ref()
            .expect("primary stopped")
            .addr()
            .to_string()
    }

    /// Blocks until every replica has applied the primary's current last
    /// sequence number; `false` on timeout.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let seq = self.fixture.db.engine().wal().last_seq();
        self.replicas.iter().all(|r| r.wait_for_seq(seq, timeout))
    }

    /// Stops the primary server (the in-parent stand-in for a crash; tests
    /// that need a *real* crash use [`crate::child::ChildPrimary`]).
    pub fn stop_primary(&mut self) {
        if let Some(primary) = self.primary.take() {
            primary.shutdown();
        }
    }

    /// Shuts everything down.
    pub fn shutdown(mut self) {
        self.stop_primary();
        for replica in self.replicas.drain(..) {
            replica.shutdown();
        }
    }
}

/// A failover watchdog: probes a primary's `HaStatus` and, after
/// `down_after` consecutive failed probes, runs the `on_down` action once
/// (typically: promote a replica and retarget the client-facing proxy).
/// This is the external orchestrator role — the database deliberately does
/// not self-elect.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    /// Number of probe failures when `on_down` fired; 0 while healthy.
    fired: Arc<AtomicU32>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Watchdog {
    /// Spawns the watchdog against `primary_addr`.
    pub fn spawn(
        primary_addr: String,
        check_interval: Duration,
        down_after: u32,
        on_down: impl FnOnce() + Send + 'static,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicU32::new(0));
        let loop_stop = stop.clone();
        let loop_fired = fired.clone();
        let thread = std::thread::spawn(move || {
            let mut strikes = 0u32;
            let mut on_down = Some(on_down);
            while !loop_stop.load(Ordering::Acquire) {
                if primary_healthy(&primary_addr) {
                    strikes = 0;
                } else {
                    strikes += 1;
                    if strikes >= down_after {
                        loop_fired.store(strikes, Ordering::Release);
                        if let Some(f) = on_down.take() {
                            f();
                        }
                        return;
                    }
                }
                std::thread::sleep(check_interval);
            }
        });
        Watchdog {
            stop,
            fired,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Whether the down action has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Acquire) > 0
    }

    /// Blocks until the down action fires or `timeout` elapses.
    pub fn wait_fired(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.fired() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.fired()
    }

    /// Stops the watchdog (without firing the action).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.lock().expect("watchdog thread").take() {
            let _ = t.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One health probe: a fresh anonymous connection answering `HaStatus` with
/// a non-fenced role. A fenced node is alive but deposed — the successor is
/// already primary, so the watchdog treats it as down.
fn primary_healthy(addr: &str) -> bool {
    let Ok(mut conn) = Connection::connect(&ClientConfig::anonymous(addr)) else {
        return false;
    };
    let healthy = matches!(
        conn.ha_status(),
        Ok(status) if status.role != ifdb_client::protocol::HaRole::Fenced
    );
    let _ = conn.close();
    healthy
}
