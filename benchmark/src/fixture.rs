//! Loading the databases and starting the deployments the workloads run
//! against. Every constant that shapes a workload lives here or in
//! [`crate::gen`], and is echoed into each result by [`constants`].

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use ifdb::prelude::*;
use ifdb_client::{ClientConfig, Connection};
use ifdb_platform::Authenticator;
use ifdb_server::{ReplicaConfig, ReplicaHandle, ServerConfig, ServerHandle};
use ifdb_workloads::{table_defs, TpccConfig, TpccDatabase};

use crate::gen::{self, CONFINED_TAGS, DATA_LABELS, DATA_ROWS};

/// Closed-loop clients = connections = TPC-C terminals = warehouses: two
/// per hardware thread of the reference host. With one per hardware thread
/// the processors idle between requests, an operation's time is mostly
/// thread wake-ups, and on the (virtualized) reference host those vary
/// two-fold from second to second; with two the processors stay busy and
/// run-to-run spread falls from 17 % to 3-8 %.
pub const CLIENTS: usize = 4;
/// Authority-state seed: fixes principal and tag ids, so labels encode to
/// the same bytes in every run and line up between primary and replica.
pub const AUTH_SEED: u64 = 0x1FDB;
/// Buffer pool of the TPC-C database, in pages: about a seventh of the
/// freshly loaded heap (`storage.engine.heap_pages`, 1 118), for a steady
/// hit ratio near 0.94. That makes `tpcc*` the larger-than-cache workloads;
/// the two read workloads fit.
pub const TPCC_BUFFER_PAGES: usize = 160;
/// Semi-synchronous replication window of `tpcc_repl`.
pub const SYNC_REPLICATION_WINDOW: Duration = Duration::from_millis(250);
const REPLICATION_SECRET: &str = "benchmark-replication";
const PASSWORD: &str = "pw";

/// The four workloads. Later issues refer to them by these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Primary-key point reads over the wire.
    PointRead,
    /// Label-filtered scans: a declassifying view and a confined equality.
    LabelScan,
    /// Durable single-node TPC-C.
    Tpcc,
    /// The same TPC-C with one semi-synchronous replica.
    TpccRepl,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PointRead,
        Workload::LabelScan,
        Workload::Tpcc,
        Workload::TpccRepl,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::LabelScan => "label_scan",
            Workload::Tpcc => "tpcc",
            Workload::TpccRepl => "tpcc_repl",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this is one of the two TPC-C deployments.
    pub fn is_tpcc(self) -> bool {
        matches!(self, Workload::Tpcc | Workload::TpccRepl)
    }

    /// Statement executor threads of the server under test. The read
    /// workloads get one per hardware thread of the reference host. The
    /// TPC-C deployments get one per connection and one more: a commit
    /// waiting for its semi-synchronous acknowledgement keeps its executor,
    /// and the follower's poll that would confirm it needs one too — with
    /// fewer, every executor ends up waiting for a poll that cannot run and
    /// each commit waits out the whole replication window. `tpcc` uses the
    /// same count so that `tpcc_repl - tpcc` is the replication tax alone.
    pub fn workers(self) -> usize {
        if self.is_tpcc() {
            CLIENTS + 1
        } else {
            2
        }
    }

    /// Operations per client in one repeat at full scale (warm-up excluded),
    /// sized so a repeat's timed section takes about two seconds on the
    /// reference host.
    pub fn ops_per_client(self) -> usize {
        match self {
            Workload::PointRead => 7_500,
            Workload::LabelScan => 100,
            Workload::Tpcc | Workload::TpccRepl => 500,
        }
    }
}

/// The TPC-C scale both `tpcc` workloads load.
pub fn tpcc_config(seed: u64) -> TpccConfig {
    TpccConfig {
        warehouses: CLIENTS as i64,
        districts_per_warehouse: 10,
        customers_per_district: 300,
        items: 2_000,
        initial_orders_per_district: 100,
        tags_per_label: 2,
        seed: gen::mix(seed, 5, 0, 0),
    }
}

/// Every workload constant, for the result's `constants` object.
pub fn constants() -> Vec<(&'static str, u64)> {
    let tpcc = tpcc_config(0);
    vec![
        ("clients", CLIENTS as u64),
        ("workers.read", Workload::PointRead.workers() as u64),
        ("workers.tpcc", Workload::Tpcc.workers() as u64),
        ("data_rows", DATA_ROWS as u64),
        ("data_labels", DATA_LABELS as u64),
        ("confined_tags", CONFINED_TAGS as u64),
        ("range_width", gen::RANGE_WIDTH as u64),
        ("tpcc_warehouses", tpcc.warehouses as u64),
        ("tpcc_districts", tpcc.districts_per_warehouse as u64),
        (
            "tpcc_customers_per_district",
            tpcc.customers_per_district as u64,
        ),
        ("tpcc_items", tpcc.items as u64),
        (
            "tpcc_initial_orders",
            tpcc.initial_orders_per_district as u64,
        ),
        ("tpcc_tags_per_label", tpcc.tags_per_label as u64),
        ("tpcc_buffer_pages", TPCC_BUFFER_PAGES as u64),
        (
            "sync_replication_ms",
            SYNC_REPLICATION_WINDOW.as_millis() as u64,
        ),
        (
            "ops_per_client.point_read",
            Workload::PointRead.ops_per_client() as u64,
        ),
        (
            "ops_per_client.label_scan",
            Workload::LabelScan.ops_per_client() as u64,
        ),
        (
            "ops_per_client.tpcc",
            Workload::Tpcc.ops_per_client() as u64,
        ),
        (
            "ops_per_client.tpcc_repl",
            Workload::TpccRepl.ops_per_client() as u64,
        ),
    ]
}

/// The storage configuration a workload's database runs with: the read
/// workloads in memory without syncing, TPC-C on disk in `dir` with group
/// commit and real `fdatasync`. `difc: false` gives the paper's baseline
/// (labels neither stored nor checked) for the `difc.tax_frac` comparison.
pub fn db_config(workload: Workload, dir: &Path, difc: bool) -> DatabaseConfig {
    let config = if workload.is_tpcc() {
        DatabaseConfig::on_disk(dir.to_path_buf(), TPCC_BUFFER_PAGES)
            .with_durability(DurabilityConfig::GROUP_COMMIT)
    } else {
        DatabaseConfig::in_memory()
    };
    config.with_seed(AUTH_SEED).with_difc(difc)
}

/// A loaded database with what is needed to connect to it and run its
/// workload's operations.
pub struct Loaded {
    /// The database.
    pub db: Database,
    /// Credentials of the workload's one user.
    pub auth: Arc<Authenticator>,
    /// That user.
    pub user: &'static str,
    /// The user's principal.
    pub principal: PrincipalId,
    /// The label a client raises at handshake.
    pub label: Vec<TagId>,
    /// Tags the declassifying view `AllData` strips (the members of the
    /// compound it names); empty where there is no such view.
    pub view_declassifies: Vec<TagId>,
    /// TPC-C scale (the read workloads carry the default and ignore it).
    pub tpcc: TpccConfig,
}

/// A session on `db` acting for `principal` under `label`.
pub fn labeled_session(
    db: &Database,
    principal: PrincipalId,
    label: &[TagId],
) -> IfdbResult<Session> {
    let mut s = db.session(principal);
    s.raise_label(&Label::from_tags(label.iter().copied()))?;
    Ok(s)
}

impl Loaded {
    /// A session on `db` — this database or its replica — acting as the
    /// workload's user under its label.
    pub fn session_on(&self, db: &Database) -> IfdbResult<Session> {
        labeled_session(db, self.principal, &self.label)
    }

    /// [`Loaded::session_on`] this database.
    pub fn session(&self) -> IfdbResult<Session> {
        self.session_on(&self.db)
    }
}

/// Creates the TPC-C principal and its label tags in the loader's order.
/// Principals and tags are code, not logged data: a replica or a recovered
/// database re-creates them, and with the same seed and order their ids
/// match the ids stored in the tuples.
fn create_tpcc_authority(db: &Database, tags: usize) -> IfdbResult<PrincipalId> {
    let principal = db.create_principal("tpcc", PrincipalKind::User);
    for i in 0..tags {
        db.create_tag(principal, &format!("tpcc_tag_{i}"), &[])?;
    }
    Ok(principal)
}

/// Reopens the TPC-C database in `dir` from its log alone.
pub fn recover_tpcc(workload: Workload, dir: &Path) -> IfdbResult<Database> {
    let db = Database::builder()
        .config(db_config(workload, dir, true))
        .recover()
        .first_boot_ddl(table_defs())
        .build()?;
    create_tpcc_authority(&db, tpcc_config(0).tags_per_label)?;
    Ok(db)
}

/// Loads the `data` table of the read workloads: [`DATA_ROWS`] rows under
/// [`DATA_LABELS`] single-tag labels (members of the compound `all_data`),
/// inserted round-robin by sixteen open loader sessions so adjacent heap
/// rows differ in label, plus the declassifying view `AllData`.
fn load_data(workload: Workload, seed: u64, config: DatabaseConfig) -> IfdbResult<Loaded> {
    let db = Database::builder().config(config).build()?;
    let service = db.create_principal("service", PrincipalKind::Service);
    let reader = db.create_principal("reader", PrincipalKind::User);
    let all_data = db.create_compound_tag(service, "all_data", &[])?;
    let tags = (0..DATA_LABELS)
        .map(|i| db.create_tag(reader, &format!("group{i}"), &[all_data]))
        .collect::<IfdbResult<Vec<TagId>>>()?;
    db.create_table(
        TableDef::new("data")
            .column("id", DataType::Int)
            .column("grp", DataType::Int)
            .column("val", DataType::Int)
            .primary_key(&["id"]),
    )?;
    let mut loaders = Vec::with_capacity(tags.len());
    for tag in &tags {
        let mut s = db.session(reader);
        s.add_secrecy(*tag)?;
        s.begin()?;
        loaders.push(s);
    }
    for (id, val) in gen::data_vals(seed).into_iter().enumerate() {
        let grp = id % DATA_LABELS;
        loaders[grp].insert(&Insert::new(
            "data",
            vec![
                Datum::Int(id as i64),
                Datum::Int(grp as i64),
                Datum::Int(val),
            ],
        ))?;
    }
    for mut s in loaders {
        s.commit()?;
    }
    db.create_declassifying_view(
        service,
        "AllData",
        ViewSource::Select(Select::star("data")),
        Label::singleton(all_data),
    )?;
    let auth = Arc::new(Authenticator::new());
    auth.register("reader", PASSWORD, reader);
    let held = match workload {
        Workload::PointRead => DATA_LABELS,
        _ => CONFINED_TAGS,
    };
    Ok(Loaded {
        db,
        auth,
        user: "reader",
        principal: reader,
        label: tags[..held].to_vec(),
        view_declassifies: tags,
        tpcc: TpccConfig::default(),
    })
}

/// Loads a workload's database with the given storage configuration.
pub fn load(workload: Workload, seed: u64, config: DatabaseConfig) -> IfdbResult<Loaded> {
    if !workload.is_tpcc() {
        return load_data(workload, seed, config);
    }
    let db = Database::builder().config(config).build()?;
    let loaded = TpccDatabase::load(db, tpcc_config(seed))?;
    let auth = Arc::new(Authenticator::new());
    auth.register("tpcc", PASSWORD, loaded.principal);
    Ok(Loaded {
        db: loaded.db,
        auth,
        user: "tpcc",
        principal: loaded.principal,
        label: loaded.label.iter().collect(),
        view_declassifies: Vec::new(),
        tpcc: loaded.config,
    })
}

/// A running deployment: the server under test over a loaded database, and
/// for `tpcc_repl` its replica.
pub struct Deployment {
    /// The primary (only) server.
    pub server: ServerHandle,
    /// The semi-synchronous follower of `tpcc_repl`.
    pub replica: Option<ReplicaHandle>,
    /// What the database was loaded with.
    pub loaded: Loaded,
}

impl Deployment {
    /// Starts the server (reactor backend, [`Workload::workers`] executors, defaults
    /// otherwise) and, for `tpcc_repl`, one follower with
    /// `ReplicaConfig::new` defaults in the same process.
    pub fn start(workload: Workload, loaded: Loaded) -> IfdbResult<Deployment> {
        let mut builder = ServerConfig::builder().workers(workload.workers());
        if workload == Workload::TpccRepl {
            builder = builder
                .replication_secret(REPLICATION_SECRET)
                .sync_replication(SYNC_REPLICATION_WINDOW);
        }
        let server = ifdb_server::start(loaded.db.clone(), loaded.auth.clone(), builder.build()?)?;
        let replica = if workload == Workload::TpccRepl {
            let tags = loaded.tpcc.tags_per_label;
            Some(ifdb_server::start_replica(
                ReplicaConfig::new(&server.addr().to_string(), REPLICATION_SECRET, AUTH_SEED),
                Arc::new(Authenticator::new()),
                move |db| create_tpcc_authority(db, tags).map(|_| ()),
            )?)
        } else {
            None
        };
        Ok(Deployment {
            server,
            replica,
            loaded,
        })
    }

    /// Opens one client connection with the workload's handshake label.
    pub fn connect(&self) -> IfdbResult<Connection> {
        Connection::connect(
            &ClientConfig::anonymous(&self.server.addr().to_string())
                .with_user(self.loaded.user, PASSWORD)
                .with_label(&self.loaded.label),
        )
    }

    /// Stops the replica, then the server; returns the database handle.
    pub fn shutdown(self) -> Loaded {
        if let Some(replica) = self.replica {
            replica.shutdown();
        }
        self.server.shutdown();
        self.loaded
    }
}

/// The benchmark's output directory, `benchmark/out`: span files, result
/// files, and the scratch directories of on-disk databases.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest_dir).join("out")
}

/// A scratch directory under [`out_dir`] that is removed on drop. One per
/// on-disk database, so concurrent invocations never share a log.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `out/scratch-<pid>/<name>`, empty.
    pub fn create(name: &str) -> IfdbResult<ScratchDir> {
        let path = out_dir()
            .join(format!("scratch-{}", std::process::id()))
            .join(name);
        let make = || -> std::io::Result<()> {
            if path.exists() {
                std::fs::remove_dir_all(&path)?;
            }
            std::fs::create_dir_all(&path)
        };
        make().map_err(|e| IfdbError::InvalidStatement(format!("{}: {e}", path.display())))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once the last scratch directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
