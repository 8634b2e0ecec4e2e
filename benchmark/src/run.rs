//! The measured (untraced) run: closed-loop clients over the wire against a
//! freshly loaded database, a fixed operation count per repeat, output
//! checks on everything that comes back.
//!
//! Work per repeat is fixed and generated from the seed, because per-statement
//! cost in this system grows with the transactions a database has ever
//! started: a time-boxed section would measure its own history. `--seconds`
//! only decides how many fixed-work repeats are run.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use ifdb::prelude::*;
use ifdb_client::ClientStats;
use ifdb_server::{ReplicaStats, ServerStats};
use ifdb_storage::EngineStats;
use ifdb_workloads::TpccTransaction;

use crate::fixture::{self, Deployment, ScratchDir, Workload, CLIENTS};
use crate::gen::{self, ReadOp};
use crate::ops::{run_op, Op, OpContext};
use crate::stats;

/// Fewest repeats a run reports a median of.
pub const MIN_REPEATS: usize = 3;
/// Most repeats a run makes, however fast they are.
pub const MAX_REPEATS: usize = 40;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Repeats are added until their timed sections sum to this.
    pub seconds: f64,
    /// Divisor on the per-repeat operation count (`--smoke` uses 10).
    pub ops_divisor: usize,
    /// Closed-loop clients ([`CLIENTS`]; the determinism self-test uses 1).
    pub clients: usize,
    /// Run exactly this many repeats instead of filling `seconds`.
    pub fixed_repeats: Option<usize>,
    /// Self-test aid: corrupt one expected answer so a check must fail.
    pub corrupt_check: bool,
}

impl RunOptions {
    /// Full-scale options for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        RunOptions {
            workload,
            seed,
            seconds,
            ops_divisor: 1,
            clients: CLIENTS,
            fixed_repeats: None,
            corrupt_check: false,
        }
    }

    /// Operations each client times in one repeat.
    pub fn ops_per_client(&self) -> usize {
        (self.workload.ops_per_client() / self.ops_divisor).max(20)
    }
}

/// Counter structs of every layer, read together.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `Database::engine().stats()` of the primary.
    pub engine: EngineStats,
    /// `ServerHandle::stats()` of the primary.
    pub server: ServerStats,
    /// `ReplicaHandle::stats()`; zero without a replica.
    pub replica: ReplicaStats,
    /// Refusals by the QoS gate: `qos.refused_in_flight + qos.refused_rate`
    /// of the metrics tree.
    pub qos_refused: u64,
}

impl Counters {
    /// Reads every counter of a running deployment.
    pub fn read(dep: &Deployment) -> Counters {
        let metrics = dep.server.metrics();
        let qos = |counter: &str| metrics.get("qos", counter).unwrap_or(0);
        let qos_refused = qos("refused_in_flight") + qos("refused_rate");
        Counters {
            engine: dep.loaded.db.engine().stats(),
            server: dep.server.stats(),
            replica: dep.replica.as_ref().map(|r| r.stats()).unwrap_or_default(),
            qos_refused,
        }
    }
}

/// Client-side counters summed over the connections.
fn add_client_stats(a: ClientStats, b: ClientStats) -> ClientStats {
    ClientStats {
        round_trips: a.round_trips + b.round_trips,
        statements: a.statements + b.statements,
        prepares: a.prepares + b.prepares,
        extra_fetches: a.extra_fetches + b.extra_fetches,
        pipelined: a.pipelined + b.pipelined,
    }
}

fn sub_client_stats(a: ClientStats, b: ClientStats) -> ClientStats {
    ClientStats {
        round_trips: a.round_trips - b.round_trips,
        statements: a.statements - b.statements,
        prepares: a.prepares - b.prepares,
        extra_fetches: a.extra_fetches - b.extra_fetches,
        pipelined: a.pipelined - b.pipelined,
    }
}

/// What one repeat measured.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Load + server/replica start + connect.
    pub setup_s: f64,
    /// Wall time of the timed section (first client start to last end).
    pub timed_s: f64,
    /// Operations attempted in the timed section.
    pub attempted: u64,
    /// Of those, how many errored, were refused or failed their check.
    pub failed: u64,
    /// Warm-up operations that failed (nothing may go wrong untimed either).
    pub warmup_failed: u64,
    /// Write-conflict rollbacks retried (not errors).
    pub retries: u64,
    /// Send→reply latency of every timed operation, by operation kind.
    pub latency_us: BTreeMap<&'static str, Vec<f64>>,
    /// Counters when the timed section began.
    pub before: Counters,
    /// Counters when it ended.
    pub after: Counters,
    /// Client counters over the timed section, summed over connections.
    pub client: ClientStats,
    /// Pages of the loaded heap, all tables (before the timed section).
    pub heap_pages: u64,
    /// How long the replica took to apply the primary's tail after the last
    /// acknowledgement (`tpcc_repl` only).
    pub replica_catchup_ms: f64,
    /// Largest primary-minus-replica record lag seen at an operation boundary.
    pub replica_lag_max: u64,
}

impl Repeat {
    /// Operations that completed and passed their check.
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }

    /// The latency population the end-to-end percentiles are taken over:
    /// every operation of a read workload, the New-Order transactions
    /// (retries included) of a TPC-C one.
    pub fn headline_latencies(&self, workload: Workload) -> Vec<f64> {
        if workload.is_tpcc() {
            self.latency_us
                .get(gen::tx_name(TpccTransaction::NewOrder))
                .cloned()
                .unwrap_or_default()
        } else {
            self.all_latencies()
        }
    }

    /// Latencies of every timed operation.
    pub fn all_latencies(&self) -> Vec<f64> {
        self.latency_us.values().flatten().copied().collect()
    }
}

fn op_kind(op: &Op) -> &'static str {
    match op {
        Op::Read(ReadOp::Point { .. }) => "point",
        Op::Read(ReadOp::ViewRange { .. }) => "view_range",
        Op::Read(ReadOp::ConfinedEq { .. }) => "confined_eq",
        Op::Tpcc(card) => gen::tx_name(card.kind),
    }
}

/// The operation stream of one client in one repeat: `warm` untimed
/// operations, then `n` timed ones. The warm-up is its own stream, so the
/// timed operations do not depend on how long the warm-up is.
pub fn client_ops(workload: Workload, seed: u64, repeat: u64, client: u64, n: usize) -> Vec<Op> {
    match workload {
        Workload::PointRead => gen::point_read_ops(seed, repeat, client, n)
            .into_iter()
            .map(Op::Read)
            .collect(),
        Workload::LabelScan => gen::label_scan_ops(seed, repeat, client, n)
            .into_iter()
            .map(Op::Read)
            .collect(),
        Workload::Tpcc | Workload::TpccRepl => gen::tpcc_cards(seed, repeat, client, n)
            .into_iter()
            .map(Op::Tpcc)
            .collect(),
    }
}

/// Client index offset that selects the warm-up stream.
const WARM_STREAM: u64 = 1 << 32;

/// An operation whose check cannot pass, for the corrupt-check self-test.
fn corrupted(op: &Op) -> Op {
    match op {
        Op::Read(ReadOp::Point { id, val }) => Op::Read(ReadOp::Point {
            id: *id,
            val: val + 1,
        }),
        Op::Read(ReadOp::ConfinedEq { grp, rows }) => Op::Read(ReadOp::ConfinedEq {
            grp: *grp,
            rows: rows + 1,
        }),
        // Its check is a row count fixed by the window width: ask for a
        // group instead and expect the wrong count.
        Op::Read(ReadOp::ViewRange { .. }) => Op::Read(ReadOp::ConfinedEq { grp: 0, rows: 1 }),
        // TPC-C is checked on its final state; see `checks::expected_orders`.
        Op::Tpcc(card) => Op::Tpcc(*card),
    }
}

struct ClientRun {
    latencies: Vec<(&'static str, f64)>,
    warmup_failed: u64,
    failed: u64,
    retries: u64,
    new_orders_acked: u64,
    lag_max: u64,
    start: Instant,
    end: Instant,
    stats: ClientStats,
}

/// A repeat's deployment, still running, with what its final checks need.
pub struct Finished {
    /// What the repeat measured.
    pub repeat: Repeat,
    /// The deployment the repeat ran on.
    pub deployment: Deployment,
    /// New-Order transactions acknowledged, warm-up included.
    pub new_orders_acked: u64,
    /// Directory of the on-disk database (TPC-C), removed on drop.
    pub dir: ScratchDir,
}

/// Runs one repeat: load, start, connect (timed as set-up), warm up, then
/// the timed section.
pub fn run_repeat(opts: &RunOptions, repeat: u64) -> IfdbResult<Finished> {
    let workload = opts.workload;
    let dir = ScratchDir::create(&format!("{}-r{repeat}", workload.name()))?;

    let setup = Instant::now();
    let loaded = fixture::load(
        workload,
        opts.seed,
        fixture::db_config(workload, dir.path(), true),
    )?;
    let deployment = Deployment::start(workload, loaded)?;
    let mut connections = Vec::with_capacity(opts.clients);
    for _ in 0..opts.clients {
        connections.push(deployment.connect()?);
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let n = opts.ops_per_client();
    let warm = (n / 20).max(1);
    let heap_pages = heap_pages(&deployment.loaded.db);
    let barrier = Barrier::new(opts.clients + 1);
    let primary_wal = deployment.loaded.db.clone();
    let applied = deployment.replica.as_ref().map(|r| r.applied_seq_handle());

    let (before, runs) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (client, mut conn) in connections.into_iter().enumerate() {
            let barrier = &barrier;
            let ctx = OpContext {
                tpcc: deployment.loaded.tpcc.clone(),
                warehouse: client as i64 + 1,
                check_outputs: true,
            };
            let warm_ops = client_ops(
                workload,
                opts.seed,
                repeat,
                client as u64 + WARM_STREAM,
                warm,
            );
            let mut ops = client_ops(workload, opts.seed, repeat, client as u64, n);
            if opts.corrupt_check && client == 0 {
                ops[0] = corrupted(&ops[0]);
            }
            let primary_wal = primary_wal.clone();
            let applied = applied.clone();
            handles.push(scope.spawn(move || {
                let mut new_orders_acked = 0;
                let mut warmup_failed = 0;
                for op in &warm_ops {
                    let out = run_op(&mut conn, &ctx, op);
                    warmup_failed += u64::from(!out.ok);
                    new_orders_acked += u64::from(out.ok && op_kind(op) == "new_order");
                }
                barrier.wait();
                barrier.wait();
                let stats_before = conn.stats();
                let mut run = ClientRun {
                    latencies: Vec::with_capacity(ops.len()),
                    warmup_failed,
                    failed: 0,
                    retries: 0,
                    new_orders_acked,
                    lag_max: 0,
                    start: Instant::now(),
                    end: Instant::now(),
                    stats: ClientStats::default(),
                };
                for op in &ops {
                    let sent = Instant::now();
                    let out = run_op(&mut conn, &ctx, op);
                    let us = sent.elapsed().as_secs_f64() * 1e6;
                    let kind = op_kind(op);
                    run.latencies.push((kind, us));
                    run.failed += u64::from(!out.ok);
                    run.retries += u64::from(out.retries);
                    run.new_orders_acked += u64::from(out.ok && kind == "new_order");
                    if let Some(applied) = &applied {
                        let lag = primary_wal
                            .engine()
                            .wal()
                            .last_seq()
                            .saturating_sub(applied.load(std::sync::atomic::Ordering::Acquire));
                        run.lag_max = run.lag_max.max(lag);
                    }
                }
                run.end = Instant::now();
                run.stats = sub_client_stats(conn.stats(), stats_before);
                let _ = conn.close();
                run
            }));
        }
        barrier.wait();
        let before = Counters::read(&deployment);
        barrier.wait();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (before, runs)
    });
    let after = Counters::read(&deployment);

    // tpcc_repl: how long until the replica holds everything acknowledged.
    let mut replica_catchup_ms = 0.0;
    if let Some(replica) = &deployment.replica {
        let target = deployment.loaded.db.engine().wal().last_seq();
        let wait = Instant::now();
        if !replica.wait_for_seq(target, std::time::Duration::from_secs(20)) {
            return Err(IfdbError::InvalidStatement(
                "replica did not catch up with the primary within 20 s".into(),
            ));
        }
        replica_catchup_ms = wait.elapsed().as_secs_f64() * 1e3;
    }

    let start = runs.iter().map(|r| r.start).min().expect("clients >= 1");
    let end = runs.iter().map(|r| r.end).max().expect("clients >= 1");
    let mut repeat = Repeat {
        setup_s,
        timed_s: (end - start).as_secs_f64(),
        attempted: (n * opts.clients) as u64,
        before,
        after,
        heap_pages,
        replica_catchup_ms,
        ..Repeat::default()
    };
    let mut new_orders_acked = 0;
    for run in runs {
        repeat.warmup_failed += run.warmup_failed;
        repeat.failed += run.failed;
        repeat.retries += run.retries;
        repeat.client = add_client_stats(repeat.client, run.stats);
        repeat.replica_lag_max = repeat.replica_lag_max.max(run.lag_max);
        new_orders_acked += run.new_orders_acked;
        for (kind, us) in run.latencies {
            repeat.latency_us.entry(kind).or_default().push(us);
        }
    }
    Ok(Finished {
        repeat,
        deployment,
        new_orders_acked,
        dir,
    })
}

/// Pages across every table heap of `db`.
pub fn heap_pages(db: &Database) -> u64 {
    let engine = db.engine();
    engine
        .table_names()
        .iter()
        .filter_map(|name| engine.table_by_name(name).ok())
        .map(|t| t.heap().page_count() as u64)
        .sum()
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// The whole measured run of one workload.
#[derive(Debug, Clone, Default)]
pub struct RunData {
    /// Every repeat, in order.
    pub repeats: Vec<Repeat>,
    /// Final-state checks that failed, described.
    pub check_failures: Vec<String>,
    /// `VmHWM` when the first repeat's timed section ended: the peak of
    /// loading the database and running one repeat's fixed work. Taken
    /// there because how many repeats follow depends on how fast they run,
    /// and memory the allocator keeps from earlier repeats would make a
    /// later peak depend on that count.
    pub rss_peak_mb: f64,
}

impl RunData {
    /// Failures outside the timed sections: warm-up operations and
    /// final-state checks. Each counts as one operation attempted and failed.
    fn untimed_failures(&self) -> u64 {
        self.repeats.iter().map(|r| r.warmup_failed).sum::<u64>() + self.check_failures.len() as u64
    }

    /// Operations attempted in the timed sections, plus the untimed failures.
    pub fn attempted(&self) -> u64 {
        self.repeats.iter().map(|r| r.attempted).sum::<u64>() + self.untimed_failures()
    }

    /// Operations that failed in the timed sections, plus the untimed failures.
    pub fn failed(&self) -> u64 {
        self.repeats.iter().map(|r| r.failed).sum::<u64>() + self.untimed_failures()
    }

    /// Per-repeat values of `f`, for medians and spreads.
    pub fn per_repeat(&self, f: impl Fn(&Repeat) -> f64) -> Vec<f64> {
        self.repeats.iter().map(f).collect()
    }

    /// Sum of a counter delta over the repeats.
    pub fn total(&self, f: impl Fn(&Counters) -> u64) -> u64 {
        self.repeats
            .iter()
            .map(|r| f(&r.after).saturating_sub(f(&r.before)))
            .sum()
    }

    /// Operations that completed and passed their check, all repeats.
    pub fn ok_ops(&self) -> u64 {
        self.repeats.iter().map(Repeat::ok_ops).sum()
    }
}

/// Runs fixed-work repeats until their timed sections sum to
/// `opts.seconds` (at least [`MIN_REPEATS`]), checking the final state of
/// each and, after the last, that a recovered copy holds every
/// acknowledged order.
pub fn run_measured(opts: &RunOptions) -> IfdbResult<RunData> {
    let mut data = RunData::default();
    let mut timed = 0.0;
    loop {
        let index = data.repeats.len();
        let finished = run_repeat(opts, index as u64)?;
        if index == 0 {
            data.rss_peak_mb = rss_peak_mb();
        }
        timed += finished.repeat.timed_s;
        data.repeats.push(finished.repeat.clone());
        let done = match opts.fixed_repeats {
            Some(n) => data.repeats.len() >= n,
            None => {
                data.repeats.len() >= MAX_REPEATS
                    || (data.repeats.len() >= MIN_REPEATS && timed >= opts.seconds)
            }
        };
        data.check_failures.extend(
            crate::checks::state_failures(opts, &finished)
                .into_iter()
                .map(|f| format!("repeat {index}: {f}")),
        );
        if done {
            data.check_failures.extend(
                crate::checks::recovery_failures(opts, finished)
                    .into_iter()
                    .map(|f| format!("repeat {index}: {f}")),
            );
            return Ok(data);
        }
        finished.deployment.shutdown();
    }
}

/// The end-to-end metrics of a measured run, by the names in
/// `BENCHMARK.json`, each with its unit and the min–max over the repeats.
pub fn end_to_end(opts: &RunOptions, data: &RunData) -> Vec<crate::report::Metric> {
    use crate::report::Metric;
    let workload = opts.workload;
    let throughput = data.per_repeat(|r| r.ok_ops() as f64 / r.timed_s);
    let percentile_of = |p: f64| {
        data.per_repeat(|r| {
            stats::percentile(&r.headline_latencies(workload), p)
                .map(|x| x.value)
                .unwrap_or(f64::NAN)
        })
    };
    let samples = data
        .repeats
        .first()
        .map(|r| r.headline_latencies(workload).len())
        .unwrap_or(0);
    let wal_bytes = data.total(|c| c.engine.wal_bytes) as f64 / data.ok_ops().max(1) as f64;
    vec![
        Metric::over("throughput_ops_s", "ops/s", &throughput),
        Metric::over("latency_p50_us", "us", &percentile_of(0.50)).samples(samples),
        Metric::over("latency_p95_us", "us", &percentile_of(0.95)).samples(samples),
        Metric::over("setup_s", "s", &data.per_repeat(|r| r.setup_s)),
        Metric::single("rss_peak_mb", "MB", data.rss_peak_mb),
        Metric::single("wal_bytes_per_op", "bytes", wal_bytes),
    ]
}
