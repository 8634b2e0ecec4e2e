//! The experiment implementations, one per paper table/figure.

use std::time::{Duration, Instant};

use ifdb::{Database, DatabaseConfig};
use ifdb_cartel::scripts::figure3_mix;
use ifdb_cartel::{CartelApp, CartelConfig, TraceGenerator};
use ifdb_difc::audit::AuditEvent;
use ifdb_hotcrp::{HotcrpApp, HotcrpConfig};
use ifdb_platform::{ClosedLoopDriver, DriverConfig, Request};
use ifdb_workloads::{run_terminals, TerminalConfig, TpccConfig, TpccDatabase};
use serde::Serialize;

use crate::report::{header, pct_change, row, write_json};

/// How long / how large each experiment runs. `quick` keeps the whole suite
/// under a couple of minutes; `full` uses larger data sets and longer
/// measurement intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small data sets, sub-second measurement intervals.
    Quick,
    /// Larger data sets and multi-second intervals.
    Full,
}

impl ExperimentScale {
    /// Reads the scale from the `IFDB_BENCH_SCALE` environment variable
    /// (`full` or `quick`, default quick).
    pub fn from_env() -> Self {
        match std::env::var("IFDB_BENCH_SCALE").ok().as_deref() {
            Some("full") => ExperimentScale::Full,
            _ => ExperimentScale::Quick,
        }
    }

    fn measure_duration(self) -> Duration {
        match self {
            ExperimentScale::Quick => Duration::from_millis(400),
            ExperimentScale::Full => Duration::from_secs(5),
        }
    }
}

// ---------------------------------------------------------------------
// Figure 3 — the CarTel request mix
// ---------------------------------------------------------------------

/// One row of the Figure 3 table.
#[derive(Debug, Clone, Serialize)]
pub struct MixRow {
    /// Request frequency.
    pub freq: f64,
    /// Script name.
    pub request: String,
}

/// Prints (and returns) the CarTel request mix of Figure 3.
pub fn fig3_request_mix() -> Vec<MixRow> {
    header("Figure 3: CarTel HTTP request mix (excluding login)");
    let rows: Vec<MixRow> = figure3_mix()
        .into_iter()
        .map(|(freq, request)| MixRow { freq, request })
        .collect();
    for r in &rows {
        row(&r.request, format!("{:.2}", r.freq));
    }
    write_json("fig3_request_mix", &rows);
    rows
}

// ---------------------------------------------------------------------
// Figure 4 — CarTel web throughput (WIPS)
// ---------------------------------------------------------------------

/// The Figure 4 reproduction: web interactions per second in the
/// database-bound and web-server-bound configurations, baseline vs IFDB.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Report {
    /// DB-bound WIPS, PostgreSQL + PHP analogue.
    pub db_bound_baseline: f64,
    /// DB-bound WIPS, IFDB + PHP-IF analogue.
    pub db_bound_ifdb: f64,
    /// Web-bound WIPS, baseline.
    pub web_bound_baseline: f64,
    /// Web-bound WIPS, IFDB.
    pub web_bound_ifdb: f64,
}

fn cartel_driver(app: &CartelApp) -> ClosedLoopDriver {
    let users: Vec<String> = app
        .policy
        .users()
        .iter()
        .map(|u| u.username.clone())
        .collect();
    ClosedLoopDriver::new(app.server.clone(), move |script, user, rng| {
        use rand::Rng;
        let mut req = Request::new(script).as_user(user);
        if script == "drives.php" {
            // Mostly the user's own drives; occasionally a friend's.
            let target = if rng.gen_bool(0.8) || users.is_empty() {
                user.to_string()
            } else {
                users[rng.gen_range(0..users.len())].clone()
            };
            req = req.param("user", &target);
        }
        req
    })
}

fn run_cartel_wips(app: &CartelApp, clients: usize, duration: Duration, seed: u64) -> f64 {
    let driver = cartel_driver(app);
    let users: Vec<String> = app
        .policy
        .users()
        .iter()
        .map(|u| u.username.clone())
        .collect();
    let report = driver.run(&DriverConfig {
        clients,
        duration,
        mix: figure3_mix(),
        users,
        seed,
    });
    report.throughput
}

/// Reproduces Figure 4.
pub fn fig4_web_throughput(scale: ExperimentScale) -> Fig4Report {
    header("Figure 4: CarTel web throughput (web interactions per second)");
    let (users, meas) = match scale {
        ExperimentScale::Quick => (6, 40),
        ExperimentScale::Full => (16, 200),
    };
    let duration = scale.measure_duration();

    // In the DB-bound configuration the platform cost is negligible and many
    // clients keep the database busy (the paper used three web servers so the
    // DB was the bottleneck). In the web-bound configuration each request
    // pays a simulated platform CPU cost, and the IF layer adds its
    // bookkeeping on top (the paper measured ~22% lower throughput there).
    let mk = |difc: bool, web_bound: bool| CartelConfig {
        users,
        cars_per_user: 2,
        measurements_per_car: meas,
        difc,
        base_request_cost: if web_bound {
            Duration::from_micros(400)
        } else {
            Duration::ZERO
        },
        ifc_request_cost: if web_bound {
            Duration::from_micros(100)
        } else {
            Duration::ZERO
        },
        seed: 7,
    };

    let baseline_db = CartelApp::build(&mk(false, false));
    let ifdb_db = CartelApp::build(&mk(true, false));
    let baseline_web = CartelApp::build(&mk(false, true));
    let ifdb_web = CartelApp::build(&mk(true, true));

    let clients_db = 8;
    let clients_web = 2;
    let report = Fig4Report {
        db_bound_baseline: run_cartel_wips(&baseline_db, clients_db, duration, 1),
        db_bound_ifdb: run_cartel_wips(&ifdb_db, clients_db, duration, 2),
        web_bound_baseline: run_cartel_wips(&baseline_web, clients_web, duration, 3),
        web_bound_ifdb: run_cartel_wips(&ifdb_web, clients_web, duration, 4),
    };

    row(
        "database-bound  baseline (PostgreSQL+PHP)",
        format!("{:.1} WIPS", report.db_bound_baseline),
    );
    row(
        "database-bound  IFDB + PHP-IF",
        format!("{:.1} WIPS", report.db_bound_ifdb),
    );
    row(
        "database-bound  change",
        format!(
            "{:+.1}%",
            pct_change(report.db_bound_baseline, report.db_bound_ifdb)
        ),
    );
    row(
        "web-server-bound baseline (PostgreSQL+PHP)",
        format!("{:.1} WIPS", report.web_bound_baseline),
    );
    row(
        "web-server-bound IFDB + PHP-IF",
        format!("{:.1} WIPS", report.web_bound_ifdb),
    );
    row(
        "web-server-bound change",
        format!(
            "{:+.1}%",
            pct_change(report.web_bound_baseline, report.web_bound_ifdb)
        ),
    );
    write_json("fig4_web_throughput", &report);
    report
}

// ---------------------------------------------------------------------
// Figure 5 — per-script latency on an idle system
// ---------------------------------------------------------------------

/// Latency of one script under both configurations, in microseconds.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Script name.
    pub script: String,
    /// Mean latency with the baseline stack.
    pub baseline_us: f64,
    /// Mean latency with IFDB + the IF platform.
    pub ifdb_us: f64,
}

/// Reproduces Figure 5: a single client issues each request serially against
/// an otherwise idle system.
pub fn fig5_request_latency(scale: ExperimentScale) -> Vec<Fig5Row> {
    header("Figure 5: CarTel web request latency on an idle system");
    let iterations = match scale {
        ExperimentScale::Quick => 30,
        ExperimentScale::Full => 200,
    };
    let mk = |difc: bool| CartelConfig {
        users: 4,
        cars_per_user: 2,
        measurements_per_car: 60,
        difc,
        base_request_cost: Duration::from_micros(50),
        ifc_request_cost: Duration::from_micros(15),
        seed: 9,
    };
    let baseline = CartelApp::build(&mk(false));
    let ifdb = CartelApp::build(&mk(true));

    let scripts = [
        "login.php",
        "drives.php",
        "cars.php",
        "get_cars.php",
        "drives_top.php",
        "edit_account.php",
        "friends.php",
    ];
    let measure = |app: &CartelApp, script: &str| -> f64 {
        let user = &app.policy.users()[0];
        let req = Request::new(script)
            .as_user(&user.username)
            .param("user", &user.username);
        // Warm up once, then measure.
        app.server.handle(&req);
        let start = Instant::now();
        for _ in 0..iterations {
            app.server.handle(&req);
        }
        start.elapsed().as_micros() as f64 / iterations as f64
    };

    let mut rows = Vec::new();
    for script in scripts {
        let r = Fig5Row {
            script: script.to_string(),
            baseline_us: measure(&baseline, script),
            ifdb_us: measure(&ifdb, script),
        };
        row(
            script,
            format!(
                "baseline {:>8.1} us   ifdb {:>8.1} us   ({:+.0}%)",
                r.baseline_us,
                r.ifdb_us,
                pct_change(r.baseline_us, r.ifdb_us)
            ),
        );
        rows.push(r);
    }
    let weights = figure3_mix();
    let weighted = |f: &dyn Fn(&Fig5Row) -> f64| -> f64 {
        rows.iter()
            .map(|r| {
                let w = weights
                    .iter()
                    .find(|(_, s)| s == &r.script)
                    .map(|(w, _)| *w)
                    .unwrap_or(0.0);
                w * f(r)
            })
            .sum()
    };
    let base_mean = weighted(&|r| r.baseline_us);
    let ifdb_mean = weighted(&|r| r.ifdb_us);
    row(
        "weighted mean (Figure 3 mix)",
        format!(
            "{:+.0}% with IFDB + IF platform",
            pct_change(base_mean, ifdb_mean)
        ),
    );
    write_json("fig5_request_latency", &rows);
    rows
}

// ---------------------------------------------------------------------
// Section 8.2.2 — sensor data processing throughput
// ---------------------------------------------------------------------

/// The sensor-ingest comparison.
#[derive(Debug, Clone, Serialize)]
pub struct SensorReport {
    /// Measurements per second without labels (PostgreSQL analogue).
    pub baseline_per_sec: f64,
    /// Measurements per second with IFDB labels and closures.
    pub ifdb_per_sec: f64,
    /// Relative overhead in percent.
    pub overhead_pct: f64,
}

/// Reproduces the Section 8.2.2 measurement: replay GPS measurements as fast
/// as possible, 200 inserts per transaction, with the two maintenance
/// triggers firing per insert.
pub fn sensor_ingest_throughput(scale: ExperimentScale) -> SensorReport {
    header("Section 8.2.2: sensor data processing throughput");
    let measurements = match scale {
        ExperimentScale::Quick => 2_000,
        ExperimentScale::Full => 20_000,
    };
    let run = |difc: bool| -> f64 {
        let app = CartelApp::build(&CartelConfig {
            users: 4,
            cars_per_user: 1,
            measurements_per_car: 0,
            difc,
            seed: 21,
            ..Default::default()
        });
        let mut gen = TraceGenerator::new(5);
        let mut trace = Vec::new();
        let users = app.policy.users().to_vec();
        for (i, user) in users.iter().enumerate() {
            let carid = user.userid * 100;
            trace.extend(gen.trace(carid, user.userid, measurements / users.len().max(1)));
            let _ = i;
        }
        let start = Instant::now();
        let n = app.ingest.ingest(&trace).expect("ingest");
        n as f64 / start.elapsed().as_secs_f64()
    };
    let baseline = run(false);
    let ifdb = run(true);
    let report = SensorReport {
        baseline_per_sec: baseline,
        ifdb_per_sec: ifdb,
        overhead_pct: -pct_change(baseline, ifdb),
    };
    row(
        "baseline (no labels)",
        format!("{baseline:.0} measurements/s"),
    );
    row(
        "IFDB (labels + closures)",
        format!("{ifdb:.0} measurements/s"),
    );
    row("overhead", format!("{:.1}%", report.overhead_pct));
    write_json("sensor_ingest_throughput", &report);
    report
}

// ---------------------------------------------------------------------
// Figure 6 — DBT-2 throughput vs tags per label
// ---------------------------------------------------------------------

/// One point of the Figure 6 curves.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Point {
    /// Number of tags in every tuple's label.
    pub tags: usize,
    /// NOTPM on the in-memory database.
    pub in_memory_notpm: f64,
    /// NOTPM on the disk-bound database.
    pub on_disk_notpm: f64,
}

/// The Figure 6 report: baseline (PostgreSQL) plus IFDB at 0–10 tags.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Report {
    /// Baseline NOTPM (DIFC disabled), in-memory.
    pub baseline_in_memory: f64,
    /// Baseline NOTPM (DIFC disabled), disk-bound.
    pub baseline_on_disk: f64,
    /// IFDB measurements per tag count.
    pub points: Vec<Fig6Point>,
}

fn run_tpcc(
    difc: bool,
    tags: usize,
    on_disk: bool,
    duration: Duration,
    dir: &std::path::Path,
) -> f64 {
    let db = if on_disk {
        let sub = dir.join(format!("tpcc_{}_{}_{}", difc, tags, on_disk));
        Database::new(
            DatabaseConfig::on_disk(sub, 96)
                .with_difc(difc)
                .with_seed(tags as u64 + 1),
        )
    } else {
        Database::new(
            DatabaseConfig::in_memory()
                .with_difc(difc)
                .with_seed(tags as u64 + 1),
        )
    };
    let tpcc = TpccDatabase::load(
        db,
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 4,
            customers_per_district: 20,
            items: 60,
            initial_orders_per_district: 5,
            tags_per_label: tags,
            seed: 3,
        },
    )
    .expect("tpcc load");
    let config = TerminalConfig {
        terminals: 1,
        duration,
        seed: 11,
    };
    let (outcome, _) = run_terminals(
        &config,
        |_| tpcc.session(),
        |s, rng, kind| tpcc.run_transaction(s, rng, kind),
    );
    outcome.notpm
}

/// Reproduces Figure 6: new-order transactions per minute as a function of
/// the number of tags per tuple label, for an in-memory and a disk-bound
/// database, against the no-label baseline.
pub fn fig6_dbt2_labels(scale: ExperimentScale) -> Fig6Report {
    header("Figure 6: DBT-2 throughput (NOTPM) vs tags per label");
    let duration = scale.measure_duration();
    let tag_counts: Vec<usize> = match scale {
        ExperimentScale::Quick => vec![0, 2, 6, 10],
        ExperimentScale::Full => vec![0, 1, 2, 4, 6, 8, 10],
    };
    let dir = std::env::temp_dir().join(format!("ifdb-fig6-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok();

    let baseline_in_memory = run_tpcc(false, 0, false, duration, &dir);
    let baseline_on_disk = run_tpcc(false, 0, true, duration, &dir);
    row(
        "PostgreSQL baseline, in-memory",
        format!("{baseline_in_memory:.0} NOTPM"),
    );
    row(
        "PostgreSQL baseline, disk-bound",
        format!("{baseline_on_disk:.0} NOTPM"),
    );

    let mut points = Vec::new();
    for tags in tag_counts {
        let in_memory = run_tpcc(true, tags, false, duration, &dir);
        let on_disk = run_tpcc(true, tags, true, duration, &dir);
        row(
            &format!("IFDB, {tags:>2} tags/label"),
            format!(
                "in-memory {in_memory:>8.0} NOTPM ({:+.1}%)   disk-bound {on_disk:>8.0} NOTPM ({:+.1}%)",
                pct_change(baseline_in_memory, in_memory),
                pct_change(baseline_on_disk, on_disk)
            ),
        );
        points.push(Fig6Point {
            tags,
            in_memory_notpm: in_memory,
            on_disk_notpm: on_disk,
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    let report = Fig6Report {
        baseline_in_memory,
        baseline_on_disk,
        points,
    };
    write_json("fig6_dbt2_labels", &report);
    report
}

// ---------------------------------------------------------------------
// Section 6.3 — the trusted base
// ---------------------------------------------------------------------

/// The trusted-base comparison of Section 6.3.
#[derive(Debug, Clone, Serialize)]
pub struct TrustedBaseReport {
    /// Authority-bearing catalog objects (declassifying views, closure
    /// triggers/procedures) in the CarTel port.
    pub cartel_trusted_components: usize,
    /// Declassifications while exercising CarTel: the chain's
    /// `Declassify` links (scripts' `declassify_all` calls, closure
    /// unwinds) plus the counted uses of declassifying views.
    pub cartel_declassifications: usize,
    /// Authority-bearing catalog objects in the HotCRP port.
    pub hotcrp_trusted_components: usize,
    /// Declassifications while exercising HotCRP, counted as CarTel's.
    pub hotcrp_declassifications: usize,
}

/// Reports the size of the trusted base in both ported applications, the
/// analogue of the "380 of 10,000 lines" / "760 of 29,000 lines" counts in
/// Section 6.3.
pub fn trusted_base_report() -> TrustedBaseReport {
    header("Section 6.3: trusted-base footprint of the ported applications");
    let cartel = CartelApp::build(&CartelConfig {
        users: 4,
        cars_per_user: 1,
        measurements_per_car: 20,
        ..Default::default()
    });
    // Exercise a few requests so the audit trail reflects real declassifications.
    for user in cartel.policy.users() {
        for script in ["cars.php", "drives.php", "drives_top.php"] {
            cartel.server.handle(
                &Request::new(script)
                    .as_user(&user.username)
                    .param("user", &user.username),
            );
        }
    }
    let hotcrp = HotcrpApp::build(&HotcrpConfig::default());
    for script in ["pc_members.php", "search.php"] {
        hotcrp.server.handle(&Request::new(script));
    }

    let report = TrustedBaseReport {
        cartel_trusted_components: cartel.db.trusted_component_count(),
        cartel_declassifications: declassifications(&cartel.db),
        hotcrp_trusted_components: hotcrp.db.trusted_component_count(),
        hotcrp_declassifications: declassifications(&hotcrp.db),
    };
    row(
        "CarTel authority-bearing catalog objects",
        report.cartel_trusted_components,
    );
    row(
        "CarTel declassification events (audited)",
        report.cartel_declassifications,
    );
    row(
        "HotCRP authority-bearing catalog objects",
        report.hotcrp_trusted_components,
    );
    row(
        "HotCRP declassification events (audited)",
        report.hotcrp_declassifications,
    );
    write_json("trusted_base_report", &report);
    report
}

/// The declassifications `db` has seen: chained ones plus counted ones.
fn declassifications(db: &Database) -> usize {
    let chain = db.replay_audit();
    let chained = chain
        .iter()
        .filter(|e| matches!(e, AuditEvent::Declassify { .. }))
        .count();
    chained + db.audit_counters().declassifications() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_mix_matches_paper() {
        let rows = fig3_request_mix();
        assert_eq!(rows.len(), 6);
        assert!((rows.iter().map(|r| r.freq).sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].request, "get_cars.php");
    }

    #[test]
    fn trusted_base_is_nonzero_and_small() {
        let r = trusted_base_report();
        assert!(r.cartel_trusted_components >= 3);
        assert!(r.cartel_trusted_components < 10);
        assert!(r.hotcrp_trusted_components >= 1);
        assert!(r.cartel_declassifications > 0);
    }

    #[test]
    fn sensor_ingest_runs_both_configurations() {
        let r = sensor_ingest_throughput(ExperimentScale::Quick);
        assert!(r.baseline_per_sec > 0.0);
        assert!(r.ifdb_per_sec > 0.0);
    }
}
