//! The bench-regression gate: compares a fresh `BENCH_pr*.json` against the
//! committed baselines in `bench_baselines.json` and fails (exit-code-wise)
//! on regression. Which checks run is picked from the report's file name
//! (`...pr5...` → the replication suite, `...pr6...` → the reactor suite).
//!
//! Three kinds of checks:
//!
//! * **hard floors** (`min_*`) — the PR's acceptance criteria, applied
//!   as-is (no tolerance): labeled-read scaling with two replicas, the
//!   idle-connection count;
//! * **hard ceilings** (`max_*`) — acceptance criteria that bound a cost
//!   from above, also applied as-is: resident KB per idle connection;
//! * **baseline bands** (`baseline_*`) — absolute throughput numbers
//!   (read WIPS, NOTPM under replication, reactor WIPS) measured on a
//!   reference run and committed; a fresh run must stay above `baseline ×
//!   (1 − tolerance_frac)`. The band is wide because CI hosts vary — the
//!   gate exists to catch order-of-magnitude regressions (an accidental
//!   `fsync` per read, a replication stall, a reactor busy-loop), not 5%
//!   noise.
//!
//! Baselines are plain JSON so a legitimate perf change updates them in the
//! same commit that changes the numbers, and the diff documents the shift.

use std::path::Path;

use serde_json::Value;

/// One evaluated check.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// The metric's path inside the report (e.g. `read_scaling_0_to_2`).
    pub metric: String,
    /// The measured value.
    pub actual: f64,
    /// The bound the gate enforced (after tolerance, for bands).
    pub required: f64,
    /// `false` for a floor/band (`actual >= required` passes), `true` for a
    /// ceiling (`actual <= required` passes).
    pub ceiling: bool,
    /// Whether the check passed.
    pub pass: bool,
}

/// The gate's verdict.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Every evaluated check.
    pub checks: Vec<GateCheck>,
}

impl GateOutcome {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// The checks one report is held to: `(metric path, baselines key)` pairs.
struct Suite {
    floors: &'static [(&'static str, &'static str)],
    ceilings: &'static [(&'static str, &'static str)],
    bands: &'static [(&'static str, &'static str)],
}

const PR5_SUITE: Suite = Suite {
    floors: &[
        ("read_scaling_0_to_2", "min_read_scaling_0_to_2"),
        ("stmt_cache_hit_rate", "min_stmt_cache_hit_rate"),
    ],
    ceilings: &[],
    bands: &[
        ("read_wips_two_replicas", "baseline_read_wips_two_replicas"),
        (
            "notpm_under_replication",
            "baseline_notpm_under_replication",
        ),
    ],
};

const PR6_SUITE: Suite = Suite {
    floors: &[("idle_connections", "min_idle_connections")],
    ceilings: &[("idle_kb_per_connection", "max_idle_kb_per_connection")],
    bands: &[("reactor_wips", "baseline_reactor_wips")],
};

const PR7_SUITE: Suite = Suite {
    floors: &[
        ("notpm_scaling_1_to_2", "min_notpm_scaling_1_to_2"),
        ("notpm_scaling_1_to_4", "min_notpm_scaling_1_to_4"),
    ],
    ceilings: &[("fastpath_overhead_frac", "max_fastpath_overhead_frac")],
    bands: &[("notpm_one_shard", "baseline_notpm_one_shard")],
};

const PR8_SUITE: Suite = Suite {
    floors: &[("notpm_post_over_pre", "min_notpm_post_over_pre")],
    ceilings: &[(
        "failover_unavailability_ms",
        "max_failover_unavailability_ms",
    )],
    bands: &[("notpm_pre_failover", "baseline_notpm_pre_failover")],
};

const PR10_SUITE: Suite = Suite {
    floors: &[("isolation_ratio_protected", "min_isolation_ratio_protected")],
    ceilings: &[("audit_overhead_frac", "max_audit_overhead_frac")],
    bands: &[("notpm_solo", "baseline_notpm_qos_solo")],
};

/// Picks the check suite from the report's file name.
fn suite_for(report_path: &Path) -> &'static Suite {
    let name = report_path
        .file_name()
        .map(|n| n.to_string_lossy().to_lowercase())
        .unwrap_or_default();
    if name.contains("pr10") {
        &PR10_SUITE
    } else if name.contains("pr8") {
        &PR8_SUITE
    } else if name.contains("pr7") {
        &PR7_SUITE
    } else if name.contains("pr6") {
        &PR6_SUITE
    } else {
        &PR5_SUITE
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn metric(report: &Value, path: &str) -> Result<f64, String> {
    report
        .path(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("report has no numeric metric at {path:?}"))
}

fn bound(baselines: &Value, key: &str) -> Result<f64, String> {
    baselines
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("baselines missing {key:?}"))
}

/// Runs the gate: `report_path` is a fresh `BENCH_pr*.json`,
/// `baselines_path` the committed `bench_baselines.json`.
pub fn run_gate(report_path: &Path, baselines_path: &Path) -> Result<GateOutcome, String> {
    let report = load(report_path)?;
    let baselines = load(baselines_path)?;
    let suite = suite_for(report_path);
    let tolerance = baselines
        .get("tolerance_frac")
        .and_then(Value::as_f64)
        .unwrap_or(0.35);
    let mut checks = Vec::new();

    // Hard floors: the acceptance criteria themselves.
    for (metric_path, key) in suite.floors {
        let required = bound(&baselines, key)?;
        let actual = metric(&report, metric_path)?;
        checks.push(GateCheck {
            metric: metric_path.to_string(),
            actual,
            required,
            ceiling: false,
            pass: actual >= required,
        });
    }

    // Hard ceilings: acceptance criteria that cap a cost.
    for (metric_path, key) in suite.ceilings {
        let required = bound(&baselines, key)?;
        let actual = metric(&report, metric_path)?;
        checks.push(GateCheck {
            metric: metric_path.to_string(),
            actual,
            required,
            ceiling: true,
            pass: actual <= required,
        });
    }

    // Baseline bands: measured throughput must stay within the tolerance
    // band of the committed reference numbers.
    for (metric_path, key) in suite.bands {
        let baseline = bound(&baselines, key)?;
        let required = baseline * (1.0 - tolerance);
        let actual = metric(&report, metric_path)?;
        checks.push(GateCheck {
            metric: metric_path.to_string(),
            actual,
            required,
            ceiling: false,
            pass: actual >= required,
        });
    }

    Ok(GateOutcome { checks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("ifdb-gate-{name}-{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    const BASELINES: &str = r#"{
        "tolerance_frac": 0.5,
        "min_read_scaling_0_to_2": 1.8,
        "min_stmt_cache_hit_rate": 0.9,
        "baseline_read_wips_two_replicas": 1000.0,
        "baseline_notpm_under_replication": 2000.0,
        "min_idle_connections": 1000,
        "max_idle_kb_per_connection": 96.0,
        "baseline_reactor_wips": 5000.0,
        "min_notpm_scaling_1_to_2": 1.7,
        "min_notpm_scaling_1_to_4": 2.8,
        "max_fastpath_overhead_frac": 0.10,
        "baseline_notpm_one_shard": 4000.0,
        "min_notpm_post_over_pre": 0.5,
        "max_failover_unavailability_ms": 2500.0,
        "baseline_notpm_pre_failover": 3000.0,
        "min_isolation_ratio_protected": 0.9,
        "max_audit_overhead_frac": 0.15,
        "baseline_notpm_qos_solo": 3000.0
    }"#;

    #[test]
    fn healthy_report_passes() {
        let report = write_tmp(
            "ok",
            r#"{
                "read_scaling_0_to_2": 2.4,
                "stmt_cache_hit_rate": 0.99,
                "read_wips_two_replicas": 900.0,
                "notpm_under_replication": 1500.0
            }"#,
        );
        let baselines = write_tmp("ok-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.checks);
        assert_eq!(outcome.checks.len(), 4);
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn regression_fails_the_gate() {
        let report = write_tmp(
            "bad",
            r#"{
                "read_scaling_0_to_2": 1.1,
                "stmt_cache_hit_rate": 0.99,
                "read_wips_two_replicas": 120.0,
                "notpm_under_replication": 1900.0
            }"#,
        );
        let baselines = write_tmp("bad-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(!outcome.passed());
        let failed: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(
            failed,
            vec!["read_scaling_0_to_2", "read_wips_two_replicas"]
        );
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn missing_metric_is_an_error_not_a_pass() {
        let report = write_tmp("missing", r#"{"read_scaling_0_to_2": 2.0}"#);
        let baselines = write_tmp("missing-base", BASELINES);
        assert!(run_gate(&report, &baselines).is_err());
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr6_report_runs_the_reactor_suite() {
        let report = write_tmp(
            "pr6-ok",
            r#"{
                "idle_connections": 1000,
                "idle_kb_per_connection": 40.0,
                "reactor_wips": 4800.0
            }"#,
        );
        let baselines = write_tmp("pr6-ok-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.checks);
        assert_eq!(outcome.checks.len(), 3);
        let ceilings: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| c.ceiling)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(ceilings, vec!["idle_kb_per_connection"]);
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr6_memory_blowup_fails_the_ceiling() {
        let report = write_tmp(
            "pr6-bad",
            r#"{
                "idle_connections": 1000,
                "idle_kb_per_connection": 900.0,
                "reactor_wips": 4800.0
            }"#,
        );
        let baselines = write_tmp("pr6-bad-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(!outcome.passed());
        let failed: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(failed, vec!["idle_kb_per_connection"]);
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr7_report_runs_the_sharding_suite() {
        let report = write_tmp(
            "pr7-ok",
            r#"{
                "notpm_scaling_1_to_2": 1.9,
                "notpm_scaling_1_to_4": 3.4,
                "fastpath_overhead_frac": 0.04,
                "notpm_one_shard": 3800.0
            }"#,
        );
        let baselines = write_tmp("pr7-ok-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.checks);
        assert_eq!(outcome.checks.len(), 4);
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr8_report_runs_the_failover_suite() {
        let report = write_tmp(
            "pr8-ok",
            r#"{
                "notpm_post_over_pre": 0.93,
                "failover_unavailability_ms": 410.0,
                "notpm_pre_failover": 2800.0
            }"#,
        );
        let baselines = write_tmp("pr8-ok-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.checks);
        assert_eq!(outcome.checks.len(), 3);
        let ceilings: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| c.ceiling)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(ceilings, vec!["failover_unavailability_ms"]);
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr8_slow_failover_fails_the_ceiling() {
        let report = write_tmp(
            "pr8-bad",
            r#"{
                "notpm_post_over_pre": 0.2,
                "failover_unavailability_ms": 9000.0,
                "notpm_pre_failover": 2800.0
            }"#,
        );
        let baselines = write_tmp("pr8-bad-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(!outcome.passed());
        let failed: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(
            failed,
            vec!["notpm_post_over_pre", "failover_unavailability_ms"]
        );
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr10_report_runs_the_qos_suite() {
        let report = write_tmp(
            "pr10-ok",
            r#"{
                "isolation_ratio_protected": 0.97,
                "audit_overhead_frac": 0.02,
                "notpm_solo": 2900.0
            }"#,
        );
        let baselines = write_tmp("pr10-ok-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.checks);
        assert_eq!(outcome.checks.len(), 3);
        let ceilings: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| c.ceiling)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(ceilings, vec!["audit_overhead_frac"]);
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr10_starved_neighbor_fails_the_floor() {
        let report = write_tmp(
            "pr10-bad",
            r#"{
                "isolation_ratio_protected": 0.4,
                "audit_overhead_frac": 0.3,
                "notpm_solo": 2900.0
            }"#,
        );
        let baselines = write_tmp("pr10-bad-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(!outcome.passed());
        let failed: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(
            failed,
            vec!["isolation_ratio_protected", "audit_overhead_frac"]
        );
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }

    #[test]
    fn pr7_scaling_regression_fails_the_floor() {
        let report = write_tmp(
            "pr7-bad",
            r#"{
                "notpm_scaling_1_to_2": 1.2,
                "notpm_scaling_1_to_4": 3.4,
                "fastpath_overhead_frac": 0.25,
                "notpm_one_shard": 3800.0
            }"#,
        );
        let baselines = write_tmp("pr7-bad-base", BASELINES);
        let outcome = run_gate(&report, &baselines).unwrap();
        assert!(!outcome.passed());
        let failed: Vec<&str> = outcome
            .checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(
            failed,
            vec!["notpm_scaling_1_to_2", "fastpath_overhead_frac"]
        );
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baselines).ok();
    }
}
