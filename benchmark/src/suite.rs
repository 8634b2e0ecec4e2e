//! What the subcommands do: one workload in this process (`invoke`, the
//! driver's mode), every workload each in a child process (`run_all`),
//! repeated sets for noise calibration (`calibrate`), and the comparison of
//! two result files (`compare`).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ifdb::IfdbResult;
use serde::Value;

use crate::fixture::{self, Workload};
use crate::host::Facts;
use crate::layers;
use crate::report::{object, WorkloadResult, END_TO_END};
use crate::run::{self, RunOptions};
use crate::{checks, host, stats, trace};

/// Runs one workload in this process: the measured run, or with `traced`
/// the per-layer run (one counted repeat with all clients, then the layer-peel
/// replay, whose spans go to `out/<workload>.trace.jsonl`).
pub fn invoke(opts: &RunOptions, traced: bool) -> IfdbResult<WorkloadResult> {
    let workload = opts.workload;
    let out = fixture::out_dir();
    if !traced {
        let data = run::run_measured(opts)?;
        return Ok(WorkloadResult {
            workload: workload.name(),
            seed: opts.seed,
            traced,
            repeats: data.repeats.len(),
            attempted: data.attempted(),
            failed: data.failed(),
            metrics: run::end_to_end(opts, &data),
            check_failures: data.check_failures,
            host: Facts::gather(&out),
        });
    }
    let finished = run::run_repeat(opts, 0)?;
    let counted = finished.repeat.clone();
    let mut check_failures = checks::state_failures(opts, &finished);
    finished.deployment.shutdown();
    let traced_data = trace::run_traced(opts)?;
    let spans = out.join(format!("{}.trace.jsonl", workload.name()));
    if let Err(e) = traced_data.tracer.write_jsonl(&spans) {
        check_failures.push(format!("writing {}: {e}", spans.display()));
    }
    let host = Facts::gather(&out);
    Ok(WorkloadResult {
        workload: workload.name(),
        seed: opts.seed,
        traced,
        repeats: 1,
        attempted: counted.attempted
            + counted.warmup_failed
            + traced_data.ops
            + check_failures.len() as u64,
        failed: counted.failed
            + counted.warmup_failed
            + traced_data.failed
            + check_failures.len() as u64,
        metrics: layers::per_layer(&counted, &traced_data, &host),
        check_failures,
        host,
    })
}

/// Where an invocation leaves its detailed result for `run_all` to collect.
pub fn detail_path(workload: Workload, traced: bool) -> PathBuf {
    let kind = if traced { "per_layer" } else { "end_to_end" };
    fixture::out_dir().join(format!("{}.{kind}.json", workload.name()))
}

/// Writes `value` pretty-printed to `path`.
pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(value).expect("a Value tree always serializes");
    std::fs::write(path, text + "\n")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Options of the `run` and `calibrate` subcommands.
#[derive(Debug, Clone, Copy)]
pub struct SuiteOptions {
    /// Seed handed to every workload.
    pub seed: u64,
    /// `--seconds` handed to every workload.
    pub seconds: f64,
    /// Make the traced (per-layer) run instead of the measured one.
    pub traced: bool,
    /// One repeat, a tenth of the operations, checks still on.
    pub smoke: bool,
    /// Do not refuse a tmpfs log directory.
    pub allow_tmpfs: bool,
}

/// Runs every workload, each in its own child process (so `rss_peak_mb` is
/// the workload's own), prints every metric, and returns the combined
/// result object and whether every output check passed.
pub fn run_all(opts: &SuiteOptions) -> Result<(Value, bool), String> {
    let out = fixture::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    if host::filesystem_type(&out) == "tmpfs" && !opts.allow_tmpfs {
        return Err(format!(
            "{} is on tmpfs, where fdatasync costs nothing and the TPC-C numbers mean little; \
             pass --allow-tmpfs to run anyway",
            out.display()
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd
            .output()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        // The child's last line is the driver's JSON object; the table
        // above it is what a person reads.
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        lines.pop();
        for line in lines {
            println!("{line}");
        }
        all_correct &= output.status.success();
        let detail = read_json(&detail_path(workload, opts.traced))?;
        all_correct &= detail.get("correct").and_then(Value::as_bool) == Some(true);
        workloads.push((workload.name(), detail));
    }
    let results = object([
        ("kind", Value::String("results".into())),
        ("seed", Value::UInt(opts.seed)),
        ("seconds", Value::Float(opts.seconds)),
        (
            "scale",
            Value::String(if opts.smoke { "smoke" } else { "full" }.into()),
        ),
        ("workloads", object(workloads)),
    ]);
    Ok((results, all_correct))
}

fn entries(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Object(entries)) => entries,
        _ => &[],
    }
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Runs `sets` full sets (each with another seed, as the driver does) and
/// summarizes every (workload, end-to-end metric): median, quartiles and
/// spread over the sets' values.
pub fn calibrate(opts: &SuiteOptions, sets: usize) -> Result<(Value, bool), String> {
    let mut all_correct = true;
    // per_workload[w] = (name, one list of per-set values per metric)
    let mut per_workload: Vec<(String, Vec<Vec<f64>>)> = Vec::new();
    let mut seeds = Vec::new();
    let mut host = Value::Null;
    for set in 0..sets {
        let seed = opts.seed + set as u64;
        seeds.push(Value::UInt(seed));
        println!("== calibration set {} of {sets} (seed {seed})", set + 1);
        let (results, correct) = run_all(&SuiteOptions { seed, ..*opts })?;
        all_correct &= correct;
        for (w, (name, detail)) in entries(results.get("workloads")).iter().enumerate() {
            host = detail.get("host").cloned().unwrap_or(Value::Null);
            if per_workload.len() <= w {
                per_workload.push((name.clone(), vec![Vec::new(); END_TO_END.len()]));
            }
            for (m, spec) in END_TO_END.iter().enumerate() {
                let v = detail
                    .path(&format!("end_to_end.{}.value", spec.name))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}: no value for {}", spec.name))?;
                per_workload[w].1[m].push(v);
            }
        }
    }
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    let workloads = object(per_workload.into_iter().map(|(workload, metrics)| {
        let summary = object(metrics.into_iter().zip(END_TO_END).map(|(vals, spec)| {
            let (q1, q3) = stats::quartiles(&vals).unwrap_or((f64::NAN, f64::NAN));
            let spread = stats::spread(&vals).unwrap_or(0.0);
            let median = stats::median(&vals);
            println!(
                "{workload:<12} {:<20} {median:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4}",
                spec.name
            );
            let fields = object([
                ("value", Value::Float(median)),
                ("unit", Value::String(spec.unit.into())),
                ("q1", Value::Float(q1)),
                ("q3", Value::Float(q3)),
                ("spread", Value::Float(spread)),
                (
                    "values",
                    Value::Array(vals.into_iter().map(Value::Float).collect()),
                ),
            ]);
            (spec.name, fields)
        }));
        (workload, object([("end_to_end", summary)]))
    }));
    let calibration = object([
        ("kind", Value::String("calibration".into())),
        ("host", host),
        ("sets", Value::UInt(sets as u64)),
        ("seeds", Value::Array(seeds)),
        ("seconds", Value::Float(opts.seconds)),
        ("workloads", workloads),
    ]);
    Ok((calibration, all_correct))
}

/// How one (workload, end-to-end metric) pair moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Better,
    /// Worse than the base by more than the bound: a regression.
    Worse,
    /// Within the bound either way.
    WithinBound,
    /// A side's own spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    /// How the verdict is printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// The base file's value.
    pub base: f64,
    /// The other file's value.
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// The wider of the two sides' spreads (quartile distance over median
    /// of the values behind each median); 0 for single-valued metrics.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two result (or calibration) objects: one row per (workload,
/// end-to-end metric), in the base file's workload order.
pub fn compare(base: &Value, new: &Value) -> Vec<Comparison> {
    let mut rows = Vec::new();
    for (workload, detail) in entries(base.get("workloads")) {
        for spec in END_TO_END {
            let path = format!("end_to_end.{}", spec.name);
            let other = new
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|d| d.path(&path));
            let (Some(a), Some(b)) = (detail.path(&path), other) else {
                continue;
            };
            let (Some(base_v), Some(new_v)) = (
                a.get("value").and_then(Value::as_f64),
                b.get("value").and_then(Value::as_f64),
            ) else {
                continue;
            };
            let spread_of = |m: &Value| stats::spread(&numbers(m.get("values"))).unwrap_or(0.0);
            let spread = spread_of(a).max(spread_of(b));
            // Positive when `new` is better, as a share of the base.
            let gain = if spec.higher_is_better {
                (new_v - base_v) / base_v
            } else {
                (base_v - new_v) / base_v
            };
            let verdict = if spread > spec.bound {
                Verdict::Unresolved
            } else if gain < -spec.bound {
                Verdict::Worse
            } else if gain > spec.bound {
                Verdict::Better
            } else {
                Verdict::WithinBound
            };
            rows.push(Comparison {
                workload: workload.clone(),
                metric: spec.name,
                base: base_v,
                new: new_v,
                ratio: new_v / base_v,
                spread,
                bound: spec.bound,
                verdict,
            });
        }
    }
    rows
}

/// Reads two files and prints their comparison; returns whether no row is
/// worse or unresolved.
pub fn compare_files(base: &Path, new: &Path) -> Result<bool, String> {
    let rows = compare(&read_json(base)?, &read_json(new)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, end-to-end metric) pair".into());
    }
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<12} {:<20} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>7.3}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio,
            r.spread,
            r.bound,
            r.verdict.label()
        );
    }
    Ok(rows
        .iter()
        .all(|r| !matches!(r.verdict, Verdict::Worse | Verdict::Unresolved)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result object with one workload whose `throughput_ops_s` (bound
    /// 0.25, higher is better) has the given per-repeat values.
    fn results(values: &[f64]) -> Value {
        let metric = object([
            ("value", Value::Float(stats::median(values))),
            (
                "values",
                Value::Array(values.iter().map(|v| Value::Float(*v)).collect()),
            ),
        ]);
        let detail = object([("end_to_end", object([("throughput_ops_s", metric)]))]);
        object([("workloads", object([("point_read", detail)]))])
    }

    fn verdict(base: &[f64], new: &[f64]) -> Verdict {
        let rows = compare(&results(base), &results(new));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].ratio, rows[0].new / rows[0].base);
        rows[0].verdict
    }

    #[test]
    fn compare_tells_the_four_verdicts_apart() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(verdict(&steady, &steady), Verdict::WithinBound);
        assert_eq!(
            verdict(&steady, &steady.map(|v| v * 0.9)),
            Verdict::WithinBound
        );
        assert_eq!(verdict(&steady, &steady.map(|v| v * 0.7)), Verdict::Worse);
        assert_eq!(verdict(&steady, &steady.map(|v| v * 1.3)), Verdict::Better);
        // A side whose own runs spread wider than the bound settles nothing.
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &steady.map(|v| v * 0.7)),
            Verdict::Unresolved
        );
    }
}
