//! Metric values and their renderings: the one-line JSON object the driver
//! reads, the detailed result object, and the printed table.

use serde::Value;

use crate::fixture;
use crate::host::Facts;
use crate::stats;

/// One metric as reported: a value with its unit, and where it is a median
/// over repeats, the per-repeat values behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-repeat values when `value` is their median; empty otherwise.
    pub values: Vec<f64>,
    /// Size of the latency population, for percentiles.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric measured once per run.
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            values: Vec::new(),
            samples: None,
        }
    }

    /// The median of per-repeat `values`.
    pub fn over(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            value: stats::median(values),
            values: values.to_vec(),
            ..Metric::single(name, unit, f64::NAN)
        }
    }

    /// Attaches the latency sample count.
    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    fn detail(&self) -> Value {
        let mut fields = vec![
            ("value".to_string(), Value::Float(self.value)),
            ("unit".to_string(), Value::String(self.unit.to_string())),
        ];
        if !self.values.is_empty() {
            fields.push((
                "values".to_string(),
                Value::Array(self.values.iter().map(|v| Value::Float(*v)).collect()),
            ));
        }
        if let Some(n) = self.samples {
            fields.push(("samples".to_string(), Value::UInt(n as u64)));
        }
        Value::Object(fields)
    }
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The outcome of one workload invocation.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Whether the run was the traced (per-layer) one.
    pub traced: bool,
    /// Repeats measured.
    pub repeats: usize,
    /// Operations attempted (plus one per failed final-state check).
    pub attempted: u64,
    /// Operations that errored, were refused or failed a check.
    pub failed: u64,
    /// Descriptions of failed final-state checks.
    pub check_failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Facts about the host the run was made on.
    pub host: Facts,
}

impl WorkloadResult {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output in driver mode: exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = object(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                object([
                    ("value", Value::Float(m.value)),
                    ("unit", Value::String(m.unit.to_string())),
                ]),
            )
        }));
        let line = object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", metrics),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serializes")
    }

    /// The detailed result object (`run` collects one per workload): the
    /// outcome and every metric, with the host facts, the seed, the repeat
    /// count and every workload constant.
    pub fn detail(&self) -> Value {
        let section = if self.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        let constants = fixture::constants()
            .into_iter()
            .map(|(k, v)| (k, Value::UInt(v)));
        object([
            ("workload", Value::String(self.workload.to_string())),
            ("seed", Value::UInt(self.seed)),
            ("repeats", Value::UInt(self.repeats as u64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            (
                "error_rate",
                Value::Float(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "check_failures",
                Value::Array(
                    self.check_failures
                        .iter()
                        .map(|f| Value::String(f.clone()))
                        .collect(),
                ),
            ),
            (
                section,
                object(self.metrics.iter().map(|m| (m.name.clone(), m.detail()))),
            ),
            ("host", self.host.to_value()),
            ("constants", object(constants)),
        ])
    }

    /// Prints every metric by name with its unit, and the min–max over the
    /// repeats beside each median.
    pub fn print_table(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!(
            "{} ({kind}, seed {}, {} repeats): attempted {} failed {} error_rate {}",
            self.workload,
            self.seed,
            self.repeats,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in &self.metrics {
            let mut line = format!("  {:<44} {:>14.4} {}", m.name, m.value, m.unit);
            if m.values.len() > 1 {
                let min = m.values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = m.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                line.push_str(&format!("  (min {min:.4} max {max:.4})"));
            }
            if let Some(n) = m.samples {
                line.push_str(&format!("  [{n} samples]"));
            }
            println!("{line}");
        }
        for failure in &self.check_failures {
            println!("  CHECK FAILED: {failure}");
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction: `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, same names on every workload. Each bound is the
/// larger of the issue's starting value and three times the widest spread
/// `calibrate` measured (see `calibration.json`), capped at the contract's
/// 0.25; `BENCHMARK.json` carries the same table, and a self-test keeps the
/// two equal.
pub const END_TO_END: [EndToEndSpec; 6] = [
    EndToEndSpec {
        name: "throughput_ops_s",
        unit: "ops/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "latency_p95_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "rss_peak_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEndSpec {
        name: "wal_bytes_per_op",
        unit: "bytes",
        higher_is_better: false,
        bound: 0.03,
    },
];
