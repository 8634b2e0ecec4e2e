//! Self-tests of the benchmark itself: the inputs are a function of the
//! seed, the count metrics repeat exactly, a failed check fails the command,
//! and `BENCHMARK.json` names what the code reports.

use std::path::Path;
use std::process::Command;

use ifdb_benchmark::fixture::Workload;
use ifdb_benchmark::gen;
use ifdb_benchmark::host::Facts;
use ifdb_benchmark::layers;
use ifdb_benchmark::report::END_TO_END;
use ifdb_benchmark::run::{self, RunOptions};
use ifdb_benchmark::trace::TraceData;

fn stream_hashes(seed: u64) -> [u64; 3] {
    [
        gen::hash_read_ops(&gen::point_read_ops(seed, 2, 1, 500)),
        gen::hash_read_ops(&gen::label_scan_ops(seed, 2, 1, 500)),
        gen::hash_cards(&gen::tpcc_cards(seed, 2, 1, 500)),
    ]
}

#[test]
fn op_streams_are_a_function_of_the_seed() {
    assert_eq!(stream_hashes(7), stream_hashes(7));
    for (a, b) in stream_hashes(7).iter().zip(stream_hashes(8)) {
        assert_ne!(*a, b, "another seed gives another stream");
    }
    assert_eq!(gen::data_vals(7), gen::data_vals(7));
    assert_ne!(gen::data_vals(7), gen::data_vals(8));
}

#[test]
fn every_stream_realizes_its_mix_exactly() {
    let scans = gen::label_scan_ops(3, 0, 0, 400);
    let unreadable = scans
        .iter()
        .filter(|op| matches!(op, gen::ReadOp::ConfinedEq { rows: 0, .. }))
        .count();
    let ranges = scans
        .iter()
        .filter(|op| matches!(op, gen::ReadOp::ViewRange { .. }))
        .count();
    assert_eq!((ranges, unreadable), (200, 100));
    let new_orders = gen::tpcc_cards(3, 0, 0, 400)
        .iter()
        .filter(|c| gen::tx_name(c.kind) == "new_order")
        .count();
    assert_eq!(new_orders, 180, "45 of every 100 cards");
}

/// The counts named in the issue, over the timed section of one repeat.
fn counts(workload: Workload) -> [u64; 4] {
    let opts = RunOptions {
        ops_divisor: 10,
        clients: 1,
        ..RunOptions::new(workload, 11, 1.0)
    };
    let finished = run::run_repeat(&opts, 0).expect("the repeat runs");
    finished.deployment.shutdown();
    let r = finished.repeat;
    assert_eq!(r.failed, 0, "no operation fails");
    [
        r.after.engine.wal_bytes - r.before.engine.wal_bytes,
        r.after.server.requests - r.before.server.requests,
        r.after.engine.index_point_lookups - r.before.engine.index_point_lookups,
        r.after.engine.tuples_inserted - r.before.engine.tuples_inserted,
    ]
}

#[test]
fn counts_repeat_exactly_with_one_client() {
    for workload in [Workload::PointRead, Workload::Tpcc] {
        let first = counts(workload);
        assert_eq!(first, counts(workload), "{}", workload.name());
        assert!(first[0] > 0 && first[1] > 0, "{}", workload.name());
    }
}

/// Runs the benchmark binary on one workload at smoke scale.
fn smoke(workload: &str, extra: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ifdb-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", "0", "--smoke"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (output.status.success(), last)
}

#[test]
fn a_corrupted_expectation_fails_the_command() {
    for workload in ["label_scan", "tpcc"] {
        let (ok, line) = smoke(workload, &[]);
        assert!(
            ok && line.contains("\"correct\":true"),
            "{workload}: {line}"
        );
        let (ok, line) = smoke(workload, &["--corrupt-check"]);
        assert!(!ok, "{workload}: exit code must be non-zero");
        assert!(line.contains("\"correct\":false"), "{workload}: {line}");
        assert!(!line.contains("\"failed\":0,"), "{workload}: {line}");
    }
}

/// `BENCHMARK.json` sits at the repository root, outside this package; the
/// test is skipped where the package has been copied out on its own.
#[test]
fn benchmark_json_names_what_the_code_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(|v| v.as_array())
            .expect("an array")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names("workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name.to_string()));
    for (declared, m) in spec
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(declared.get("unit").and_then(|u| u.as_str()), Some(m.unit));
        assert_eq!(
            declared.get("bound").and_then(|b| b.as_f64()),
            Some(m.bound)
        );
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            declared.get("better").and_then(|b| b.as_str()),
            Some(better)
        );
    }
    let host = Facts::gather(Path::new(env!("CARGO_MANIFEST_DIR")));
    let reported: Vec<(String, &str)> =
        layers::per_layer(&run::Repeat::default(), &TraceData::default(), &host)
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect();
    let declared: Vec<(String, String)> = spec
        .get("per_layer")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    assert_eq!(
        declared,
        reported
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect::<Vec<_>>()
    );
}
