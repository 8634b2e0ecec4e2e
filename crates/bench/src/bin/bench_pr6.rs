//! Emits the PR 6 event-driven-server snapshot as `BENCH_pr6.json` in the
//! current directory (plus the usual copy under `target/experiments/`):
//! pipelined labeled-read WIPS on the reactor under a fleet of pipelining
//! clients, and the memory/latency cost of a thousand idle
//! connections parked on one reactor core. CI uploads the file next to the
//! earlier `BENCH_*.json` snapshots and runs `bench_gate` against it.

use ifdb_bench::ExperimentScale;

fn main() {
    let report = ifdb_bench::bench_pr6_report(ExperimentScale::from_env());
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if std::fs::write("BENCH_pr6.json", &json).is_ok() {
                println!("\n[BENCH_pr6.json written]");
            } else {
                eprintln!("could not write BENCH_pr6.json");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("could not serialize report: {e}");
            std::process::exit(1);
        }
    }
    if report.idle_connections < 1000.0 {
        eprintln!(
            "WARNING: only {:.0} idle connections held, below the 1000 target",
            report.idle_connections
        );
    }
}
