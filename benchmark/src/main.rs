//! Command line of the benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ifdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload (the driver's form)
//! ifdb-benchmark run [--seed n] [--seconds s] [--trace] [--smoke] [--allow-tmpfs]
//! ifdb-benchmark calibrate --sets <n> [--seed n] [--seconds s]
//! ifdb-benchmark compare <a.json> <b.json>
//! ```

use std::path::Path;
use std::process::ExitCode;

use ifdb_benchmark::fixture::{self, Workload};
use ifdb_benchmark::run::RunOptions;
use ifdb_benchmark::suite::{self, SuiteOptions};

const USAGE: &str = "usage:
  ifdb-benchmark --workload <point_read|label_scan|tpcc|tpcc_repl> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  ifdb-benchmark run [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--allow-tmpfs]
  ifdb-benchmark calibrate --sets <n> [--seed <n>] [--seconds <s>]
  ifdb-benchmark compare <a.json> <b.json>";

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;

/// `--flag value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// One workload in this process; the last line printed is the driver's JSON
/// object. Exits non-zero when any operation or check failed.
fn one_workload(flags: &Flags) -> Result<bool, String> {
    let name = flags.value("--workload")?.expect("checked by the caller");
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds: {seconds} is not a positive duration"));
    }
    let traced = match flags.value("--trace")? {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not {v:?}")),
    };
    let mut opts = RunOptions::new(workload, flags.parsed("--seed", DEFAULT_SEED)?, seconds);
    if flags.has("--smoke") {
        opts.ops_divisor = 10;
        opts.fixed_repeats = Some(1);
    }
    // Self-test aid: corrupt one expected answer; the run must then fail.
    opts.corrupt_check = flags.has("--corrupt-check");

    let result = suite::invoke(&opts, traced).map_err(|e| format!("{name}: {e}"))?;
    result.print_table();
    let detail = suite::detail_path(workload, traced);
    suite::write_json(&detail, &result.detail())
        .map_err(|e| format!("{}: {e}", detail.display()))?;
    println!("{}", result.driver_line());
    Ok(result.correct())
}

fn suite_options(flags: &Flags) -> Result<SuiteOptions, String> {
    Ok(SuiteOptions {
        seed: flags.parsed("--seed", DEFAULT_SEED)?,
        seconds: flags.parsed("--seconds", DEFAULT_SECONDS)?,
        traced: flags.has("--trace"),
        smoke: flags.has("--smoke"),
        allow_tmpfs: flags.has("--allow-tmpfs"),
    })
}

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    let out = fixture::out_dir();
    match args.first().map(String::as_str) {
        Some("run") => {
            let opts = suite_options(&Flags(args[1..].to_vec()))?;
            let (results, correct) = suite::run_all(&opts)?;
            let name = if opts.traced {
                "results.per_layer.json"
            } else {
                "results.json"
            };
            let path = out.join(name);
            suite::write_json(&path, &results).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("results written to {}", path.display());
            Ok(correct)
        }
        Some("calibrate") => {
            let flags = Flags(args[1..].to_vec());
            let sets: usize = flags.parsed("--sets", 0)?;
            if sets < 5 {
                return Err("calibrate needs --sets <n> with n >= 5".into());
            }
            let (calibration, correct) = suite::calibrate(&suite_options(&flags)?, sets)?;
            let path = out.join("calibration.json");
            suite::write_json(&path, &calibration)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("calibration written to {}", path.display());
            Ok(correct)
        }
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare_files(Path::new(a), Path::new(b)),
            _ => Err("compare takes two result files".into()),
        },
        _ if args.iter().any(|a| a == "--workload") => one_workload(&Flags(args)),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
