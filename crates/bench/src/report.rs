//! Reporting helpers: human-readable tables plus machine-readable JSON.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints an aligned two-column row.
pub fn row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<44} {value}");
}

/// Directory where machine-readable experiment outputs are written.
fn output_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("experiments");
    fs::create_dir_all(&dir).ok();
    dir
}

/// Writes a JSON report next to the human-readable output.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = output_dir().join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        if fs::write(&path, json).is_ok() {
            println!("  [json written to {}]", path.display());
        }
    }
}

/// Percentage change from `base` to `new` (negative = slower/lower).
pub fn pct_change(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(100.0, 99.0) + 1.0).abs() < 1e-9);
        assert!((pct_change(100.0, 122.0) - 22.0).abs() < 1e-9);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
    }

    #[test]
    fn json_written() {
        #[derive(Serialize)]
        struct T {
            x: u32,
        }
        write_json("unit_test_report", &T { x: 3 });
        let path = output_dir().join("unit_test_report.json");
        assert!(path.exists());
        std::fs::remove_file(path).ok();
    }
}
