//! Experiment harnesses that regenerate the tables and figures of the
//! paper's evaluation (Section 8), plus shared reporting helpers.
//!
//! Each experiment is a library function returning a serializable report; the
//! binaries in `src/bin/` are thin wrappers, one per figure, and
//! `run_all_experiments` executes everything in one go. Reports are printed
//! and written as JSON under `target/experiments/`.
//!
//! Absolute numbers depend on the host; the quantities of interest are the
//! *ratios* between the IFDB and baseline configurations and the *trend*
//! across tags-per-label, which is what the paper's figures show. Performance
//! claims about the system itself come from the `benchmark/` harness, not
//! from this crate.

pub mod experiments;
pub mod report;

pub use experiments::{
    fig3_request_mix, fig4_web_throughput, fig5_request_latency, fig6_dbt2_labels,
    sensor_ingest_throughput, trusted_base_report, ExperimentScale,
};
