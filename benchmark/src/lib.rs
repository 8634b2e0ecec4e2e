//! The repository's benchmark harness. See `benchmark/README.md`.
//!
//! It measures the program only from outside, through public functions and
//! public counter structs of the workspace crates.

pub mod checks;
pub mod fixture;
pub mod gen;
pub mod host;
pub mod layers;
pub mod ops;
pub mod report;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
