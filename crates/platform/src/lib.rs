//! The application platform: a stand-in for PHP-IF / Python-IF.
//!
//! In the paper, IFDB only accepts connections from applications running in a
//! trusted runtime that tracks labels at process granularity and interposes
//! on output (Section 2, Section 7.2). This crate reproduces that runtime for
//! Rust applications:
//!
//! * [`auth`] — the trusted authentication component that maps external users
//!   to principals.
//! * [`gate`] — the output gate: every byte sent to the web client passes a
//!   release check against the process label.
//! * [`webserver`] — a simulated web/application server hosting request
//!   scripts, with a configurable per-request CPU cost so the benchmarks can
//!   reproduce the web-server-bound configuration of Figure 4.
//! * [`httpsim`] — a closed-loop client driver with zero think time: a
//!   request mix, throughput and latency percentiles.

pub mod auth;
pub mod gate;
pub mod httpsim;
pub mod webserver;

pub use auth::Authenticator;
pub use gate::ResponseWriter;
pub use httpsim::{ClosedLoopDriver, DriverConfig, DriverReport, LatencyStats};
pub use webserver::{AppServer, Request, Response, Script, ServerConfig};
