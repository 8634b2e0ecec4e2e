//! A TPC-W-style closed-loop client driver.
//!
//! Section 8.2.1 measures maximum sustained throughput using simulated
//! clients that log in as a random user, issue a random sequence of requests
//! drawn from the Figure 3 mix with truncated-negative-exponential think
//! times, and end their sessions, subject to a 90th-percentile response-time
//! limit. This module provides that driver, scaled down so a benchmark run
//! fits in seconds rather than the paper's two-hour trials, and with zero
//! think time: each client issues its next request as soon as the last one
//! is answered, so a few clients saturate the server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::webserver::{AppServer, Request};

/// Latency statistics in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency.
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: f64,
    /// 90th percentile latency (the TPC-W response-time criterion).
    pub p90_us: f64,
    /// 99th percentile latency.
    pub p99_us: f64,
}

impl LatencyStats {
    /// Computes statistics from raw samples.
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let count = samples.len();
        let pct = |p: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            samples[idx] as f64
        };
        LatencyStats {
            count,
            mean_us: samples.iter().sum::<u64>() as f64 / count as f64,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
        }
    }
}

/// A weighted request mix: (probability, request generator name).
pub type RequestMix = Vec<(f64, String)>;

/// Configuration of a closed-loop run.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of concurrent simulated clients.
    pub clients: usize,
    /// How long to run.
    pub duration: Duration,
    /// The request mix (probabilities should sum to 1).
    pub mix: RequestMix,
    /// Users to impersonate (each client picks one at random per session).
    pub users: Vec<String>,
    /// RNG seed.
    pub seed: u64,
}

/// The result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Completed web interactions per second.
    pub throughput: f64,
    /// Total completed requests.
    pub completed: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Latency statistics over all requests.
    pub latency: LatencyStats,
    /// Per-script latency statistics.
    pub per_script: Vec<(String, LatencyStats)>,
}

/// Builds a concrete request given (script, user, rng).
pub type RequestBuilderFn = Arc<dyn Fn(&str, &str, &mut StdRng) -> Request + Send + Sync>;

/// The closed-loop driver.
pub struct ClosedLoopDriver {
    server: Arc<AppServer>,
    /// Builds a concrete request given (script, user).
    request_builder: RequestBuilderFn,
}

impl ClosedLoopDriver {
    /// Creates a driver for `server` with a request builder that turns a
    /// (script, user) pair into a full request (choosing parameters, e.g.
    /// which friend's drives to view).
    pub fn new(
        server: Arc<AppServer>,
        request_builder: impl Fn(&str, &str, &mut StdRng) -> Request + Send + Sync + 'static,
    ) -> Self {
        ClosedLoopDriver {
            server,
            request_builder: Arc::new(request_builder),
        }
    }

    /// Runs the closed loop and reports throughput and latency.
    pub fn run(&self, config: &DriverConfig) -> DriverReport {
        let stop = Arc::new(AtomicBool::new(false));
        let samples: Arc<Mutex<Vec<(String, u64, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let started = Instant::now();

        std::thread::scope(|scope| {
            for client_id in 0..config.clients {
                let stop = stop.clone();
                let samples = samples.clone();
                let server = self.server.clone();
                let builder = self.request_builder.clone();
                let config = config.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(config.seed ^ (client_id as u64 * 7919));
                    let mut local: Vec<(String, u64, bool)> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let user = if config.users.is_empty() {
                            String::new()
                        } else {
                            config.users[rng.gen_range(0..config.users.len())].clone()
                        };
                        let script = pick_from_mix(&config.mix, &mut rng);
                        let request = builder(&script, &user, &mut rng);
                        let t0 = Instant::now();
                        let resp = server.handle(&request);
                        let us = t0.elapsed().as_micros() as u64;
                        local.push((script, us, resp.is_ok()));
                    }
                    samples.lock().extend(local);
                });
            }
            std::thread::sleep(config.duration);
            stop.store(true, Ordering::Relaxed);
        });

        let elapsed = started.elapsed();
        let samples = Arc::try_unwrap(samples)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone());
        let completed = samples.len() as u64;
        let failed = samples.iter().filter(|(_, _, ok)| !ok).count() as u64;
        let latency = LatencyStats::from_samples(samples.iter().map(|(_, us, _)| *us).collect());
        let mut scripts: Vec<String> = samples.iter().map(|(s, _, _)| s.clone()).collect();
        scripts.sort();
        scripts.dedup();
        let per_script = scripts
            .into_iter()
            .map(|s| {
                let lat = LatencyStats::from_samples(
                    samples
                        .iter()
                        .filter(|(name, _, _)| name == &s)
                        .map(|(_, us, _)| *us)
                        .collect(),
                );
                (s, lat)
            })
            .collect();
        DriverReport {
            throughput: completed as f64 / elapsed.as_secs_f64(),
            completed,
            failed,
            latency,
            per_script,
        }
    }
}

/// Picks a script name from a weighted mix.
pub fn pick_from_mix(mix: &RequestMix, rng: &mut StdRng) -> String {
    let total: f64 = mix.iter().map(|(w, _)| *w).sum();
    let mut x: f64 = rng.gen::<f64>() * total;
    for (w, name) in mix {
        if x < *w {
            return name.clone();
        }
        x -= w;
    }
    mix.last().map(|(_, n)| n.clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Authenticator;
    use crate::webserver::ServerConfig;
    use ifdb::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn latency_stats_percentiles() {
        let stats = LatencyStats::from_samples((1..=100).collect());
        assert_eq!(stats.count, 100);
        assert!((stats.mean_us - 50.5).abs() < 1e-9);
        assert!(stats.p90_us >= 89.0 && stats.p90_us <= 91.0);
        assert!(stats.p99_us >= 98.0);
        assert_eq!(LatencyStats::from_samples(vec![]).count, 0);
    }

    #[test]
    fn mix_respects_weights_roughly() {
        let mix: RequestMix = vec![(0.9, "a".into()), (0.1, "b".into())];
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = HashMap::new();
        for _ in 0..1000 {
            *counts.entry(pick_from_mix(&mix, &mut rng)).or_insert(0) += 1;
        }
        assert!(counts["a"] > 800);
        assert!(counts["b"] > 20);
    }

    #[test]
    fn closed_loop_run_produces_throughput() {
        let db = Database::in_memory();
        let auth = Arc::new(Authenticator::new());
        let server = Arc::new(AppServer::new(db, auth, ServerConfig::default()));
        server.register_script(
            "ping.php",
            Arc::new(|session, _req, out| {
                out.emit(session, "pong")?;
                Ok(())
            }),
        );
        let driver =
            ClosedLoopDriver::new(server.clone(), |script, _user, _rng| Request::new(script));
        let report = driver.run(&DriverConfig {
            clients: 2,
            duration: Duration::from_millis(200),
            mix: vec![(1.0, "ping.php".into())],
            users: vec![],
            seed: 42,
        });
        assert!(report.completed > 10);
        assert_eq!(report.failed, 0);
        assert!(report.throughput > 10.0);
        assert_eq!(report.per_script.len(), 1);
    }
}
