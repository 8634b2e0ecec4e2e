//! Execution budgets and per-principal admission quotas.
//!
//! Multi-tenant protection for the shared database process: a hostile or
//! runaway principal must not be able to monopolize the engine. Two
//! mechanisms compose:
//!
//! * **Execution budgets** ([`ExecutionConstraints`]) bound what one
//!   statement may consume — rows scanned and wall-clock time — enforced
//!   *inside* the streaming executor by a cheap per-row probe
//!   ([`StatementBudget`]). A statement that exhausts a budget is killed
//!   fail-closed with [`IfdbError::BudgetExceeded`]: no partial result, the
//!   implicit transaction aborts, and the kill is recorded in the audit
//!   chain.
//! * **Admission quotas** ([`PrincipalQuota`]) bound how much *concurrent
//!   and sustained* service one principal gets at the server: in-flight
//!   statements, requests per second, and a scheduling weight used by the
//!   reactor's serving threads. These are enforced in `ifdb-server`; the types
//!   live here so the client protocol, the server and the benches share
//!   them.
//!
//! Both are hot-reloadable at the server via the `Reconfigure` wire request;
//! nothing here requires a restart.
//!
//! [`IfdbError::BudgetExceeded`]: crate::error::IfdbError::BudgetExceeded

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::error::{IfdbError, IfdbResult};

/// Per-statement resource limits. `None` means unlimited; the default is
/// fully unlimited, so budgets are strictly opt-in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionConstraints {
    /// Maximum tuple versions a single statement may scan, across every
    /// table and index access it makes (joins and constraint checks count).
    pub max_rows_scanned: Option<u64>,
    /// Maximum wall-clock execution time for a single statement, in
    /// milliseconds. Checked every [`TIME_PROBE_INTERVAL`] scanned rows, so
    /// enforcement granularity is that many rows, not instruction-exact.
    pub max_execution_millis: Option<u64>,
}

/// How many scanned rows pass between wall-clock probes: frequent enough to
/// bound overshoot, rare enough that `Instant::now` stays off the per-row
/// path.
pub const TIME_PROBE_INTERVAL: u64 = 1024;

impl ExecutionConstraints {
    /// No limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the number of rows one statement may scan.
    pub fn with_max_rows(mut self, rows: u64) -> Self {
        self.max_rows_scanned = Some(rows);
        self
    }

    /// Caps one statement's wall-clock execution time in milliseconds.
    pub fn with_max_millis(mut self, millis: u64) -> Self {
        self.max_execution_millis = Some(millis);
        self
    }

    /// `true` when no limit is set — the executor skips arming a budget.
    pub fn is_unlimited(&self) -> bool {
        self.max_rows_scanned.is_none() && self.max_execution_millis.is_none()
    }
}

/// The live budget of the statement currently executing: armed at statement
/// entry from the session's [`ExecutionConstraints`], charged by the
/// executor's scan loop. Counters are atomic so the probe works through the
/// shared references the streaming scan closures hold.
#[derive(Debug)]
pub struct StatementBudget {
    max_rows: u64,
    max_millis: Option<u64>,
    started: Instant,
    rows: AtomicU64,
}

impl StatementBudget {
    /// Arms a fresh budget for one statement; `None` when the constraints
    /// are unlimited (no probe overhead at all).
    pub fn arm(constraints: &ExecutionConstraints) -> Option<Self> {
        if constraints.is_unlimited() {
            return None;
        }
        Some(StatementBudget {
            max_rows: constraints.max_rows_scanned.unwrap_or(u64::MAX),
            max_millis: constraints.max_execution_millis,
            started: Instant::now(),
            rows: AtomicU64::new(0),
        })
    }

    /// Charges one scanned row against the budget: [`Self::charge_rows`]
    /// of one.
    pub fn charge_row(&self) -> IfdbResult<()> {
        self.charge_rows(1).map(drop)
    }

    /// Charges as many of `n` scanned rows as fit under the row cap and
    /// returns how many that was; with none left to fit, charges one more
    /// and fails. So a caller charging a batch that crosses the cap goes on
    /// one row at a time, and the row that crosses it fails, wherever the
    /// batches began. The row cap is exact; the time cap is probed on the
    /// first row and every [`TIME_PROBE_INTERVAL`] rows after it, or once
    /// for a batch that takes in one of those rows (so a statement resuming
    /// after a long stall is caught promptly).
    pub fn charge_rows(&self, n: u64) -> IfdbResult<u64> {
        let before = self.rows.load(Ordering::Relaxed);
        let fit = n.min(self.max_rows.saturating_sub(before));
        if fit == 0 && n > 0 {
            let used = self.rows.fetch_add(1, Ordering::Relaxed) + 1;
            return Err(IfdbError::BudgetExceeded {
                resource: "rows".into(),
                limit: self.max_rows,
                used,
            });
        }
        let after = self.rows.fetch_add(fit, Ordering::Relaxed) + fit;
        // Rows 1, 1 + I, 1 + 2I, ...: ceil(k / I) of them are at most k.
        let probes = |k: u64| k.div_ceil(TIME_PROBE_INTERVAL);
        if probes(after) > probes(before) {
            if let Some(max_millis) = self.max_millis {
                let elapsed = self.started.elapsed().as_millis() as u64;
                if elapsed > max_millis {
                    return Err(IfdbError::BudgetExceeded {
                        resource: "time_ms".into(),
                        limit: max_millis,
                        used: elapsed,
                    });
                }
            }
        }
        Ok(fit)
    }

    /// Rows charged so far.
    pub fn rows_scanned(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// Admission limits for one principal at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrincipalQuota {
    /// Statements this principal may have executing concurrently; further
    /// requests queue behind its own work rather than a neighbor's.
    pub max_in_flight: u32,
    /// Sustained admissions per second (token bucket with a one-second
    /// burst); `0` means unlimited.
    pub max_requests_per_sec: u32,
    /// Relative scheduling weight in the serving threads' round-robin: a
    /// weight-2 principal runs twice as many queued statements per turn as
    /// a weight-1 one. Clamped to at least 1.
    pub weight: u32,
}

impl Default for PrincipalQuota {
    fn default() -> Self {
        PrincipalQuota {
            max_in_flight: 0, // unlimited
            max_requests_per_sec: 0,
            weight: 1,
        }
    }
}

impl PrincipalQuota {
    /// No limits, weight 1 (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps concurrent in-flight statements.
    pub fn with_max_in_flight(mut self, n: u32) -> Self {
        self.max_in_flight = n;
        self
    }

    /// Caps sustained admissions per second.
    pub fn with_max_rps(mut self, n: u32) -> Self {
        self.max_requests_per_sec = n;
        self
    }

    /// Sets the scheduling weight (clamped to at least 1 when used).
    pub fn with_weight(mut self, w: u32) -> Self {
        self.weight = w;
        self
    }
}

/// The complete QoS policy a server runs under: statement budgets applied to
/// every session, a default admission quota, and per-principal overrides.
/// This is the unit the `Reconfigure` wire request swaps atomically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QosConfig {
    /// Budgets applied to every statement.
    pub constraints: ExecutionConstraints,
    /// Quota for principals without an override.
    pub default_quota: PrincipalQuota,
    /// Per-principal overrides, keyed by principal id.
    pub overrides: Vec<(u64, PrincipalQuota)>,
}

impl QosConfig {
    /// The quota in force for `principal`.
    pub fn quota_for(&self, principal: u64) -> PrincipalQuota {
        self.overrides
            .iter()
            .find(|(p, _)| *p == principal)
            .map(|(_, q)| *q)
            .unwrap_or(self.default_quota)
    }

    /// Serializes the policy to the flat `u64` list carried by the
    /// `Reconfigure` wire request. Round-trips through [`Self::from_wire`].
    pub fn to_wire(&self) -> Vec<u64> {
        let mut out = vec![
            self.constraints.max_rows_scanned.map_or(0, |v| v + 1),
            self.constraints.max_execution_millis.map_or(0, |v| v + 1),
            self.default_quota.max_in_flight as u64,
            self.default_quota.max_requests_per_sec as u64,
            self.default_quota.weight as u64,
            self.overrides.len() as u64,
        ];
        for (principal, q) in &self.overrides {
            out.push(*principal);
            out.push(q.max_in_flight as u64);
            out.push(q.max_requests_per_sec as u64);
            out.push(q.weight as u64);
        }
        out
    }

    /// Inverse of [`Self::to_wire`]; `None` on a malformed payload.
    pub fn from_wire(words: &[u64]) -> Option<Self> {
        if words.len() < 6 {
            return None;
        }
        let opt = |v: u64| if v == 0 { None } else { Some(v - 1) };
        let n = words[5] as usize;
        if words.len() != 6 + n * 4 {
            return None;
        }
        let mut overrides = Vec::with_capacity(n);
        for chunk in words[6..].chunks_exact(4) {
            overrides.push((
                chunk[0],
                PrincipalQuota {
                    max_in_flight: u32::try_from(chunk[1]).ok()?,
                    max_requests_per_sec: u32::try_from(chunk[2]).ok()?,
                    weight: u32::try_from(chunk[3]).ok()?,
                },
            ));
        }
        Some(QosConfig {
            constraints: ExecutionConstraints {
                max_rows_scanned: opt(words[0]),
                max_execution_millis: opt(words[1]),
            },
            default_quota: PrincipalQuota {
                max_in_flight: u32::try_from(words[2]).ok()?,
                max_requests_per_sec: u32::try_from(words[3]).ok()?,
                weight: u32::try_from(words[4]).ok()?,
            },
            overrides,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_constraints_arm_no_budget() {
        assert!(StatementBudget::arm(&ExecutionConstraints::unlimited()).is_none());
    }

    #[test]
    fn row_budget_kills_at_the_limit() {
        let budget = StatementBudget::arm(&ExecutionConstraints::unlimited().with_max_rows(3))
            .expect("limited");
        for _ in 0..3 {
            budget.charge_row().unwrap();
        }
        let err = budget.charge_row().unwrap_err();
        assert!(
            matches!(err, IfdbError::BudgetExceeded { ref resource, limit: 3, used: 4 } if resource == "rows"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn a_batch_that_crosses_the_row_cap_charges_what_fits_and_the_next_row_fails() {
        let budget = StatementBudget::arm(&ExecutionConstraints::unlimited().with_max_rows(10))
            .expect("limited");
        assert_eq!(budget.charge_rows(4).unwrap(), 4);
        assert_eq!(budget.charge_rows(0).unwrap(), 0);
        assert_eq!(budget.charge_rows(9).unwrap(), 6);
        let err = budget.charge_rows(3).unwrap_err();
        assert!(
            matches!(err, IfdbError::BudgetExceeded { ref resource, limit: 10, used: 11 } if resource == "rows"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn a_batch_probes_the_clock_when_it_takes_in_a_probe_row() {
        let budget = StatementBudget::arm(&ExecutionConstraints::unlimited().with_max_millis(1))
            .expect("limited");
        assert_eq!(budget.charge_rows(5).unwrap(), 5);
        std::thread::sleep(std::time::Duration::from_millis(3));
        // Rows 6 to 1024 take in no probe row; row 1025 is one.
        assert_eq!(budget.charge_rows(TIME_PROBE_INTERVAL - 5).unwrap(), 1019);
        let err = budget.charge_rows(100).unwrap_err();
        assert!(
            matches!(err, IfdbError::BudgetExceeded { ref resource, .. } if resource == "time_ms")
        );
    }

    #[test]
    fn time_budget_is_probed() {
        let budget = StatementBudget::arm(&ExecutionConstraints::unlimited().with_max_millis(0))
            .expect("limited");
        std::thread::sleep(std::time::Duration::from_millis(2));
        // The very first row probes the clock.
        let err = budget.charge_row().unwrap_err();
        assert!(
            matches!(err, IfdbError::BudgetExceeded { ref resource, .. } if resource == "time_ms")
        );
    }

    #[test]
    fn qos_config_round_trips_the_wire() {
        let configs = vec![
            QosConfig::default(),
            QosConfig {
                constraints: ExecutionConstraints::unlimited()
                    .with_max_rows(10_000)
                    .with_max_millis(250),
                default_quota: PrincipalQuota::unlimited()
                    .with_max_in_flight(4)
                    .with_max_rps(100),
                overrides: vec![
                    (7, PrincipalQuota::unlimited().with_weight(4)),
                    (9, PrincipalQuota::unlimited().with_max_in_flight(1)),
                ],
            },
            // A zero limit is distinct from "unlimited" on the wire.
            QosConfig {
                constraints: ExecutionConstraints::unlimited().with_max_rows(0),
                ..Default::default()
            },
        ];
        for c in configs {
            assert_eq!(QosConfig::from_wire(&c.to_wire()), Some(c.clone()));
        }
        assert_eq!(QosConfig::from_wire(&[]), None);
        assert_eq!(QosConfig::from_wire(&[0, 0, 0, 0, 0, 2, 1]), None);
    }

    #[test]
    fn quota_lookup_prefers_overrides() {
        let cfg = QosConfig {
            default_quota: PrincipalQuota::unlimited().with_max_in_flight(8),
            overrides: vec![(3, PrincipalQuota::unlimited().with_max_in_flight(1))],
            ..Default::default()
        };
        assert_eq!(cfg.quota_for(3).max_in_flight, 1);
        assert_eq!(cfg.quota_for(4).max_in_flight, 8);
    }
}
