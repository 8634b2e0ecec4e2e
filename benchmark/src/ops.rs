//! Running one generated operation against any [`SessionApi`] — a wire
//! [`ifdb_client::Connection`] in the measured runs, an in-process
//! [`ifdb::Session`] in the traced run's deeper replays — and checking what
//! it returned.

use ifdb::prelude::*;
use ifdb_workloads::{run_transaction_at, TpccConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{Card, ReadOp, RANGE_WIDTH};

/// One operation of any workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A statement of `point_read` or `label_scan`.
    Read(ReadOp),
    /// A TPC-C transaction of `tpcc` or `tpcc_repl`.
    Tpcc(Card),
}

/// What running one operation produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpOutcome {
    /// The operation completed and its output check passed.
    pub ok: bool,
    /// Write-conflict rollbacks retried before it committed (TPC-C only).
    pub retries: u32,
}

/// The statement a read operation sends.
pub fn select_for(op: &ReadOp) -> Select {
    match op {
        ReadOp::Point { id, .. } => {
            Select::star("data").filter(Predicate::Eq("id".into(), Datum::Int(*id)))
        }
        ReadOp::ViewRange { lo } => Select::star("AllData").filter(
            Predicate::Ge("val".into(), Datum::Int(*lo))
                .and(Predicate::Lt("val".into(), Datum::Int(lo + RANGE_WIDTH))),
        ),
        ReadOp::ConfinedEq { grp, .. } => {
            Select::star("data").filter(Predicate::Eq("grp".into(), Datum::Int(*grp)))
        }
    }
}

/// The output check of a read operation: the generator's expected row count
/// (zero for a group the connection's label cannot read) and, for a point
/// read, the expected `val`.
pub fn read_output_ok(op: &ReadOp, rows: &ResultSet) -> bool {
    if rows.len() != op.expected_rows() {
        return false;
    }
    match op {
        ReadOp::Point { val, .. } => rows.first().and_then(|r| r.get_int("val")) == Some(*val),
        _ => true,
    }
}

/// Context an operation needs besides the session: the TPC-C scale and the
/// home warehouse the terminal is pinned to.
#[derive(Debug, Clone)]
pub struct OpContext {
    /// Scale of the loaded TPC-C database (unused by read workloads).
    pub tpcc: TpccConfig,
    /// Home warehouse of this terminal.
    pub warehouse: i64,
    /// Whether the session enforces labels. The baseline replay does not,
    /// so label-dependent row counts are not checked there.
    pub check_outputs: bool,
}

/// Conflict rollbacks after which a card counts as failed instead of being
/// retried again; the terminals are pinned to disjoint warehouses, so a
/// handful is already unexpected.
const MAX_CONFLICT_RETRIES: u32 = 64;

/// Runs `op` on `s`. Errors and refused statements count as not ok; TPC-C
/// write conflicts are retried with the same card and are not errors.
pub fn run_op<S: SessionApi>(s: &mut S, ctx: &OpContext, op: &Op) -> OpOutcome {
    match op {
        Op::Read(read) => {
            let ok = match s.select(&select_for(read)) {
                Ok(rows) => !ctx.check_outputs || read_output_ok(read, &rows),
                Err(_) => false,
            };
            OpOutcome { ok, retries: 0 }
        }
        Op::Tpcc(card) => {
            let mut retries = 0;
            loop {
                let mut rng = StdRng::seed_from_u64(card.rng_seed);
                match run_transaction_at(&ctx.tpcc, s, &mut rng, card.kind, ctx.warehouse) {
                    Ok(true) => return OpOutcome { ok: true, retries },
                    Ok(false) if retries < MAX_CONFLICT_RETRIES => retries += 1,
                    Ok(false) | Err(_) => return OpOutcome { ok: false, retries },
                }
            }
        }
    }
}
