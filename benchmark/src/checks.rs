//! Final-state checks of the TPC-C workloads. (Read operations are checked
//! one by one as they return; see [`crate::ops::read_output_ok`].) Every
//! failure returned here counts as a failed operation and makes the command
//! exit non-zero.

use std::collections::BTreeMap;

use ifdb::prelude::*;

use crate::fixture::{self, Loaded};
use crate::run::{Finished, RunOptions};

fn int(row: &Row, column: &str) -> i64 {
    row.get_int(column).unwrap_or(i64::MIN)
}

/// Orders the database must hold: the loader's plus every acknowledged
/// New-Order. The corrupt-check self-test expects one more than that.
fn expected_orders(opts: &RunOptions, finished: &Finished) -> usize {
    let c = &finished.deployment.loaded.tpcc;
    (c.warehouses * c.districts_per_warehouse * c.initial_orders_per_district) as usize
        + finished.new_orders_acked as usize
        + usize::from(opts.corrupt_check)
}

/// Rows of the tables that grow under load, as visible under the label.
fn labeled_counts(s: &mut Session) -> IfdbResult<Vec<(&'static str, usize)>> {
    ["orders", "new_order", "order_line", "history"]
        .into_iter()
        .map(|t| Ok((t, s.select(&Select::star(t))?.len())))
        .collect()
}

fn tpcc_consistency(opts: &RunOptions, finished: &Finished) -> IfdbResult<Vec<String>> {
    let loaded = &finished.deployment.loaded;
    let mut s = loaded.session()?;
    let mut failures = Vec::new();

    // Condition 1: W_YTD = sum(D_YTD).
    let districts = s.select(&Select::star("district"))?;
    let mut d_ytd: BTreeMap<i64, f64> = BTreeMap::new();
    for d in districts.iter() {
        *d_ytd.entry(int(d, "d_w_id")).or_default() += d.get_float("d_ytd").unwrap_or(f64::NAN);
    }
    for w in s.select(&Select::star("warehouse"))?.iter() {
        let w_ytd = w.get_float("w_ytd").unwrap_or(f64::NAN);
        let sum = d_ytd.get(&int(w, "w_id")).copied().unwrap_or(f64::NAN);
        let gap = (w_ytd - sum).abs();
        if gap.is_nan() || gap > 1e-6 * w_ytd.abs().max(1.0) {
            failures.push(format!(
                "warehouse {}: w_ytd {w_ytd} != sum(d_ytd) {sum}",
                int(w, "w_id")
            ));
        }
    }

    // Conditions 2 and 3: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID).
    let orders = s.select(&Select::star("orders"))?;
    let max_by_district = |rows: &ResultSet, w: &str, d: &str, o: &str| {
        let mut max: BTreeMap<(i64, i64), i64> = BTreeMap::new();
        for r in rows.iter() {
            let e = max.entry((int(r, w), int(r, d))).or_insert(i64::MIN);
            *e = (*e).max(int(r, o));
        }
        max
    };
    let max_o = max_by_district(&orders, "o_w_id", "o_d_id", "o_id");
    let max_no = max_by_district(
        &s.select(&Select::star("new_order"))?,
        "no_w_id",
        "no_d_id",
        "no_o_id",
    );
    for d in districts.iter() {
        let key = (int(d, "d_w_id"), int(d, "d_id"));
        let last = int(d, "d_next_o_id") - 1;
        if max_o.get(&key) != Some(&last) || max_no.get(&key) != Some(&last) {
            failures.push(format!(
                "district {key:?}: d_next_o_id-1 = {last}, max(o_id) = {:?}, max(no_o_id) = {:?}",
                max_o.get(&key),
                max_no.get(&key)
            ));
        }
    }

    // Every acknowledged New-Order left exactly one order behind.
    let expected = expected_orders(opts, finished);
    if orders.len() != expected {
        failures.push(format!(
            "orders holds {} rows, expected {expected} (loaded + acknowledged new-orders)",
            orders.len()
        ));
    }

    // tpcc_repl: the caught-up replica shows the same rows under the label.
    if let Some(replica) = &finished.deployment.replica {
        let on_primary = labeled_counts(&mut s)?;
        let on_replica = labeled_counts(&mut loaded.session_on(replica.database())?)?;
        if on_primary != on_replica {
            failures.push(format!(
                "replica row counts {on_replica:?} differ from the primary's {on_primary:?}"
            ));
        }
    }
    Ok(failures)
}

/// Checks a finished repeat's database state while its deployment is still
/// up: the TPC-C consistency conditions, the acknowledged-order count and,
/// with a replica, equal labeled row counts on both nodes.
pub fn state_failures(opts: &RunOptions, finished: &Finished) -> Vec<String> {
    if !opts.workload.is_tpcc() {
        return Vec::new();
    }
    tpcc_consistency(opts, finished).unwrap_or_else(|e| vec![format!("state check errored: {e}")])
}

/// Shuts the deployment down and, for TPC-C, reopens its directory with
/// `recover()` and re-counts the acknowledged orders from the log alone.
pub fn recovery_failures(opts: &RunOptions, finished: Finished) -> Vec<String> {
    let expected = expected_orders(opts, &finished);
    // The live database is dropped here; only who to read as is kept.
    let Loaded {
        principal, label, ..
    } = finished.deployment.shutdown();
    if !opts.workload.is_tpcc() {
        return Vec::new();
    }
    let recount = || -> IfdbResult<usize> {
        let db = fixture::recover_tpcc(opts.workload, finished.dir.path())?;
        let mut s = fixture::labeled_session(&db, principal, &label)?;
        Ok(s.select(&Select::star("orders"))?.len())
    };
    match recount() {
        Ok(n) if n == expected => Vec::new(),
        Ok(n) => vec![format!(
            "recovered database holds {n} orders, expected {expected}"
        )],
        Err(e) => vec![format!("recovery errored: {e}")],
    }
}
