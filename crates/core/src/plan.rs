//! The bind/plan layer: statements are bound once per execution.
//!
//! The seed executor resolved column names by per-row string search,
//! re-decided index applicability per scan, and knew only one access path
//! beyond the full scan (primary-key equality). This module binds a
//! statement's predicate to column *offsets* ([`CompiledPredicate`]) and
//! chooses an [`AccessPath`] up front:
//!
//! * full-key equality on any index (primary or secondary) → point lookup;
//! * equality on a key prefix → ordered prefix scan;
//! * equality prefix plus bounds on the final key column → index range scan.
//!
//! Planner input predicates are *hints*: they are implied by the statement's
//! full predicate (see [`Predicate::push_down`]), the residual filter is
//! always re-applied, and index bounds are widened to inclusive bounds — so
//! a coarser-than-optimal plan is never incorrect, only slower.

use std::cmp::Ordering;

use ifdb_difc::{Label, TagId};
use ifdb_storage::Datum;

use crate::catalog::TableInfo;
use crate::error::{IfdbError, IfdbResult};
use crate::query::Predicate;

/// A predicate compiled against a fixed column layout: names are resolved to
/// offsets once, so per-row evaluation does no string comparison and cannot
/// fail.
#[derive(Debug, Clone)]
pub(crate) enum CompiledPredicate {
    /// Always true.
    True,
    /// `values[i] == v`.
    Eq(usize, Datum),
    /// `values[i] != v` (and comparable).
    Ne(usize, Datum),
    /// `values[i] < v`.
    Lt(usize, Datum),
    /// `values[i] <= v`.
    Le(usize, Datum),
    /// `values[i] > v`.
    Gt(usize, Datum),
    /// `values[i] >= v`.
    Ge(usize, Datum),
    /// `values[i] IS NULL`.
    IsNull(usize),
    /// `values[i] IS NOT NULL`.
    IsNotNull(usize),
    /// Conjunction.
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Disjunction.
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Negation.
    Not(Box<CompiledPredicate>),
    /// The row's label contains the tag.
    LabelContains(TagId),
    /// The row's label is exactly this label.
    LabelEquals(Label),
}

impl CompiledPredicate {
    /// Binds `pred` to `columns`, resolving every column reference to its
    /// offset. Unknown columns fail here, once per statement, preserving the
    /// seed executor's error surface.
    pub(crate) fn compile(pred: &Predicate, columns: &[String]) -> IfdbResult<CompiledPredicate> {
        let col = |c: &str| -> IfdbResult<usize> {
            columns
                .iter()
                .position(|x| x == c)
                .ok_or_else(|| IfdbError::UnknownColumn(c.to_string()))
        };
        Ok(match pred {
            Predicate::True => CompiledPredicate::True,
            Predicate::Eq(c, v) => CompiledPredicate::Eq(col(c)?, v.clone()),
            Predicate::Ne(c, v) => CompiledPredicate::Ne(col(c)?, v.clone()),
            Predicate::Lt(c, v) => CompiledPredicate::Lt(col(c)?, v.clone()),
            Predicate::Le(c, v) => CompiledPredicate::Le(col(c)?, v.clone()),
            Predicate::Gt(c, v) => CompiledPredicate::Gt(col(c)?, v.clone()),
            Predicate::Ge(c, v) => CompiledPredicate::Ge(col(c)?, v.clone()),
            Predicate::IsNull(c) => CompiledPredicate::IsNull(col(c)?),
            Predicate::IsNotNull(c) => CompiledPredicate::IsNotNull(col(c)?),
            Predicate::And(a, b) => CompiledPredicate::And(
                Box::new(Self::compile(a, columns)?),
                Box::new(Self::compile(b, columns)?),
            ),
            Predicate::Or(a, b) => CompiledPredicate::Or(
                Box::new(Self::compile(a, columns)?),
                Box::new(Self::compile(b, columns)?),
            ),
            Predicate::Not(a) => CompiledPredicate::Not(Box::new(Self::compile(a, columns)?)),
            Predicate::LabelContains(t) => CompiledPredicate::LabelContains(*t),
            Predicate::LabelEquals(l) => CompiledPredicate::LabelEquals(l.clone()),
        })
    }

    /// Evaluates the predicate against a row's values and effective label.
    pub(crate) fn matches(&self, values: &[Datum], label: &Label) -> bool {
        match self {
            CompiledPredicate::True => true,
            CompiledPredicate::Eq(i, v) => values[*i].compare(v) == Some(Ordering::Equal),
            CompiledPredicate::Ne(i, v) => {
                let o = values[*i].compare(v);
                o.is_some() && o != Some(Ordering::Equal)
            }
            CompiledPredicate::Lt(i, v) => values[*i].compare(v) == Some(Ordering::Less),
            CompiledPredicate::Le(i, v) => matches!(
                values[*i].compare(v),
                Some(Ordering::Less) | Some(Ordering::Equal)
            ),
            CompiledPredicate::Gt(i, v) => values[*i].compare(v) == Some(Ordering::Greater),
            CompiledPredicate::Ge(i, v) => matches!(
                values[*i].compare(v),
                Some(Ordering::Greater) | Some(Ordering::Equal)
            ),
            CompiledPredicate::IsNull(i) => values[*i].is_null(),
            CompiledPredicate::IsNotNull(i) => !values[*i].is_null(),
            CompiledPredicate::And(a, b) => a.matches(values, label) && b.matches(values, label),
            CompiledPredicate::Or(a, b) => a.matches(values, label) || b.matches(values, label),
            CompiledPredicate::Not(a) => !a.matches(values, label),
            CompiledPredicate::LabelContains(t) => label.contains(*t),
            CompiledPredicate::LabelEquals(l) => label == l,
        }
    }

    /// The column offsets the predicate reads, ascending and distinct: all a
    /// scan has to decode of a row to evaluate it.
    pub(crate) fn columns(&self) -> Vec<usize> {
        fn collect(p: &CompiledPredicate, out: &mut Vec<usize>) {
            use CompiledPredicate::*;
            match p {
                True | LabelContains(_) | LabelEquals(_) => {}
                Eq(i, _) | Ne(i, _) | Lt(i, _) | Le(i, _) | Gt(i, _) | Ge(i, _) => out.push(*i),
                IsNull(i) | IsNotNull(i) => out.push(*i),
                And(a, b) | Or(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                Not(a) => collect(a, out),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Returns `true` if the predicate is the constant `True`.
    #[cfg(test)]
    pub(crate) fn is_true(&self) -> bool {
        matches!(self, CompiledPredicate::True)
    }
}

/// How the executor reaches the rows of one base table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AccessPath {
    /// Examine every visible version.
    FullScan,
    /// Point lookup: every index key column pinned by equality.
    IndexEq {
        /// Index name.
        index: String,
        /// The pinned key.
        key: Vec<Datum>,
    },
    /// Ordered scan of the keys starting with `prefix` (equality on the
    /// leading key columns).
    IndexPrefix {
        /// Index name.
        index: String,
        /// The pinned key prefix.
        prefix: Vec<Datum>,
    },
    /// Range scan: equality prefix plus inclusive bounds on the final key
    /// column. Strict statement bounds are widened here and re-checked by
    /// the residual filter.
    IndexRange {
        /// Index name.
        index: String,
        /// Inclusive lower key bound.
        low: Option<Vec<Datum>>,
        /// Inclusive upper key bound.
        high: Option<Vec<Datum>>,
    },
}

/// One bound base-table scan: the access path plus the residual filter,
/// compiled against the table's column layout.
#[derive(Debug)]
pub(crate) struct TableScanPlan {
    /// How rows are fetched.
    pub(crate) access: AccessPath,
    /// Offset-compiled filter applied to every fetched row (the push-down of
    /// the statement predicate onto this table).
    pub(crate) filter: CompiledPredicate,
}

/// Binds a scan of `info` under `hint`: pushes the supported conjuncts of
/// the hint down onto the table's columns, compiles them, and chooses the
/// access path.
pub(crate) fn plan_table_scan(info: &TableInfo, hint: &Predicate) -> IfdbResult<TableScanPlan> {
    let names = info.column_names();
    let pushed = hint.push_down(&|c| names.iter().any(|n| n == c).then(|| c.to_string()));
    let filter = CompiledPredicate::compile(&pushed, &names)?;
    let access = choose_access_path(info, &pushed);
    Ok(TableScanPlan { access, filter })
}

fn choose_access_path(info: &TableInfo, hint: &Predicate) -> AccessPath {
    if matches!(hint, Predicate::True) {
        return AccessPath::FullScan;
    }
    // Full-key equality beats everything; the PK index is listed first.
    for (name, cols) in info.index_specs() {
        let key: Option<Vec<Datum>> = cols.iter().map(|c| hint.equality_on(c).cloned()).collect();
        if let Some(key) = key {
            return AccessPath::IndexEq {
                index: name.to_string(),
                key,
            };
        }
    }
    // Otherwise the longest equality prefix wins, extended by a range over
    // the final key column when the hint bounds it.
    let mut best: Option<(AccessPath, usize)> = None;
    let mut consider = |path: AccessPath, matched: usize| {
        if best.as_ref().is_none_or(|(_, m)| matched > *m) {
            best = Some((path, matched));
        }
    };
    for (name, cols) in info.index_specs() {
        let mut prefix = Vec::new();
        for c in cols {
            match hint.equality_on(c) {
                Some(v) => prefix.push(v.clone()),
                None => break,
            }
        }
        // A bounded column is only usable as the *last* key column: the
        // inclusive upper bound would otherwise cut off longer keys that
        // share the bounded value. With a non-empty equality prefix, both
        // bounds must be present — a missing bound would make the range run
        // to the index edge across *other* prefix groups, which the prefix
        // scan below serves strictly better.
        if prefix.len() + 1 == cols.len() {
            let range_col = &cols[prefix.len()];
            let (lo, hi) = hint.bounds_on(range_col);
            let usable = if prefix.is_empty() {
                lo.is_some() || hi.is_some()
            } else {
                lo.is_some() && hi.is_some()
            };
            if usable {
                let mk = |b: Option<&Datum>| {
                    b.map(|v| {
                        let mut k = prefix.clone();
                        k.push(v.clone());
                        k
                    })
                };
                consider(
                    AccessPath::IndexRange {
                        index: name.to_string(),
                        low: mk(lo),
                        high: mk(hi),
                    },
                    prefix.len() + 1,
                );
                continue;
            }
        }
        if !prefix.is_empty() {
            let matched = prefix.len();
            consider(
                AccessPath::IndexPrefix {
                    index: name.to_string(),
                    prefix,
                },
                matched,
            );
        }
    }
    best.map(|(p, _)| p).unwrap_or(AccessPath::FullScan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::IndexSpec;
    use ifdb_storage::{ColumnDef, DataType, TableId, TableSchema};

    fn info() -> TableInfo {
        TableInfo {
            id: TableId(1),
            schema: TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", DataType::Int),
                    ColumnDef::new("b", DataType::Int),
                    ColumnDef::new("c", DataType::Text),
                ],
            ),
            primary_key: vec!["a".into(), "b".into()],
            uniques: vec![],
            foreign_keys: vec![],
            label_constraints: vec![],
            pk_index: Some("t_pkey".into()),
            indexes: vec![IndexSpec {
                name: "t_c".into(),
                columns: vec!["c".into()],
            }],
            constraints_pending: false,
        }
    }

    fn eq(col: &str, v: i64) -> Predicate {
        Predicate::Eq(col.into(), Datum::Int(v))
    }

    #[test]
    fn full_key_equality_picks_point_lookup() {
        let plan = plan_table_scan(&info(), &eq("a", 1).and(eq("b", 2))).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexEq {
                index: "t_pkey".into(),
                key: vec![Datum::Int(1), Datum::Int(2)],
            }
        );
    }

    #[test]
    fn secondary_index_equality_picks_point_lookup() {
        let p = Predicate::Eq("c".into(), Datum::from("x"));
        let plan = plan_table_scan(&info(), &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexEq {
                index: "t_c".into(),
                key: vec![Datum::from("x")],
            }
        );
    }

    #[test]
    fn prefix_equality_picks_prefix_scan() {
        let plan = plan_table_scan(&info(), &eq("a", 7)).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexPrefix {
                index: "t_pkey".into(),
                prefix: vec![Datum::Int(7)],
            }
        );
    }

    #[test]
    fn prefix_plus_bounds_picks_range_scan() {
        let p = eq("a", 7).and(
            Predicate::Ge("b".into(), Datum::Int(3)).and(Predicate::Lt("b".into(), Datum::Int(9))),
        );
        let plan = plan_table_scan(&info(), &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexRange {
                index: "t_pkey".into(),
                low: Some(vec![Datum::Int(7), Datum::Int(3)]),
                high: Some(vec![Datum::Int(7), Datum::Int(9)]),
            }
        );
    }

    #[test]
    fn one_sided_bounds() {
        // With an equality prefix, a one-sided bound must not produce a
        // range running to the index edge — the prefix scan is strictly
        // tighter.
        let p = eq("a", 7).and(Predicate::Ge("b".into(), Datum::Int(3)));
        let plan = plan_table_scan(&info(), &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexPrefix {
                index: "t_pkey".into(),
                prefix: vec![Datum::Int(7)],
            }
        );
        // On a single-column index there is no other prefix group, so the
        // one-sided range is fine.
        let p = Predicate::Ge("c".into(), Datum::from("m"));
        let plan = plan_table_scan(&info(), &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexRange {
                index: "t_c".into(),
                low: Some(vec![Datum::from("m")]),
                high: None,
            }
        );
    }

    #[test]
    fn unsupported_hints_fall_back_to_full_scan() {
        let plan = plan_table_scan(&info(), &Predicate::True).unwrap();
        assert_eq!(plan.access, AccessPath::FullScan);
        // A bound on a non-final key column cannot use the index.
        let p = Predicate::Ge("a".into(), Datum::Int(3));
        let plan = plan_table_scan(&info(), &p).unwrap();
        assert_eq!(plan.access, AccessPath::FullScan);
        // Disjunctions are not index hints, and unknown columns are dropped
        // from the push-down rather than failing the scan of this table.
        let p = eq("a", 1).or(eq("b", 2));
        let plan = plan_table_scan(&info(), &p).unwrap();
        assert_eq!(plan.access, AccessPath::FullScan);
        assert!(!plan.filter.is_true());
        let p = eq("zzz", 1);
        let plan = plan_table_scan(&info(), &p).unwrap();
        assert_eq!(plan.access, AccessPath::FullScan);
        assert!(plan.filter.is_true());
    }

    #[test]
    fn compiled_predicate_matches_like_interpreter() {
        let names: Vec<String> = vec!["x".into(), "y".into()];
        let p = Predicate::Ge("x".into(), Datum::Int(5))
            .and(Predicate::IsNotNull("y".into()))
            .or(Predicate::IsNull("y".into()));
        let c = CompiledPredicate::compile(&p, &names).unwrap();
        let l = Label::empty();
        assert!(c.matches(&[Datum::Int(6), Datum::Int(0)], &l));
        assert!(!c.matches(&[Datum::Int(4), Datum::Int(0)], &l));
        assert!(c.matches(&[Datum::Int(4), Datum::Null], &l));
        assert!(
            CompiledPredicate::compile(&Predicate::Eq("zzz".into(), Datum::Int(1)), &names)
                .is_err()
        );
    }
}
