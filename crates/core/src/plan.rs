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
//! * equality prefix plus bounds on the next key column → index range scan,
//!   which stops at the end of the prefix's group when a bound is missing.
//!
//! A full scan gets the filter's bounds too ([`CompiledPredicate::int_bounds`]):
//! the heap leaves unread every page whose value ranges cannot satisfy them.
//!
//! Planner input predicates are *hints*: they are implied by the statement's
//! full predicate (see [`Predicate::push_down`]), the residual filter is
//! always re-applied, and index bounds are widened to inclusive bounds — so
//! a coarser-than-optimal plan is never incorrect, only slower.

use std::cmp::Ordering;

use ifdb_difc::{Label, TagId};
use ifdb_storage::{Datum, IntRange};

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

    /// Per column, ascending, an interval holding every `Int` value a
    /// matching row can have there: what the `Eq`, `Lt`, `Le`, `Gt` and `Ge`
    /// conjuncts of the predicate's top-level `And`s against `Int` literals
    /// allow. Strict bounds saturate at the `i64` edges, which only widens
    /// them. `Or`, `Not`, label predicates and other literals bound nothing.
    /// The intervals hold only for `Int` values: a `Null` orders below
    /// every `Int`, so it satisfies `Lt` and `Le` while lying in no
    /// interval, and a `Float` may lie between the two `Int`s of an interval
    /// that strict bounds left empty (`v > 4 AND v < 5` gives `[5, 4]`).
    /// So they may only rule out a range that is known to hold nothing but
    /// `Int`s; a heap page summary's [`IntRange::ALL`] must never be ruled
    /// out.
    pub(crate) fn int_bounds(&self) -> Vec<(usize, IntRange)> {
        fn collect(p: &CompiledPredicate, out: &mut Vec<(usize, IntRange)>) {
            use CompiledPredicate::*;
            let range = |lo, hi| IntRange { lo, hi };
            out.push(match p {
                Eq(i, Datum::Int(v)) => (*i, range(*v, *v)),
                Lt(i, Datum::Int(v)) => (*i, range(i64::MIN, v.saturating_sub(1))),
                Le(i, Datum::Int(v)) => (*i, range(i64::MIN, *v)),
                Gt(i, Datum::Int(v)) => (*i, range(v.saturating_add(1), i64::MAX)),
                Ge(i, Datum::Int(v)) => (*i, range(*v, i64::MAX)),
                And(a, b) => {
                    collect(a, out);
                    collect(b, out);
                    return;
                }
                _ => return,
            });
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out.sort_unstable_by_key(|(column, _)| *column);
        out.dedup_by(|(column, range), (kept_column, kept)| {
            let same = column == kept_column;
            if same {
                *kept = kept.intersect(*range);
            }
            same
        });
        out
    }

    /// Returns `true` if the predicate is the constant `True`.
    #[cfg(test)]
    pub(crate) fn is_true(&self) -> bool {
        matches!(self, CompiledPredicate::True)
    }
}

/// How the executor reaches the rows of one base table, through an index
/// the table's catalog entry names.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AccessPath<'a> {
    /// Examine every visible version.
    FullScan,
    /// Point lookup: every index key column pinned by equality.
    IndexEq {
        /// Index name.
        index: &'a str,
        /// The pinned key.
        key: Vec<Datum>,
    },
    /// Ordered scan of the keys starting with `prefix` (equality on the
    /// leading key columns).
    IndexPrefix {
        /// Index name.
        index: &'a str,
        /// The pinned key prefix.
        prefix: Vec<Datum>,
    },
    /// Range scan: equality prefix plus inclusive bounds on the next key
    /// column. Strict statement bounds are widened here and re-checked by
    /// the residual filter.
    IndexRange {
        /// Index name.
        index: &'a str,
        /// Inclusive lower key bound, a key prefix.
        low: Option<Vec<Datum>>,
        /// Inclusive upper key bound, a key prefix: every key extending it
        /// is in.
        high: Option<Vec<Datum>>,
    },
}

/// One bound base-table scan: the access path plus the residual filter,
/// compiled against the table's column layout.
#[derive(Debug)]
pub(crate) struct TableScanPlan<'a> {
    /// How rows are fetched.
    pub(crate) access: AccessPath<'a>,
    /// Offset-compiled filter applied to every fetched row (the push-down of
    /// the statement predicate onto this table).
    pub(crate) filter: CompiledPredicate,
    /// Whether `filter` is the whole hint: no conjunct was dropped in the
    /// push-down, so a row it admits satisfies the hint.
    pub(crate) whole: bool,
}

/// Binds a scan of `info` under `hint`: pushes the supported conjuncts of
/// the hint down onto the table's columns, compiles them, and chooses the
/// access path.
pub(crate) fn plan_table_scan<'a>(
    info: &'a TableInfo,
    hint: &Predicate,
) -> IfdbResult<TableScanPlan<'a>> {
    let names = info.column_names();
    let (pushed, whole) =
        hint.push_down_kept(&|c| names.iter().any(|n| n == c).then(|| c.to_string()));
    let filter = CompiledPredicate::compile(&pushed, names)?;
    let access = choose_access_path(info, &pushed);
    Ok(TableScanPlan {
        access,
        filter,
        whole,
    })
}

fn choose_access_path<'a>(info: &'a TableInfo, hint: &Predicate) -> AccessPath<'a> {
    if matches!(hint, Predicate::True) {
        return AccessPath::FullScan;
    }
    // Full-key equality beats everything; the PK index is listed first.
    for (name, cols) in info.index_specs() {
        let key: Option<Vec<Datum>> = cols.iter().map(|c| hint.equality_on(c).cloned()).collect();
        if let Some(key) = key {
            return AccessPath::IndexEq { index: name, key };
        }
    }
    // Otherwise the longest equality prefix wins, extended by a range over
    // the next key column when the hint bounds it.
    let mut best: Option<(AccessPath<'a>, usize)> = None;
    let mut consider = |path: AccessPath<'a>, matched: usize| {
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
        // A bound on the key column after the prefix narrows the scan to
        // part of the prefix's group. Each bound is a key prefix — the
        // equality prefix plus the bound's value, or the equality prefix
        // alone where the hint gives none — and the high one takes in every
        // key extending it, so the columns after the bounded one need no
        // bound and a one-sided range stops at the end of the group. Without
        // an equality prefix, only a single-column index takes a range.
        let (lo, hi) = cols
            .get(prefix.len())
            .map_or((None, None), |c| hint.bounds_on(c));
        if (lo.is_some() || hi.is_some()) && (!prefix.is_empty() || cols.len() == 1) {
            let bound = |b: Option<&Datum>| {
                let mut key = prefix.clone();
                key.extend(b.cloned());
                (!key.is_empty()).then_some(key)
            };
            consider(
                AccessPath::IndexRange {
                    index: name,
                    low: bound(lo),
                    high: bound(hi),
                },
                prefix.len() + 1,
            );
        } else if !prefix.is_empty() {
            let matched = prefix.len();
            consider(
                AccessPath::IndexPrefix {
                    index: name,
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
    use crate::catalog::TableDef;
    use ifdb_storage::{DataType, TableId};

    fn info() -> TableInfo {
        let def = TableDef::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .column("c", DataType::Text)
            .primary_key(&["a", "b"])
            .secondary_index("t_c", &["c"]);
        TableInfo::new(TableId(1), def, false).unwrap()
    }

    fn eq(col: &str, v: i64) -> Predicate {
        Predicate::Eq(col.into(), Datum::Int(v))
    }

    #[test]
    fn full_key_equality_picks_point_lookup() {
        let t = info();
        let plan = plan_table_scan(&t, &eq("a", 1).and(eq("b", 2))).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexEq {
                index: "t_pkey",
                key: vec![Datum::Int(1), Datum::Int(2)],
            }
        );
    }

    #[test]
    fn secondary_index_equality_picks_point_lookup() {
        let t = info();
        let p = Predicate::Eq("c".into(), Datum::from("x"));
        let plan = plan_table_scan(&t, &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexEq {
                index: "t_c",
                key: vec![Datum::from("x")],
            }
        );
    }

    #[test]
    fn prefix_equality_picks_prefix_scan() {
        let t = info();
        let plan = plan_table_scan(&t, &eq("a", 7)).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexPrefix {
                index: "t_pkey",
                prefix: vec![Datum::Int(7)],
            }
        );
    }

    #[test]
    fn prefix_plus_bounds_picks_range_scan() {
        let t = info();
        let p = eq("a", 7).and(
            Predicate::Ge("b".into(), Datum::Int(3)).and(Predicate::Lt("b".into(), Datum::Int(9))),
        );
        let plan = plan_table_scan(&t, &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexRange {
                index: "t_pkey",
                low: Some(vec![Datum::Int(7), Datum::Int(3)]),
                high: Some(vec![Datum::Int(7), Datum::Int(9)]),
            }
        );
    }

    #[test]
    fn one_sided_bounds() {
        let t = info();
        // With an equality prefix, a one-sided bound runs to the end of the
        // prefix's group, not to the index edge: tighter than the prefix
        // scan.
        let p = eq("a", 7).and(Predicate::Ge("b".into(), Datum::Int(3)));
        let plan = plan_table_scan(&t, &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexRange {
                index: "t_pkey",
                low: Some(vec![Datum::Int(7), Datum::Int(3)]),
                high: Some(vec![Datum::Int(7)]),
            }
        );
        // On a single-column index there is no other prefix group, so the
        // one-sided range is fine.
        let p = Predicate::Ge("c".into(), Datum::from("m"));
        let plan = plan_table_scan(&t, &p).unwrap();
        assert_eq!(
            plan.access,
            AccessPath::IndexRange {
                index: "t_c",
                low: Some(vec![Datum::from("m")]),
                high: None,
            }
        );
    }

    /// Stock-Level's order-line read: equality on the first two key
    /// columns of four and a one-sided bound on the third. The scan starts
    /// at the bound and stops at the end of the district, instead of
    /// walking every order line the district ever had.
    #[test]
    fn a_one_sided_bound_on_a_middle_key_column_ranges_within_the_prefix() {
        let def = TableDef::new("order_line")
            .column("w", DataType::Int)
            .column("d", DataType::Int)
            .column("o", DataType::Int)
            .column("n", DataType::Int)
            .primary_key(&["w", "d", "o", "n"]);
        let lines = TableInfo::new(TableId(1), def, false).unwrap();
        let recent = eq("w", 1)
            .and(eq("d", 2))
            .and(Predicate::Ge("o".into(), Datum::Int(3_001)));
        let key = |k: &[i64]| Some(k.iter().map(|v| Datum::Int(*v)).collect());
        assert_eq!(
            plan_table_scan(&lines, &recent).unwrap().access,
            AccessPath::IndexRange {
                index: "order_line_pkey",
                low: key(&[1, 2, 3_001]),
                high: key(&[1, 2]),
            }
        );
        // Bounded on both sides, and above only.
        let window = recent
            .clone()
            .and(Predicate::Lt("o".into(), Datum::Int(3_021)));
        assert_eq!(
            plan_table_scan(&lines, &window).unwrap().access,
            AccessPath::IndexRange {
                index: "order_line_pkey",
                low: key(&[1, 2, 3_001]),
                high: key(&[1, 2, 3_021]),
            }
        );
        let older = eq("w", 1)
            .and(eq("d", 2))
            .and(Predicate::Le("o".into(), Datum::Int(9)));
        assert_eq!(
            plan_table_scan(&lines, &older).unwrap().access,
            AccessPath::IndexRange {
                index: "order_line_pkey",
                low: key(&[1, 2]),
                high: key(&[1, 2, 9]),
            }
        );
    }

    #[test]
    fn int_bounds_come_from_conjunctions_of_int_comparisons() {
        let names: Vec<String> = vec!["x".into(), "y".into(), "z".into()];
        let bounds = |p: Predicate| CompiledPredicate::compile(&p, &names).unwrap().int_bounds();
        let range = |lo, hi| IntRange { lo, hi };
        let int = |v| Datum::Int(v);
        // Conjuncts on one column intersect; strict bounds step inwards.
        let p = Predicate::Gt("y".into(), int(3))
            .and(Predicate::Le("y".into(), int(9)))
            .and(Predicate::Eq("x".into(), int(4)));
        assert_eq!(bounds(p), vec![(0, range(4, 4)), (1, range(4, 9))]);
        // At the `i64` edges, strict bounds saturate.
        let p =
            Predicate::Lt("x".into(), int(i64::MIN)).and(Predicate::Gt("z".into(), int(i64::MAX)));
        assert_eq!(
            bounds(p),
            vec![
                (0, range(i64::MIN, i64::MIN)),
                (2, range(i64::MAX, i64::MAX))
            ]
        );
        // Contradictory conjuncts leave an empty interval, and so do strict
        // bounds with no `Int` between them (a `Float` may still match).
        let p = Predicate::Lt("x".into(), int(3)).and(Predicate::Ge("x".into(), int(5)));
        assert_eq!(bounds(p), vec![(0, range(5, 2))]);
        let p = Predicate::Gt("x".into(), int(4)).and(Predicate::Lt("x".into(), int(5)));
        assert_eq!(bounds(p), vec![(0, range(5, 4))]);
        // Nothing else bounds a column.
        for p in [
            Predicate::Eq("x".into(), int(1)).or(Predicate::Eq("x".into(), int(2))),
            Predicate::Ne("x".into(), int(1)),
            Predicate::Eq("x".into(), int(1)).negate(),
            Predicate::Eq("x".into(), Datum::Float(1.0)),
            Predicate::Lt("x".into(), Datum::Timestamp(1)),
            Predicate::IsNull("x".into()),
            Predicate::LabelContains(TagId(1)),
        ] {
            assert_eq!(bounds(p.clone()), vec![], "{p:?}");
        }
    }

    #[test]
    fn unsupported_hints_fall_back_to_full_scan() {
        let t = info();
        let plan = plan_table_scan(&t, &Predicate::True).unwrap();
        assert_eq!(plan.access, AccessPath::FullScan);
        // A bound on a non-final key column cannot use the index.
        let p = Predicate::Ge("a".into(), Datum::Int(3));
        let plan = plan_table_scan(&t, &p).unwrap();
        assert_eq!(plan.access, AccessPath::FullScan);
        // Disjunctions are not index hints, and unknown columns are dropped
        // from the push-down rather than failing the scan of this table.
        let p = eq("a", 1).or(eq("b", 2));
        let plan = plan_table_scan(&t, &p).unwrap();
        assert_eq!(plan.access, AccessPath::FullScan);
        assert!(!plan.filter.is_true());
        let p = eq("zzz", 1);
        let plan = plan_table_scan(&t, &p).unwrap();
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
