//! The programmatic query language of the IFDB reproduction.
//!
//! The paper exposes IFDB through SQL; this crate exposes the same operations
//! through typed statement structures (a small SQL front end that parses into
//! these structures lives in the `ifdb-sql` crate). The statements carry the
//! IFDB-specific extensions directly: the `DECLASSIFYING` clause on inserts
//! (Section 5.2.2) and exact-label selection (Sections 4.2 and 5.2.1).

use ifdb_difc::{Label, TagId};
use ifdb_storage::Datum;

/// A boolean predicate over a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no WHERE clause).
    True,
    /// Column equals value.
    Eq(String, Datum),
    /// Column does not equal value.
    Ne(String, Datum),
    /// Column is less than value.
    Lt(String, Datum),
    /// Column is less than or equal to value.
    Le(String, Datum),
    /// Column is greater than value.
    Gt(String, Datum),
    /// Column is greater than or equal to value.
    Ge(String, Datum),
    /// Column is NULL.
    IsNull(String),
    /// Column is not NULL.
    IsNotNull(String),
    /// Both sub-predicates hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The sub-predicate does not hold.
    Not(Box<Predicate>),
    /// The tuple's `_label` system column contains the tag.
    LabelContains(TagId),
    /// The tuple's `_label` system column is exactly this label. Used to hide
    /// polyinstantiated "mistake" tuples (Section 5.2.1).
    LabelEquals(Label),
}

impl Predicate {
    /// Convenience: `self AND other`.
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Convenience: `self OR other`.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Convenience: `NOT self`.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// If the predicate constrains `column` to a single value by equality
    /// (possibly inside conjunctions), return that value. Used by the
    /// planner to pick index lookups over scans.
    pub fn equality_on(&self, column: &str) -> Option<&Datum> {
        match self {
            Predicate::Eq(c, v) if c == column => Some(v),
            Predicate::And(a, b) => a.equality_on(column).or_else(|| b.equality_on(column)),
            _ => None,
        }
    }

    /// The lower and upper bounds this predicate places on `column` through
    /// top-level conjunctions. Strict bounds (`<`, `>`) are reported with
    /// their boundary value: the planner uses them as *inclusive* index
    /// bounds, and the residual predicate re-checks strictness, so widening
    /// is sound.
    pub fn bounds_on(&self, column: &str) -> (Option<&Datum>, Option<&Datum>) {
        match self {
            Predicate::Eq(c, v) if c == column => (Some(v), Some(v)),
            Predicate::Gt(c, v) | Predicate::Ge(c, v) if c == column => (Some(v), None),
            Predicate::Lt(c, v) | Predicate::Le(c, v) if c == column => (None, Some(v)),
            Predicate::And(a, b) => {
                let (al, ah) = a.bounds_on(column);
                let (bl, bh) = b.bounds_on(column);
                (al.or(bl), ah.or(bh))
            }
            _ => (None, None),
        }
    }

    /// `self AND other`, eliding `True` operands.
    pub fn and_compact(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (a, b) => a.and(b),
        }
    }

    /// Rewrites the predicate for a narrower source, mapping every column
    /// reference through `rename`. Top-level conjuncts that reference
    /// unmappable columns — or the tuple label, which can differ between the
    /// source and the statement level — are replaced by `True`.
    ///
    /// The result is *implied by* the original predicate (it can only widen
    /// the admitted rows, never narrow them), which makes it sound both as a
    /// scan-level pre-filter and as planner input. The full predicate is
    /// still evaluated at the statement level.
    pub fn push_down(&self, rename: &dyn Fn(&str) -> Option<String>) -> Predicate {
        self.push_down_kept(rename).0
    }

    /// [`Predicate::push_down`], and whether it kept every conjunct (so the
    /// pushed-down predicate admits exactly the rows the original does).
    pub fn push_down_kept(&self, rename: &dyn Fn(&str) -> Option<String>) -> (Predicate, bool) {
        match self {
            Predicate::And(a, b) => {
                let (a, a_kept) = a.push_down_kept(rename);
                let (b, b_kept) = b.push_down_kept(rename);
                (a.and_compact(b), a_kept && b_kept)
            }
            p => match p.try_rename(rename) {
                Some(p) => (p, true),
                None => (Predicate::True, false),
            },
        }
    }

    /// Maps every column reference through `rename`; `None` if any
    /// reference (or a label predicate) cannot be mapped.
    fn try_rename(&self, rename: &dyn Fn(&str) -> Option<String>) -> Option<Predicate> {
        Some(match self {
            Predicate::True => Predicate::True,
            Predicate::Eq(c, v) => Predicate::Eq(rename(c)?, v.clone()),
            Predicate::Ne(c, v) => Predicate::Ne(rename(c)?, v.clone()),
            Predicate::Lt(c, v) => Predicate::Lt(rename(c)?, v.clone()),
            Predicate::Le(c, v) => Predicate::Le(rename(c)?, v.clone()),
            Predicate::Gt(c, v) => Predicate::Gt(rename(c)?, v.clone()),
            Predicate::Ge(c, v) => Predicate::Ge(rename(c)?, v.clone()),
            Predicate::IsNull(c) => Predicate::IsNull(rename(c)?),
            Predicate::IsNotNull(c) => Predicate::IsNotNull(rename(c)?),
            Predicate::And(a, b) => a.try_rename(rename)?.and(b.try_rename(rename)?),
            Predicate::Or(a, b) => a.try_rename(rename)?.or(b.try_rename(rename)?),
            Predicate::Not(a) => a.try_rename(rename)?.negate(),
            Predicate::LabelContains(_) | Predicate::LabelEquals(_) => return None,
        })
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// A SELECT statement over a single table or view.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Table or view name.
    pub from: String,
    /// Columns to project; `None` selects every column.
    pub columns: Option<Vec<String>>,
    /// WHERE clause.
    pub predicate: Predicate,
    /// ORDER BY column and direction.
    pub order_by: Option<(String, Order)>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// When set, only tuples whose label is exactly this label are returned
    /// (the "exact label" request of Section 4.2).
    pub exact_label: Option<Label>,
}

impl Select {
    /// `SELECT * FROM table`.
    pub fn star(from: &str) -> Self {
        Select {
            from: from.to_string(),
            columns: None,
            predicate: Predicate::True,
            order_by: None,
            limit: None,
            exact_label: None,
        }
    }

    /// Adds a WHERE clause (AND-ed with any existing one).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = if self.predicate == Predicate::True {
            predicate
        } else {
            self.predicate.and(predicate)
        };
        self
    }

    /// Projects the given columns.
    pub fn project(mut self, columns: &[&str]) -> Self {
        self.columns = Some(columns.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Adds an ORDER BY clause.
    pub fn order(mut self, column: &str, order: Order) -> Self {
        self.order_by = Some((column.to_string(), order));
        self
    }

    /// Adds a LIMIT clause.
    pub fn take(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Restricts results to tuples with exactly this label.
    pub fn with_exact_label(mut self, label: Label) -> Self {
        self.exact_label = Some(label);
        self
    }
}

/// Join kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join: unmatched rows are dropped.
    Inner,
    /// Left outer join: unmatched right sides appear as NULLs. This is how
    /// the ported HotCRP simulates field-level labels — fields more sensitive
    /// than the process label simply come back NULL (Section 6.3).
    LeftOuter,
}

/// A two-way equality join.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Left table or view.
    pub left: String,
    /// Right table or view.
    pub right: String,
    /// Join columns: `left.0 = right.1`.
    pub on: (String, String),
    /// Join kind.
    pub kind: JoinKind,
    /// Predicate over the combined row (columns of the left table keep their
    /// names; colliding right-table columns are prefixed with
    /// `"<table>."`).
    pub predicate: Predicate,
}

impl Join {
    /// Builds an inner join.
    pub fn inner(left: &str, right: &str, on: (&str, &str)) -> Self {
        Join {
            left: left.to_string(),
            right: right.to_string(),
            on: (on.0.to_string(), on.1.to_string()),
            kind: JoinKind::Inner,
            predicate: Predicate::True,
        }
    }

    /// Builds a left outer join.
    pub fn left_outer(left: &str, right: &str, on: (&str, &str)) -> Self {
        Join {
            kind: JoinKind::LeftOuter,
            ..Join::inner(left, right, on)
        }
    }

    /// Adds a predicate over the joined row.
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicate = if self.predicate == Predicate::True {
            predicate
        } else {
            self.predicate.clone().and(predicate)
        };
        self
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// COUNT(*) or COUNT(column).
    Count,
    /// SUM(column).
    Sum,
    /// AVG(column).
    Avg,
    /// MIN(column).
    Min,
    /// MAX(column).
    Max,
}

/// An aggregate query: `SELECT group_by, f1(c1), ... FROM table WHERE ...
/// GROUP BY group_by`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Table or view name.
    pub from: String,
    /// WHERE clause applied before grouping.
    pub predicate: Predicate,
    /// Optional grouping column.
    pub group_by: Option<String>,
    /// Aggregates to compute: function and argument column (ignored for
    /// `Count`).
    pub aggregates: Vec<(AggFunc, String)>,
}

/// An INSERT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Values in schema column order.
    pub values: Vec<Datum>,
    /// The `DECLASSIFYING (...)` clause: tags the process explicitly vouches
    /// for when the insert references tuples with different labels under a
    /// foreign-key constraint (Section 5.2.2).
    pub declassifying: Vec<TagId>,
}

impl Insert {
    /// Builds an insert without a `DECLASSIFYING` clause.
    pub fn new(table: &str, values: Vec<Datum>) -> Self {
        Insert {
            table: table.to_string(),
            values,
            declassifying: Vec::new(),
        }
    }

    /// Adds a `DECLASSIFYING` clause.
    pub fn declassifying(mut self, tags: &[TagId]) -> Self {
        self.declassifying = tags.to_vec();
        self
    }
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// WHERE clause selecting the rows to update.
    pub predicate: Predicate,
    /// Column assignments.
    pub set: Vec<(String, Datum)>,
}

impl Update {
    /// Builds an update.
    pub fn new(table: &str, predicate: Predicate, set: Vec<(&str, Datum)>) -> Self {
        Update {
            table: table.to_string(),
            predicate,
            set: set.into_iter().map(|(c, v)| (c.to_string(), v)).collect(),
        }
    }
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// WHERE clause selecting the rows to delete.
    pub predicate: Predicate,
}

impl Delete {
    /// Builds a delete.
    pub fn new(table: &str, predicate: Predicate) -> Self {
        Delete {
            table: table.to_string(),
            predicate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_builder_composes() {
        let q = Select::star("Drives")
            .filter(Predicate::Eq("userid".into(), Datum::Int(7)))
            .filter(Predicate::Gt("distance".into(), Datum::Float(1.0)))
            .project(&["driveid", "distance"])
            .order("distance", Order::Desc)
            .take(10);
        assert_eq!(q.from, "Drives");
        assert_eq!(q.columns.as_ref().unwrap().len(), 2);
        assert!(matches!(q.predicate, Predicate::And(_, _)));
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn equality_extraction_for_planner() {
        let p =
            Predicate::Eq("id".into(), Datum::Int(3)).and(Predicate::Gt("x".into(), Datum::Int(0)));
        assert_eq!(p.equality_on("id"), Some(&Datum::Int(3)));
        assert_eq!(p.equality_on("x"), None);
        assert_eq!(Predicate::True.equality_on("id"), None);
    }

    #[test]
    fn bounds_extraction_for_planner() {
        let p = Predicate::Ge("x".into(), Datum::Int(3))
            .and(Predicate::Lt("x".into(), Datum::Int(9)))
            .and(Predicate::Eq("y".into(), Datum::Int(1)));
        assert_eq!(
            p.bounds_on("x"),
            (Some(&Datum::Int(3)), Some(&Datum::Int(9)))
        );
        assert_eq!(
            p.bounds_on("y"),
            (Some(&Datum::Int(1)), Some(&Datum::Int(1)))
        );
        assert_eq!(p.bounds_on("z"), (None, None));
        // Bounds inside OR are not usable.
        let o = Predicate::Ge("x".into(), Datum::Int(3)).or(Predicate::True);
        assert_eq!(o.bounds_on("x"), (None, None));
    }

    #[test]
    fn push_down_keeps_only_supported_conjuncts() {
        let p = Predicate::Eq("a".into(), Datum::Int(1))
            .and(Predicate::Gt("b".into(), Datum::Int(2)))
            .and(Predicate::LabelContains(TagId(5)));
        let avail = |c: &str| (c == "a").then(|| c.to_string());
        let pushed = p.push_down(&avail);
        assert_eq!(pushed, Predicate::Eq("a".into(), Datum::Int(1)));
        // A disjunction survives only if every referenced column maps.
        let o =
            Predicate::Eq("a".into(), Datum::Int(1)).or(Predicate::Eq("b".into(), Datum::Int(2)));
        assert_eq!(o.push_down(&avail), Predicate::True);
        let both = |c: &str| Some(format!("r.{c}"));
        assert_eq!(
            o.push_down(&both),
            Predicate::Eq("r.a".into(), Datum::Int(1))
                .or(Predicate::Eq("r.b".into(), Datum::Int(2)))
        );
        assert_eq!(
            Predicate::True.and_compact(Predicate::True),
            Predicate::True
        );
    }

    #[test]
    fn insert_declassifying_clause() {
        let i = Insert::new("Drives", vec![Datum::Int(1)]).declassifying(&[TagId(5), TagId(9)]);
        assert_eq!(i.declassifying.len(), 2);
    }

    #[test]
    fn join_builders() {
        let j = Join::left_outer("Payment", "Contact", ("userid", "userid"))
            .filter(Predicate::Eq("userid".into(), Datum::Int(1)));
        assert_eq!(j.kind, JoinKind::LeftOuter);
        assert!(matches!(j.predicate, Predicate::Eq(_, _)));
    }
}
