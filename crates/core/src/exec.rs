//! Statement execution: Query by Label, constraints, triggers and views.
//!
//! This module implements the heart of the paper:
//!
//! * the **Label Confinement Rule** — a query runs on the subset of the
//!   database whose tuple labels are subsets of the process label;
//! * the **Write Rule** — inserts are labeled exactly with the process label,
//!   and updates/deletes may touch only tuples labeled exactly the process
//!   label (lower-labeled tuples cause an error, higher-labeled tuples are
//!   invisible and unaffected);
//! * **declassifying views**, which evaluate their underlying query with the
//!   view's bound authority and strip the declassified tags from result
//!   labels;
//! * **uniqueness constraints with polyinstantiation**, the **Foreign Key
//!   Rule** with the `DECLASSIFYING` clause, **label constraints**, and
//!   **triggers** (ordinary and stored authority closures, immediate and
//!   deferred).
//!
//! # Execution pipeline
//!
//! Statements are *bound* once (names → offsets, predicates compiled,
//! access path chosen — see the crate-private `plan` module) and then
//! *streamed*: rows flow
//! from the storage engine through per-scan filter/projection callbacks into
//! the statement's sink without materializing intermediate row sets.
//! Predicate hints push down through views and into both sides of joins, so
//! index access paths fire below view and join boundaries.
//!
//! The Query-by-Label decision itself — strip the tags covered by enclosing
//! declassifying views, then test the Information Flow Rule — is memoized
//! per scan by the stored label's id in the engine's label dictionary
//! (`Decisions`): each distinct label's tags are looked up and decided once,
//! a label-homogeneous page is matched to the previous one by comparing two
//! integers, and the authority lock is taken only to expand the declassify
//! cover before the scan, never across it. Ids are never an output: they
//! depend on labels a reader cannot read, so only tags leave this module.
//!
//! A full scan decides each heap page from its summary before pinning it
//! (see `ifdb_storage::heap`): a label-homogeneous page whose label does not
//! admit the reader, or a page whose value range on some column is bounded
//! (holds only `Int`s) and misses the bounds the filter places there, is
//! left unread. On the pages it reads, each live slot is decided from the
//! page's column view (see `ifdb_storage::page`) before its bytes are
//! read: its label, then the same bounds on its `Int`s; only a slot that
//! passes both is parsed and asked its visibility. The bounds only ever
//! reject; the whole filter still decides every visible row they let
//! through.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use ifdb_difc::audit::kind;
use ifdb_difc::memo::DEFAULT_MEMO_CAPACITY;
use ifdb_difc::Label;
use ifdb_storage::{
    Datum, DecodedSlot, IntRange, LabelDictionary, LabelId, PageSummary, RowId, Snapshot, TableId,
    TupleRef, Verdict,
};

use crate::catalog::{
    KeyIndex, TableInfo, TriggerEvent, TriggerInvocation, TriggerTiming, ViewDef, ViewSource,
};
use crate::error::{IfdbError, IfdbResult};
use crate::plan::{plan_table_scan, AccessPath, CompiledPredicate, TableScanPlan};
use crate::query::{
    AggFunc, Aggregate, Delete, Insert, Join, JoinKind, Order, Predicate, Select, Update,
};
use crate::row::{ResultSet, Row};
use crate::session::Session;

/// An intermediate row produced by a scan, before projection.
///
/// The row carries only the *effective* label (after any declassifying
/// views stripped their tags). The stored label is not materialized per
/// row: the consumers that need it — the Write Rule checks in UPDATE and
/// DELETE — scan with an empty declassify set, where the effective label
/// *is* the stored label.
#[derive(Debug, Clone)]
pub(crate) struct ScanRow {
    /// Physical location, when the row comes directly from a base table.
    pub(crate) row_id: Option<(TableId, RowId)>,
    /// The effective label after any declassifying views were applied.
    pub(crate) label: Label,
    /// The values.
    pub(crate) values: Vec<Datum>,
}

/// The rows and column names produced by a materializing scan. Only the
/// reference (seed) executor still produces these; the streaming pipeline
/// pushes [`ScanRow`]s into sinks instead.
#[derive(Debug, Clone)]
pub(crate) struct SourceRows {
    pub(crate) columns: Vec<String>,
    pub(crate) rows: Vec<ScanRow>,
}

/// A streaming row consumer. Returning `Ok(false)` stops the scan early
/// (used by LIMIT and existence checks).
type RowSink<'a> = dyn FnMut(ScanRow) -> IfdbResult<bool> + 'a;

/// One scan's Query-by-Label decisions, by stored label id: the effective
/// label of a label that admits its rows, `None` for one that does not.
/// Each id's tags are looked up in the dictionary and decided once. The
/// decisions sit in a direct-mapped table indexed by id, grown to the
/// highest id met and never past [`DEFAULT_MEMO_CAPACITY`] slots, so a scan
/// over arbitrarily many labels stays in bounded memory; ids that share a
/// slot are decided again when they displace each other.
struct Decisions<F> {
    labels: Arc<LabelDictionary>,
    decide: F,
    slots: Vec<Option<(LabelId, Option<Label>)>>,
}

impl<F: Fn(Label) -> Option<Label>> Decisions<F> {
    fn new(labels: Arc<LabelDictionary>, decide: F) -> Self {
        Decisions {
            labels,
            decide,
            slots: Vec::new(),
        }
    }

    /// The effective label of stored label `id`, if it admits its rows.
    fn get(&mut self, id: LabelId) -> IfdbResult<Option<&Label>> {
        let at = id as usize % DEFAULT_MEMO_CAPACITY;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, None);
        }
        if !matches!(&self.slots[at], Some((seen, _)) if *seen == id) {
            let stored = Label::from_array(&self.labels.tags(id)?);
            self.slots[at] = Some((id, (self.decide)(stored)));
        }
        Ok(self.slots[at]
            .as_ref()
            .and_then(|(_, decided)| decided.as_ref()))
    }
}

/// A scan's Query-by-Label state, which its page verdicts and its tuple
/// visitor share: its decisions, the chain page last decided, and what the
/// decisions cost.
struct Confined<F> {
    decisions: Decisions<F>,
    /// The label id of the chain page last decided and, if it admits the
    /// page, the effective label all its rows share.
    page: Option<(LabelId, Option<Label>)>,
    row_checks: u64,
    page_checks: u64,
}

impl<F: Fn(Label) -> Option<Label>> Confined<F> {
    /// Decides a chain page of `label` — one page check — and returns
    /// whether it admits its rows. A label's pages follow one another, so
    /// its decision is looked up only when it differs from the previous
    /// chain page's, by comparing two integers.
    fn decide_page(&mut self, label: LabelId) -> IfdbResult<bool> {
        self.page_checks += 1;
        if !matches!(&self.page, Some((seen, _)) if *seen == label) {
            let admits = self.decisions.get(label)?.cloned();
            self.page = Some((label, admits));
        }
        Ok(matches!(&self.page, Some((_, Some(_)))))
    }

    /// The effective label of a row of stored label `id` on a page of
    /// `page_label`, if the label admits the row. A chain page's label was
    /// decided before the page was read, unless the budget had its first
    /// slots read undecided; a row on the shared tail is decided alone, and
    /// counted as a row check.
    fn admits(&mut self, page_label: Option<LabelId>, id: LabelId) -> IfdbResult<Option<&Label>> {
        if page_label.is_none() {
            self.row_checks += 1;
        }
        self.decided(page_label, id)
    }

    /// [`Confined::admits`] for a row whose label was already decided,
    /// without counting the decision again.
    fn decided(&mut self, page_label: Option<LabelId>, id: LabelId) -> IfdbResult<Option<&Label>> {
        let Some(label) = page_label else {
            return self.decisions.get(id);
        };
        if !matches!(&self.page, Some((seen, _)) if *seen == label) {
            self.decide_page(label)?;
        }
        Ok(self.page.as_ref().and_then(|(_, admits)| admits.as_ref()))
    }
}

fn col_index(columns: &[String], name: &str) -> IfdbResult<usize> {
    columns
        .iter()
        .position(|c| c == name)
        .ok_or_else(|| IfdbError::UnknownColumn(name.to_string()))
}

/// Refuses writes to a table recovered by `DatabaseBuilder::recover` whose
/// first-boot DDL has not been re-run: its uniques, foreign keys and label constraints
/// are not attached, and writing without them would bypass enforcement
/// silently.
fn check_constraints_attached(info: &TableInfo) -> IfdbResult<()> {
    if info.constraints_pending {
        return Err(IfdbError::ConstraintsPending {
            table: info.schema.name.clone(),
        });
    }
    Ok(())
}

/// Evaluates a predicate against a row by column name. The streaming
/// pipeline compiles predicates to offsets instead
/// ([`CompiledPredicate`]); this interpreter remains for the reference
/// executor.
fn eval_predicate(
    pred: &Predicate,
    columns: &[String],
    values: &[Datum],
    label: &Label,
) -> IfdbResult<bool> {
    let cmp = |col: &str, val: &Datum| -> IfdbResult<Option<std::cmp::Ordering>> {
        let idx = col_index(columns, col)?;
        Ok(values[idx].compare(val))
    };
    Ok(match pred {
        Predicate::True => true,
        Predicate::Eq(c, v) => cmp(c, v)? == Some(std::cmp::Ordering::Equal),
        Predicate::Ne(c, v) => {
            let o = cmp(c, v)?;
            o.is_some() && o != Some(std::cmp::Ordering::Equal)
        }
        Predicate::Lt(c, v) => cmp(c, v)? == Some(std::cmp::Ordering::Less),
        Predicate::Le(c, v) => matches!(
            cmp(c, v)?,
            Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
        ),
        Predicate::Gt(c, v) => cmp(c, v)? == Some(std::cmp::Ordering::Greater),
        Predicate::Ge(c, v) => matches!(
            cmp(c, v)?,
            Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
        ),
        Predicate::IsNull(c) => values[col_index(columns, c)?].is_null(),
        Predicate::IsNotNull(c) => !values[col_index(columns, c)?].is_null(),
        Predicate::And(a, b) => {
            eval_predicate(a, columns, values, label)? && eval_predicate(b, columns, values, label)?
        }
        Predicate::Or(a, b) => {
            eval_predicate(a, columns, values, label)? || eval_predicate(b, columns, values, label)?
        }
        Predicate::Not(a) => !eval_predicate(a, columns, values, label)?,
        Predicate::LabelContains(tag) => label.contains(*tag),
        Predicate::LabelEquals(l) => label == l,
    })
}

/// The resolved column layout of a two-way join: left columns keep their
/// names, colliding right columns are prefixed with `"<table>."`.
struct JoinLayout {
    left: Vec<String>,
    right: Vec<String>,
    out: Vec<String>,
}

/// What a `FROM` name resolved to.
enum ResolvedSource {
    Table(Arc<TableInfo>),
    View(Arc<ViewDef>),
}

impl Session {
    // ==================================================================
    // Binding: resolving source column layouts
    // ==================================================================

    fn resolve_source(&self, from: &str) -> IfdbResult<ResolvedSource> {
        let catalog = self.db.inner.catalog.read();
        if catalog.has_table(from) {
            Ok(ResolvedSource::Table(catalog.table(from)?))
        } else if catalog.has_view(from) {
            Ok(ResolvedSource::View(catalog.view(from)?))
        } else {
            Err(IfdbError::UnknownTable(from.to_string()))
        }
    }

    /// Resolves the output columns of a table, view or join without
    /// scanning anything.
    pub(crate) fn source_columns(&self, from: &str) -> IfdbResult<Vec<String>> {
        match self.resolve_source(from)? {
            ResolvedSource::Table(info) => Ok(info.column_names().to_vec()),
            ResolvedSource::View(view) => self.view_columns(&view),
        }
    }

    /// The output columns of a view.
    fn view_columns(&self, view: &ViewDef) -> IfdbResult<Vec<String>> {
        match &view.source {
            ViewSource::Select(sel) => {
                let inner = self.source_columns(&sel.from)?;
                match &sel.columns {
                    None => Ok(inner),
                    Some(cols) => {
                        for c in cols {
                            col_index(&inner, c)?;
                        }
                        Ok(cols.clone())
                    }
                }
            }
            ViewSource::Join(join) => Ok(self.join_layout(join)?.out),
        }
    }

    /// Returns `true` if the view resolves through tables and single-source
    /// views only (no join anywhere in the chain). Join boundaries may drop
    /// pushed-down conjuncts, so only join-free chains guarantee that a
    /// fully-pushed predicate was applied below.
    fn view_is_join_free(&self, view: &ViewDef) -> IfdbResult<bool> {
        match &view.source {
            ViewSource::Select(sel) => match self.resolve_source(&sel.from)? {
                ResolvedSource::Table(_) => Ok(true),
                ResolvedSource::View(inner) => self.view_is_join_free(&inner),
            },
            ViewSource::Join(_) => Ok(false),
        }
    }

    fn join_layout(&self, join: &Join) -> IfdbResult<JoinLayout> {
        let left = self.source_columns(&join.left)?;
        let right = self.source_columns(&join.right)?;
        let mut out = left.clone();
        out.extend(right.iter().map(|c| {
            if left.contains(c) {
                format!("{}.{}", join.right, c)
            } else {
                c.clone()
            }
        }));
        Ok(JoinLayout { left, right, out })
    }

    // ==================================================================
    // Streaming scans over tables, views and joins
    // ==================================================================

    /// Streams a table or view into `sink`, applying Query by Label
    /// confinement with the accumulated set of tags that enclosing
    /// declassifying views may remove. `hint` is a predicate implied by the
    /// enclosing statement; it steers access-path choice and is pushed down
    /// as a pre-filter, while the statement re-applies its full predicate.
    pub(crate) fn stream_source(
        &mut self,
        from: &str,
        declassify: &Label,
        hint: &Predicate,
        sink: &mut RowSink<'_>,
    ) -> IfdbResult<()> {
        match self.resolve_source(from)? {
            ResolvedSource::Table(info) => self.stream_base_table(&info, declassify, hint, sink),
            ResolvedSource::View(view) => self.stream_view(&view, declassify, hint, sink),
        }
    }

    /// [`Session::stream_source`] for a view.
    fn stream_view(
        &mut self,
        view: &ViewDef,
        declassify: &Label,
        hint: &Predicate,
        sink: &mut RowSink<'_>,
    ) -> IfdbResult<()> {
        let nested_declassify = declassify.union(&view.declassifies);
        if view.is_declassifying() {
            self.db.audit_counters().count(kind::DECLASSIFYING_VIEW);
        }
        match &view.source {
            ViewSource::Select(sel) => {
                let inner_cols = self.source_columns(&sel.from)?;
                let view_filter = CompiledPredicate::compile(&sel.predicate, &inner_cols)?;
                let projection: Option<Vec<usize>> = match &sel.columns {
                    None => None,
                    Some(cols) => Some(
                        cols.iter()
                            .map(|c| col_index(&inner_cols, c))
                            .collect::<IfdbResult<_>>()?,
                    ),
                };
                // The view's projection keeps column names, so outer hint
                // conjuncts over view outputs push straight through to the
                // inner source, joined with the view's own predicate.
                let pushed =
                    hint.push_down(&|c| inner_cols.iter().any(|n| n == c).then(|| c.to_string()));
                let combined = sel.predicate.clone().and_compact(pushed);
                self.stream_source(&sel.from, &nested_declassify, &combined, &mut |r| {
                    if !view_filter.matches(&r.values, &r.label) {
                        return Ok(true);
                    }
                    let row = match &projection {
                        None => r,
                        Some(idx) => ScanRow {
                            row_id: None,
                            label: r.label,
                            values: idx.iter().map(|i| r.values[*i].clone()).collect(),
                        },
                    };
                    sink(row)
                })
            }
            ViewSource::Join(join) => self.stream_join(join, &nested_declassify, hint, sink),
        }
    }

    /// Streams a base table through its bound scan plan. The Query-by-Label
    /// decision is memoized per distinct stored label, and made once per
    /// page, before the page is read, on heap pages that hold one label; the
    /// authority lock is taken only to expand the declassify cover up front
    /// and is released before the first page is decided.
    fn stream_base_table(
        &mut self,
        info: &Arc<TableInfo>,
        declassify: &Label,
        hint: &Predicate,
        sink: &mut RowSink<'_>,
    ) -> IfdbResult<()> {
        let plan = plan_table_scan(info, hint)?;
        self.stream_base_table_plan(info, declassify, plan, sink)
    }

    fn stream_base_table_plan(
        &mut self,
        info: &Arc<TableInfo>,
        declassify: &Label,
        plan: TableScanPlan<'_>,
        sink: &mut RowSink<'_>,
    ) -> IfdbResult<()> {
        let (_, snapshot) = self.current_txn()?;
        let process_label = self.process.label().clone();
        let difc = self.db.difc_enabled();
        // A declassifying view that declassifies a *compound* tag covers
        // every (transitive) member of the compound. Expanding the cover to
        // a plain tag set here means the per-tuple decision below never
        // consults the authority state — the lock is dropped at the end of
        // this statement, not held across the scan.
        let expanded = if declassify.is_empty() {
            Label::empty()
        } else {
            self.db.inner.auth.read().expand_declassify(declassify)
        };
        let db = self.db.clone();
        let engine = &db.inner.engine;
        let table_id = info.id;

        // The statement budget is charged for every slot a heap scan walks,
        // a page's worth at a time, before anything about a slot is looked
        // at — the page's verdict, the slot's visibility, its label — so a
        // scan over invisible high-labeled data is cut off at the same slot
        // as one over visible data (no channel through the budget). The page
        // that would cross the cap is read only as far as the cap allows;
        // asked about the rest, the verdict charges one slot more, which
        // fails. A tuple reached through an index is charged when it is
        // found visible, before its label is looked at. An unarmed budget
        // charges nothing.
        let budget = self.budget.clone();
        let charge = |slots: u16| -> IfdbResult<u16> {
            match &budget {
                Some(b) => Ok(b.charge_rows(u64::from(slots))? as u16),
                None => Ok(slots),
            }
        };
        let confined = RefCell::new(Confined {
            decisions: Decisions::new(engine.labels(), |stored: Label| {
                let effective = if expanded.is_empty() {
                    stored
                } else {
                    stored.difference(&expanded)
                };
                (!difc || effective.is_subset_of(&process_label)).then_some(effective)
            }),
            page: None,
            row_checks: 0,
            page_checks: 0,
        });
        // A heap page is decided from its summary before it is pinned: it is
        // left unread when its value range on some column misses the
        // filter's bounds there, or when it is a chain page whose label does
        // not admit its rows.
        let (bounded, bounds): (Vec<usize>, Vec<IntRange>) = match plan.access {
            AccessPath::FullScan => plan.filter.int_bounds().into_iter().unzip(),
            _ => Default::default(),
        };
        let mut verdict = |page: &PageSummary<'_>| -> IfdbResult<Verdict> {
            let charged = charge(page.slots)?;
            if charged < page.slots {
                return Ok(Verdict::ReadFirst(charged));
            }
            // An unbounded range may hold values that are not `Int`s (a
            // `Float` between two adjacent `Int` bounds, a `Null` below
            // them), so it is never ruled out, even by an empty interval.
            let may_match =
                |(range, b): (IntRange, &IntRange)| range == IntRange::ALL || range.meets(b);
            if !page.ranges().zip(&bounds).all(may_match) {
                return Ok(Verdict::Skip);
            }
            match page.label {
                Some(label) if !confined.borrow_mut().decide_page(label)? => Ok(Verdict::Skip),
                _ => Ok(Verdict::Read),
            }
        };
        // On a page a full scan reads, each live slot is decided from the
        // page's column view, before its bytes are read: its label first,
        // then the filter's bounds on its `Int`s, which only ever reject (a
        // field that is not an `Int` passes). Nothing else of a row is read
        // before its label admits it. Only a slot that passes both is parsed
        // and asked its visibility (the engine), and only a visible one has
        // the filter's columns decoded, into `probe`; the whole filter still
        // decides it, and only a row that meets it is materialised. A tuple
        // reached through an index is decided on its label alone, after its
        // visibility.
        let mut rejected = 0;
        let mut decide = |page_label: Option<LabelId>, slot: DecodedSlot<'_>| -> IfdbResult<bool> {
            if confined
                .borrow_mut()
                .admits(page_label, slot.label_id())?
                .is_none()
            {
                return Ok(false);
            }
            let within = slot.ints_within(&bounds);
            rejected += u64::from(!within);
            Ok(within)
        };
        let filter_columns = plan.filter.columns();
        let mut probe = vec![Datum::Null; filter_columns.last().map_or(0, |c| c + 1)];
        let mut emit = |rid: RowId, effective: &Label, tuple: TupleRef<'_>| -> IfdbResult<bool> {
            tuple.fields_into(&filter_columns, &mut probe)?;
            if !plan.filter.matches(&probe, effective) {
                return Ok(true);
            }
            sink(ScanRow {
                row_id: Some((table_id, rid)),
                label: effective.clone(),
                values: tuple.data()?,
            })
        };
        let mut by_row = |rid: RowId, tuple: TupleRef<'_>| -> IfdbResult<bool> {
            charge(1)?;
            match confined.borrow_mut().admits(None, tuple.label_id())? {
                Some(effective) => emit(rid, effective, tuple),
                None => Ok(true),
            }
        };
        let scanned = match &plan.access {
            AccessPath::FullScan => engine.visit_visible(
                &snapshot,
                table_id,
                &bounded,
                &mut verdict,
                &mut decide,
                |rid, page_label, tuple| match confined
                    .borrow_mut()
                    .decided(page_label, tuple.label_id())?
                {
                    Some(effective) => emit(rid, effective, tuple),
                    None => Ok(true),
                },
            ),
            AccessPath::IndexEq { index, key } => {
                let rows = engine.index_lookup(table_id, index, key)?;
                engine.visit_rows(&snapshot, table_id, rows, &mut by_row)
            }
            AccessPath::IndexPrefix { index, prefix } => {
                let rows = engine.index_prefix(table_id, index, prefix)?;
                engine.visit_rows(&snapshot, table_id, rows, &mut by_row)
            }
            AccessPath::IndexRange { index, low, high } => {
                let rows = engine.index_range(table_id, index, low.as_deref(), high.as_deref())?;
                engine.visit_rows(&snapshot, table_id, rows, &mut by_row)
            }
        };
        let confined = confined.borrow();
        engine.count_label_checks(confined.row_checks, confined.page_checks);
        // Only a full scan rejects rows on their bounds; an index path
        // pays nothing for the counter.
        if rejected > 0 {
            engine.count_rows_rejected_by_bounds(rejected);
        }
        scanned
    }

    /// Streams a hash join: the right side is built into a hash table (its
    /// hint pushed down), the left side streams through it. Equality hints
    /// propagate across the join key in both directions, so pinning either
    /// side's key turns the other side's scan into an index lookup.
    fn stream_join(
        &mut self,
        join: &Join,
        declassify: &Label,
        outer_hint: &Predicate,
        sink: &mut RowSink<'_>,
    ) -> IfdbResult<()> {
        let layout = self.join_layout(join)?;
        let join_filter = CompiledPredicate::compile(&join.predicate, &layout.out)?;
        let left_on = col_index(&layout.left, &join.on.0)?;
        let right_on = col_index(&layout.right, &join.on.1)?;

        // Everything known to hold of the joined row at this level.
        let combined = join.predicate.clone().and_compact(
            outer_hint.push_down(&|c| layout.out.iter().any(|n| n == c).then(|| c.to_string())),
        );
        // Left side: plain names resolve to the left on collisions.
        let mut left_hint =
            combined.push_down(&|c| layout.left.iter().any(|n| n == c).then(|| c.to_string()));
        // Right side: prefixed names map to their right column; plain names
        // only when they are unambiguously right-side. For LEFT OUTER joins
        // a right-side pre-filter would turn dropped matches into
        // NULL-padded rows, so only the join-key propagation below applies.
        let right_prefix = format!("{}.", join.right);
        let mut right_hint = if join.kind == JoinKind::Inner {
            combined.push_down(&|c: &str| {
                if let Some(s) = c.strip_prefix(&right_prefix) {
                    layout.right.iter().any(|n| n == s).then(|| s.to_string())
                } else if layout.right.iter().any(|n| n == c) && !layout.left.iter().any(|n| n == c)
                {
                    Some(c.to_string())
                } else {
                    None
                }
            })
        } else {
            Predicate::True
        };
        // Join-key equality propagation: pinning one side's key pins the
        // other side's too.
        if let Some(v) = combined.equality_on(&join.on.0) {
            right_hint = right_hint.and_compact(Predicate::Eq(join.on.1.clone(), v.clone()));
        }
        let right_on_out = if layout.left.contains(&join.on.1) {
            format!("{}.{}", join.right, join.on.1)
        } else {
            join.on.1.clone()
        };
        if let Some(v) = combined.equality_on(&right_on_out) {
            left_hint = left_hint.and_compact(Predicate::Eq(join.on.0.clone(), v.clone()));
        }

        // Build phase: hash the right side on its join column.
        let mut table: HashMap<Datum, Vec<ScanRow>> = HashMap::new();
        self.stream_source(&join.right, declassify, &right_hint, &mut |r| {
            table.entry(r.values[right_on].clone()).or_default().push(r);
            Ok(true)
        })?;

        // Probe phase: stream the left side through the hash table.
        let right_width = layout.right.len();
        self.stream_source(&join.left, declassify, &left_hint, &mut |l| match table
            .get(&l.values[left_on])
        {
            Some(rs) if !rs.is_empty() => {
                for r in rs {
                    let mut values = l.values.clone();
                    values.extend(r.values.iter().cloned());
                    let label = l.label.union(&r.label);
                    if join_filter.matches(&values, &label) {
                        let keep = sink(ScanRow {
                            row_id: None,
                            label,
                            values,
                        })?;
                        if !keep {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            }
            _ => {
                if join.kind == JoinKind::LeftOuter {
                    let mut values = l.values.clone();
                    values.extend(std::iter::repeat_n(Datum::Null, right_width));
                    if join_filter.matches(&values, &l.label) {
                        return sink(ScanRow {
                            row_id: None,
                            label: l.label.clone(),
                            values,
                        });
                    }
                }
                Ok(true)
            }
        })
    }

    // ==================================================================
    // SELECT
    // ==================================================================

    /// Executes a single-source SELECT.
    pub fn select(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        let implicit = self.ensure_txn()?;
        let armed = self.arm_budget();
        let r = self.select_inner(q);
        let r = self.disarm_budget(armed, r);
        self.finish_statement(implicit, r)
    }

    fn select_inner(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        // Bind once: the source, its columns, and the predicate, ordering
        // and projection offsets; a base table's scan is planned here too.
        let source = self.resolve_source(&q.from)?;
        // If every conjunct survives push-down (no label predicates) and the
        // source chain has no join boundary that could drop conjuncts, the
        // scan below already applies the whole predicate: it is not
        // re-checked per row.
        let view_columns;
        let (src_cols, prefiltered, plan) = match &source {
            ResolvedSource::Table(info) => {
                let plan = plan_table_scan(info, &q.predicate)?;
                (info.column_names(), plan.whole, Some(plan))
            }
            ResolvedSource::View(view) => {
                view_columns = self.view_columns(view)?;
                let prefiltered = self.view_is_join_free(view)?
                    && q.predicate
                        .push_down_kept(&|c| {
                            view_columns.iter().any(|n| n == c).then(|| c.to_string())
                        })
                        .1;
                (&view_columns[..], prefiltered, None)
            }
        };
        let filter = CompiledPredicate::compile(&q.predicate, src_cols)?;
        let order_idx = match &q.order_by {
            Some((col, order)) => Some((col_index(src_cols, col)?, *order)),
            None => None,
        };
        let (out_columns, projector): (Vec<String>, Option<Vec<usize>>) = match &q.columns {
            None => (src_cols.to_vec(), None),
            Some(cols) => {
                let idx: Vec<usize> = cols
                    .iter()
                    .map(|c| col_index(src_cols, c))
                    .collect::<IfdbResult<_>>()?;
                (cols.clone(), Some(idx))
            }
        };
        // An index prefix scan yields its rows in the order of the index's
        // next key column (then the rest of the key, then row id), which is
        // what a stable ascending sort on that column leaves them in: the
        // sort is skipped.
        let index_ordered = match (&source, &plan, &q.order_by) {
            (
                ResolvedSource::Table(info),
                Some(TableScanPlan {
                    access: AccessPath::IndexPrefix { index, prefix },
                    ..
                }),
                Some((col, Order::Asc)),
            ) => info
                .index_specs()
                .any(|(name, cols)| name == *index && cols.get(prefix.len()) == Some(col)),
            _ => false,
        };
        let sort_by = order_idx.filter(|_| !index_ordered);
        // Rows that need no sort come in their final order, so LIMIT stops
        // the scan as soon as that many rows passed the label and the
        // filter.
        let stop_at = if sort_by.is_none() { q.limit } else { None };
        let exact = q.exact_label.as_ref();
        let mut selected: Vec<ScanRow> = Vec::new();
        let mut sink = |r: ScanRow| {
            if let Some(e) = exact {
                if &r.label != e {
                    return Ok(true);
                }
            }
            if !prefiltered && !filter.matches(&r.values, &r.label) {
                return Ok(true);
            }
            selected.push(r);
            Ok(stop_at.is_none_or(|limit| selected.len() < limit))
        };
        match (&source, plan) {
            (ResolvedSource::Table(info), Some(plan)) => {
                self.stream_base_table_plan(info, &Label::empty(), plan, &mut sink)?
            }
            (ResolvedSource::View(view), _) => {
                self.stream_view(view, &Label::empty(), &q.predicate, &mut sink)?
            }
            (ResolvedSource::Table(_), None) => unreachable!("a base table is planned above"),
        }
        if let Some((idx, order)) = sort_by {
            selected.sort_by(|a, b| {
                let o = a.values[idx].cmp(&b.values[idx]);
                match order {
                    Order::Asc => o,
                    Order::Desc => o.reverse(),
                }
            });
        }
        if let Some(limit) = q.limit {
            selected.truncate(limit);
        }
        let columns = Arc::new(out_columns);
        let rows = selected
            .into_iter()
            .map(|r| {
                let values = match &projector {
                    None => r.values,
                    Some(idx) => idx.iter().map(|i| r.values[*i].clone()).collect(),
                };
                Row {
                    columns: columns.clone(),
                    label: r.label,
                    values,
                }
            })
            .collect();
        Ok(ResultSet::new(rows))
    }

    /// Executes a two-way join query.
    pub fn select_join(&mut self, join: &Join) -> IfdbResult<ResultSet> {
        let implicit = self.ensure_txn()?;
        let armed = self.arm_budget();
        let r = (|| {
            let layout = self.join_layout(join)?;
            let columns = Arc::new(layout.out);
            let mut rows = Vec::new();
            self.stream_join(join, &Label::empty(), &Predicate::True, &mut |r| {
                rows.push(Row {
                    columns: columns.clone(),
                    label: r.label,
                    values: r.values,
                });
                Ok(true)
            })?;
            Ok(ResultSet::new(rows))
        })();
        let r = self.disarm_budget(armed, r);
        self.finish_statement(implicit, r)
    }

    /// Executes an aggregate query.
    pub fn select_aggregate(&mut self, agg: &Aggregate) -> IfdbResult<ResultSet> {
        let implicit = self.ensure_txn()?;
        let armed = self.arm_budget();
        let r = self.aggregate_inner(agg);
        let r = self.disarm_budget(armed, r);
        self.finish_statement(implicit, r)
    }

    fn aggregate_inner(&mut self, agg: &Aggregate) -> IfdbResult<ResultSet> {
        /// Running state for one aggregate within one group.
        #[derive(Default, Clone)]
        struct Acc {
            rows: u64,
            sum: f64,
            numeric: u64,
            min: Option<f64>,
            max: Option<f64>,
        }

        let src_cols = self.source_columns(&agg.from)?;
        let filter = CompiledPredicate::compile(&agg.predicate, &src_cols)?;
        let group_idx = match &agg.group_by {
            Some(c) => Some(col_index(&src_cols, c)?),
            None => None,
        };
        let agg_cols: Vec<Option<usize>> = agg
            .aggregates
            .iter()
            .map(|(f, c)| match f {
                AggFunc::Count => Ok(None),
                _ => col_index(&src_cols, c).map(Some),
            })
            .collect::<IfdbResult<_>>()?;

        // Groups accumulate in first-seen order; group counts are small, so
        // the linear key search is cheaper than hashing.
        let mut groups: Vec<(Datum, Label, Vec<Acc>)> = Vec::new();
        let n_aggs = agg.aggregates.len();
        self.stream_source(&agg.from, &Label::empty(), &agg.predicate, &mut |r| {
            if !filter.matches(&r.values, &r.label) {
                return Ok(true);
            }
            let key = match group_idx {
                Some(i) => r.values[i].clone(),
                None => Datum::Null,
            };
            let entry = match groups.iter_mut().position(|(k, _, _)| *k == key) {
                Some(pos) => &mut groups[pos],
                None => {
                    groups.push((key, Label::empty(), vec![Acc::default(); n_aggs]));
                    groups.last_mut().expect("just pushed")
                }
            };
            entry.1 = entry.1.union(&r.label);
            for (acc, col) in entry.2.iter_mut().zip(&agg_cols) {
                acc.rows += 1;
                if let Some(i) = col {
                    if let Some(x) = r.values[*i].as_float() {
                        acc.sum += x;
                        acc.numeric += 1;
                        acc.min = Some(acc.min.map_or(x, |m| m.min(x)));
                        acc.max = Some(acc.max.map_or(x, |m| m.max(x)));
                    }
                }
            }
            Ok(true)
        })?;
        if groups.is_empty() && group_idx.is_none() {
            groups.push((Datum::Null, Label::empty(), vec![Acc::default(); n_aggs]));
        }

        // Output columns.
        let mut out_columns = Vec::new();
        if let Some(c) = &agg.group_by {
            out_columns.push(c.clone());
        }
        for (f, c) in &agg.aggregates {
            out_columns.push(match f {
                AggFunc::Count => "count".to_string(),
                AggFunc::Sum => format!("sum_{c}"),
                AggFunc::Avg => format!("avg_{c}"),
                AggFunc::Min => format!("min_{c}"),
                AggFunc::Max => format!("max_{c}"),
            });
        }
        let columns = Arc::new(out_columns);
        let mut rows = Vec::new();
        for (key, label, accs) in groups {
            let mut values = Vec::new();
            if group_idx.is_some() {
                values.push(key);
            }
            for ((f, _), acc) in agg.aggregates.iter().zip(accs) {
                let datum = match f {
                    AggFunc::Count => Datum::Int(acc.rows as i64),
                    AggFunc::Sum => Datum::Float(acc.sum),
                    AggFunc::Avg => {
                        if acc.numeric == 0 {
                            Datum::Null
                        } else {
                            Datum::Float(acc.sum / acc.numeric as f64)
                        }
                    }
                    AggFunc::Min => acc.min.map(Datum::Float).unwrap_or(Datum::Null),
                    AggFunc::Max => acc.max.map(Datum::Float).unwrap_or(Datum::Null),
                };
                values.push(datum);
            }
            rows.push(Row {
                columns: columns.clone(),
                label,
                values,
            });
        }
        Ok(ResultSet::new(rows))
    }

    // ==================================================================
    // INSERT
    // ==================================================================

    /// Executes an INSERT. The new tuple's label is exactly the process label
    /// (Write Rule); the `DECLASSIFYING` clause covers foreign-key label
    /// differences per Section 5.2.2.
    pub fn insert(&mut self, ins: &Insert) -> IfdbResult<()> {
        self.check_writable()?;
        let implicit = self.ensure_txn()?;
        let armed = self.arm_budget();
        let r = self.insert_inner(ins);
        let r = self.disarm_budget(armed, r);
        self.finish_statement(implicit, r)
    }

    fn insert_inner(&mut self, ins: &Insert) -> IfdbResult<()> {
        let info = {
            let catalog = self.db.inner.catalog.read();
            catalog.table(&ins.table)?
        };
        check_constraints_attached(&info)?;
        let difc = self.db.difc_enabled();
        let label = if difc {
            self.process.label().clone()
        } else {
            Label::empty()
        };
        info.schema.check_tuple(&ins.values)?;

        // Label constraints.
        if difc {
            for c in &info.label_constraints {
                c.check(&info.schema.name, &ins.values, &label)?;
            }
        }
        // Uniqueness with polyinstantiation: only conflicts *visible to this
        // process* are errors.
        self.check_unique(&info, info.keys(), &ins.values, None)?;
        // Foreign keys with the DECLASSIFYING clause.
        self.check_foreign_keys(&info, &ins.values, &label, &ins.declassifying)?;

        let (txn, _) = self.current_txn()?;
        self.db
            .inner
            .engine
            .insert(txn, info.id, label.to_array(), ins.values.clone())?;
        self.record_write(&label);
        self.fire_triggers(&info, TriggerEvent::Insert, Some(&ins.values), None)?;
        Ok(())
    }

    /// Checks `values` against `keys` of the table, each with one probe of
    /// the key's own index for the key the values carry: the point-lookup
    /// path of every scan, with its Query-by-Label decision and budget
    /// charge, and with no filter, since the index matched the whole key.
    /// Only a conflicting row this process can see is an error; an
    /// invisible one is polyinstantiated (Section 5.2.1). `exclude` is the
    /// row an UPDATE is replacing, which cannot conflict with itself.
    fn check_unique<'k>(
        &mut self,
        info: &Arc<TableInfo>,
        keys: impl IntoIterator<Item = &'k KeyIndex>,
        values: &[Datum],
        exclude: Option<RowId>,
    ) -> IfdbResult<()> {
        for key in keys {
            let plan = TableScanPlan {
                access: AccessPath::IndexEq {
                    index: &key.index,
                    key: key.offsets.iter().map(|i| values[*i].clone()).collect(),
                },
                filter: CompiledPredicate::True,
                whole: true,
            };
            let mut conflict = false;
            self.stream_base_table_plan(info, &Label::empty(), plan, &mut |r| {
                conflict = r.row_id.map(|(_, rid)| rid) != exclude;
                Ok(!conflict)
            })?;
            if conflict {
                return Err(IfdbError::UniqueViolation {
                    constraint: key.index.clone(),
                });
            }
        }
        Ok(())
    }

    fn check_foreign_keys(
        &mut self,
        info: &Arc<TableInfo>,
        values: &[Datum],
        label: &Label,
        declassifying: &[ifdb_difc::TagId],
    ) -> IfdbResult<()> {
        if info.foreign_keys.is_empty() {
            return Ok(());
        }
        let difc = self.db.difc_enabled();
        let declassify_label = Label::from_tags(declassifying.iter().copied());
        let (_, snapshot) = self.current_txn()?;
        for (fk, offsets) in info.foreign_keys.iter().zip(info.foreign_key_offsets()) {
            let key: Vec<Datum> = offsets.iter().map(|i| values[*i].clone()).collect();
            if key.iter().any(Datum::is_null) {
                continue;
            }
            let ref_info = {
                let catalog = self.db.inner.catalog.read();
                catalog.table(&fk.ref_table)?
            };
            let referenced_label =
                self.find_referenced(&snapshot, &ref_info, &fk.ref_columns, &key)?;
            let Some(referenced_label) = referenced_label else {
                return Err(IfdbError::ForeignKeyViolation {
                    constraint: fk.name.clone(),
                });
            };
            if !difc {
                continue;
            }
            // Foreign Key Rule: the inserter must have authority for, and
            // explicitly declassify, every tag in the symmetric difference of
            // the two labels.
            let symdiff = label.symmetric_difference(&referenced_label);
            if symdiff.is_empty() {
                continue;
            }
            let missing = symdiff.difference(&declassify_label);
            if !missing.is_empty() {
                return Err(IfdbError::DeclassifyingRequired {
                    constraint: fk.name.clone(),
                    missing,
                });
            }
            {
                let auth = self.db.inner.auth.read();
                for tag in symdiff.iter() {
                    if !auth.has_authority(self.process.principal(), tag) {
                        return Err(IfdbError::Difc(ifdb_difc::DifcError::NoAuthority {
                            principal: self.process.principal(),
                            tag,
                        }));
                    }
                }
            }
            self.db.audit_counters().count(kind::DECLASSIFYING_VIEW);
        }
        Ok(())
    }

    /// Finds a tuple in `ref_info` whose `ref_columns` equal `key`,
    /// *irrespective of its label* (referential constraints hold across
    /// labels; the Foreign Key Rule governs what the requester must vouch
    /// for). Served by any index on exactly those columns, which the
    /// catalog names; without one, the heap is walked. Shared by the INSERT
    /// foreign-key check and the DELETE restrict check.
    fn find_referenced(
        &mut self,
        snapshot: &Snapshot,
        ref_info: &Arc<TableInfo>,
        ref_columns: &[String],
        key: &[Datum],
    ) -> IfdbResult<Option<Label>> {
        let engine = &self.db.inner.engine;
        let mut found = None;
        if let Some(index_name) = ref_info.index_on(ref_columns) {
            let rows = engine.index_lookup(ref_info.id, index_name, key)?;
            let labels = engine.labels();
            engine.visit_rows::<IfdbError>(snapshot, ref_info.id, rows, |_, tuple| {
                found = Some(Label::from_array(&labels.tags(tuple.label_id())?));
                Ok(false)
            })?;
            return Ok(found);
        }
        let idx = ref_info.column_offsets(ref_columns)?;
        engine.scan_visible(snapshot, ref_info.id, |_, v| {
            if idx.iter().zip(key).all(|(i, k)| &v.data[*i] == k) {
                found = Some(Label::from_array(&v.header.label));
                false
            } else {
                true
            }
        })?;
        Ok(found)
    }

    // ==================================================================
    // UPDATE and DELETE
    // ==================================================================

    /// Streams the base-table rows matching `predicate` (fully evaluated,
    /// not just the push-down) into a vector. Writes happen after the scan
    /// completes, so mutation never runs under an active heap traversal.
    fn collect_matching(
        &mut self,
        info: &Arc<TableInfo>,
        predicate: &Predicate,
    ) -> IfdbResult<Vec<ScanRow>> {
        let filter = CompiledPredicate::compile(predicate, info.column_names())?;
        let mut rows = Vec::new();
        self.stream_base_table(info, &Label::empty(), predicate, &mut |r| {
            if filter.matches(&r.values, &r.label) {
                rows.push(r);
            }
            Ok(true)
        })?;
        Ok(rows)
    }

    /// Executes an UPDATE. Only tuples labeled exactly the process label are
    /// affected; visible lower-labeled tuples cause a Write Rule error, and
    /// higher-labeled tuples are invisible and untouched. Returns the number
    /// of updated rows.
    pub fn update(&mut self, upd: &Update) -> IfdbResult<usize> {
        self.check_writable()?;
        let implicit = self.ensure_txn()?;
        let armed = self.arm_budget();
        let r = self.update_inner(upd);
        let r = self.disarm_budget(armed, r);
        self.finish_statement(implicit, r)
    }

    fn update_inner(&mut self, upd: &Update) -> IfdbResult<usize> {
        let info = {
            let catalog = self.db.inner.catalog.read();
            catalog.table(&upd.table)?
        };
        check_constraints_attached(&info)?;
        let difc = self.db.difc_enabled();
        let process_label = self.process.label().clone();
        let columns = info.column_names();
        let set_idx: Vec<(usize, Datum)> = upd
            .set
            .iter()
            .map(|(c, v)| col_index(columns, c).map(|i| (i, v.clone())))
            .collect::<IfdbResult<_>>()?;
        // Only a key that the SET list writes to can gain a duplicate.
        let keys: Vec<&KeyIndex> = info
            .keys()
            .filter(|k| {
                k.offsets
                    .iter()
                    .any(|o| set_idx.iter().any(|(i, _)| i == o))
            })
            .collect();
        let write_label = if difc {
            process_label.clone()
        } else {
            Label::empty()
        };

        let matched = self.collect_matching(&info, &upd.predicate)?;
        let (txn, _) = self.current_txn()?;
        let mut updated = 0;
        for r in matched {
            // The scan ran with an empty declassify set, so `r.label` is the
            // tuple's stored label. The tuple is visible (its label is a
            // subset of ours) but unless it is exactly ours the Write Rule
            // forbids the update.
            if difc && r.label != process_label {
                return Err(IfdbError::WriteRuleViolation {
                    tuple_label: r.label,
                    process_label,
                });
            }
            let (table_id, rid) = r.row_id.expect("base-table scan provides row ids");
            let mut new_values = r.values.clone();
            for (i, v) in &set_idx {
                new_values[*i] = v.clone();
            }
            info.schema.check_tuple(&new_values)?;
            if difc {
                for c in &info.label_constraints {
                    c.check(&info.schema.name, &new_values, &process_label)?;
                }
            }
            // Uniqueness as for an insert, the row being replaced aside.
            self.check_unique(&info, keys.iter().copied(), &new_values, Some(rid))?;
            self.db.inner.engine.update(
                txn,
                table_id,
                rid,
                write_label.to_array(),
                new_values.clone(),
            )?;
            self.record_write(&write_label);
            self.fire_triggers(
                &info,
                TriggerEvent::Update,
                Some(&new_values),
                Some(&r.values),
            )?;
            updated += 1;
        }
        Ok(updated)
    }

    /// Executes a DELETE, subject to the Write Rule and to referential
    /// integrity (a delete fails while referencing rows exist — the channel
    /// this opens was vouched for by the referencing inserter's
    /// `DECLASSIFYING` clause, Section 5.2.2). Returns the number of deleted
    /// rows.
    pub fn delete(&mut self, del: &Delete) -> IfdbResult<usize> {
        self.check_writable()?;
        let implicit = self.ensure_txn()?;
        let armed = self.arm_budget();
        let r = self.delete_inner(del);
        let r = self.disarm_budget(armed, r);
        self.finish_statement(implicit, r)
    }

    fn delete_inner(&mut self, del: &Delete) -> IfdbResult<usize> {
        let info = {
            let catalog = self.db.inner.catalog.read();
            catalog.table(&del.table)?
        };
        check_constraints_attached(&info)?;
        let difc = self.db.difc_enabled();
        let process_label = self.process.label().clone();
        let referencing = {
            let catalog = self.db.inner.catalog.read();
            // A recovered table whose DDL has not been re-run has no
            // foreign-key metadata, so it could reference this table without
            // appearing in `referencing` — RESTRICT enforcement is
            // incomplete until every recovered table is re-attached.
            if let Some(pending) = catalog.first_constraints_pending() {
                return Err(IfdbError::ConstraintsPending { table: pending });
            }
            catalog.referencing(&info.schema.name)
        };
        // Where each referencing foreign key's referenced columns sit in
        // this table's rows; a foreign key naming a column the table lacks
        // fails the statement.
        let restrict_offsets = referencing
            .iter()
            .map(|(_, fk)| info.column_offsets(&fk.ref_columns))
            .collect::<IfdbResult<Vec<_>>>()?;
        let write_label = if difc {
            process_label.clone()
        } else {
            Label::empty()
        };

        let matched = self.collect_matching(&info, &del.predicate)?;
        let (txn, snapshot) = self.current_txn()?;
        let mut deleted = 0;
        for r in matched {
            // As in UPDATE: empty declassify set, so `r.label` is the stored
            // label, and the Write Rule demands an exact match.
            if difc && r.label != process_label {
                return Err(IfdbError::WriteRuleViolation {
                    tuple_label: r.label,
                    process_label,
                });
            }
            // Referential integrity: no referencing rows may remain,
            // regardless of their labels.
            for ((ref_info, fk), offsets) in referencing.iter().zip(&restrict_offsets) {
                let key: Vec<Datum> = offsets.iter().map(|i| r.values[*i].clone()).collect();
                if self
                    .find_referenced(&snapshot, ref_info, &fk.columns, &key)?
                    .is_some()
                {
                    return Err(IfdbError::RestrictViolation {
                        constraint: fk.name.clone(),
                    });
                }
            }
            let (table_id, rid) = r.row_id.expect("base-table scan provides row ids");
            self.db.inner.engine.delete(txn, table_id, rid)?;
            self.record_write(&write_label);
            self.fire_triggers(&info, TriggerEvent::Delete, None, Some(&r.values))?;
            deleted += 1;
        }
        Ok(deleted)
    }

    // ==================================================================
    // Triggers
    // ==================================================================

    /// Runs or queues the triggers on `info` for `event`; the rows are
    /// copied into the invocation only when a trigger fires.
    fn fire_triggers(
        &mut self,
        info: &Arc<TableInfo>,
        event: TriggerEvent,
        new: Option<&[Datum]>,
        old: Option<&[Datum]>,
    ) -> IfdbResult<()> {
        let triggers = {
            let catalog = self.db.inner.catalog.read();
            catalog.triggers_for(&info.schema.name, event)
        };
        if triggers.is_empty() {
            return Ok(());
        }
        let inv = TriggerInvocation {
            table: info.schema.name.clone(),
            event,
            new: new.map(<[Datum]>::to_vec),
            old: old.map(<[Datum]>::to_vec),
            label: self.process.label().clone(),
        };
        for trigger in triggers {
            match trigger.timing {
                TriggerTiming::Immediate => self.run_trigger(&trigger, &inv)?,
                TriggerTiming::Deferred => {
                    if let Some(txn) = self.txn.as_mut() {
                        txn.deferred.push((trigger, inv.clone()));
                    }
                }
            }
        }
        Ok(())
    }

    // ==================================================================
    // Reference executor (the seed implementation)
    // ==================================================================

    /// The seed executor's SELECT over a base table, retained verbatim as a
    /// reference implementation: it materializes the whole scan, resolves
    /// column names by per-row string search, and re-decides the declassify
    /// cover and Information Flow Rule for every tuple while holding the
    /// authority lock across the scan. Differential tests pin the streaming
    /// pipeline to it, and the `scan_hot` benchmark quantifies the gap.
    ///
    /// It is an oracle for rows, not for where a budget kills a scan: it
    /// charges a statement budget's row cap once per visible version, while
    /// the streaming heap scan charges every slot of each page it walks,
    /// dead and invisible ones included.
    #[doc(hidden)]
    pub fn select_reference(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        let implicit = self.ensure_txn()?;
        let armed = self.arm_budget();
        let r = self.select_reference_inner(q);
        let r = self.disarm_budget(armed, r);
        self.finish_statement(implicit, r)
    }

    fn select_reference_inner(&mut self, q: &Select) -> IfdbResult<ResultSet> {
        let src = self.scan_source_reference(&q.from, &Label::empty(), &q.predicate)?;
        let mut selected: Vec<ScanRow> = Vec::new();
        for r in src.rows {
            if let Some(exact) = &q.exact_label {
                if &r.label != exact {
                    continue;
                }
            }
            if eval_predicate(&q.predicate, &src.columns, &r.values, &r.label)? {
                selected.push(r);
            }
        }
        if let Some((col, order)) = &q.order_by {
            let idx = col_index(&src.columns, col)?;
            selected.sort_by(|a, b| {
                let o = a.values[idx].cmp(&b.values[idx]);
                match order {
                    Order::Asc => o,
                    Order::Desc => o.reverse(),
                }
            });
        }
        if let Some(limit) = q.limit {
            selected.truncate(limit);
        }
        let (out_columns, projector): (Vec<String>, Option<Vec<usize>>) = match &q.columns {
            None => (src.columns.clone(), None),
            Some(cols) => {
                let idx: Vec<usize> = cols
                    .iter()
                    .map(|c| col_index(&src.columns, c))
                    .collect::<IfdbResult<_>>()?;
                (cols.clone(), Some(idx))
            }
        };
        let columns = Arc::new(out_columns);
        let rows = selected
            .into_iter()
            .map(|r| {
                let values = match &projector {
                    None => r.values,
                    Some(idx) => idx.iter().map(|i| r.values[*i].clone()).collect(),
                };
                Row {
                    columns: columns.clone(),
                    label: r.label,
                    values,
                }
            })
            .collect();
        Ok(ResultSet::new(rows))
    }

    /// The seed executor's recursive materializing scan over tables, views
    /// and joins.
    fn scan_source_reference(
        &mut self,
        from: &str,
        declassify: &Label,
        hint: &Predicate,
    ) -> IfdbResult<SourceRows> {
        let view = match self.resolve_source(from)? {
            ResolvedSource::Table(info) => {
                return self.scan_base_table_reference(&info, declassify, hint)
            }
            ResolvedSource::View(view) => view,
        };
        let nested_declassify = declassify.union(&view.declassifies);
        if view.is_declassifying() {
            self.db.audit_counters().count(kind::DECLASSIFYING_VIEW);
        }
        match &view.source {
            ViewSource::Select(sel) => {
                let src =
                    self.scan_source_reference(&sel.from, &nested_declassify, &sel.predicate)?;
                let mut rows = Vec::new();
                for r in src.rows {
                    if eval_predicate(&sel.predicate, &src.columns, &r.values, &r.label)? {
                        rows.push(r);
                    }
                }
                // Apply the view's projection, if any.
                let (columns, rows) = match &sel.columns {
                    None => (src.columns, rows),
                    Some(cols) => {
                        let idx: Vec<usize> = cols
                            .iter()
                            .map(|c| col_index(&src.columns, c))
                            .collect::<IfdbResult<_>>()?;
                        let projected = rows
                            .into_iter()
                            .map(|r| ScanRow {
                                row_id: None,
                                label: r.label.clone(),
                                values: idx.iter().map(|i| r.values[*i].clone()).collect(),
                            })
                            .collect();
                        (cols.clone(), projected)
                    }
                };
                Ok(SourceRows { columns, rows })
            }
            ViewSource::Join(join) => self.scan_join_reference(join, &nested_declassify),
        }
    }

    fn scan_join_reference(&mut self, join: &Join, declassify: &Label) -> IfdbResult<SourceRows> {
        let left = self.scan_source_reference(&join.left, declassify, &Predicate::True)?;
        let right = self.scan_source_reference(&join.right, declassify, &Predicate::True)?;
        let left_on = col_index(&left.columns, &join.on.0)?;
        let right_on = col_index(&right.columns, &join.on.1)?;

        // Output columns: left names as-is, right names prefixed on collision.
        let mut columns = left.columns.clone();
        let right_names: Vec<String> = right
            .columns
            .iter()
            .map(|c| {
                if left.columns.contains(c) {
                    format!("{}.{}", join.right, c)
                } else {
                    c.clone()
                }
            })
            .collect();
        columns.extend(right_names);

        // Hash the right side on its join column.
        let mut table: HashMap<Datum, Vec<&ScanRow>> = HashMap::new();
        for r in &right.rows {
            table.entry(r.values[right_on].clone()).or_default().push(r);
        }

        let right_width = right.columns.len();
        let mut rows = Vec::new();
        for l in &left.rows {
            let matches = table.get(&l.values[left_on]);
            match matches {
                Some(rs) if !rs.is_empty() => {
                    for r in rs {
                        let mut values = l.values.clone();
                        values.extend(r.values.iter().cloned());
                        let label = l.label.union(&r.label);
                        let row = ScanRow {
                            row_id: None,
                            label: label.clone(),
                            values,
                        };
                        if eval_predicate(&join.predicate, &columns, &row.values, &row.label)? {
                            rows.push(row);
                        }
                    }
                }
                _ => {
                    if join.kind == JoinKind::LeftOuter {
                        let mut values = l.values.clone();
                        values.extend(std::iter::repeat_n(Datum::Null, right_width));
                        let row = ScanRow {
                            row_id: None,
                            label: l.label.clone(),
                            values,
                        };
                        if eval_predicate(&join.predicate, &columns, &row.values, &row.label)? {
                            rows.push(row);
                        }
                    }
                }
            }
        }
        Ok(SourceRows { columns, rows })
    }

    fn scan_base_table_reference(
        &mut self,
        info: &Arc<TableInfo>,
        declassify: &Label,
        hint: &Predicate,
    ) -> IfdbResult<SourceRows> {
        let (_, snapshot) = self.current_txn()?;
        let process_label = self.process.label().clone();
        let difc = self.db.difc_enabled();
        let columns = info.column_names().to_vec();
        let budget = self.budget.clone();

        // Per-tuple declassify-cover resolution under the authority read
        // lock, held across the entire scan — exactly the seed behavior the
        // streaming pipeline replaced.
        let auth = self.db.inner.auth.read();
        let declassify_covers = |tag: ifdb_difc::TagId| {
            declassify.contains(tag)
                || auth
                    .enclosing_compounds(tag)
                    .iter()
                    .any(|c| declassify.contains(*c))
        };

        let mut rows = Vec::new();
        let mut consider = |stored_label: Label, values: Vec<Datum>, rid: (TableId, RowId)| {
            let effective = if declassify.is_empty() {
                stored_label.clone()
            } else {
                Label::from_tags(stored_label.iter().filter(|t| !declassify_covers(*t)))
            };
            if difc && !effective.is_subset_of(&process_label) {
                return;
            }
            rows.push(ScanRow {
                row_id: Some(rid),
                label: effective,
                values,
            });
        };

        // The seed planner: the primary-key index only, equality on every
        // key column.
        let use_index = info.primary_key.as_ref().and_then(|pk| {
            let key: Option<Vec<Datum>> = pk
                .columns
                .iter()
                .map(|c| hint.equality_on(c).cloned())
                .collect();
            key.map(|k| (pk.index.clone(), k))
        });

        if let Some((index_name, key)) = use_index {
            let row_ids = self
                .db
                .inner
                .engine
                .index_lookup(info.id, &index_name, &key)?;
            for rid in row_ids {
                if let Some(b) = &budget {
                    b.charge_row()?;
                }
                if let Some(version) = self
                    .db
                    .inner
                    .engine
                    .fetch_visible(&snapshot, info.id, rid)?
                {
                    consider(
                        Label::from_array(&version.header.label),
                        version.data,
                        (info.id, rid),
                    );
                }
            }
        } else {
            let mut scan_err: IfdbResult<()> = Ok(());
            self.db
                .inner
                .engine
                .scan_visible(&snapshot, info.id, |rid, version| {
                    if let Some(b) = &budget {
                        if let Err(e) = b.charge_row() {
                            scan_err = Err(e);
                            return false;
                        }
                    }
                    consider(
                        Label::from_array(&version.header.label),
                        version.data,
                        (info.id, rid),
                    );
                    true
                })?;
            scan_err?;
        }
        Ok(SourceRows { columns, rows })
    }
}
