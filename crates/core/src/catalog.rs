//! The catalog: tables, constraints, views, triggers and stored procedures.
//!
//! Schema definition is the administrator's job; note that per Section 3.3
//! the administrator defines tables and constraints but receives no authority
//! to declassify anything — authority comes only from tag ownership and
//! delegation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ifdb_difc::{Label, PrincipalId};
use ifdb_storage::{ColumnDef, DataType, Datum, TableId, TableSchema};

use crate::error::{IfdbError, IfdbResult};
use crate::query::{Join, Select};
use crate::row::ResultSet;
use crate::session::Session;

/// A uniqueness constraint over one or more columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueConstraint {
    /// Constraint name.
    pub name: String,
    /// The constrained columns.
    pub columns: Vec<String>,
}

/// A foreign-key (referential) constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Constraint name.
    pub name: String,
    /// Referencing columns (in this table).
    pub columns: Vec<String>,
    /// Referenced table.
    pub ref_table: String,
    /// Referenced columns.
    pub ref_columns: Vec<String>,
}

/// Computes the label a tuple must carry from the tuple's values.
pub type LabelFromRowFn = Arc<dyn Fn(&[Datum]) -> Label + Send + Sync>;

/// A label constraint (Section 5.2.4): a rule about what label tuples of a
/// table must carry. Simple constraints double as anti-polyinstantiation
/// rules when combined with a uniqueness constraint.
#[derive(Clone)]
pub enum LabelConstraint {
    /// Every tuple's label must contain all of these tags.
    MustContain {
        /// Constraint name.
        name: String,
        /// Tags that must appear in every tuple label.
        label: Label,
    },
    /// Every tuple's label must be exactly the label computed from its
    /// values (e.g. "a record for Alice must have the label
    /// {alice_medical}").
    ExactFromRow {
        /// Constraint name.
        name: String,
        /// Computes the required label from the tuple's values.
        func: LabelFromRowFn,
    },
}

impl LabelConstraint {
    /// The constraint's name.
    pub fn name(&self) -> &str {
        match self {
            LabelConstraint::MustContain { name, .. } => name,
            LabelConstraint::ExactFromRow { name, .. } => name,
        }
    }

    /// Checks a tuple against the constraint.
    pub fn check(&self, table: &str, values: &[Datum], label: &Label) -> IfdbResult<()> {
        match self {
            LabelConstraint::MustContain {
                label: required, ..
            } => {
                if required.is_subset_of(label) {
                    Ok(())
                } else {
                    Err(IfdbError::LabelConstraintViolation {
                        table: table.to_string(),
                        detail: format!("label {label} must contain {required}"),
                    })
                }
            }
            LabelConstraint::ExactFromRow { func, .. } => {
                let required = func(values);
                if &required == label {
                    Ok(())
                } else {
                    Err(IfdbError::LabelConstraintViolation {
                        table: table.to_string(),
                        detail: format!("label {label} must be exactly {required}"),
                    })
                }
            }
        }
    }
}

impl fmt::Debug for LabelConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelConstraint::MustContain { name, label } => f
                .debug_struct("MustContain")
                .field("name", name)
                .field("label", label)
                .finish(),
            LabelConstraint::ExactFromRow { name, .. } => f
                .debug_struct("ExactFromRow")
                .field("name", name)
                .finish_non_exhaustive(),
        }
    }
}

/// The event a trigger fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerEvent {
    /// After a row is inserted.
    Insert,
    /// After a row is updated.
    Update,
    /// After a row is deleted.
    Delete,
}

/// When the trigger body runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerTiming {
    /// Immediately, as part of the triggering statement.
    Immediate,
    /// At transaction commit. Deferred triggers still run with the *label of
    /// the query* that queued them, not the commit label (Section 5.2.3).
    Deferred,
}

/// The data passed to a trigger body.
#[derive(Debug, Clone)]
pub struct TriggerInvocation {
    /// The table the statement targeted.
    pub table: String,
    /// The event.
    pub event: TriggerEvent,
    /// The new row (for inserts and updates).
    pub new: Option<Vec<Datum>>,
    /// The old row (for updates and deletes).
    pub old: Option<Vec<Datum>>,
    /// The process label at the time of the triggering query.
    pub label: Label,
}

/// The body of a trigger: arbitrary code that may issue further statements
/// through the session it is handed.
pub type TriggerBody =
    Arc<dyn Fn(&mut Session, &TriggerInvocation) -> IfdbResult<()> + Send + Sync>;

/// A trigger definition.
#[derive(Clone)]
pub struct TriggerDef {
    /// Trigger name.
    pub name: String,
    /// Table it is attached to.
    pub table: String,
    /// Events it fires on.
    pub events: Vec<TriggerEvent>,
    /// When the body runs.
    pub timing: TriggerTiming,
    /// If set, the trigger is a *stored authority closure* (Section 4.3): the
    /// body runs with this principal's authority instead of the caller's.
    pub authority: Option<PrincipalId>,
    /// The body.
    pub body: TriggerBody,
}

impl fmt::Debug for TriggerDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TriggerDef")
            .field("name", &self.name)
            .field("table", &self.table)
            .field("events", &self.events)
            .field("timing", &self.timing)
            .field("authority", &self.authority)
            .finish_non_exhaustive()
    }
}

/// What a view selects from.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewSource {
    /// A single-table (or single-view) select.
    Select(Select),
    /// A two-way join.
    Join(Join),
}

/// A view definition. Ordinary views have an empty `declassifies` label;
/// *declassifying views* (Section 4.3) additionally remove the given tags
/// from the labels of the tuples they expose, exercising the authority of the
/// principal that was bound into the view at creation time.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// The underlying query.
    pub source: ViewSource,
    /// Tags this view declassifies.
    pub declassifies: Label,
    /// The principal whose authority was bound into the view (checked at
    /// creation).
    pub authority: Option<PrincipalId>,
}

impl ViewDef {
    /// Returns `true` if this is a declassifying view.
    pub fn is_declassifying(&self) -> bool {
        !self.declassifies.is_empty()
    }
}

/// The body of a stored procedure.
pub type ProcedureBody = Arc<dyn Fn(&mut Session, &[Datum]) -> IfdbResult<ResultSet> + Send + Sync>;

/// A stored procedure. With `authority: Some(p)` it is a *stored authority
/// closure* and runs as `p`; otherwise it runs with the caller's authority.
#[derive(Clone)]
pub struct StoredProcedure {
    /// Procedure name.
    pub name: String,
    /// Bound principal, if this is an authority closure.
    pub authority: Option<PrincipalId>,
    /// The body.
    pub body: ProcedureBody,
}

impl fmt::Debug for StoredProcedure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoredProcedure")
            .field("name", &self.name)
            .field("authority", &self.authority)
            .finish_non_exhaustive()
    }
}

/// A secondary index registered on a table, visible to the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Index name (unique per table).
    pub name: String,
    /// Indexed columns, in key order.
    pub columns: Vec<String>,
}

/// A key — the primary key or a UNIQUE constraint — bound to the index that
/// enforces it. Every key has an index of its own, named after the
/// constraint (`<table>_pkey` for the primary key), so checking a row
/// against it is one probe of that index with the values at `offsets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyIndex {
    /// The index's name, which is also the constraint's.
    pub index: String,
    /// The key's columns, in key order.
    pub columns: Vec<String>,
    /// Their offsets in the table's rows.
    pub offsets: Vec<usize>,
}

/// Everything the catalog records about one table, bound to its column
/// layout once, when the table is defined: statements read the names, key
/// offsets and index names from here instead of resolving them per row.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Storage-engine table id.
    pub id: TableId,
    /// The schema.
    pub schema: TableSchema,
    /// The primary key, if one was declared.
    pub primary_key: Option<KeyIndex>,
    /// Additional uniqueness constraints.
    pub uniques: Vec<KeyIndex>,
    /// Foreign keys from this table.
    pub foreign_keys: Vec<ForeignKey>,
    /// Label constraints.
    pub label_constraints: Vec<LabelConstraint>,
    /// Secondary indexes available to the planner.
    pub indexes: Vec<IndexSpec>,
    /// Set for tables reconstructed by `DatabaseBuilder::recover` whose
    /// constraint metadata (uniques, foreign keys, label constraints — code, not
    /// logged data) has not been re-attached yet. While set, writes to the
    /// table are refused; re-running the first-boot
    /// `Database::create_table` clears it.
    pub constraints_pending: bool,
    /// The schema's column names, in order.
    column_names: Vec<String>,
    /// For each foreign key, the offsets of its columns in this table.
    foreign_key_offsets: Vec<Vec<usize>>,
}

impl TableInfo {
    /// Binds `def` to table `id`: the schema it declares, its keys with
    /// their indexes and offsets, and its foreign keys' offsets. Fails on a
    /// key or foreign-key column the table does not have.
    pub(crate) fn new(
        id: TableId,
        def: TableDef,
        constraints_pending: bool,
    ) -> IfdbResult<TableInfo> {
        let schema = TableSchema::new(&def.name, def.columns);
        let column_names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let key = |index: String, columns: Vec<String>| -> IfdbResult<KeyIndex> {
            Ok(KeyIndex {
                offsets: offsets_in(&column_names, &columns)?,
                index,
                columns,
            })
        };
        let primary_key = if def.primary_key.is_empty() {
            None
        } else {
            Some(key(Self::pkey_index(&def.name), def.primary_key)?)
        };
        let uniques = def
            .uniques
            .into_iter()
            .map(|u| key(u.name, u.columns))
            .collect::<IfdbResult<_>>()?;
        let foreign_key_offsets = def
            .foreign_keys
            .iter()
            .map(|fk| offsets_in(&column_names, &fk.columns))
            .collect::<IfdbResult<_>>()?;
        Ok(TableInfo {
            id,
            schema,
            primary_key,
            uniques,
            foreign_keys: def.foreign_keys,
            label_constraints: def.label_constraints,
            indexes: def.indexes,
            constraints_pending,
            column_names,
            foreign_key_offsets,
        })
    }

    /// The name of table `table`'s primary-key index.
    pub(crate) fn pkey_index(table: &str) -> String {
        format!("{table}_pkey")
    }

    /// The table's keys: the primary key first, then each UNIQUE
    /// constraint.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &KeyIndex> {
        self.primary_key.iter().chain(&self.uniques)
    }

    /// Every index available on this table: the primary-key index first
    /// (point lookups on it are unique), then secondary indexes in creation
    /// order, then the UNIQUE constraints' indexes.
    pub fn index_specs(&self) -> impl Iterator<Item = (&str, &[String])> {
        fn key(k: &KeyIndex) -> (&str, &[String]) {
            (k.index.as_str(), k.columns.as_slice())
        }
        self.primary_key
            .iter()
            .map(key)
            .chain(
                self.indexes
                    .iter()
                    .map(|i| (i.name.as_str(), i.columns.as_slice())),
            )
            .chain(self.uniques.iter().map(key))
    }

    /// The name of an index whose key is exactly `cols`, if one exists.
    pub fn index_on(&self, cols: &[String]) -> Option<&str> {
        self.index_specs().find(|(_, c)| *c == cols).map(|(n, _)| n)
    }

    /// The schema's column names, in order.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// The offsets of `columns` in this table's rows.
    pub(crate) fn column_offsets(&self, columns: &[String]) -> IfdbResult<Vec<usize>> {
        offsets_in(&self.column_names, columns)
    }

    /// For each of [`TableInfo::foreign_keys`], in order, the offsets of its
    /// columns in this table's rows.
    pub(crate) fn foreign_key_offsets(&self) -> &[Vec<usize>] {
        &self.foreign_key_offsets
    }
}

/// The offsets of `columns` among `names`.
fn offsets_in(names: &[String], columns: &[String]) -> IfdbResult<Vec<usize>> {
    columns
        .iter()
        .map(|c| {
            names
                .iter()
                .position(|n| n == c)
                .ok_or_else(|| IfdbError::UnknownColumn(c.clone()))
        })
        .collect()
}

/// A declarative table definition handed to
/// [`crate::database::Database::create_table`].
#[derive(Debug, Clone, Default)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Columns.
    pub columns: Vec<ColumnDef>,
    /// Primary-key columns.
    pub primary_key: Vec<String>,
    /// Extra uniqueness constraints.
    pub uniques: Vec<UniqueConstraint>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
    /// Label constraints.
    pub label_constraints: Vec<LabelConstraint>,
    /// Secondary indexes to create with the table.
    pub indexes: Vec<IndexSpec>,
}

impl TableDef {
    /// Starts a definition with the given name.
    pub fn new(name: &str) -> Self {
        TableDef {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Adds a non-nullable column.
    pub fn column(mut self, name: &str, ty: DataType) -> Self {
        self.columns.push(ColumnDef::new(name, ty));
        self
    }

    /// Adds a nullable column.
    pub fn nullable_column(mut self, name: &str, ty: DataType) -> Self {
        self.columns.push(ColumnDef::nullable(name, ty));
        self
    }

    /// Sets the primary key.
    pub fn primary_key(mut self, columns: &[&str]) -> Self {
        self.primary_key = columns.iter().map(|c| c.to_string()).collect();
        self
    }

    /// Adds a secondary index over the given columns.
    pub fn secondary_index(mut self, name: &str, columns: &[&str]) -> Self {
        self.indexes.push(IndexSpec {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        });
        self
    }

    /// Adds a uniqueness constraint.
    pub fn unique(mut self, name: &str, columns: &[&str]) -> Self {
        self.uniques.push(UniqueConstraint {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        });
        self
    }

    /// Adds a foreign key.
    pub fn foreign_key(
        mut self,
        name: &str,
        columns: &[&str],
        ref_table: &str,
        ref_columns: &[&str],
    ) -> Self {
        self.foreign_keys.push(ForeignKey {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            ref_table: ref_table.to_string(),
            ref_columns: ref_columns.iter().map(|c| c.to_string()).collect(),
        });
        self
    }

    /// Adds a must-contain label constraint.
    pub fn label_must_contain(mut self, name: &str, label: Label) -> Self {
        self.label_constraints.push(LabelConstraint::MustContain {
            name: name.to_string(),
            label,
        });
        self
    }

    /// Adds an exact label constraint computed from the row.
    pub fn label_exact_from_row(
        mut self,
        name: &str,
        func: impl Fn(&[Datum]) -> Label + Send + Sync + 'static,
    ) -> Self {
        self.label_constraints.push(LabelConstraint::ExactFromRow {
            name: name.to_string(),
            func: Arc::new(func),
        });
        self
    }
}

/// The catalog proper.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<TableInfo>>,
    views: HashMap<String, Arc<ViewDef>>,
    triggers: HashMap<String, Vec<Arc<TriggerDef>>>,
    procedures: HashMap<String, Arc<StoredProcedure>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table.
    pub fn add_table(&mut self, info: TableInfo) {
        self.tables.insert(info.schema.name.clone(), Arc::new(info));
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> IfdbResult<Arc<TableInfo>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| IfdbError::UnknownTable(name.to_string()))
    }

    /// Removes a table's catalog entry (used when a replica reset discarded
    /// the engine-level table; the entry will be re-added by the catalog
    /// resync once the table streams back in).
    pub fn remove_table(&mut self, name: &str) {
        self.tables.remove(name);
    }

    /// Returns `true` if a table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Every table name.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Name of some table still awaiting its post-recovery DDL re-run, if
    /// any. While such a table exists, [`Catalog::referencing`] is
    /// incomplete — the pending table's foreign keys are unknown, so it
    /// could reference any other table without appearing in the result.
    pub fn first_constraints_pending(&self) -> Option<String> {
        self.tables
            .values()
            .find(|t| t.constraints_pending)
            .map(|t| t.schema.name.clone())
    }

    /// Tables whose foreign keys reference `table`.
    pub fn referencing(&self, table: &str) -> Vec<(Arc<TableInfo>, ForeignKey)> {
        let mut out = Vec::new();
        for info in self.tables.values() {
            for fk in &info.foreign_keys {
                if fk.ref_table == table {
                    out.push((info.clone(), fk.clone()));
                }
            }
        }
        out
    }

    /// Registers a view.
    pub fn add_view(&mut self, view: ViewDef) {
        self.views.insert(view.name.clone(), Arc::new(view));
    }

    /// Looks up a view.
    pub fn view(&self, name: &str) -> IfdbResult<Arc<ViewDef>> {
        self.views
            .get(name)
            .cloned()
            .ok_or_else(|| IfdbError::UnknownView(name.to_string()))
    }

    /// Returns `true` if a view with this name exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// Registers a trigger on its table.
    pub fn add_trigger(&mut self, trigger: TriggerDef) {
        self.triggers
            .entry(trigger.table.clone())
            .or_default()
            .push(Arc::new(trigger));
    }

    /// Triggers attached to `table` that fire on `event`.
    pub fn triggers_for(&self, table: &str, event: TriggerEvent) -> Vec<Arc<TriggerDef>> {
        self.triggers
            .get(table)
            .map(|v| {
                v.iter()
                    .filter(|t| t.events.contains(&event))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Registers a stored procedure.
    pub fn add_procedure(&mut self, proc: StoredProcedure) {
        self.procedures.insert(proc.name.clone(), Arc::new(proc));
    }

    /// Looks up a stored procedure.
    pub fn procedure(&self, name: &str) -> IfdbResult<Arc<StoredProcedure>> {
        self.procedures
            .get(name)
            .cloned()
            .ok_or_else(|| IfdbError::UnknownProcedure(name.to_string()))
    }

    /// Number of registered views that declassify, plus authority-closure
    /// triggers and procedures — the "code that runs with authority" counted
    /// by the trusted-base report (Section 6.3).
    pub fn trusted_component_count(&self) -> usize {
        let declassifying_views = self.views.values().filter(|v| v.is_declassifying()).count();
        let closure_triggers = self
            .triggers
            .values()
            .flatten()
            .filter(|t| t.authority.is_some())
            .count();
        let closure_procs = self
            .procedures
            .values()
            .filter(|p| p.authority.is_some())
            .count();
        declassifying_views + closure_triggers + closure_procs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifdb_difc::TagId;

    #[test]
    fn table_def_builder() {
        let def = TableDef::new("Drives")
            .column("driveid", DataType::Int)
            .column("carid", DataType::Int)
            .nullable_column("distance", DataType::Float)
            .primary_key(&["driveid"])
            .unique("drives_unique_car_start", &["carid", "driveid"])
            .foreign_key("drives_carid_fkey", &["carid"], "Cars", &["carid"])
            .label_must_contain("drives_labeled", Label::singleton(TagId(1)));
        assert_eq!(def.columns.len(), 3);
        assert_eq!(def.primary_key, vec!["driveid"]);
        assert_eq!(def.uniques.len(), 1);
        assert_eq!(def.foreign_keys.len(), 1);
        assert_eq!(def.label_constraints.len(), 1);
    }

    #[test]
    fn label_constraints_check() {
        let must = LabelConstraint::MustContain {
            name: "c".into(),
            label: Label::singleton(TagId(7)),
        };
        assert!(must
            .check("t", &[], &Label::from_tags([TagId(7), TagId(8)]))
            .is_ok());
        assert!(must.check("t", &[], &Label::empty()).is_err());

        let exact = LabelConstraint::ExactFromRow {
            name: "e".into(),
            func: Arc::new(|row: &[Datum]| {
                // Tag id derived from the first column.
                Label::singleton(TagId(row[0].as_int().unwrap() as u64))
            }),
        };
        assert!(exact
            .check("t", &[Datum::Int(5)], &Label::singleton(TagId(5)))
            .is_ok());
        assert!(exact
            .check("t", &[Datum::Int(5)], &Label::singleton(TagId(6)))
            .is_err());
        assert_eq!(exact.name(), "e");
    }

    #[test]
    fn referencing_lookup() {
        let mut cat = Catalog::new();
        let cars = TableDef::new("Cars")
            .column("carid", DataType::Int)
            .primary_key(&["carid"]);
        cat.add_table(TableInfo::new(TableId(1), cars, false).unwrap());
        let drives = TableDef::new("Drives")
            .column("driveid", DataType::Int)
            .column("carid", DataType::Int)
            .primary_key(&["driveid"])
            .foreign_key("drives_carid_fkey", &["carid"], "Cars", &["carid"]);
        cat.add_table(TableInfo::new(TableId(2), drives, false).unwrap());
        let refs = cat.referencing("Cars");
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].1.name, "drives_carid_fkey");
        assert!(cat.referencing("Drives").is_empty());
        assert!(cat.has_table("Cars"));
        assert!(!cat.has_table("Nope"));
        assert!(cat.table("Nope").is_err());
    }

    #[test]
    fn trusted_component_count_counts_authority_bearing_objects() {
        let mut cat = Catalog::new();
        cat.add_view(ViewDef {
            name: "PCMembers".into(),
            source: ViewSource::Select(Select::star("ContactInfo")),
            declassifies: Label::singleton(TagId(3)),
            authority: Some(PrincipalId(1)),
        });
        cat.add_view(ViewDef {
            name: "PlainView".into(),
            source: ViewSource::Select(Select::star("ContactInfo")),
            declassifies: Label::empty(),
            authority: None,
        });
        cat.add_trigger(TriggerDef {
            name: "driveupdate".into(),
            table: "Locations".into(),
            events: vec![TriggerEvent::Insert],
            timing: TriggerTiming::Immediate,
            authority: Some(PrincipalId(2)),
            body: Arc::new(|_, _| Ok(())),
        });
        cat.add_procedure(StoredProcedure {
            name: "traffic_stats".into(),
            authority: None,
            body: Arc::new(|_, _| Ok(ResultSet::default())),
        });
        assert_eq!(cat.trusted_component_count(), 2);
        assert_eq!(cat.triggers_for("Locations", TriggerEvent::Insert).len(), 1);
        assert!(cat
            .triggers_for("Locations", TriggerEvent::Delete)
            .is_empty());
        assert!(cat.view("PCMembers").unwrap().is_declassifying());
        assert!(!cat.view("PlainView").unwrap().is_declassifying());
        assert!(cat.procedure("traffic_stats").is_ok());
        assert!(cat.procedure("missing").is_err());
    }
}
