//! Error types for the IFDB engine.

use std::fmt;

use ifdb_difc::{DifcError, Label, TagId};
use ifdb_storage::StorageError;

/// Result alias used throughout the `ifdb` crate.
pub type IfdbResult<T> = Result<T, IfdbError>;

/// Errors raised by the IFDB engine.
#[derive(Debug, Clone, PartialEq)]
pub enum IfdbError {
    /// An error from the DIFC model (missing authority, contaminated
    /// authority update, blocked release, ...).
    Difc(DifcError),
    /// An error from the storage engine (write conflicts, I/O, corruption).
    Storage(StorageError),
    /// The named table does not exist in the catalog.
    UnknownTable(String),
    /// The named view does not exist in the catalog.
    UnknownView(String),
    /// The named column does not exist.
    UnknownColumn(String),
    /// The named stored procedure does not exist.
    UnknownProcedure(String),
    /// Attempt to update or delete a tuple whose label is strictly lower than
    /// the process label (the Write Rule of Section 4.2: such writes must
    /// fail rather than silently relabel data).
    WriteRuleViolation {
        /// Label of the affected tuple.
        tuple_label: Label,
        /// Label of the writing process.
        process_label: Label,
    },
    /// A uniqueness constraint was violated by a tuple visible to the
    /// process. (Conflicts with *higher-labeled* tuples do not raise this
    /// error; they polyinstantiate instead, per Section 5.2.1.)
    UniqueViolation {
        /// Name of the violated constraint.
        constraint: String,
    },
    /// A foreign-key insert referenced a tuple that does not exist.
    ForeignKeyViolation {
        /// Name of the violated constraint.
        constraint: String,
    },
    /// A foreign-key insert or referenced-table delete requires tags to be
    /// declassified explicitly via a `DECLASSIFYING` clause (Section 5.2.2).
    DeclassifyingRequired {
        /// Name of the constraint.
        constraint: String,
        /// The tags in the symmetric difference of the two tuples' labels
        /// that were not covered by the statement's `DECLASSIFYING` clause.
        missing: Label,
    },
    /// The referenced table still has rows referring to the tuple being
    /// deleted.
    RestrictViolation {
        /// Name of the constraint.
        constraint: String,
    },
    /// A transaction attempted to commit while holding a label that is more
    /// contaminated than some tuple in its write set (Section 5.1).
    CommitLabelViolation {
        /// The commit-time process label.
        commit_label: Label,
        /// The offending tuple's label.
        tuple_label: Label,
    },
    /// The transaction clearance rule: a serializable transaction may add a
    /// tag to its label only if it is authoritative for the tag.
    ClearanceViolation {
        /// The tag that could not be added.
        tag: TagId,
    },
    /// A label constraint on a table was violated.
    LabelConstraintViolation {
        /// The table with the constraint.
        table: String,
        /// Explanation of what was expected.
        detail: String,
    },
    /// A write to a table recovered by `DatabaseBuilder::recover` whose
    /// first-boot DDL has not been re-run yet. Constraint metadata (uniques, foreign keys,
    /// label constraints) is code, not logged data, so writes are refused —
    /// rather than silently running unconstrained — until
    /// `Database::create_table` re-attaches it.
    ConstraintsPending {
        /// The recovered table.
        table: String,
    },
    /// The statement is not valid (e.g. no active transaction to commit,
    /// updating a view that is not updatable, bad aggregate).
    InvalidStatement(String),
    /// An error reported by a remote `ifdb-server` that has no structural
    /// local equivalent (server-side admission control, statement timeouts,
    /// protocol violations, or error kinds whose payload does not round-trip
    /// the wire). The code is the wire protocol's error code.
    Remote {
        /// The wire protocol error code.
        code: u16,
        /// Human-readable description from the server.
        detail: String,
    },
    /// A trigger rejected the operation.
    TriggerRejected {
        /// The trigger's name.
        trigger: String,
        /// The trigger's reason.
        reason: String,
    },
    /// A statement exhausted one of its [`ExecutionConstraints`] budgets
    /// (rows scanned or execution time) and was killed fail-closed: no
    /// partial result is returned. Maps to `BUDGET_EXCEEDED` on the wire.
    ///
    /// [`ExecutionConstraints`]: crate::qos::ExecutionConstraints
    BudgetExceeded {
        /// The exhausted resource (`"rows"` or `"time_ms"`).
        resource: String,
        /// The configured limit.
        limit: u64,
        /// Consumption at the moment of the kill.
        used: u64,
    },
    /// The server refused admission because the principal is over its
    /// per-principal quota (in-flight statements or requests per second).
    /// Maps to `QUOTA_EXCEEDED` on the wire; the client may retry later.
    QuotaExceeded {
        /// What was exceeded.
        detail: String,
    },
    /// Only the administrator may perform schema changes.
    NotAdministrator,
    /// The session (or the whole database handle) is serving reads for a
    /// log-shipping replica: writes, transactions that write, and
    /// authority-state mutations must go to the primary.
    ReadOnlyReplica,
}

impl fmt::Display for IfdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IfdbError::Difc(e) => write!(f, "{e}"),
            IfdbError::Storage(e) => write!(f, "{e}"),
            IfdbError::UnknownTable(n) => write!(f, "unknown table {n:?}"),
            IfdbError::UnknownView(n) => write!(f, "unknown view {n:?}"),
            IfdbError::UnknownColumn(n) => write!(f, "unknown column {n:?}"),
            IfdbError::UnknownProcedure(n) => write!(f, "unknown procedure {n:?}"),
            IfdbError::WriteRuleViolation {
                tuple_label,
                process_label,
            } => write!(
                f,
                "write rule violation: cannot modify tuple labeled {tuple_label} from a process labeled {process_label}"
            ),
            IfdbError::UniqueViolation { constraint } => {
                write!(f, "unique constraint {constraint} violated")
            }
            IfdbError::ForeignKeyViolation { constraint } => {
                write!(f, "foreign key constraint {constraint} violated")
            }
            IfdbError::DeclassifyingRequired {
                constraint,
                missing,
            } => write!(
                f,
                "foreign key {constraint} requires DECLASSIFYING clause covering {missing}"
            ),
            IfdbError::RestrictViolation { constraint } => {
                write!(f, "cannot delete: rows still reference it via {constraint}")
            }
            IfdbError::CommitLabelViolation {
                commit_label,
                tuple_label,
            } => write!(
                f,
                "commit label {commit_label} exceeds write-set tuple label {tuple_label}"
            ),
            IfdbError::ClearanceViolation { tag } => write!(
                f,
                "transaction clearance rule: cannot add tag {tag} without authority"
            ),
            IfdbError::LabelConstraintViolation { table, detail } => {
                write!(f, "label constraint on {table} violated: {detail}")
            }
            IfdbError::ConstraintsPending { table } => write!(
                f,
                "table {table} was recovered without constraint metadata; re-run its CREATE TABLE definition (Database::create_table) before writing"
            ),
            IfdbError::InvalidStatement(s) => write!(f, "invalid statement: {s}"),
            IfdbError::Remote { code, detail } => {
                write!(f, "remote server error (code {code}): {detail}")
            }
            IfdbError::TriggerRejected { trigger, reason } => {
                write!(f, "trigger {trigger} rejected the operation: {reason}")
            }
            IfdbError::BudgetExceeded {
                resource,
                limit,
                used,
            } => write!(
                f,
                "execution budget exceeded: {resource} used {used} of {limit}"
            ),
            IfdbError::QuotaExceeded { detail } => {
                write!(f, "admission quota exceeded: {detail}")
            }
            IfdbError::NotAdministrator => write!(f, "operation requires the administrator"),
            IfdbError::ReadOnlyReplica => write!(
                f,
                "this session is read-only (log-shipping replica); route writes to the primary"
            ),
        }
    }
}

impl std::error::Error for IfdbError {}

impl From<DifcError> for IfdbError {
    fn from(e: DifcError) -> Self {
        IfdbError::Difc(e)
    }
}

impl From<StorageError> for IfdbError {
    fn from(e: StorageError) -> Self {
        IfdbError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_wrap_source_errors() {
        let d: IfdbError = DifcError::UnknownTag(TagId(1)).into();
        assert!(matches!(d, IfdbError::Difc(_)));
        let s: IfdbError = StorageError::UnknownTable("x".into()).into();
        assert!(matches!(s, IfdbError::Storage(_)));
    }

    #[test]
    fn display_names_the_rule() {
        let e = IfdbError::CommitLabelViolation {
            commit_label: Label::empty(),
            tuple_label: Label::singleton(TagId(1)),
        };
        assert!(e.to_string().contains("commit label"));
        let w = IfdbError::WriteRuleViolation {
            tuple_label: Label::empty(),
            process_label: Label::singleton(TagId(1)),
        };
        assert!(w.to_string().contains("write rule"));
    }
}
