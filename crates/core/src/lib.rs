//! IFDB: decentralized information flow control for a relational database.
//!
//! This crate is the Rust reproduction of the core contribution of
//! *IFDB: Decentralized Information Flow Control for Databases*
//! (Schultz & Liskov, EuroSys 2013). It layers the paper's **Query by Label**
//! model on top of the MVCC storage engine in `ifdb-storage`, using the DIFC
//! model objects from `ifdb-difc`:
//!
//! * every tuple carries an immutable label; queries see only tuples whose
//!   labels are subsets of the process label, and writes are labeled exactly
//!   with the process label ([`query`], [`exec`]);
//! * declassifying views and stored authority closures bind authority to
//!   code and view definitions ([`catalog`]);
//! * transactions enforce commit labels and run deferred triggers with the
//!   label of the query that queued them ([`session`]);
//! * uniqueness constraints polyinstantiate instead of leaking, and foreign
//!   keys demand explicit `DECLASSIFYING` clauses ([`exec`]).
//!
//! # Quick start
//!
//! ```
//! use ifdb::prelude::*;
//! use ifdb_storage::{DataType, Datum};
//!
//! // Set up the database, a user and her tag.
//! let db = Database::in_memory();
//! let alice = db.create_principal("alice", PrincipalKind::User);
//! let alice_medical = db.create_tag(alice, "alice_medical", &[]).unwrap();
//! db.create_table(
//!     TableDef::new("PatientRecords")
//!         .column("patient", DataType::Text)
//!         .column("condition", DataType::Text)
//!         .primary_key(&["patient"]),
//! )
//! .unwrap();
//!
//! // A session acting for Alice writes her record under her tag.
//! let mut session = db.session(alice);
//! session.add_secrecy(alice_medical).unwrap();
//! session
//!     .insert(&Insert::new(
//!         "PatientRecords",
//!         vec![Datum::from("Alice"), Datum::from("flu")],
//!     ))
//!     .unwrap();
//!
//! // An uncontaminated session sees nothing; Alice's session sees her row.
//! let mut public = db.anonymous_session();
//! assert!(public.select(&Select::star("PatientRecords")).unwrap().is_empty());
//! assert_eq!(session.select(&Select::star("PatientRecords")).unwrap().len(), 1);
//! ```

pub mod api;
pub mod catalog;
pub mod database;
pub mod error;
pub mod exec;
pub(crate) mod plan;
pub mod qos;
pub mod query;
pub mod row;
pub mod session;

pub use api::{SessionApi, Statement, StatementResult};
pub use catalog::{
    ForeignKey, IndexSpec, LabelConstraint, StoredProcedure, TableDef, TriggerDef, TriggerEvent,
    TriggerInvocation, TriggerTiming, UniqueConstraint, ViewDef, ViewSource,
};
pub use database::{Database, DatabaseBuilder, DatabaseConfig};
pub use error::{IfdbError, IfdbResult};
pub use ifdb_storage::{DataType, Datum, DurabilityConfig, StorageError, StorageKind};
pub use qos::{ExecutionConstraints, PrincipalQuota, QosConfig, StatementBudget};
pub use query::{
    AggFunc, Aggregate, Delete, Insert, Join, JoinKind, Order, Predicate, Select, Update,
};
pub use row::{ResultSet, Row};
pub use session::{Session, SessionStats};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::api::{SessionApi, Statement, StatementResult};
    pub use crate::catalog::{TableDef, TriggerEvent, TriggerTiming, ViewSource};
    pub use crate::database::{Database, DatabaseBuilder, DatabaseConfig};
    pub use crate::error::{IfdbError, IfdbResult};
    pub use crate::qos::{ExecutionConstraints, PrincipalQuota, QosConfig};
    pub use crate::query::{
        AggFunc, Aggregate, Delete, Insert, Join, JoinKind, Order, Predicate, Select, Update,
    };
    pub use crate::row::{ResultSet, Row};
    pub use crate::session::Session;
    pub use ifdb_difc::principal::PrincipalKind;
    pub use ifdb_difc::{Label, PrincipalId, TagId};
    pub use ifdb_storage::{DataType, Datum, DurabilityConfig};
}

#[cfg(test)]
mod tests;
