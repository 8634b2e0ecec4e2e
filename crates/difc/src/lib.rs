//! Decentralized information flow control (DIFC) model used by IFDB.
//!
//! This crate implements the Aeolus-style DIFC model described in Section 3
//! of *IFDB: Decentralized Information Flow Control for Databases*
//! (Schultz & Liskov, EuroSys 2013):
//!
//! * [`tag`] — tags and compound tags, the unit of sensitivity.
//! * [`label`] — labels, i.e. sets of tags, with the subset ordering that
//!   defines permitted information flows.
//! * [`principal`] — principals, the entities that own tags and hold
//!   authority.
//! * [`authority`] — the authority state: tag ownership, delegation and
//!   revocation, and the rules for when a principal may declassify a tag.
//! * [`process`] — per-process label state: contamination, explicit label
//!   changes, declassification and clearance.
//! * [`closure`] — authority closures and reduced-authority calls, the two
//!   least-privilege mechanisms of Section 3.3.
//! * [`cache`] — a read-through authority cache modelling the shared-memory
//!   cache used by PHP-IF (Section 7.2).
//! * [`memo`] — per-scan label-decision memoization and label interning,
//!   exploiting the paper's observation that few distinct labels occur per
//!   table (Section 8).
//! * [`audit`] — audit events (declassifications, authority changes), their
//!   codec for the storage engine's hash chain, and per-kind counters for
//!   the events that are counted rather than chained.
//!
//! The crate is deliberately independent of the database: the same model
//! objects are shared by the storage engine, the query engine, and the
//! application platform, mirroring the paper's uniform set of abstractions.
//!
//! # Example
//!
//! The core of the model in a few lines — a contaminated process may not
//! release data until a principal with authority declassifies:
//!
//! ```
//! use ifdb_difc::{AuthorityState, Label, PrincipalKind, ProcessState};
//!
//! let mut auth = AuthorityState::with_seed(7);
//! let alice = auth.create_principal("alice", PrincipalKind::User);
//! let tag = auth.create_tag(alice, "alice_medical", &[]).unwrap();
//!
//! let mut process = ProcessState::new(alice);
//! process.add_secrecy(tag).unwrap();                  // reads Alice's data
//! assert!(process.check_release_to_world().is_err()); // now contaminated
//! process.declassify(tag, &auth).unwrap();            // alice holds authority
//! assert!(process.check_release_to_world().is_ok());
//! ```

pub mod audit;
pub mod authority;
pub mod cache;
pub mod closure;
pub mod error;
pub mod label;
pub mod memo;
pub mod principal;
pub mod process;
pub mod tag;

pub use authority::{AuthorityState, Delegation};
pub use cache::AuthorityCache;
pub use closure::{AuthorityClosure, ClosureRegistry};
pub use error::{DifcError, DifcResult};
pub use label::Label;
pub use memo::{LabelDecision, LabelDecisionMemo, LabelInterner};
pub use principal::{Principal, PrincipalId, PrincipalKind};
pub use process::ProcessState;
pub use tag::{Tag, TagId, TagKind};

#[cfg(test)]
mod model_tests;
#[cfg(test)]
mod prop_tests;
