//! Storage engine substrate for the IFDB reproduction.
//!
//! The paper builds IFDB by modifying PostgreSQL 8.4.10; this crate is the
//! from-scratch Rust stand-in for the parts of PostgreSQL that IFDB relies
//! on, implemented at the same architectural layer so that the label
//! mechanisms in the `ifdb` crate sit where the paper's patches sat:
//!
//! * Multi-version concurrency control with snapshot isolation
//!   ([`mvcc`]) — every update creates a new tuple version, and the layer
//!   that decides version visibility is also where tuple labels are filtered
//!   (Section 7.1 of the paper).
//! * Slotted heap pages ([`page`]) with per-tuple headers that carry the
//!   transaction ids *and* the label array, so larger labels genuinely
//!   increase tuple size, I/O and cache pressure (Section 8.3).
//! * A buffer pool ([`buffer`]) over pluggable page stores ([`store`]) —
//!   in-memory or file-backed — used to reproduce both the in-memory and the
//!   disk-bound configurations of Figure 6.
//! * Ordered and hash indexes ([`index`]), a write-ahead log ([`wal`]) with
//!   crash recovery, checkpointing and group commit, and the [`engine`]
//!   facade that ties tables, transactions and recovery together.
//!
//! # Durability
//!
//! Every mutation (DDL included) is logged before it is acknowledged;
//! [`StorageEngine::open`] rebuilds a crashed engine by replaying the log,
//! [`StorageEngine::checkpoint`](engine::StorageEngine::checkpoint)
//! compacts the log into a snapshot image so replay stays O(live data), and
//! [`DurabilityConfig`] picks between no-sync, sync-per-commit and
//! group-commit (many committers sharing one fsync) behaviour. See the
//! [`wal`] module docs for the protocol details.
//!
//! The crate knows nothing about DIFC: labels are carried as opaque `u64`
//! arrays in tuple headers. All enforcement lives in the `ifdb` crate.

pub mod audit;
pub mod buffer;
pub mod engine;
pub mod error;
pub mod heap;
pub mod index;
pub mod mvcc;
pub mod page;
pub mod replica;
pub mod schema;
pub mod stats;
pub mod store;
pub mod tuple;
pub mod value;
pub mod wal;

pub use audit::{chain_hash, verify_chain, AuditChain, AuditChainBreak, AuditChainRecord};
pub use buffer::{BufferPool, BufferStats};
pub use engine::{StorageEngine, StorageKind, TableId};
pub use error::{StorageError, StorageResult};
pub use heap::{RowId, TableHeap};
pub use index::{HashIndex, IndexKey, OrderedIndex};
pub use mvcc::{
    ScanVisibility, Snapshot, TransactionManager, TxnId, TxnStatus, REPLICA_LOCAL_TXN_BASE,
};
pub use page::{Page, PageId, PAGE_SIZE};
pub use replica::{AppliedBatch, ReplicaApplier};
pub use schema::{ColumnDef, TableSchema};
pub use stats::EngineStats;
pub use tuple::{TupleData, TupleHeader, TupleRef, TupleVersion};
pub use value::{DataType, Datum};
pub use wal::{DurabilityConfig, LogRecord, ReplicationBatch, Wal, WalRecovery};
