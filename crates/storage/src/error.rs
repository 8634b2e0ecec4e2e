//! Error types for the storage engine.

use std::fmt;

/// Result alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The named table does not exist.
    UnknownTable(String),
    /// The table id does not exist.
    UnknownTableId(u32),
    /// The named column does not exist in the table.
    UnknownColumn(String),
    /// A tuple did not match the table schema (wrong arity or type).
    SchemaMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// A tuple is too large to fit in a page.
    TupleTooLarge {
        /// Size of the offending tuple in bytes.
        size: usize,
    },
    /// The referenced row does not exist.
    UnknownRow {
        /// Page number of the missing row.
        page: u32,
        /// Slot number of the missing row.
        slot: u16,
    },
    /// Two concurrent transactions tried to modify the same tuple
    /// (first-updater-wins under snapshot isolation).
    WriteConflict {
        /// The transaction that lost the conflict.
        txn: u64,
        /// The transaction holding the tuple.
        holder: u64,
    },
    /// The transaction id is not active (already committed/aborted or never
    /// started).
    InvalidTransaction(u64),
    /// A corrupted page or tuple encoding was encountered.
    Corruption {
        /// Description of the corruption.
        detail: String,
    },
    /// An underlying I/O error (file-backed page store or WAL).
    Io {
        /// Stringified `std::io::Error`.
        detail: String,
    },
    /// A table with this name already exists.
    DuplicateTable(String),
    /// The named index does not exist.
    UnknownIndex(String),
    /// An index with this name already exists on the table.
    DuplicateIndex(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(n) => write!(f, "unknown table {n:?}"),
            StorageError::UnknownTableId(id) => write!(f, "unknown table id {id}"),
            StorageError::UnknownColumn(n) => write!(f, "unknown column {n:?}"),
            StorageError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            StorageError::TupleTooLarge { size } => {
                write!(f, "tuple of {size} bytes does not fit in a page")
            }
            StorageError::UnknownRow { page, slot } => {
                write!(f, "no such row (page {page}, slot {slot})")
            }
            StorageError::WriteConflict { txn, holder } => {
                write!(f, "write conflict: txn {txn} lost to txn {holder}")
            }
            StorageError::InvalidTransaction(id) => write!(f, "invalid transaction {id}"),
            StorageError::Corruption { detail } => write!(f, "corruption: {detail}"),
            StorageError::Io { detail } => write!(f, "i/o error: {detail}"),
            StorageError::DuplicateTable(n) => write!(f, "table {n:?} already exists"),
            StorageError::UnknownIndex(n) => write!(f, "unknown index {n:?}"),
            StorageError::DuplicateIndex(n) => write!(f, "index {n:?} already exists"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A [`StorageError::Corruption`] with the given description. Decoders call
/// it on paths that well-formed data never takes.
#[cold]
pub(crate) fn corrupt(detail: &str) -> StorageError {
    StorageError::Corruption {
        detail: detail.to_string(),
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StorageError::UnknownTable("t".into())
            .to_string()
            .contains("unknown table"));
        assert!(StorageError::WriteConflict { txn: 1, holder: 2 }
            .to_string()
            .contains("write conflict"));
    }

    #[test]
    fn io_error_converts() {
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(matches!(e, StorageError::Io { .. }));
    }
}
