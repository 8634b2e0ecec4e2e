//! The label dictionary: each distinct label is stored once per database,
//! and a tuple carries the label's id.
//!
//! The paper's premise for Query by Label is that a table holds few distinct
//! labels (§8), yet it stores every label in full in every tuple version, so
//! each tag costs 8 bytes per version, page and log record (§8.3, Fig. 6).
//! Here labels are data: the engine's [`LabelDictionary`] maps each distinct
//! tag array to a small integer, a [`LabelId`], and a tuple's body starts
//! with that id as an unsigned LEB128 varint (see [`crate::tuple`]). A
//! version then costs the same bytes whatever its label's tag count: one
//! byte for the first 127 labels, two up to 16 383.
//!
//! **Id 0 is the empty label.** It is implicit and never logged, so an
//! unlabeled tuple's body starts with the byte 0, exactly as it did when the
//! body started with the label's tag count.
//!
//! **Ids are handed out in order of first use**, under the dictionary's
//! lock, and a new entry is logged ([`crate::wal::LogRecord::Label`]) before
//! its id is published. No record naming an id can therefore precede its
//! definition in log order, on the primary or on any replica or recovered
//! engine that redoes the log. A definition is not part of a transaction:
//! if the label's first user aborts, the label stays defined. Ids depend on
//! every label's history, readable or not, so they are never an output: the
//! layers above see tags only (the `scan_noninterference` test checks that
//! high activity shifting low labels' ids changes nothing a low reader
//! observes).
//!
//! Redo (recovery and replica apply) takes definitions in id order.
//! Redoing one twice with the same tags is a no-op; a conflicting
//! redefinition, a second id for the same tags, or a gap is
//! [`StorageError::Corruption`], and so is a tuple naming an id that was
//! never defined.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use crate::error::{corrupt, StorageError, StorageResult};

/// A label's id in its database's [`LabelDictionary`]; 0 is the empty label.
pub type LabelId = u32;

/// The entries of a dictionary: id → tags, and back.
#[derive(Debug)]
pub(crate) struct Entries {
    /// Tags by id; entry 0 is the empty label.
    tags: Vec<Arc<[u64]>>,
    ids: HashMap<Arc<[u64]>, LabelId>,
}

impl Default for Entries {
    fn default() -> Self {
        let empty: Arc<[u64]> = Arc::from(Vec::new());
        Entries {
            tags: vec![Arc::clone(&empty)],
            ids: HashMap::from([(empty, 0)]),
        }
    }
}

impl Entries {
    /// Every label but the empty one, in id order, with its id: what a
    /// checkpoint image logs.
    pub(crate) fn defined(&self) -> impl Iterator<Item = (LabelId, &[u64])> {
        self.tags
            .iter()
            .enumerate()
            .skip(1)
            .map(|(id, tags)| (id as LabelId, tags.as_ref()))
    }

    fn push(&mut self, tags: &[u64]) -> LabelId {
        let id = self.tags.len() as LabelId;
        let tags: Arc<[u64]> = tags.into();
        self.tags.push(Arc::clone(&tags));
        self.ids.insert(tags, id);
        id
    }
}

/// One database's labels, each stored once (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct LabelDictionary {
    entries: RwLock<Entries>,
}

impl LabelDictionary {
    /// An empty dictionary: only the empty label, id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of the label `tags`, defining it if it is new. A new label's
    /// id is the next one in order; `log` is called with it under the
    /// dictionary's lock, and the id is published only if `log` succeeds,
    /// so a definition's log record precedes every use of its id.
    pub fn intern(
        &self,
        tags: &[u64],
        log: impl FnOnce(LabelId, &[u64]) -> StorageResult<()>,
    ) -> StorageResult<LabelId> {
        if tags.is_empty() {
            return Ok(0);
        }
        if let Some(id) = self.entries.read().ids.get(tags) {
            return Ok(*id);
        }
        let mut entries = self.entries.write();
        if let Some(id) = entries.ids.get(tags) {
            return Ok(*id);
        }
        log(entries.tags.len() as LabelId, tags)?;
        Ok(entries.push(tags))
    }

    /// The tags of label `id`; [`StorageError::Corruption`] if no label has
    /// that id.
    pub fn tags(&self, id: LabelId) -> StorageResult<Arc<[u64]>> {
        self.entries
            .read()
            .tags
            .get(id as usize)
            .cloned()
            .ok_or_else(|| undefined(id))
    }

    /// Whether label `id` is defined.
    pub(crate) fn contains(&self, id: LabelId) -> bool {
        (id as usize) < self.entries.read().tags.len()
    }

    /// The id of the label `tags`, if it is defined.
    pub fn id(&self, tags: &[u64]) -> Option<LabelId> {
        self.entries.read().ids.get(tags).copied()
    }

    /// Every label's tags, indexed by id (entry 0 is the empty label).
    pub fn to_vec(&self) -> Vec<Vec<u64>> {
        self.entries
            .read()
            .tags
            .iter()
            .map(|t| t.to_vec())
            .collect()
    }

    /// The entries, read-locked. A checkpoint holds this across its log
    /// rewrite (the lock comes before the log's append lock), so no label
    /// can be defined in the log it replaces after the image listed the
    /// dictionary.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Entries> {
        self.entries.read()
    }

    /// Redoes the logged definition of label `id` as `tags`: a no-op if it
    /// is already defined so, the next entry if `id` is the next id, and
    /// [`StorageError::Corruption`] otherwise.
    pub(crate) fn redo(&self, id: LabelId, tags: &[u64]) -> StorageResult<()> {
        let mut entries = self.entries.write();
        match entries.tags.get(id as usize) {
            Some(defined) if defined.as_ref() == tags => return Ok(()),
            Some(defined) => {
                return Err(StorageError::Corruption {
                    detail: format!(
                        "label {id} is redefined as {tags:?}; it is {:?}",
                        defined.as_ref()
                    ),
                })
            }
            None if id as usize > entries.tags.len() => {
                return Err(StorageError::Corruption {
                    detail: format!("label {id} is defined before label {}", entries.tags.len()),
                })
            }
            None => {}
        }
        if let Some(other) = entries.ids.get(tags) {
            return Err(StorageError::Corruption {
                detail: format!("label {id} redefines label {other}'s tags {tags:?}"),
            });
        }
        entries.push(tags);
        Ok(())
    }
}

/// The error for a tuple or record naming label `id`, which no definition
/// precedes.
pub(crate) fn undefined(id: LabelId) -> StorageError {
    StorageError::Corruption {
        detail: format!("label {id} is used but never defined"),
    }
}

/// Appends `id` as an unsigned LEB128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.
pub(crate) fn put_id(out: &mut Vec<u8>, mut id: LabelId) {
    while id >= 0x80 {
        out.push(id as u8 | 0x80);
        id >>= 7;
    }
    out.push(id as u8);
}

/// Reads the varint [`put_id`] wrote at `at`; returns the id and where its
/// encoding ends. Refuses a truncated encoding, one past 32 bits, and one
/// longer than it needs to be, so each id has exactly one encoding.
///
/// Every tuple a scan walks is parsed, so the one-byte ids of the first 127
/// labels take a branch of their own.
#[inline]
pub(crate) fn read_id(buf: &[u8], at: usize) -> StorageResult<(LabelId, usize)> {
    match buf.get(at) {
        Some(&byte) if byte < 0x80 => Ok((LabelId::from(byte), at + 1)),
        _ => read_long_id(buf, at),
    }
}

#[cold]
fn read_long_id(buf: &[u8], at: usize) -> StorageResult<(LabelId, usize)> {
    let mut id: u64 = 0;
    for (i, byte) in buf.get(at..).unwrap_or(&[]).iter().take(5).enumerate() {
        id |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            if (i > 0 && *byte == 0) || id > u64::from(LabelId::MAX) {
                return Err(corrupt("malformed label id"));
            }
            return Ok((id as LabelId, at + i + 1));
        }
    }
    Err(corrupt("truncated label id"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_in_their_shortest_encoding() {
        let lens = [(0, 1), (1, 1), (0x7F, 1), (0x80, 2), (300, 2), (0x3FFF, 2)];
        let longer = [(0x4000, 3), (0xFFF_FFFF, 4), (u32::MAX, 5)];
        for (id, len) in lens.into_iter().chain(longer) {
            let mut buf = vec![9];
            put_id(&mut buf, id);
            assert_eq!(buf.len(), 1 + len, "{id}");
            assert_eq!(read_id(&buf, 1).unwrap(), (id, buf.len()));
            for cut in 1..buf.len() {
                assert!(read_id(&buf[..cut], 1).is_err(), "{id} cut at {cut}");
            }
        }
        // Zero in two bytes, and 2^32 in five.
        assert!(read_id(&[0x80, 0x00], 0).is_err());
        assert!(read_id(&[0x80, 0x80, 0x80, 0x80, 0x10], 0).is_err());
        assert!(read_id(&[0xFF; 6], 0).is_err());
    }

    #[test]
    fn labels_get_ids_in_order_of_first_use_and_keep_them() {
        let dict = LabelDictionary::new();
        let mut logged = Vec::new();
        let mut intern = |tags: &[u64]| {
            dict.intern(tags, |id, tags| {
                logged.push((id, tags.to_vec()));
                Ok(())
            })
            .unwrap()
        };
        assert_eq!(intern(&[]), 0);
        assert_eq!(intern(&[5, 9]), 1);
        assert_eq!(intern(&[3]), 2);
        assert_eq!(intern(&[5, 9]), 1);
        assert_eq!(logged, vec![(1, vec![5, 9]), (2, vec![3])]);
        assert_eq!(dict.tags(2).unwrap().as_ref(), &[3]);
        assert_eq!(dict.id(&[5, 9]), Some(1));
        assert!(dict.tags(3).is_err());
    }

    #[test]
    fn a_definition_that_fails_to_log_is_not_published() {
        let dict = LabelDictionary::new();
        let failed = dict.intern(&[1], |_, _| Err(corrupt("log refused")));
        assert!(failed.is_err());
        assert_eq!(dict.id(&[1]), None);
        assert_eq!(dict.intern(&[2], |_, _| Ok(())).unwrap(), 1);
    }

    #[test]
    fn redo_takes_definitions_in_order_once_and_refuses_conflicts() {
        let dict = LabelDictionary::new();
        dict.redo(1, &[4]).unwrap();
        dict.redo(1, &[4]).unwrap();
        dict.redo(0, &[]).unwrap();
        dict.redo(2, &[4, 5]).unwrap();
        assert_eq!(dict.to_vec(), vec![vec![], vec![4], vec![4, 5]]);
        for (id, tags) in [(1, &[7][..]), (0, &[7]), (4, &[7]), (3, &[4]), (3, &[])] {
            assert!(
                matches!(dict.redo(id, tags), Err(StorageError::Corruption { .. })),
                "{id} {tags:?}"
            );
        }
    }
}
