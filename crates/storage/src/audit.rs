//! The tamper-evident audit chain.
//!
//! Security-relevant events (declassification, delegation, label raises,
//! commit-label refusals, budget kills — serialized by the layer above; the
//! payload is opaque here) are carried in the write-ahead log as
//! [`LogRecord::Audit`](crate::wal::LogRecord) links of a hash chain:
//! link `n` commits to link `n-1` through `hash = H(prev ‖ seq ‖ bytes)`.
//! Because the links ride the log they inherit its ordering, durability and
//! replication for free; because each link's hash covers its predecessor's,
//! a record dropped, reordered, altered or spliced after the fact breaks
//! [`AuditChain::verify`] — the property the paper's Section 6.4 methodology
//! asks of the code that runs with authority: its behaviour must be
//! *observable*, and here, unforgeably so.

use crate::wal::LogRecord;

/// One link of the chain, as recovered from (or destined for) the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditChainRecord {
    /// Position in the chain, starting at 1.
    pub seq: u64,
    /// The previous link's hash (0 for the first link).
    pub prev: u64,
    /// This link's hash: `chain_hash(prev, seq, &bytes)`.
    pub hash: u64,
    /// The serialized audit event.
    pub bytes: Vec<u8>,
}

impl AuditChainRecord {
    /// The equivalent log record.
    pub fn to_log_record(&self) -> LogRecord {
        LogRecord::Audit {
            seq: self.seq,
            prev: self.prev,
            hash: self.hash,
            bytes: self.bytes.clone(),
        }
    }
}

/// FNV-1a (64-bit) over `prev ‖ seq ‖ bytes` — the chain link function.
/// The same family as the log's frame checksum; tamper-*evident* against
/// accidental or casual modification, not a cryptographic MAC.
pub fn chain_hash(prev: u64, seq: u64, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut step = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in prev.to_le_bytes() {
        step(b);
    }
    for b in seq.to_le_bytes() {
        step(b);
    }
    for &b in bytes {
        step(b);
    }
    h
}

/// The in-memory view of the chain: every link appended (or recovered /
/// replicated) so far, plus the head the next link must commit to.
#[derive(Debug, Default)]
pub struct AuditChain {
    records: Vec<AuditChainRecord>,
}

/// Where [`AuditChain::verify`] found the chain broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditChainBreak {
    /// Index into the record list of the offending link.
    pub index: usize,
    /// Human-readable description of the violated invariant.
    pub reason: String,
}

impl AuditChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sequence number of the last link (0 when empty).
    pub fn head_seq(&self) -> u64 {
        self.records.last().map(|r| r.seq).unwrap_or(0)
    }

    /// Hash of the last link (0 when empty) — what the next link's `prev`
    /// must be.
    pub fn head_hash(&self) -> u64 {
        self.records.last().map(|r| r.hash).unwrap_or(0)
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no link has been appended.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Forges the next link over `bytes` without keeping it: the caller
    /// logs it, and only then [accepts](Self::accept) it, so a link the log
    /// refused is never part of the chain.
    pub fn forge(&self, bytes: Vec<u8>) -> AuditChainRecord {
        let seq = self.head_seq() + 1;
        let prev = self.head_hash();
        AuditChainRecord {
            seq,
            prev,
            hash: chain_hash(prev, seq, &bytes),
            bytes,
        }
    }

    /// Accepts a link produced elsewhere (log replay, the replication
    /// stream, a checkpoint image). Idempotent against the re-delivery the
    /// replication stream can produce: a link at or below the current head
    /// is ignored when it matches what the chain already holds, and is an
    /// error when it does not.
    pub fn accept(&mut self, record: AuditChainRecord) -> Result<(), AuditChainBreak> {
        let head = self.head_seq();
        if record.seq <= head {
            let existing = &self.records[(record.seq - 1) as usize];
            if *existing == record {
                return Ok(());
            }
            return Err(AuditChainBreak {
                index: (record.seq - 1) as usize,
                reason: format!("conflicting re-delivery of audit link {}", record.seq),
            });
        }
        if record.seq != head + 1 {
            return Err(AuditChainBreak {
                index: self.records.len(),
                reason: format!("audit link {} arrived after head {head}", record.seq),
            });
        }
        self.records.push(record);
        Ok(())
    }

    /// Discards every link (replica stream reset: the primary's image will
    /// re-deliver the authoritative chain).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Snapshot of the chain.
    pub fn records(&self) -> Vec<AuditChainRecord> {
        self.records.clone()
    }

    /// Walks the whole chain checking every link: sequence numbers are
    /// 1..=n with no gaps, each link's `prev` is its predecessor's hash, and
    /// each link's `hash` recomputes from its own contents.
    pub fn verify(&self) -> Result<(), AuditChainBreak> {
        verify_chain(&self.records)
    }
}

/// Chain verification over any record slice — used both by the live chain
/// and by tests replaying a log read straight from disk.
pub fn verify_chain(records: &[AuditChainRecord]) -> Result<(), AuditChainBreak> {
    let mut prev_hash = 0u64;
    for (i, r) in records.iter().enumerate() {
        if r.seq != i as u64 + 1 {
            return Err(AuditChainBreak {
                index: i,
                reason: format!("expected seq {}, found {}", i + 1, r.seq),
            });
        }
        if r.prev != prev_hash {
            return Err(AuditChainBreak {
                index: i,
                reason: format!(
                    "link {} commits to prev hash {:#x}, predecessor hashes to {prev_hash:#x}",
                    r.seq, r.prev
                ),
            });
        }
        let expect = chain_hash(r.prev, r.seq, &r.bytes);
        if r.hash != expect {
            return Err(AuditChainBreak {
                index: i,
                reason: format!(
                    "link {} hash {:#x} != recomputed {expect:#x}",
                    r.seq, r.hash
                ),
            });
        }
        prev_hash = r.hash;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forges and keeps the next link.
    fn append(chain: &mut AuditChain, bytes: Vec<u8>) -> AuditChainRecord {
        let link = chain.forge(bytes);
        chain.accept(link.clone()).unwrap();
        link
    }

    #[test]
    fn append_builds_a_verifiable_chain() {
        let mut chain = AuditChain::new();
        assert!(chain.is_empty());
        for i in 0..10u8 {
            append(&mut chain, vec![i; 3]);
        }
        assert_eq!(chain.len(), 10);
        assert_eq!(chain.head_seq(), 10);
        chain.verify().unwrap();
    }

    #[test]
    fn tampering_breaks_verification() {
        let mut chain = AuditChain::new();
        append(&mut chain, b"declassify".to_vec());
        append(&mut chain, b"delegate".to_vec());
        append(&mut chain, b"budget kill".to_vec());
        let mut records = chain.records();

        // Alter a payload: its own hash no longer recomputes.
        records[1].bytes = b"delegatX".to_vec();
        let broken = verify_chain(&records).unwrap_err();
        assert_eq!(broken.index, 1);

        // Drop a middle link: the gap is detected.
        let mut dropped = chain.records();
        dropped.remove(1);
        assert!(verify_chain(&dropped).is_err());

        // Re-forge a payload *and* its hash: the successor's prev betrays it.
        let mut forged = chain.records();
        forged[1].bytes = b"delegatX".to_vec();
        forged[1].hash = chain_hash(forged[1].prev, forged[1].seq, &forged[1].bytes);
        let betrayed = verify_chain(&forged).unwrap_err();
        assert_eq!(betrayed.index, 2);
    }

    #[test]
    fn accept_is_idempotent_and_ordered() {
        let mut source = AuditChain::new();
        let a = append(&mut source, vec![1]);
        let b = append(&mut source, vec![2]);

        let mut sink = AuditChain::new();
        sink.accept(a.clone()).unwrap();
        // Re-delivery of the same link is fine; a conflicting one is not.
        sink.accept(a.clone()).unwrap();
        let mut conflict = a.clone();
        conflict.bytes = vec![9];
        assert!(sink.accept(conflict).is_err());
        sink.accept(b).unwrap();
        assert_eq!(sink.head_seq(), 2);
        sink.verify().unwrap();

        // A gap is refused.
        let mut gappy = AuditChain::new();
        assert!(gappy.accept(a.clone()).is_ok());
        let mut far = a;
        far.seq = 5;
        assert!(gappy.accept(far).is_err());
    }
}
