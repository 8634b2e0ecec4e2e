//! Audit events: what the code that runs with authority did.
//!
//! The paper's methodology (Section 6.4) stresses that the security of an
//! application rests on the code that runs with authority; auditing its
//! declassifications and authority changes makes that code's behaviour
//! observable. There is one trail, the storage engine's hash chain, which
//! carries each event [encoded](AuditEvent::encode). It is part of
//! enforcement: an operation whose event the chain cannot take is refused
//! and has no effect. Events too frequent to chain (each statement through a
//! declassifying view, blocked releases) and every event of a read-only
//! replica, whose chain is its primary's, are only counted, per kind, in
//! [`AuditCounters`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::label::Label;
use crate::principal::PrincipalId;
use crate::tag::TagId;

/// A single audited event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditEvent {
    /// A principal declassified a tag from a process label.
    Declassify {
        /// The acting principal.
        principal: PrincipalId,
        /// The removed tag.
        tag: TagId,
        /// The process label before the removal.
        label_before: Label,
    },
    /// Authority for a tag was delegated.
    Delegate {
        /// The grantor.
        grantor: PrincipalId,
        /// The grantee.
        grantee: PrincipalId,
        /// The delegated tag.
        tag: TagId,
    },
    /// A delegation was revoked.
    Revoke {
        /// The grantor.
        grantor: PrincipalId,
        /// The grantee.
        grantee: PrincipalId,
        /// The revoked tag.
        tag: TagId,
    },
    /// A contaminated process attempted to release information and was
    /// blocked by the output gate.
    BlockedRelease {
        /// The acting principal.
        principal: PrincipalId,
        /// The label that prevented the release.
        label: Label,
    },
    /// A declassifying view or `DECLASSIFYING` clause was exercised.
    DeclassifyingView {
        /// Name of the view or constraint.
        name: String,
        /// Tags declassified by the view.
        tags: Label,
    },
    /// A process raised its label (contaminated itself) with new tags.
    LabelRaise {
        /// The acting principal.
        principal: PrincipalId,
        /// The tags added to the process label.
        added: Label,
    },
    /// A transaction commit was refused by the commit-label rule
    /// (Section 5.1): the process label was not a subset of a written
    /// tuple's label.
    CommitRefused {
        /// The acting principal.
        principal: PrincipalId,
        /// The process label at commit time.
        commit_label: Label,
        /// The offending tuple's label.
        tuple_label: Label,
    },
    /// A statement was killed because it exhausted an execution budget.
    BudgetKill {
        /// The acting principal.
        principal: PrincipalId,
        /// Which resource ran out (`"rows"` or `"time_ms"`).
        resource: String,
        /// The configured limit.
        limit: u64,
        /// Consumption at the moment of the kill.
        used: u64,
    },
}

/// The kinds of [`AuditEvent`]: an event's first byte when encoded, and
/// what [`AuditCounters`] counts by.
pub mod kind {
    pub const DECLASSIFY: u8 = 1;
    pub const DELEGATE: u8 = 2;
    pub const REVOKE: u8 = 3;
    pub const BLOCKED_RELEASE: u8 = 4;
    pub const DECLASSIFYING_VIEW: u8 = 5;
    pub const LABEL_RAISE: u8 = 6;
    pub const COMMIT_REFUSED: u8 = 7;
    pub const BUDGET_KILL: u8 = 8;
    /// Each kind's name, at index `kind - 1`.
    pub const NAMES: [&str; 8] = [
        "declassify",
        "delegate",
        "revoke",
        "blocked_release",
        "declassifying_view",
        "label_raise",
        "commit_refused",
        "budget_kill",
    ];
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_label(out: &mut Vec<u8>, l: &Label) {
    put_u64(out, l.len() as u64);
    for t in l.iter() {
        put_u64(out, t.0);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Sequential reader over an encoded event; `None` on truncation.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let raw = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(raw.try_into().ok()?))
    }

    fn label(&mut self) -> Option<Label> {
        let n = self.u64()? as usize;
        let mut tags = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            tags.push(TagId(self.u64()?));
        }
        Some(Label::from_tags(tags))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u64()? as usize;
        let raw = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl AuditEvent {
    /// This event's [`kind`].
    pub fn kind(&self) -> u8 {
        match self {
            AuditEvent::Declassify { .. } => kind::DECLASSIFY,
            AuditEvent::Delegate { .. } => kind::DELEGATE,
            AuditEvent::Revoke { .. } => kind::REVOKE,
            AuditEvent::BlockedRelease { .. } => kind::BLOCKED_RELEASE,
            AuditEvent::DeclassifyingView { .. } => kind::DECLASSIFYING_VIEW,
            AuditEvent::LabelRaise { .. } => kind::LABEL_RAISE,
            AuditEvent::CommitRefused { .. } => kind::COMMIT_REFUSED,
            AuditEvent::BudgetKill { .. } => kind::BUDGET_KILL,
        }
    }

    /// Serializes the event to the compact binary form carried opaquely in
    /// the storage layer's audit chain. Round-trips through [`Self::decode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(self.kind());
        match self {
            AuditEvent::Declassify {
                principal,
                tag,
                label_before,
            } => {
                put_u64(&mut out, principal.0);
                put_u64(&mut out, tag.0);
                put_label(&mut out, label_before);
            }
            AuditEvent::Delegate {
                grantor,
                grantee,
                tag,
            } => {
                put_u64(&mut out, grantor.0);
                put_u64(&mut out, grantee.0);
                put_u64(&mut out, tag.0);
            }
            AuditEvent::Revoke {
                grantor,
                grantee,
                tag,
            } => {
                put_u64(&mut out, grantor.0);
                put_u64(&mut out, grantee.0);
                put_u64(&mut out, tag.0);
            }
            AuditEvent::BlockedRelease { principal, label } => {
                put_u64(&mut out, principal.0);
                put_label(&mut out, label);
            }
            AuditEvent::DeclassifyingView { name, tags } => {
                put_str(&mut out, name);
                put_label(&mut out, tags);
            }
            AuditEvent::LabelRaise { principal, added } => {
                put_u64(&mut out, principal.0);
                put_label(&mut out, added);
            }
            AuditEvent::CommitRefused {
                principal,
                commit_label,
                tuple_label,
            } => {
                put_u64(&mut out, principal.0);
                put_label(&mut out, commit_label);
                put_label(&mut out, tuple_label);
            }
            AuditEvent::BudgetKill {
                principal,
                resource,
                limit,
                used,
            } => {
                put_u64(&mut out, principal.0);
                put_str(&mut out, resource);
                put_u64(&mut out, *limit);
                put_u64(&mut out, *used);
            }
        }
        out
    }

    /// Deserializes an event encoded by [`Self::encode`]; `None` for an
    /// unknown tag or a truncated buffer.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut c = Cursor { buf, pos: 0 };
        let event = match c.u8()? {
            kind::DECLASSIFY => AuditEvent::Declassify {
                principal: PrincipalId(c.u64()?),
                tag: TagId(c.u64()?),
                label_before: c.label()?,
            },
            kind::DELEGATE => AuditEvent::Delegate {
                grantor: PrincipalId(c.u64()?),
                grantee: PrincipalId(c.u64()?),
                tag: TagId(c.u64()?),
            },
            kind::REVOKE => AuditEvent::Revoke {
                grantor: PrincipalId(c.u64()?),
                grantee: PrincipalId(c.u64()?),
                tag: TagId(c.u64()?),
            },
            kind::BLOCKED_RELEASE => AuditEvent::BlockedRelease {
                principal: PrincipalId(c.u64()?),
                label: c.label()?,
            },
            kind::DECLASSIFYING_VIEW => AuditEvent::DeclassifyingView {
                name: c.str()?,
                tags: c.label()?,
            },
            kind::LABEL_RAISE => AuditEvent::LabelRaise {
                principal: PrincipalId(c.u64()?),
                added: c.label()?,
            },
            kind::COMMIT_REFUSED => AuditEvent::CommitRefused {
                principal: PrincipalId(c.u64()?),
                commit_label: c.label()?,
                tuple_label: c.label()?,
            },
            kind::BUDGET_KILL => AuditEvent::BudgetKill {
                principal: PrincipalId(c.u64()?),
                resource: c.str()?,
                limit: c.u64()?,
                used: c.u64()?,
            },
            _ => return None,
        };
        if c.pos == buf.len() {
            Some(event)
        } else {
            None
        }
    }
}

impl fmt::Display for AuditEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditEvent::Declassify {
                principal,
                tag,
                label_before,
            } => write!(
                f,
                "declassify {tag} by {principal} (label was {label_before})"
            ),
            AuditEvent::Delegate {
                grantor,
                grantee,
                tag,
            } => write!(f, "delegate {tag}: {grantor} -> {grantee}"),
            AuditEvent::Revoke {
                grantor,
                grantee,
                tag,
            } => write!(f, "revoke {tag}: {grantor} -x-> {grantee}"),
            AuditEvent::BlockedRelease { principal, label } => {
                write!(f, "blocked release by {principal} with label {label}")
            }
            AuditEvent::DeclassifyingView { name, tags } => {
                write!(f, "declassifying view {name} removed {tags}")
            }
            AuditEvent::LabelRaise { principal, added } => {
                write!(f, "label raise by {principal}: added {added}")
            }
            AuditEvent::CommitRefused {
                principal,
                commit_label,
                tuple_label,
            } => write!(
                f,
                "commit refused for {principal}: label {commit_label} not subset of tuple {tuple_label}"
            ),
            AuditEvent::BudgetKill {
                principal,
                resource,
                limit,
                used,
            } => write!(
                f,
                "budget kill for {principal}: {resource} used {used} of {limit}"
            ),
        }
    }
}

/// Per-kind counts of the audit events that are counted rather than
/// chained (see the [module docs](self)): relaxed counters, O(1) however
/// many statements run.
#[derive(Debug, Default)]
pub struct AuditCounters([AtomicU64; kind::NAMES.len()]);

impl AuditCounters {
    /// Counts one event of `kind` (one of the [`kind`] constants).
    pub fn count(&self, kind: u8) {
        self.0[usize::from(kind - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Events of `kind` counted so far.
    pub fn get(&self, kind: u8) -> u64 {
        self.0[usize::from(kind - 1)].load(Ordering::Relaxed)
    }

    /// Events of every kind counted so far.
    pub fn events(&self) -> u64 {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Declassifications counted so far, direct or through a view.
    pub fn declassifications(&self) -> u64 {
        self.get(kind::DECLASSIFY) + self.get(kind::DECLASSIFYING_VIEW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let e = AuditEvent::BlockedRelease {
            principal: PrincipalId(5),
            label: Label::singleton(TagId(7)),
        };
        assert!(e.to_string().contains("blocked release"));
    }

    #[test]
    fn codec_round_trips_every_variant() {
        let events = vec![
            AuditEvent::Declassify {
                principal: PrincipalId(1),
                tag: TagId(2),
                label_before: Label::from_tags([TagId(2), TagId(9)]),
            },
            AuditEvent::Delegate {
                grantor: PrincipalId(1),
                grantee: PrincipalId(3),
                tag: TagId(2),
            },
            AuditEvent::Revoke {
                grantor: PrincipalId(3),
                grantee: PrincipalId(1),
                tag: TagId(2),
            },
            AuditEvent::BlockedRelease {
                principal: PrincipalId(5),
                label: Label::singleton(TagId(7)),
            },
            AuditEvent::DeclassifyingView {
                name: "PCMembers".into(),
                tags: Label::empty(),
            },
            AuditEvent::LabelRaise {
                principal: PrincipalId(8),
                added: Label::singleton(TagId(4)),
            },
            AuditEvent::CommitRefused {
                principal: PrincipalId(8),
                commit_label: Label::singleton(TagId(4)),
                tuple_label: Label::empty(),
            },
            AuditEvent::BudgetKill {
                principal: PrincipalId(9),
                resource: "rows".into(),
                limit: 1000,
                used: 1001,
            },
        ];
        for e in events {
            let bytes = e.encode();
            assert_eq!(AuditEvent::decode(&bytes), Some(e.clone()), "{e}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(AuditEvent::decode(&[]), None);
        assert_eq!(AuditEvent::decode(&[99]), None);
        // Truncated payload.
        let full = AuditEvent::Delegate {
            grantor: PrincipalId(1),
            grantee: PrincipalId(2),
            tag: TagId(3),
        }
        .encode();
        assert_eq!(AuditEvent::decode(&full[..full.len() - 1]), None);
        // Trailing junk.
        let mut padded = full;
        padded.push(0);
        assert_eq!(AuditEvent::decode(&padded), None);
    }
}
