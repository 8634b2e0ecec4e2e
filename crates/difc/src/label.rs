//! Labels: sets of tags with the subset ordering.
//!
//! A label summarizes the sensitivity of a piece of data or the contamination
//! of a process. The Information Flow Rule (Section 3.2) permits information
//! to flow from a source labeled `LS` to a destination labeled `LD` only if
//! `LS ⊆ LD`.
//!
//! Labels in IFDB are small (0–2 tags in both CarTel and HotCRP, rarely more
//! than a handful), so they are represented as a sorted, deduplicated vector
//! of tag ids. This keeps comparisons cheap, makes the stored encoding (one
//! 8-byte word per tag, kept once per distinct label in the storage engine's
//! label dictionary) straightforward, and matches the paper's observation
//! that an inverted index over labels is unnecessary.

use std::fmt;
use std::ops::BitOr;

use serde::{Deserialize, Serialize};

use crate::tag::TagId;

/// A set of tags describing the sensitivity of data or the contamination of
/// a process.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Label {
    /// Sorted, deduplicated tag ids.
    tags: Vec<TagId>,
}

impl Label {
    /// The empty label: public data, or an uncontaminated process.
    pub fn empty() -> Self {
        Label { tags: Vec::new() }
    }

    /// Builds a label from an arbitrary collection of tags, sorting and
    /// deduplicating them.
    pub fn from_tags<I: IntoIterator<Item = TagId>>(tags: I) -> Self {
        let mut v: Vec<TagId> = tags.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Label { tags: v }
    }

    /// A label containing a single tag.
    pub fn singleton(tag: TagId) -> Self {
        Label { tags: vec![tag] }
    }

    /// Returns `true` if the label contains no tags.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Number of tags in the label.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Returns `true` if the label contains `tag`.
    pub fn contains(&self, tag: TagId) -> bool {
        self.tags.binary_search(&tag).is_ok()
    }

    /// Iterates over the tags in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = TagId> + '_ {
        self.tags.iter().copied()
    }

    /// The tags as a slice (sorted ascending).
    pub fn as_slice(&self) -> &[TagId] {
        &self.tags
    }

    /// Returns a new label with `tag` added.
    pub fn with_tag(&self, tag: TagId) -> Self {
        if self.contains(tag) {
            return self.clone();
        }
        let mut v = self.tags.clone();
        let pos = v.partition_point(|t| *t < tag);
        v.insert(pos, tag);
        Label { tags: v }
    }

    /// Returns a new label with `tag` removed (declassification).
    pub fn without_tag(&self, tag: TagId) -> Self {
        Label {
            tags: self.tags.iter().copied().filter(|t| *t != tag).collect(),
        }
    }

    /// Returns `true` if `self ⊆ other`, i.e. information labeled `self` may
    /// flow to a destination labeled `other`.
    pub fn is_subset_of(&self, other: &Label) -> bool {
        if self.tags.len() > other.tags.len() {
            return false;
        }
        // Both sides are sorted; a linear merge decides containment.
        let mut oi = other.tags.iter();
        'outer: for t in &self.tags {
            for o in oi.by_ref() {
                if o == t {
                    continue 'outer;
                }
                if o > t {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Alias for [`Label::is_subset_of`] phrased as the Information Flow Rule.
    pub fn can_flow_to(&self, destination: &Label) -> bool {
        self.is_subset_of(destination)
    }

    /// Set union: the contamination resulting from combining two inputs.
    pub fn union(&self, other: &Label) -> Label {
        let mut v = Vec::with_capacity(self.tags.len() + other.tags.len());
        let (mut i, mut j) = (0, 0);
        while i < self.tags.len() && j < other.tags.len() {
            match self.tags[i].cmp(&other.tags[j]) {
                std::cmp::Ordering::Less => {
                    v.push(self.tags[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    v.push(other.tags[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    v.push(self.tags[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&self.tags[i..]);
        v.extend_from_slice(&other.tags[j..]);
        Label { tags: v }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Label) -> Label {
        Label {
            tags: self
                .tags
                .iter()
                .copied()
                .filter(|t| other.contains(*t))
                .collect(),
        }
    }

    /// Set difference `self \ other`: the tags that must be declassified for
    /// information labeled `self` to flow to a destination labeled `other`.
    pub fn difference(&self, other: &Label) -> Label {
        Label {
            tags: self
                .tags
                .iter()
                .copied()
                .filter(|t| !other.contains(*t))
                .collect(),
        }
    }

    /// Symmetric difference `self ⊖ other`, used by the Foreign Key Rule of
    /// Section 5.2.2: the tags appearing in exactly one of the two labels.
    pub fn symmetric_difference(&self, other: &Label) -> Label {
        self.difference(other).union(&other.difference(self))
    }

    /// Encodes the label as the `INT[]`-style array stored in the `_label`
    /// system column.
    pub fn to_array(&self) -> Vec<u64> {
        self.tags.iter().map(|t| t.0).collect()
    }

    /// Decodes a label from the `_label` array representation.
    pub fn from_array(raw: &[u64]) -> Label {
        Label::from_tags(raw.iter().copied().map(TagId))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tags.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<TagId> for Label {
    fn from_iter<I: IntoIterator<Item = TagId>>(iter: I) -> Self {
        Label::from_tags(iter)
    }
}

impl BitOr for &Label {
    type Output = Label;

    fn bitor(self, rhs: &Label) -> Label {
        self.union(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbl(ids: &[u64]) -> Label {
        Label::from_tags(ids.iter().copied().map(TagId))
    }

    #[test]
    fn empty_label_flows_anywhere() {
        let e = Label::empty();
        assert!(e.can_flow_to(&lbl(&[1, 2, 3])));
        assert!(e.can_flow_to(&Label::empty()));
        assert!(e.is_empty());
    }

    #[test]
    fn nonempty_label_cannot_flow_to_empty() {
        assert!(!lbl(&[1]).can_flow_to(&Label::empty()));
    }

    #[test]
    fn subset_ordering() {
        assert!(lbl(&[1, 3]).is_subset_of(&lbl(&[1, 2, 3])));
        assert!(!lbl(&[1, 4]).is_subset_of(&lbl(&[1, 2, 3])));
        assert!(lbl(&[2]).is_subset_of(&lbl(&[2])));
    }

    #[test]
    fn from_tags_sorts_and_dedups() {
        let l = lbl(&[5, 1, 5, 3, 1]);
        assert_eq!(l.to_array(), vec![1, 3, 5]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn union_merges_sorted() {
        assert_eq!(lbl(&[1, 3]).union(&lbl(&[2, 3, 4])), lbl(&[1, 2, 3, 4]));
        assert_eq!((&lbl(&[1]) | &lbl(&[2])), lbl(&[1, 2]));
    }

    #[test]
    fn difference_and_symmetric_difference() {
        assert_eq!(lbl(&[1, 2, 3]).difference(&lbl(&[2])), lbl(&[1, 3]));
        assert_eq!(
            lbl(&[1, 2]).symmetric_difference(&lbl(&[2, 3])),
            lbl(&[1, 3])
        );
        assert_eq!(lbl(&[1]).symmetric_difference(&lbl(&[1])), Label::empty());
    }

    #[test]
    fn with_and_without_tag() {
        let l = lbl(&[2, 4]);
        assert_eq!(l.with_tag(TagId(3)), lbl(&[2, 3, 4]));
        assert_eq!(l.with_tag(TagId(2)), l);
        assert_eq!(l.without_tag(TagId(4)), lbl(&[2]));
        assert_eq!(l.without_tag(TagId(9)), l);
    }

    #[test]
    fn array_round_trip() {
        let l = lbl(&[9, 7, 7, 1]);
        assert_eq!(Label::from_array(&l.to_array()), l);
    }

    #[test]
    fn display_formats_as_set() {
        assert_eq!(Label::empty().to_string(), "{}");
        assert_eq!(lbl(&[1, 2]).to_string(), "{t1, t2}");
    }

    #[test]
    fn intersection_keeps_common_tags() {
        assert_eq!(lbl(&[1, 2, 3]).intersection(&lbl(&[2, 3, 4])), lbl(&[2, 3]));
    }
}
