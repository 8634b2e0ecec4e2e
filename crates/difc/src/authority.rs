//! The authority state: tag ownership, delegation, and revocation.
//!
//! Information flow policy in IFDB is expressed entirely through authority
//! (Section 3.2): the owner of a tag may declassify it, and may delegate that
//! authority to other principals, who may in turn re-delegate it. Revocation
//! removes a previously granted delegation. The authority state itself is an
//! object with an *empty* label, so only uncontaminated processes may modify
//! it — otherwise delegations could be used as a covert channel.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::{DifcError, DifcResult};
use crate::label::Label;
use crate::principal::{Principal, PrincipalId, PrincipalKind, ANONYMOUS_NAME};
use crate::tag::{Tag, TagId, TagKind};

/// A single delegation edge: `grantor` has granted `grantee` authority for
/// `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Delegation {
    /// The principal granting authority (must itself be authoritative).
    pub grantor: PrincipalId,
    /// The principal receiving authority.
    pub grantee: PrincipalId,
    /// The tag (ordinary or compound) covered by the delegation.
    pub tag: TagId,
}

/// The complete authority state of an IFDB deployment.
///
/// The state records principals, tags (including compound-tag membership),
/// and delegations, and answers the central question of the model: *may this
/// principal declassify this tag?*
///
/// Ids are allocated from a seeded ChaCha-based PRNG ([`StdRng`]), mirroring
/// the paper's use of a cryptographic PRNG so that id allocation order does
/// not leak information such as the order in which papers were submitted to
/// HotCRP (Section 7.3).
#[derive(Debug)]
pub struct AuthorityState {
    rng: StdRng,
    principals: HashMap<PrincipalId, Principal>,
    tags: HashMap<TagId, Tag>,
    /// Delegations indexed by tag for efficient authority resolution.
    delegations: HashMap<TagId, Vec<Delegation>>,
    /// For each compound tag, its direct member tags.
    compound_members: HashMap<TagId, Vec<TagId>>,
    /// The distinguished anonymous principal.
    anonymous: PrincipalId,
    /// Monotonic version, bumped on every mutation; used by authority caches
    /// to detect staleness.
    version: u64,
}

impl AuthorityState {
    /// Creates an empty authority state seeded from OS entropy.
    pub fn new() -> Self {
        Self::with_seed(rand::thread_rng().gen())
    }

    /// Creates an empty authority state with a fixed PRNG seed.
    ///
    /// Deterministic seeding is useful for tests and benchmarks; production
    /// deployments should use [`AuthorityState::new`].
    pub fn with_seed(seed: u64) -> Self {
        let mut state = AuthorityState {
            rng: StdRng::seed_from_u64(seed),
            principals: HashMap::new(),
            tags: HashMap::new(),
            delegations: HashMap::new(),
            compound_members: HashMap::new(),
            anonymous: PrincipalId(0),
            version: 0,
        };
        let anon = state.create_principal(ANONYMOUS_NAME, PrincipalKind::User);
        state.anonymous = anon;
        state
    }

    /// The current version of the authority state. Any mutation increments
    /// the version, allowing caches to detect staleness cheaply.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The distinguished anonymous principal used for unauthenticated
    /// requests. It owns no tags and holds no delegations.
    pub fn anonymous(&self) -> PrincipalId {
        self.anonymous
    }

    fn bump(&mut self) {
        self.version += 1;
    }

    fn fresh_id(&mut self) -> u64 {
        // Ids are random 63-bit values; collisions are retried. Zero is
        // reserved so that `PrincipalId(0)`/`TagId(0)` never appear.
        loop {
            let id = self.rng.gen::<u64>() >> 1;
            if id != 0 {
                return id;
            }
        }
    }

    // ------------------------------------------------------------------
    // Principals
    // ------------------------------------------------------------------

    /// Creates a new principal and returns its id.
    pub fn create_principal(&mut self, name: &str, kind: PrincipalKind) -> PrincipalId {
        loop {
            let id = PrincipalId(self.fresh_id());
            if self.principals.contains_key(&id) {
                continue;
            }
            self.principals.insert(
                id,
                Principal {
                    id,
                    name: name.to_string(),
                    kind,
                },
            );
            self.bump();
            return id;
        }
    }

    /// Looks up a principal by id.
    pub fn principal(&self, id: PrincipalId) -> DifcResult<&Principal> {
        self.principals
            .get(&id)
            .ok_or(DifcError::UnknownPrincipal(id))
    }

    /// Finds a principal by name (linear scan; intended for tests and
    /// administrative tooling, not hot paths).
    pub fn principal_by_name(&self, name: &str) -> Option<&Principal> {
        self.principals.values().find(|p| p.name == name)
    }

    /// Number of principals, including the anonymous principal.
    pub fn principal_count(&self) -> usize {
        self.principals.len()
    }

    // ------------------------------------------------------------------
    // Tags
    // ------------------------------------------------------------------

    /// Creates a new ordinary tag owned by `owner`, optionally as a member of
    /// the given compound tags.
    ///
    /// The compound memberships are fixed for the life of the tag.
    pub fn create_tag(
        &mut self,
        owner: PrincipalId,
        name: &str,
        compounds: &[TagId],
    ) -> DifcResult<TagId> {
        self.principal(owner)?;
        for c in compounds {
            let t = self.tag(*c)?;
            if t.kind != TagKind::Compound {
                return Err(DifcError::WrongTagKind {
                    tag: *c,
                    expected: "compound tag",
                });
            }
        }
        let id = self.insert_tag(owner, name, TagKind::Ordinary, compounds);
        Ok(id)
    }

    /// Creates a new compound tag owned by `owner`. Compound tags may
    /// themselves be members of other compound tags, allowing hierarchies
    /// such as `alice_medical ∈ all_medical ∈ all_patient_data`.
    pub fn create_compound_tag(
        &mut self,
        owner: PrincipalId,
        name: &str,
        parents: &[TagId],
    ) -> DifcResult<TagId> {
        self.principal(owner)?;
        for c in parents {
            let t = self.tag(*c)?;
            if t.kind != TagKind::Compound {
                return Err(DifcError::WrongTagKind {
                    tag: *c,
                    expected: "compound tag",
                });
            }
        }
        let id = self.insert_tag(owner, name, TagKind::Compound, parents);
        Ok(id)
    }

    fn insert_tag(
        &mut self,
        owner: PrincipalId,
        name: &str,
        kind: TagKind,
        compounds: &[TagId],
    ) -> TagId {
        loop {
            let id = TagId(self.fresh_id());
            if self.tags.contains_key(&id) {
                continue;
            }
            self.tags.insert(
                id,
                Tag {
                    id,
                    name: name.to_string(),
                    kind,
                    owner,
                    compounds: compounds.to_vec(),
                },
            );
            for c in compounds {
                self.compound_members.entry(*c).or_default().push(id);
            }
            self.bump();
            return id;
        }
    }

    /// Looks up a tag by id.
    pub fn tag(&self, id: TagId) -> DifcResult<&Tag> {
        self.tags.get(&id).ok_or(DifcError::UnknownTag(id))
    }

    /// Finds a tag by name (linear scan; intended for tooling and tests).
    pub fn tag_by_name(&self, name: &str) -> Option<&Tag> {
        self.tags.values().find(|t| t.name == name)
    }

    /// Number of tags in the system.
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// Direct members of a compound tag.
    pub fn compound_members(&self, compound: TagId) -> &[TagId] {
        self.compound_members
            .get(&compound)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All compounds that (transitively) contain `tag`, including the chain
    /// through nested compounds.
    pub fn enclosing_compounds(&self, tag: TagId) -> Vec<TagId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut queue: VecDeque<TagId> = VecDeque::new();
        queue.push_back(tag);
        seen.insert(tag);
        while let Some(t) = queue.pop_front() {
            if let Some(meta) = self.tags.get(&t) {
                for c in &meta.compounds {
                    if seen.insert(*c) {
                        out.push(*c);
                        queue.push_back(*c);
                    }
                }
            }
        }
        out
    }

    /// Expands a declassify set to the full set of tags it covers: every tag
    /// in `declassify` plus, for each compound tag in it, every transitively
    /// enclosed member tag.
    ///
    /// A tag `t` is covered by `declassify` — i.e. a declassifying view for
    /// `declassify` strips `t` — exactly when
    /// `expand_declassify(declassify).contains(t)`. Precomputing this
    /// downward closure once per scan lets the executor decide coverage with
    /// a plain label lookup instead of consulting
    /// [`AuthorityState::enclosing_compounds`] (and therefore holding the
    /// authority lock) per tuple.
    pub fn expand_declassify(&self, declassify: &Label) -> Label {
        let mut out: Vec<TagId> = declassify.iter().collect();
        let mut seen: HashSet<TagId> = out.iter().copied().collect();
        let mut queue: VecDeque<TagId> = out.iter().copied().collect();
        while let Some(t) = queue.pop_front() {
            for m in self.compound_members(t) {
                if seen.insert(*m) {
                    out.push(*m);
                    queue.push_back(*m);
                }
            }
        }
        Label::from_tags(out)
    }

    // ------------------------------------------------------------------
    // Delegation and revocation
    // ------------------------------------------------------------------

    /// Delegates authority for `tag` from `grantor` to `grantee`.
    ///
    /// The caller supplies the label of the process performing the
    /// delegation; per Section 3.2 the authority state has an empty label, so
    /// the process must be uncontaminated. The grantor must itself be
    /// authoritative for the tag.
    pub fn delegate(
        &mut self,
        grantor: PrincipalId,
        grantee: PrincipalId,
        tag: TagId,
        process_label: &Label,
    ) -> DifcResult<()> {
        self.check_delegate(grantor, grantee, tag, process_label)?;
        let d = Delegation {
            grantor,
            grantee,
            tag,
        };
        let edges = self.delegations.entry(tag).or_default();
        if !edges.contains(&d) {
            edges.push(d);
        }
        self.bump();
        Ok(())
    }

    /// Whether [`AuthorityState::delegate`] would succeed, without its
    /// effect.
    pub fn check_delegate(
        &self,
        grantor: PrincipalId,
        grantee: PrincipalId,
        tag: TagId,
        process_label: &Label,
    ) -> DifcResult<()> {
        if !process_label.is_empty() {
            return Err(DifcError::ContaminatedAuthorityUpdate {
                label: process_label.clone(),
            });
        }
        self.principal(grantee)?;
        self.tag(tag)?;
        if !self.has_authority(grantor, tag) {
            return Err(DifcError::NoAuthority {
                principal: grantor,
                tag,
            });
        }
        Ok(())
    }

    /// Revokes a delegation previously granted by `grantor` to `grantee` for
    /// `tag`. Only the grantor (or the tag owner) may revoke; the process
    /// must be uncontaminated, as for [`AuthorityState::delegate`].
    pub fn revoke(
        &mut self,
        grantor: PrincipalId,
        grantee: PrincipalId,
        tag: TagId,
        process_label: &Label,
    ) -> DifcResult<()> {
        self.check_revoke(grantor, grantee, tag, process_label)?;
        let edges = self.delegations.entry(tag).or_default();
        edges.retain(|d| !(d.grantor == grantor && d.grantee == grantee));
        self.bump();
        Ok(())
    }

    /// Whether [`AuthorityState::revoke`] would succeed, without its effect.
    pub fn check_revoke(
        &self,
        grantor: PrincipalId,
        grantee: PrincipalId,
        tag: TagId,
        process_label: &Label,
    ) -> DifcResult<()> {
        if !process_label.is_empty() {
            return Err(DifcError::ContaminatedAuthorityUpdate {
                label: process_label.clone(),
            });
        }
        let edges = self.delegations_for(tag);
        if !edges
            .iter()
            .any(|d| d.grantor == grantor && d.grantee == grantee)
        {
            return Err(DifcError::NoSuchDelegation {
                grantor,
                grantee,
                tag,
            });
        }
        Ok(())
    }

    /// All current delegations for a tag.
    pub fn delegations_for(&self, tag: TagId) -> &[Delegation] {
        self.delegations.get(&tag).map(Vec::as_slice).unwrap_or(&[])
    }

    // ------------------------------------------------------------------
    // Authority resolution
    // ------------------------------------------------------------------

    /// Returns `true` if `principal` has authority for `tag`.
    ///
    /// A principal is authoritative for a tag if it owns the tag, owns (or
    /// has been delegated) an enclosing compound tag, or is reachable from an
    /// authoritative principal through a chain of valid delegations. A
    /// delegation is valid only while its grantor is itself authoritative, so
    /// revoking an upstream delegation transitively invalidates downstream
    /// grants.
    pub fn has_authority(&self, principal: PrincipalId, tag: TagId) -> bool {
        // Authority over any of these tags suffices: the tag itself or any
        // enclosing compound.
        let mut covering = vec![tag];
        covering.extend(self.enclosing_compounds(tag));
        covering
            .iter()
            .any(|t| self.authorized_set(*t).contains(&principal))
    }

    /// The set of principals authoritative for exactly this tag (not
    /// considering enclosing compounds): the owner plus everything reachable
    /// through delegation edges rooted at the owner.
    fn authorized_set(&self, tag: TagId) -> HashSet<PrincipalId> {
        let mut set = HashSet::new();
        let owner = match self.tags.get(&tag) {
            Some(t) => t.owner,
            None => return set,
        };
        set.insert(owner);
        let edges = self.delegations_for(tag);
        // Fixed-point iteration: a delegation takes effect only if its
        // grantor is already authorized. Edge count is small in practice.
        let mut changed = true;
        while changed {
            changed = false;
            for d in edges {
                if set.contains(&d.grantor) && set.insert(d.grantee) {
                    changed = true;
                }
            }
        }
        set
    }

    /// Returns `true` if `principal` has authority for every tag in `label`.
    pub fn has_authority_for_label(&self, principal: PrincipalId, label: &Label) -> bool {
        label.iter().all(|t| self.has_authority(principal, t))
    }

    /// The subset of `label` that `principal` is *not* authoritative for.
    pub fn missing_authority(&self, principal: PrincipalId, label: &Label) -> Label {
        Label::from_tags(label.iter().filter(|t| !self.has_authority(principal, *t)))
    }
}

impl Default for AuthorityState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AuthorityState, PrincipalId, PrincipalId) {
        let mut auth = AuthorityState::with_seed(42);
        let alice = auth.create_principal("alice", PrincipalKind::User);
        let bob = auth.create_principal("bob", PrincipalKind::User);
        (auth, alice, bob)
    }

    #[test]
    fn owner_has_authority() {
        let (mut auth, alice, bob) = setup();
        let t = auth.create_tag(alice, "alice_medical", &[]).unwrap();
        assert!(auth.has_authority(alice, t));
        assert!(!auth.has_authority(bob, t));
    }

    #[test]
    fn delegation_grants_and_revocation_removes_authority() {
        let (mut auth, alice, bob) = setup();
        let t = auth.create_tag(alice, "alice_drives", &[]).unwrap();
        auth.delegate(alice, bob, t, &Label::empty()).unwrap();
        assert!(auth.has_authority(bob, t));
        auth.revoke(alice, bob, t, &Label::empty()).unwrap();
        assert!(!auth.has_authority(bob, t));
    }

    #[test]
    fn delegation_requires_grantor_authority() {
        let (mut auth, alice, bob) = setup();
        let carol = auth.create_principal("carol", PrincipalKind::User);
        let t = auth.create_tag(alice, "alice_contact", &[]).unwrap();
        let err = auth.delegate(bob, carol, t, &Label::empty()).unwrap_err();
        assert!(matches!(err, DifcError::NoAuthority { .. }));
    }

    #[test]
    fn delegation_requires_empty_label() {
        let (mut auth, alice, bob) = setup();
        let t = auth.create_tag(alice, "alice_location", &[]).unwrap();
        let contaminated = Label::singleton(t);
        let err = auth.delegate(alice, bob, t, &contaminated).unwrap_err();
        assert!(matches!(err, DifcError::ContaminatedAuthorityUpdate { .. }));
    }

    #[test]
    fn transitive_delegation_collapses_when_upstream_revoked() {
        let (mut auth, alice, bob) = setup();
        let carol = auth.create_principal("carol", PrincipalKind::User);
        let t = auth.create_tag(alice, "alice_medical", &[]).unwrap();
        auth.delegate(alice, bob, t, &Label::empty()).unwrap();
        auth.delegate(bob, carol, t, &Label::empty()).unwrap();
        assert!(auth.has_authority(carol, t));
        // Revoking Alice's grant to Bob invalidates Bob's grant to Carol.
        auth.revoke(alice, bob, t, &Label::empty()).unwrap();
        assert!(!auth.has_authority(bob, t));
        assert!(!auth.has_authority(carol, t));
    }

    #[test]
    fn compound_tag_authority_covers_members() {
        let (mut auth, alice, bob) = setup();
        let sys = auth.create_principal("cartel", PrincipalKind::Service);
        let all_locations = auth.create_compound_tag(sys, "all_locations", &[]).unwrap();
        let alice_loc = auth
            .create_tag(alice, "alice_location", &[all_locations])
            .unwrap();
        let bob_loc = auth
            .create_tag(bob, "bob_location", &[all_locations])
            .unwrap();
        // The service owns the compound and is therefore authoritative for
        // every member tag.
        assert!(auth.has_authority(sys, alice_loc));
        assert!(auth.has_authority(sys, bob_loc));
        // Members do not confer authority in the other direction.
        assert!(!auth.has_authority(alice, bob_loc));
        assert!(!auth.has_authority(alice, all_locations));
    }

    #[test]
    fn nested_compound_tags() {
        let (mut auth, alice, _bob) = setup();
        let root = auth.create_principal("clinic", PrincipalKind::Role);
        let all_patient = auth
            .create_compound_tag(root, "all_patient_data", &[])
            .unwrap();
        let all_medical = auth
            .create_compound_tag(root, "all_medical", &[all_patient])
            .unwrap();
        let alice_medical = auth
            .create_tag(alice, "alice_medical", &[all_medical])
            .unwrap();
        assert!(auth.has_authority(root, alice_medical));
        assert_eq!(
            auth.enclosing_compounds(alice_medical).len(),
            2,
            "both compounds should enclose the leaf tag"
        );
    }

    #[test]
    fn compound_membership_requires_compound_kind() {
        let (mut auth, alice, _bob) = setup();
        let ordinary = auth.create_tag(alice, "plain", &[]).unwrap();
        let err = auth.create_tag(alice, "member", &[ordinary]).unwrap_err();
        assert!(matches!(err, DifcError::WrongTagKind { .. }));
    }

    #[test]
    fn anonymous_principal_has_no_authority() {
        let (mut auth, alice, _bob) = setup();
        let t = auth.create_tag(alice, "alice_drives", &[]).unwrap();
        assert!(!auth.has_authority(auth.anonymous(), t));
    }

    #[test]
    fn version_increases_on_mutation() {
        let (mut auth, alice, bob) = setup();
        let v0 = auth.version();
        let t = auth.create_tag(alice, "x", &[]).unwrap();
        assert!(auth.version() > v0);
        let v1 = auth.version();
        auth.delegate(alice, bob, t, &Label::empty()).unwrap();
        assert!(auth.version() > v1);
    }

    #[test]
    fn missing_authority_reports_uncovered_tags() {
        let (mut auth, alice, bob) = setup();
        let t1 = auth.create_tag(alice, "a", &[]).unwrap();
        let t2 = auth.create_tag(bob, "b", &[]).unwrap();
        let label = Label::from_tags([t1, t2]);
        let missing = auth.missing_authority(alice, &label);
        assert_eq!(missing, Label::singleton(t2));
        assert!(!auth.has_authority_for_label(alice, &label));
        assert!(auth.has_authority_for_label(alice, &Label::singleton(t1)));
    }

    #[test]
    fn lookup_by_name() {
        let (mut auth, alice, _bob) = setup();
        let t = auth.create_tag(alice, "alice_medical", &[]).unwrap();
        assert_eq!(auth.tag_by_name("alice_medical").unwrap().id, t);
        assert_eq!(auth.principal_by_name("alice").unwrap().id, alice);
        assert!(auth.tag_by_name("nope").is_none());
    }

    #[test]
    fn ids_are_not_sequential() {
        // The PRNG-based allocator should not hand out consecutive ids; this
        // is the allocation-channel countermeasure from Section 7.3.
        let (mut auth, alice, _bob) = setup();
        let a = auth.create_tag(alice, "t1", &[]).unwrap();
        let b = auth.create_tag(alice, "t2", &[]).unwrap();
        assert_ne!(b.0.wrapping_sub(a.0), 1);
    }

    #[test]
    fn revoke_missing_delegation_errors() {
        let (mut auth, alice, bob) = setup();
        let t = auth.create_tag(alice, "t", &[]).unwrap();
        let err = auth.revoke(alice, bob, t, &Label::empty()).unwrap_err();
        assert!(matches!(err, DifcError::NoSuchDelegation { .. }));
    }
}
