//! Sessions: the per-process connection to the database.
//!
//! A [`Session`] corresponds to one client process in the paper's
//! architecture: it carries the process's DIFC state (principal and label),
//! shares that state with the database on every statement (the coalesced,
//! lazy label synchronization of Section 7.2 is modelled by the
//! `label_syncs` counter), and manages transactions, including the commit
//! label rule and deferred triggers of Section 5.
//!
//! Durability is inherited from the database's
//! [`DurabilityConfig`](ifdb_storage::DurabilityConfig): with
//! `sync_on_commit`, [`Session::commit`] returns only once the commit record
//! has reached the device, and under group commit concurrent sessions share
//! one fsync — many client processes commit for the price of one device
//! flush, which is what makes labeled (larger) tuples affordable to log
//! (Section 8.3).

use ifdb_difc::audit::AuditEvent;
use ifdb_difc::{AuthorityCache, Label, PrincipalId, ProcessState, TagId};
use ifdb_storage::{Snapshot, TxnId};
use std::sync::Arc;

use crate::catalog::{TriggerDef, TriggerInvocation};
use crate::database::Database;
use crate::error::{IfdbError, IfdbResult};
use crate::qos::{ExecutionConstraints, StatementBudget};

/// A record of one tuple written during a transaction, kept for the commit
/// label rule (Section 5.1).
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// The table written.
    pub table: String,
    /// The label the tuple was written with.
    pub label: Label,
}

/// State of the transaction a session currently has open.
pub(crate) struct TxnState {
    pub(crate) id: TxnId,
    pub(crate) snapshot: Snapshot,
    pub(crate) write_set: Vec<WriteRecord>,
    pub(crate) deferred: Vec<(Arc<TriggerDef>, TriggerInvocation)>,
    pub(crate) implicit: bool,
}

/// Counters exposed by a session, used by the performance harnesses.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements executed.
    pub statements: u64,
    /// Number of times the process label had to be re-synchronized with the
    /// database (i.e. the label changed since the previous statement).
    pub label_syncs: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted.
    pub aborts: u64,
    /// Statements killed because they exhausted an execution budget.
    pub budget_kills: u64,
}

/// A database session acting on behalf of one principal.
pub struct Session {
    pub(crate) db: Database,
    pub(crate) process: ProcessState,
    pub(crate) cache: AuthorityCache,
    pub(crate) txn: Option<TxnState>,
    pub(crate) serializable: bool,
    pub(crate) stats: SessionStats,
    /// Per-statement execution constraints (rows scanned / wall time).
    /// Inherited from the database config; overridable per session and
    /// hot-reloadable by the server on admission.
    pub(crate) constraints: ExecutionConstraints,
    /// Budget of the statement currently executing, if one is armed. Shared
    /// by `Arc` with the executor's per-row visit closures, which cannot
    /// borrow the session.
    pub(crate) budget: Option<Arc<StatementBudget>>,
    last_synced_epoch: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("principal", &self.process.principal())
            .field("label", &self.process.label())
            .field("in_txn", &self.txn.is_some())
            .finish()
    }
}

impl Session {
    pub(crate) fn new(db: Database, principal: PrincipalId) -> Self {
        let serializable = db.inner.serializable;
        let constraints = db.inner.constraints;
        Session {
            db,
            process: ProcessState::new(principal),
            cache: AuthorityCache::new(),
            txn: None,
            serializable,
            stats: SessionStats::default(),
            constraints,
            budget: None,
            last_synced_epoch: 0,
        }
    }

    /// The database this session is connected to.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The acting principal.
    pub fn principal(&self) -> PrincipalId {
        self.process.principal()
    }

    /// The current process label.
    pub fn label(&self) -> &Label {
        self.process.label()
    }

    /// The process's DIFC state.
    pub fn process(&self) -> &ProcessState {
        &self.process
    }

    /// Session statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Switches the acting principal. In a deployment this is done by the
    /// trusted authentication component after verifying credentials.
    pub fn login(&mut self, principal: PrincipalId) {
        self.process.set_principal(principal);
    }

    /// Resets the session for reuse by a new request or connection acting as
    /// `principal`: any open transaction is aborted and the process label is
    /// cleared. This is a *trusted* operation — it discards contamination
    /// without an authority check — and exists for the connection-handshake
    /// path of `ifdb-server`, where a fresh process (with a fresh, empty
    /// label) takes over a pooled connection. Untrusted code lowers its label
    /// only through [`Session::declassify`].
    pub fn reset(&mut self, principal: PrincipalId) {
        if self.txn.is_some() {
            let _ = self.abort();
        }
        self.process.set_principal(principal);
        self.process.set_label_unchecked(Label::empty());
    }

    /// Enables or disables the serializable-mode transaction clearance rule.
    pub fn set_serializable(&mut self, on: bool) {
        self.serializable = on;
    }

    /// Replaces this session's per-statement execution constraints. Takes
    /// effect from the next statement; a statement already running keeps the
    /// budget it was armed with.
    pub fn set_execution_constraints(&mut self, constraints: ExecutionConstraints) {
        self.constraints = constraints;
    }

    /// The per-statement execution constraints currently in force.
    pub fn execution_constraints(&self) -> ExecutionConstraints {
        self.constraints
    }

    /// Arms a budget for a top-level statement. Returns `true` if this call
    /// armed it (and must disarm it); nested statements — trigger bodies,
    /// procedure bodies — find a budget already armed and charge against the
    /// outer statement's allowance rather than getting a fresh one.
    pub(crate) fn arm_budget(&mut self) -> bool {
        if self.budget.is_some() {
            return false;
        }
        match StatementBudget::arm(&self.constraints) {
            Some(b) => {
                self.budget = Some(Arc::new(b));
                true
            }
            None => false,
        }
    }

    /// Disarms the statement budget (when this frame armed it) and, on a
    /// budget kill, bumps the counter and records the tamper-evident
    /// [`AuditEvent::BudgetKill`]; if the chain refuses it, the statement
    /// fails with the append's error instead. Passing the result through
    /// keeps call sites to a single wrapping expression.
    pub(crate) fn disarm_budget<T>(&mut self, armed: bool, r: IfdbResult<T>) -> IfdbResult<T> {
        if armed {
            self.budget = None;
            if let Err(IfdbError::BudgetExceeded {
                resource,
                limit,
                used,
            }) = &r
            {
                self.stats.budget_kills += 1;
                self.db.record_audit(AuditEvent::BudgetKill {
                    principal: self.process.principal(),
                    resource: resource.clone(),
                    limit: *limit,
                    used: *used,
                })?;
            }
        }
        r
    }

    /// Returns `true` if this session refuses writes (it belongs to a
    /// read-only replica database).
    pub fn is_read_only(&self) -> bool {
        self.db.is_read_only()
    }

    /// Fails with [`IfdbError::ReadOnlyReplica`] when the session must not
    /// write. Checked at every DML entry point and at the authority-state
    /// mutations (`delegate`, `revoke`, `create_tag`) — the replica's
    /// authority state must stay a faithful reconstruction of the
    /// primary's, not drift through local grants.
    pub(crate) fn check_writable(&self) -> IfdbResult<()> {
        if self.db.is_read_only() {
            return Err(IfdbError::ReadOnlyReplica);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Label and authority operations
    // ------------------------------------------------------------------

    /// Adds `tag` to the process label (`addsecrecy`), as
    /// [`Session::raise_label`] does.
    pub fn add_secrecy(&mut self, tag: TagId) -> IfdbResult<()> {
        self.raise_label(&Label::singleton(tag))
    }

    /// Raises the process label to its union with `other`. Under the
    /// serializable clearance rule (Section 5.1), a transaction may add a
    /// tag only if the principal is authoritative for it. The raise is
    /// chained before it takes effect; if the chain refuses it, the label is
    /// unchanged.
    pub fn raise_label(&mut self, other: &Label) -> IfdbResult<()> {
        let added = other.difference(self.process.label());
        if self.serializable && self.txn.is_some() {
            let auth = self.db.inner.auth.read();
            let principal = self.process.principal();
            if let Some(tag) = added
                .iter()
                .find(|&t| !self.cache.has_authority(&auth, principal, t))
            {
                return Err(IfdbError::ClearanceViolation { tag });
            }
        }
        let mut next = self.process.clone();
        next.raise_to(other)?;
        if !added.is_empty() {
            self.db.record_audit(AuditEvent::LabelRaise {
                principal: self.process.principal(),
                added,
            })?;
        }
        self.process = next;
        Ok(())
    }

    /// Removes `tag` from the process label. Requires authority. The
    /// declassification is chained before it takes effect; if the chain
    /// refuses it, the label is unchanged.
    pub fn declassify(&mut self, tag: TagId) -> IfdbResult<()> {
        self.declassify_all(&Label::singleton(tag))
    }

    /// Removes every tag of `tags`, checking authority for each first, and
    /// chains one [`AuditEvent::Declassify`] per tag the label holds before
    /// any is removed. If the chain refuses one, the label is unchanged (the
    /// links already chained stay: the trail may over-report a refused
    /// call, never under-report an effect).
    pub fn declassify_all(&mut self, tags: &Label) -> IfdbResult<()> {
        let mut next = self.process.clone();
        next.declassify_all(tags, &self.db.inner.auth.read())?;
        let before = self.process.label();
        for tag in tags.iter().filter(|&t| before.contains(t)) {
            self.db.record_audit(AuditEvent::Declassify {
                principal: self.process.principal(),
                tag,
                label_before: before.clone(),
            })?;
        }
        self.process = next;
        Ok(())
    }

    /// Creates a tag owned by the acting principal.
    pub fn create_tag(&mut self, name: &str, compounds: &[TagId]) -> IfdbResult<TagId> {
        self.check_writable()?;
        Ok(self
            .db
            .inner
            .auth
            .write()
            .create_tag(self.process.principal(), name, compounds)?)
    }

    /// Delegates authority for `tag` from the acting principal to `grantee`.
    /// The process must have an empty label (the authority state is an
    /// empty-labeled object, Section 3.2). The delegation is chained under
    /// the authority write lock before it takes effect; if the chain refuses
    /// it, the authority state is unchanged.
    pub fn delegate(&mut self, grantee: PrincipalId, tag: TagId) -> IfdbResult<()> {
        self.check_writable()?;
        let grantor = self.process.principal();
        let label = self.process.label();
        let mut auth = self.db.inner.auth.write();
        auth.check_delegate(grantor, grantee, tag, label)?;
        self.db.record_audit(AuditEvent::Delegate {
            grantor,
            grantee,
            tag,
        })?;
        Ok(auth.delegate(grantor, grantee, tag, label)?)
    }

    /// Revokes a delegation previously made by the acting principal,
    /// chained as [`Session::delegate`] is.
    pub fn revoke(&mut self, grantee: PrincipalId, tag: TagId) -> IfdbResult<()> {
        self.check_writable()?;
        let grantor = self.process.principal();
        let label = self.process.label();
        let mut auth = self.db.inner.auth.write();
        auth.check_revoke(grantor, grantee, tag, label)?;
        self.db.record_audit(AuditEvent::Revoke {
            grantor,
            grantee,
            tag,
        })?;
        Ok(auth.revoke(grantor, grantee, tag, label)?)
    }

    /// Checks that the process may release information to the outside world
    /// (an empty-labeled destination). Application platforms call this before
    /// writing to the client; a contaminated process is blocked and the
    /// attempt is counted in [`Database::audit_counters`].
    pub fn check_release_to_world(&self) -> IfdbResult<()> {
        self.process.check_release_to_world().map_err(|e| {
            let counters = self.db.audit_counters();
            counters.count(ifdb_difc::audit::kind::BLOCKED_RELEASE);
            e.into()
        })
    }

    /// Returns `true` if the acting principal has authority for `tag`,
    /// consulting the session's authority cache.
    pub fn has_authority(&self, tag: TagId) -> bool {
        let auth = self.db.inner.auth.read();
        self.cache
            .has_authority(&auth, self.process.principal(), tag)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Returns `true` if an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.as_ref().map(|t| !t.implicit).unwrap_or(false)
    }

    /// Starts an explicit transaction.
    pub fn begin(&mut self) -> IfdbResult<()> {
        if self.txn.is_some() {
            return Err(IfdbError::InvalidStatement(
                "transaction already in progress".into(),
            ));
        }
        self.start_txn(false)?;
        Ok(())
    }

    pub(crate) fn start_txn(&mut self, implicit: bool) -> IfdbResult<()> {
        let id = self.db.inner.engine.begin()?;
        let snapshot = self.db.inner.engine.snapshot(id);
        self.txn = Some(TxnState {
            id,
            snapshot,
            write_set: Vec::new(),
            deferred: Vec::new(),
            implicit,
        });
        Ok(())
    }

    /// Ensures a transaction is open; returns `true` if an implicit one was
    /// started (and should be committed when the statement finishes).
    pub(crate) fn ensure_txn(&mut self) -> IfdbResult<bool> {
        if self.txn.is_some() {
            return Ok(false);
        }
        self.start_txn(true)?;
        Ok(true)
    }

    pub(crate) fn note_statement(&mut self) {
        self.stats.statements += 1;
        let epoch = self.process.label_epoch();
        if epoch != self.last_synced_epoch {
            // The platform piggybacks label changes on the next statement
            // (Section 7.2); each such change is one protocol-level sync.
            self.stats.label_syncs += 1;
            self.last_synced_epoch = epoch;
        }
    }

    /// Commits the current transaction.
    ///
    /// Commit enforces the *transaction commit label* rule of Section 5.1:
    /// the process label at the commit point must be a subset of the label of
    /// every tuple in the transaction's write set. Otherwise committing would
    /// encode information about high-labeled data in the existence of
    /// lower-labeled tuples (the "Alice has HIV" example), so the transaction
    /// is aborted and an error is returned.
    ///
    /// On a database configured with `sync_on_commit` durability, a
    /// successful return additionally means the transaction's log records
    /// are on the device and will survive recovery
    /// ([`crate::DatabaseBuilder::recover`]) after a crash; under group
    /// commit the fsync may have been performed by a concurrent session's
    /// commit.
    pub fn commit(&mut self) -> IfdbResult<()> {
        let state = self
            .txn
            .take()
            .ok_or_else(|| IfdbError::InvalidStatement("no transaction to commit".into()))?;
        let state = self.settle_for_commit(state)?;
        self.db.inner.engine.commit(state.id)?;
        self.stats.commits += 1;
        Ok(())
    }

    /// Prepares the current transaction for two-phase commit under the
    /// coordinator-assigned global id `gid` (phase one, participant side).
    ///
    /// Runs the full commit-time machinery — deferred triggers, then the
    /// transaction commit label rule of Section 5.1 — so a yes vote means
    /// this participant *will* commit if told to: nothing checked at commit
    /// time can fail afterwards. On success the transaction leaves this
    /// session (it is in-doubt, owned by the coordinator) and is resolved
    /// later via [`Database::decide_prepared`]. On failure the transaction
    /// is aborted, which is the participant's no vote. The coordinator's
    /// Decide cannot re-check labels, so the vote is where a commit-label
    /// violation must surface.
    pub fn prepare_commit(&mut self, gid: u64) -> IfdbResult<()> {
        self.check_writable()?;
        let state = self
            .txn
            .take()
            .ok_or_else(|| IfdbError::InvalidStatement("no transaction to prepare".into()))?;
        let state = self.settle_for_commit(state)?;
        self.db.inner.engine.prepare_commit(state.id, gid)?;
        Ok(())
    }

    /// What commit and prepare check first: the deferred triggers run,
    /// with the label of the query that queued them, not the commit label
    /// (Section 5.2.3), and may add writes; then the commit label rule. A
    /// violation aborts the transaction and is chained as
    /// [`AuditEvent::CommitRefused`]; if the chain refuses that, the
    /// append's error is returned instead.
    fn settle_for_commit(&mut self, mut state: TxnState) -> IfdbResult<TxnState> {
        if !state.deferred.is_empty() {
            let deferred = std::mem::take(&mut state.deferred);
            self.txn = Some(state);
            for (trigger, inv) in deferred {
                let result = self.run_trigger(&trigger, &inv);
                if let Err(e) = result {
                    let _ = self.abort();
                    return Err(e);
                }
            }
            state = self.txn.take().expect("txn restored for deferred triggers");
        }
        if !self.db.difc_enabled() {
            return Ok(state);
        }
        let commit_label = self.process.label().clone();
        let write_set = &state.write_set;
        let Some(w) = write_set
            .iter()
            .find(|w| !commit_label.is_subset_of(&w.label))
        else {
            return Ok(state);
        };
        let tuple_label = w.label.clone();
        self.db.inner.engine.abort(state.id)?;
        self.stats.aborts += 1;
        self.db.record_audit(AuditEvent::CommitRefused {
            principal: self.process.principal(),
            commit_label: commit_label.clone(),
            tuple_label: tuple_label.clone(),
        })?;
        Err(IfdbError::CommitLabelViolation {
            commit_label,
            tuple_label,
        })
    }

    /// Aborts the current transaction.
    pub fn abort(&mut self) -> IfdbResult<()> {
        let state = self
            .txn
            .take()
            .ok_or_else(|| IfdbError::InvalidStatement("no transaction to abort".into()))?;
        self.db.inner.engine.abort(state.id)?;
        self.stats.aborts += 1;
        Ok(())
    }

    pub(crate) fn finish_statement<T>(
        &mut self,
        implicit: bool,
        r: IfdbResult<T>,
    ) -> IfdbResult<T> {
        self.note_statement();
        if implicit {
            match &r {
                Ok(_) => {
                    self.commit()?;
                }
                Err(_) => {
                    let _ = self.abort();
                }
            }
        }
        r
    }

    pub(crate) fn current_txn(&self) -> IfdbResult<(TxnId, Snapshot)> {
        let t = self
            .txn
            .as_ref()
            .ok_or_else(|| IfdbError::InvalidStatement("no active transaction".into()))?;
        Ok((t.id, t.snapshot.clone()))
    }

    pub(crate) fn record_write(&mut self, table: &str, label: Label) {
        if let Some(t) = self.txn.as_mut() {
            t.write_set.push(WriteRecord {
                table: table.to_string(),
                label,
            });
        }
    }

    // ------------------------------------------------------------------
    // Triggers, closures and procedures
    // ------------------------------------------------------------------

    /// Runs a trigger body, honouring stored-authority-closure semantics: the
    /// body runs as the bound principal, and any contamination it picked up
    /// that the bound principal may declassify is removed when it returns, so
    /// the calling process is not contaminated by data the closure read
    /// internally (the CarTel `driveupdate` pattern of Section 6.1).
    pub(crate) fn run_trigger(
        &mut self,
        trigger: &TriggerDef,
        inv: &TriggerInvocation,
    ) -> IfdbResult<()> {
        // Deferred triggers run with the label of the query that queued them.
        let saved_label = self.process.label().clone();
        if inv.label != saved_label {
            self.process.set_label_unchecked(inv.label.clone());
        }
        let result = match trigger.authority {
            Some(principal) => self.with_principal(principal, |s| (trigger.body)(s, inv)),
            None => (trigger.body)(self, inv),
        };
        // Restore the label the query ran with, discarding contamination the
        // closure was allowed to remove.
        self.unwind_label(saved_label, trigger.authority);
        result.map_err(|e| match e {
            IfdbError::TriggerRejected { .. } => e,
            other => IfdbError::TriggerRejected {
                trigger: trigger.name.clone(),
                reason: other.to_string(),
            },
        })
    }

    /// Calls a stored procedure (or stored authority closure) by name.
    ///
    /// A body that fails with a transaction of its own still open has that
    /// transaction rolled back, so the session is left as the call found
    /// it; a transaction the caller had open before the call stays open,
    /// for the caller to finish.
    pub fn call_procedure(
        &mut self,
        name: &str,
        args: &[ifdb_storage::Datum],
    ) -> IfdbResult<crate::row::ResultSet> {
        let proc = {
            let catalog = self.db.inner.catalog.read();
            catalog.procedure(name)?
        };
        let saved_label = self.process.label().clone();
        let caller_txn = self.txn.as_ref().map(|t| t.id);
        let result = match proc.authority {
            Some(principal) => self.with_principal(principal, |s| (proc.body)(s, args)),
            None => (proc.body)(self, args),
        };
        if result.is_err() && self.txn.as_ref().is_some_and(|t| Some(t.id) != caller_txn) {
            let _ = self.abort();
        }
        if proc.authority.is_some() {
            self.unwind_label(saved_label, proc.authority);
        }
        result
    }

    /// Runs `body` with the process temporarily acting as `principal`
    /// (a reduced-authority call when `principal` holds less authority).
    pub fn with_principal<T>(
        &mut self,
        principal: PrincipalId,
        body: impl FnOnce(&mut Session) -> IfdbResult<T>,
    ) -> IfdbResult<T> {
        let saved = self.process.principal();
        self.process.set_principal(principal);
        let result = body(self);
        self.process.set_principal(saved);
        result
    }

    /// After an authority closure returns, restore the caller's label: the
    /// closure's internal contamination is discarded where the closure
    /// principal holds the authority to declassify it and the chain takes
    /// the declassification, and kept (propagated to the caller) where it
    /// does not. Ordinary (non-closure) bodies leave the label untouched —
    /// their contamination is the caller's.
    fn unwind_label(&mut self, saved: Label, closure_principal: Option<PrincipalId>) {
        let Some(principal) = closure_principal else {
            return;
        };
        let current = self.process.label().clone();
        let extra = current.difference(&saved);
        let mut kept = Label::empty();
        if !extra.is_empty() {
            let auth = self.db.inner.auth.read();
            for tag in extra.iter() {
                let dropped = auth.has_authority(principal, tag)
                    && self
                        .db
                        .record_audit(AuditEvent::Declassify {
                            principal,
                            tag,
                            label_before: current.clone(),
                        })
                        .is_ok();
                if !dropped {
                    kept = kept.with_tag(tag);
                }
            }
        }
        self.process.set_label_unchecked(saved.union(&kept));
    }
}

impl Drop for Session {
    /// A session dropped mid-transaction — a request script that panicked, a
    /// network connection that died — must not leave its transaction active:
    /// an abandoned active transaction pins every later snapshot's visibility
    /// horizon and blocks checkpointing forever. Commit and abort both take
    /// the transaction state out of the session first, so this fires only
    /// for genuinely abandoned transactions.
    fn drop(&mut self) {
        if let Some(state) = self.txn.take() {
            let _ = self.db.inner.engine.abort(state.id);
            self.stats.aborts += 1;
        }
    }
}
