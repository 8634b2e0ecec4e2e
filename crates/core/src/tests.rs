//! Engine-level tests exercising the paper's scenarios.

use crate::prelude::*;
use ifdb_difc::audit::AuditEvent;
use ifdb_storage::{DataType, Datum};

/// Builds the HIVPatients example database of Figure 2.
fn medical_db() -> (Database, PrincipalId, PrincipalId, TagId, TagId) {
    let db = Database::in_memory();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let bob = db.create_principal("bob", PrincipalKind::User);
    let alice_medical = db.create_tag(alice, "alice_medical", &[]).unwrap();
    let bob_medical = db.create_tag(bob, "bob_medical", &[]).unwrap();
    db.create_table(
        TableDef::new("HIVPatients")
            .column("patient_name", DataType::Text)
            .column("patient_dob", DataType::Text)
            .primary_key(&["patient_name", "patient_dob"]),
    )
    .unwrap();
    (db, alice, bob, alice_medical, bob_medical)
}

fn insert_patient(db: &Database, who: PrincipalId, tag: TagId, name: &str, dob: &str) {
    let mut s = db.session(who);
    s.add_secrecy(tag).unwrap();
    s.insert(&Insert::new(
        "HIVPatients",
        vec![Datum::from(name), Datum::from(dob)],
    ))
    .unwrap();
}

#[test]
fn label_confinement_rule_filters_queries() {
    let (db, alice, bob, alice_medical, bob_medical) = medical_db();
    insert_patient(&db, alice, alice_medical, "Alice", "2/1/60");
    insert_patient(&db, bob, bob_medical, "Bob", "6/26/78");

    // A process with {bob_medical} sees only Bob's tuple.
    let mut s = db.session(bob);
    s.add_secrecy(bob_medical).unwrap();
    let rows = s.select(&Select::star("HIVPatients")).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.first().unwrap().get_text("patient_name"), Some("Bob"));

    // An empty-labeled process sees nothing.
    let mut anon = db.anonymous_session();
    assert!(anon
        .select(&Select::star("HIVPatients"))
        .unwrap()
        .is_empty());

    // A process with both tags sees both.
    let mut both = db.session(alice);
    both.add_secrecy(alice_medical).unwrap();
    both.add_secrecy(bob_medical).unwrap();
    assert_eq!(both.select(&Select::star("HIVPatients")).unwrap().len(), 2);
}

#[test]
fn write_rule_blocks_lower_labeled_updates() {
    let (db, alice, _bob, alice_medical, bob_medical) = medical_db();
    insert_patient(&db, alice, alice_medical, "Alice", "2/1/60");

    // A process with a *larger* label sees Alice's tuple but may not modify
    // it (that would move data to a label that doesn't reflect the process's
    // contamination).
    let mut s = db.session(alice);
    s.add_secrecy(alice_medical).unwrap();
    s.add_secrecy(bob_medical).unwrap();
    let err = s
        .update(&Update::new(
            "HIVPatients",
            Predicate::Eq("patient_name".into(), Datum::from("Alice")),
            vec![("patient_dob", Datum::from("1/1/99"))],
        ))
        .unwrap_err();
    assert!(matches!(err, IfdbError::WriteRuleViolation { .. }));

    // With exactly Alice's label, the update succeeds.
    let mut ok = db.session(alice);
    ok.add_secrecy(alice_medical).unwrap();
    assert_eq!(
        ok.update(&Update::new(
            "HIVPatients",
            Predicate::Eq("patient_name".into(), Datum::from("Alice")),
            vec![("patient_dob", Datum::from("1/1/99"))],
        ))
        .unwrap(),
        1
    );
}

#[test]
fn inserts_carry_exactly_the_process_label() {
    let (db, alice, _bob, alice_medical, _bob_medical) = medical_db();
    insert_patient(&db, alice, alice_medical, "Alice", "2/1/60");
    let mut s = db.session(alice);
    s.add_secrecy(alice_medical).unwrap();
    let rows = s.select(&Select::star("HIVPatients")).unwrap();
    assert_eq!(rows.first().unwrap().label, Label::singleton(alice_medical));
}

#[test]
fn polyinstantiation_instead_of_leaking_uniqueness_conflicts() {
    let (db, alice, bob, alice_medical, _bob_medical) = medical_db();
    // Insert (Alice, 2/1/60) with {alice_medical}.
    insert_patient(&db, alice, alice_medical, "Alice", "2/1/60");

    // Insert 2 of Section 5.2.1: same key, conflicting tuple *visible* →
    // uniqueness error (reveals nothing new).
    let mut visible = db.session(alice);
    visible.add_secrecy(alice_medical).unwrap();
    let err = visible
        .insert(&Insert::new(
            "HIVPatients",
            vec![Datum::from("Alice"), Datum::from("2/1/60")],
        ))
        .unwrap_err();
    assert!(matches!(err, IfdbError::UniqueViolation { .. }));

    // Insert 3: an empty-labeled process cannot see the conflict; rejecting
    // it would leak, so the insert succeeds (polyinstantiation).
    let mut lower = db.session(bob);
    lower
        .insert(&Insert::new(
            "HIVPatients",
            vec![Datum::from("Alice"), Datum::from("2/1/60")],
        ))
        .unwrap();

    // A high-labeled reader now sees both tuples, distinguished by label.
    let mut reader = db.session(alice);
    reader.add_secrecy(alice_medical).unwrap();
    let rows = reader.select(&Select::star("HIVPatients")).unwrap();
    let alice_rows: Vec<_> = rows
        .iter()
        .filter(|r| r.get_text("patient_name") == Some("Alice"))
        .collect();
    assert_eq!(alice_rows.len(), 2, "polyinstantiated duplicate is visible");

    // Requesting an exact label hides the erroneous empty-labeled tuple.
    let exact = reader
        .select(&Select::star("HIVPatients").with_exact_label(Label::singleton(alice_medical)))
        .unwrap();
    assert_eq!(exact.len(), 1);
}

#[test]
fn label_constraints_prevent_polyinstantiation_and_mislabeling() {
    let db = Database::in_memory();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let alice_medical = db.create_tag(alice, "alice_medical", &[]).unwrap();
    let required = Label::singleton(alice_medical);
    let required_clone = required.clone();
    db.create_table(
        TableDef::new("HIVPatients")
            .column("patient_name", DataType::Text)
            .column("patient_dob", DataType::Text)
            .primary_key(&["patient_name"])
            .label_exact_from_row("hiv_label_constraint", move |_row| required_clone.clone()),
    )
    .unwrap();

    // Correctly labeled insert succeeds.
    let mut s = db.session(alice);
    s.add_secrecy(alice_medical).unwrap();
    s.insert(&Insert::new(
        "HIVPatients",
        vec![Datum::from("Alice"), Datum::from("2/1/60")],
    ))
    .unwrap();

    // A mislabeled (empty-label) insert is rejected by the constraint, which
    // also prevents the polyinstantiated duplicate.
    let mut wrong = db.anonymous_session();
    let err = wrong
        .insert(&Insert::new(
            "HIVPatients",
            vec![Datum::from("Alice"), Datum::from("2/1/60")],
        ))
        .unwrap_err();
    assert!(matches!(err, IfdbError::LabelConstraintViolation { .. }));
}

#[test]
fn transaction_commit_label_rule_blocks_the_hiv_leak() {
    // The Section 5.1 example: write a public tuple, then raise the label and
    // decide whether to commit based on secret data. The commit must fail.
    let (db, alice, bob, alice_medical, _bob) = medical_db();
    insert_patient(&db, alice, alice_medical, "Alice", "2/1/60");
    db.create_table(
        TableDef::new("Foo")
            .column("note", DataType::Text)
            .primary_key(&["note"]),
    )
    .unwrap();

    let mut s = db.session(bob);
    s.begin().unwrap();
    s.insert(&Insert::new("Foo", vec![Datum::from("Alice has HIV")]))
        .unwrap();
    s.add_secrecy(alice_medical).unwrap();
    let found = s
        .select(
            &Select::star("HIVPatients")
                .filter(Predicate::Eq("patient_name".into(), Datum::from("Alice"))),
        )
        .unwrap();
    assert_eq!(found.len(), 1, "the secret condition is observable in-txn");
    // The transaction tries to commit while contaminated; the commit label
    // rule rejects it and the public tuple is never exposed.
    let err = s.commit().unwrap_err();
    assert!(matches!(err, IfdbError::CommitLabelViolation { .. }));

    let mut reader = db.anonymous_session();
    assert!(reader.select(&Select::star("Foo")).unwrap().is_empty());
}

#[test]
fn commit_succeeds_after_declassification() {
    let (db, alice, _bob, alice_medical, _bobm) = medical_db();
    db.create_table(
        TableDef::new("Foo")
            .column("note", DataType::Text)
            .primary_key(&["note"]),
    )
    .unwrap();
    let mut s = db.session(alice);
    s.begin().unwrap();
    s.insert(&Insert::new("Foo", vec![Datum::from("public note")]))
        .unwrap();
    s.add_secrecy(alice_medical).unwrap();
    // Alice owns the tag, so she may declassify before committing.
    s.declassify(alice_medical).unwrap();
    s.commit().unwrap();
    let mut reader = db.anonymous_session();
    assert_eq!(reader.select(&Select::star("Foo")).unwrap().len(), 1);
}

#[test]
fn serializable_clearance_rule_requires_authority_to_raise_label() {
    let (db, _alice, bob, alice_medical, bob_medical) = medical_db();
    let mut s = db.session(bob);
    s.set_serializable(true);
    s.begin().unwrap();
    // Bob owns bob_medical, so he may raise to it.
    s.add_secrecy(bob_medical).unwrap();
    // But not to Alice's tag.
    let err = s.add_secrecy(alice_medical).unwrap_err();
    assert!(matches!(err, IfdbError::ClearanceViolation { .. }));
    s.abort().unwrap();
}

#[test]
fn foreign_key_rule_demands_declassifying_clause() {
    let db = Database::in_memory();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let ingest = db.create_principal("ingest", PrincipalKind::Service);
    let alice_cars = db.create_tag(alice, "alice_cars", &[]).unwrap();
    let alice_drives = db.create_tag(alice, "alice_drives", &[]).unwrap();
    db.create_table(
        TableDef::new("Cars")
            .column("carid", DataType::Int)
            .column("owner", DataType::Text)
            .primary_key(&["carid"]),
    )
    .unwrap();
    db.create_table(
        TableDef::new("Drives")
            .column("driveid", DataType::Int)
            .column("carid", DataType::Int)
            .primary_key(&["driveid"])
            .foreign_key("drives_carid_fkey", &["carid"], "Cars", &["carid"]),
    )
    .unwrap();

    // Alice registers her car under {alice_cars}.
    let mut alice_session = db.session(alice);
    alice_session.add_secrecy(alice_cars).unwrap();
    alice_session
        .insert(&Insert::new(
            "Cars",
            vec![Datum::Int(1), Datum::from("alice")],
        ))
        .unwrap();
    // Alice delegates both tags to the ingest service (empty label required).
    let mut alice_clean = db.session(alice);
    alice_clean.delegate(ingest, alice_cars).unwrap();
    alice_clean.delegate(ingest, alice_drives).unwrap();

    // The ingest service inserts a drive labeled {alice_drives} referencing
    // the {alice_cars}-labeled car. The symmetric difference is
    // {alice_drives, alice_cars}, so both must be declassified explicitly.
    let mut svc = db.session(ingest);
    svc.add_secrecy(alice_drives).unwrap();
    let plain = Insert::new("Drives", vec![Datum::Int(10), Datum::Int(1)]);
    let err = svc.insert(&plain).unwrap_err();
    assert!(matches!(err, IfdbError::DeclassifyingRequired { .. }));

    let ok = Insert::new("Drives", vec![Datum::Int(10), Datum::Int(1)])
        .declassifying(&[alice_drives, alice_cars]);
    svc.insert(&ok).unwrap();

    // A referencing insert to a nonexistent car is a plain FK violation.
    let missing = Insert::new("Drives", vec![Datum::Int(11), Datum::Int(99)])
        .declassifying(&[alice_drives, alice_cars]);
    assert!(matches!(
        svc.insert(&missing).unwrap_err(),
        IfdbError::ForeignKeyViolation { .. }
    ));

    // And a principal without authority cannot vouch for the tags even if it
    // names them.
    let mallory = db.create_principal("mallory", PrincipalKind::User);
    let mut m = db.session(mallory);
    m.add_secrecy(alice_drives).unwrap();
    let attempt = Insert::new("Drives", vec![Datum::Int(12), Datum::Int(1)])
        .declassifying(&[alice_drives, alice_cars]);
    assert!(m.insert(&attempt).is_err());
}

#[test]
fn delete_restricted_while_references_exist() {
    let db = Database::in_memory();
    let admin = db.create_principal("admin", PrincipalKind::Administrator);
    db.create_table(
        TableDef::new("Users")
            .column("userid", DataType::Int)
            .primary_key(&["userid"]),
    )
    .unwrap();
    db.create_table(
        TableDef::new("Friends")
            .column("userid", DataType::Int)
            .column("friendid", DataType::Int)
            .primary_key(&["userid", "friendid"])
            .foreign_key("friends_userid_fkey", &["userid"], "Users", &["userid"]),
    )
    .unwrap();
    let mut s = db.session(admin);
    s.insert(&Insert::new("Users", vec![Datum::Int(1)]))
        .unwrap();
    s.insert(&Insert::new("Friends", vec![Datum::Int(1), Datum::Int(2)]))
        .unwrap();
    let err = s
        .delete(&Delete::new(
            "Users",
            Predicate::Eq("userid".into(), Datum::Int(1)),
        ))
        .unwrap_err();
    assert!(matches!(err, IfdbError::RestrictViolation { .. }));
    // After the referencing row goes away, the delete succeeds.
    s.delete(&Delete::new("Friends", Predicate::True)).unwrap();
    assert_eq!(
        s.delete(&Delete::new(
            "Users",
            Predicate::Eq("userid".into(), Datum::Int(1)),
        ))
        .unwrap(),
        1
    );
}

/// `Cars(carid PK, owner)` and `Drives(driveid PK, carid FK -> Cars, note)`,
/// with an index on `Drives(carid)` so the RESTRICT lookup is an index
/// probe; car 1 has drive 10, car 2 has none.
fn cars_and_drives() -> (Database, PrincipalId) {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("Cars")
            .column("carid", DataType::Int)
            .column("owner", DataType::Text)
            .primary_key(&["carid"]),
    )
    .unwrap();
    db.create_table(
        TableDef::new("Drives")
            .column("driveid", DataType::Int)
            .column("carid", DataType::Int)
            .column("note", DataType::Text)
            .primary_key(&["driveid"])
            .secondary_index("drives_carid", &["carid"])
            .foreign_key("drives_carid_fkey", &["carid"], "Cars", &["carid"]),
    )
    .unwrap();
    let mut s = db.session(user);
    for car in [1, 2] {
        s.insert(&Insert::new(
            "Cars",
            vec![Datum::Int(car), Datum::from("u")],
        ))
        .unwrap();
    }
    s.insert(&Insert::new(
        "Drives",
        vec![Datum::Int(10), Datum::Int(1), Datum::from("")],
    ))
    .unwrap();
    (db, user)
}

#[test]
fn an_update_may_not_leave_a_dangling_reference() {
    let (db, user) = cars_and_drives();
    let mut s = db.session(user);
    let err = s
        .update(&Update::new(
            "Drives",
            Predicate::True,
            vec![("carid", Datum::Int(99))],
        ))
        .unwrap_err();
    assert!(
        matches!(err, IfdbError::ForeignKeyViolation { ref constraint } if constraint == "drives_carid_fkey"),
        "{err}"
    );
    // Nothing changed, and pointing the drive at a car that exists works.
    let rows = s
        .select(&Select::star("Drives").filter(Predicate::Eq("carid".into(), Datum::Int(1))))
        .unwrap();
    assert_eq!(rows.len(), 1);
    let moved = Update::new("Drives", Predicate::True, vec![("carid", Datum::Int(2))]);
    assert_eq!(s.update(&moved).unwrap(), 1);
}

#[test]
fn an_update_of_a_referenced_key_is_restricted() {
    let (db, user) = cars_and_drives();
    let tag = db.create_tag(user, "drives", &[]).unwrap();
    let mut s = db.session(user);
    let car = |id| Predicate::Eq("carid".into(), Datum::Int(id));
    let rekey = |from, to| Update::new("Cars", car(from), vec![("carid", Datum::Int(to))]);
    let err = s.update(&rekey(1, 3)).unwrap_err();
    assert!(
        matches!(err, IfdbError::RestrictViolation { ref constraint } if constraint == "drives_carid_fkey"),
        "{err}"
    );
    // So car 1 cannot be deleted through a rename either.
    assert!(s.delete(&Delete::new("Cars", car(1))).is_err());
    // Writing the value a column already holds changes no reference; a
    // column no foreign key references is free; a car nothing refers to
    // may be rekeyed.
    assert_eq!(s.update(&rekey(1, 1)).unwrap(), 1);
    let owner = Update::new("Cars", car(1), vec![("owner", Datum::from("v"))]);
    assert_eq!(s.update(&owner).unwrap(), 1);
    assert_eq!(s.update(&rekey(2, 3)).unwrap(), 1);
    // A referencing row restricts whatever its label, like a DELETE.
    let mut high = db.session(user);
    high.add_secrecy(tag).unwrap();
    high.insert(
        &Insert::new(
            "Drives",
            vec![Datum::Int(11), Datum::Int(3), Datum::from("")],
        )
        .declassifying(&[tag]),
    )
    .unwrap();
    assert!(matches!(
        s.update(&rekey(3, 4)).unwrap_err(),
        IfdbError::RestrictViolation { .. }
    ));
}

#[test]
fn an_update_carries_no_declassifying_clause() {
    let (db, user) = cars_and_drives();
    let tag = db.create_tag(user, "drives", &[]).unwrap();
    let mut high = db.session(user);
    high.add_secrecy(tag).unwrap();
    high.insert(
        &Insert::new(
            "Drives",
            vec![Datum::Int(11), Datum::Int(1), Datum::from("")],
        )
        .declassifying(&[tag]),
    )
    .unwrap();
    // Re-pointing the {drives} row at an unlabeled car needs the clause an
    // UPDATE cannot carry, so it fails closed.
    let err = high
        .update(&Update::new(
            "Drives",
            Predicate::Eq("driveid".into(), Datum::Int(11)),
            vec![("carid", Datum::Int(2))],
        ))
        .unwrap_err();
    assert!(
        matches!(err, IfdbError::DeclassifyingRequired { ref missing, .. } if missing.contains(tag)),
        "{err}"
    );
    // A column no foreign key covers is written as before.
    let noted = Update::new(
        "Drives",
        Predicate::Eq("driveid".into(), Datum::Int(11)),
        vec![("note", Datum::from("x"))],
    );
    assert_eq!(high.update(&noted).unwrap(), 1);
}

#[test]
fn an_update_of_no_foreign_key_column_probes_nothing() {
    let (db, user) = cars_and_drives();
    let mut s = db.session(user);
    let lookups = |db: &Database| db.engine().stats().index_point_lookups;
    let drive = Predicate::Eq("driveid".into(), Datum::Int(10));
    let car = Predicate::Eq("carid".into(), Datum::Int(1));
    // Each statement's own lookup of its row, and no probe.
    let before = lookups(&db);
    s.update(&Update::new(
        "Drives",
        drive.clone(),
        vec![("note", Datum::from("n"))],
    ))
    .unwrap();
    assert_eq!(lookups(&db) - before, 1);
    let before = lookups(&db);
    s.update(&Update::new(
        "Cars",
        car.clone(),
        vec![("owner", Datum::from("v"))],
    ))
    .unwrap();
    assert_eq!(lookups(&db) - before, 1);
    // A foreign key's column is probed once in the referenced table's key.
    let before = lookups(&db);
    s.update(&Update::new(
        "Drives",
        drive,
        vec![("carid", Datum::Int(2))],
    ))
    .unwrap();
    assert_eq!(lookups(&db) - before, 2);
    // A referenced key column is probed for uniqueness in its own index and
    // for references in the referencing table's.
    let before = lookups(&db);
    s.update(&Update::new("Cars", car, vec![("carid", Datum::Int(3))]))
        .unwrap();
    assert_eq!(lookups(&db) - before, 3);
}

#[test]
fn declassifying_view_exposes_projection_of_sensitive_table() {
    // The PCMembers example of Section 4.3.
    let db = Database::in_memory();
    let chair = db.create_principal("chair", PrincipalKind::Role);
    let all_contacts = db.create_compound_tag(chair, "all_contacts", &[]).unwrap();
    let cathy = db.create_principal("cathy", PrincipalKind::User);
    let cathy_contact = db
        .create_tag(cathy, "cathy_contact", &[all_contacts])
        .unwrap();
    db.create_table(
        TableDef::new("ContactInfo")
            .column("contactId", DataType::Int)
            .column("firstName", DataType::Text)
            .column("lastName", DataType::Text)
            .column("email", DataType::Text)
            .column("isPCMember", DataType::Bool)
            .primary_key(&["contactId"]),
    )
    .unwrap();
    // The chair owns the all_contacts compound, so it can create the
    // declassifying view.
    db.create_declassifying_view(
        chair,
        "PCMembers",
        ViewSource::Select(
            Select::star("ContactInfo")
                .filter(Predicate::Eq("isPCMember".into(), Datum::Bool(true)))
                .project(&["firstName", "lastName"]),
        ),
        Label::singleton(all_contacts),
    )
    .unwrap();

    // Cathy registers; her row is protected by her contact tag.
    let mut cs = db.session(cathy);
    cs.add_secrecy(cathy_contact).unwrap();
    cs.insert(&Insert::new(
        "ContactInfo",
        vec![
            Datum::Int(1),
            Datum::from("Cathy"),
            Datum::from("Jones"),
            Datum::from("cathy@example.org"),
            Datum::Bool(true),
        ],
    ))
    .unwrap();

    // An uncontaminated, unprivileged session cannot read ContactInfo...
    let mut anon = db.anonymous_session();
    assert!(anon
        .select(&Select::star("ContactInfo"))
        .unwrap()
        .is_empty());
    // ...but sees the PC membership through the declassifying view, because
    // cathy_contact is a member of all_contacts, which the view declassifies.
    let pc = anon.select(&Select::star("PCMembers")).unwrap();
    assert_eq!(pc.len(), 1);
    assert_eq!(pc.first().unwrap().get_text("firstName"), Some("Cathy"));
    // The full contact information (email) is not part of the view.
    assert!(pc.first().unwrap().get("email").is_none());
}

#[test]
fn ordinary_views_and_outer_joins_simulate_field_level_labels() {
    // The PaymentContact example of Section 4.4: a standard outer-join view
    // shows NULLs for the fields the process may not see.
    let db = Database::in_memory();
    let user = db.create_principal("dana", PrincipalKind::User);
    let pay_tag = db.create_tag(user, "dana_payment", &[]).unwrap();
    let contact_tag = db.create_tag(user, "dana_contact", &[]).unwrap();
    db.create_table(
        TableDef::new("Payment")
            .column("userid", DataType::Int)
            .column("card", DataType::Text)
            .primary_key(&["userid"]),
    )
    .unwrap();
    db.create_table(
        TableDef::new("Contact")
            .column("userid", DataType::Int)
            .column("email", DataType::Text)
            .primary_key(&["userid"]),
    )
    .unwrap();
    db.create_view(
        "PaymentContact",
        ViewSource::Join(Join::left_outer("Payment", "Contact", ("userid", "userid"))),
    )
    .unwrap();

    let mut s = db.session(user);
    s.add_secrecy(pay_tag).unwrap();
    s.insert(&Insert::new(
        "Payment",
        vec![Datum::Int(1), Datum::from("4111-....")],
    ))
    .unwrap();
    s.declassify(pay_tag).unwrap();
    s.add_secrecy(contact_tag).unwrap();
    s.insert(&Insert::new(
        "Contact",
        vec![Datum::Int(1), Datum::from("dana@example.org")],
    ))
    .unwrap();
    s.declassify(contact_tag).unwrap();

    // A process holding only the payment tag sees the payment fields and
    // NULLs where the contact fields would be.
    let mut pay_only = db.session(user);
    pay_only.add_secrecy(pay_tag).unwrap();
    let rows = pay_only.select(&Select::star("PaymentContact")).unwrap();
    assert_eq!(rows.len(), 1);
    let row = rows.first().unwrap();
    assert_eq!(row.get_text("card"), Some("4111-...."));
    assert!(row.get("email").unwrap().is_null());

    // A process holding both tags sees the joined row in full.
    let mut both = db.session(user);
    both.add_secrecy(pay_tag).unwrap();
    both.add_secrecy(contact_tag).unwrap();
    let rows = both.select(&Select::star("PaymentContact")).unwrap();
    assert_eq!(
        rows.first().unwrap().get_text("email"),
        Some("dana@example.org")
    );
}

/// A procedure body that begins, inserts and then fails leaves no
/// transaction behind: its insert is rolled back and the next call begins
/// cleanly. A transaction the caller had open before the call is the
/// caller's, and stays open.
#[test]
fn a_failed_procedure_rolls_back_only_the_transaction_it_opened() {
    use crate::catalog::StoredProcedure;
    use std::sync::Arc;

    let db = Database::in_memory();
    db.create_table(
        TableDef::new("t")
            .column("id", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    db.create_procedure(StoredProcedure {
        name: "insert_then_fail".into(),
        authority: None,
        body: Arc::new(|session, args| {
            session.begin()?;
            session.insert(&Insert::new("t", vec![args[0].clone()]))?;
            Err(IfdbError::InvalidStatement("the body failed".into()))
        }),
    })
    .unwrap();
    let mut s = db.anonymous_session();
    for id in [1, 2] {
        let err = s
            .call_procedure("insert_then_fail", &[Datum::Int(id)])
            .unwrap_err();
        assert!(
            err.to_string().contains("the body failed"),
            "call {id}: {err}"
        );
        assert!(!s.in_transaction());
    }
    assert!(s.select(&Select::star("t")).unwrap().is_empty());

    s.begin().unwrap();
    s.insert(&Insert::new("t", vec![Datum::Int(7)])).unwrap();
    assert!(s
        .call_procedure("insert_then_fail", &[Datum::Int(3)])
        .is_err());
    assert!(s.in_transaction(), "the caller's transaction stays open");
    s.commit().unwrap();
    let rows = s.select(&Select::star("t")).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows.first().unwrap().get_int("id"), Some(7));
}

#[test]
fn stored_authority_closure_declassifies_without_contaminating_caller() {
    use crate::catalog::StoredProcedure;
    use std::sync::Arc;

    let db = Database::in_memory();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let stats_principal = db.create_principal("traffic_stats", PrincipalKind::Closure);
    let alice_location = db.create_tag(alice, "alice_location", &[]).unwrap();
    db.create_table(
        TableDef::new("Locations")
            .column("userid", DataType::Int)
            .column("speed", DataType::Float)
            .primary_key(&["userid"]),
    )
    .unwrap();
    let mut setup = db.session(alice);
    setup.delegate(stats_principal, alice_location).unwrap();
    setup.add_secrecy(alice_location).unwrap();
    setup
        .insert(&Insert::new(
            "Locations",
            vec![Datum::Int(1), Datum::Float(61.0)],
        ))
        .unwrap();

    // The stored authority closure raises its label to read everyone's
    // locations, computes the average speed, and declassifies the result.
    db.create_procedure(StoredProcedure {
        name: "avg_speed".into(),
        authority: Some(stats_principal),
        body: Arc::new(move |session, _args| {
            session.add_secrecy(alice_location)?;
            let result = session.select_aggregate(&Aggregate {
                from: "Locations".into(),
                predicate: Predicate::True,
                group_by: None,
                aggregates: vec![(AggFunc::Avg, "speed".into())],
            })?;
            session.declassify(alice_location)?;
            Ok(result)
        }),
    })
    .unwrap();

    // An uncontaminated, unprivileged caller invokes the closure and can
    // release its declassified result to the outside world.
    let mut caller = db.anonymous_session();
    let avg = caller.call_procedure("avg_speed", &[]).unwrap();
    assert_eq!(avg.first().unwrap().get_float("avg_speed"), Some(61.0));
    assert!(caller.label().is_empty());
    assert!(caller.check_release_to_world().is_ok());

    // Calling the same computation *without* the closure's authority leaves
    // the caller contaminated and unable to release what it read.
    let mut direct = db.anonymous_session();
    direct.add_secrecy(alice_location).unwrap();
    direct
        .select_aggregate(&Aggregate {
            from: "Locations".into(),
            predicate: Predicate::True,
            group_by: None,
            aggregates: vec![(AggFunc::Avg, "speed".into())],
        })
        .unwrap();
    assert!(direct.check_release_to_world().is_err());
}

#[test]
fn triggers_run_as_authority_closures_do_not_contaminate_caller() {
    use crate::catalog::{TriggerDef, TriggerEvent, TriggerTiming};
    use std::sync::Arc;

    // The CarTel ingest pattern: inserting a Location fires a trigger that
    // reads Cars (labeled with the owner's car tag) and updates Drives. The
    // trigger is an authority closure for the location tag, so the inserting
    // process is not left contaminated by what the trigger read.
    let db = Database::in_memory();
    let alice = db.create_principal("alice", PrincipalKind::User);
    let closure_principal = db.create_principal("driveupdate", PrincipalKind::Closure);
    let alice_drives = db.create_tag(alice, "alice_drives", &[]).unwrap();
    let alice_location = db.create_tag(alice, "alice_location", &[]).unwrap();
    db.create_table(
        TableDef::new("Locations")
            .column("seq", DataType::Int)
            .column("userid", DataType::Int)
            .primary_key(&["seq"]),
    )
    .unwrap();
    db.create_table(
        TableDef::new("Drives")
            .column("userid", DataType::Int)
            .column("points", DataType::Int)
            .primary_key(&["userid"]),
    )
    .unwrap();
    let mut setup = db.session(alice);
    setup.delegate(closure_principal, alice_location).unwrap();

    db.create_trigger(TriggerDef {
        name: "driveupdate".into(),
        table: "Locations".into(),
        events: vec![TriggerEvent::Insert],
        timing: TriggerTiming::Immediate,
        authority: Some(closure_principal),
        body: Arc::new(move |session, inv| {
            let userid = inv.new.as_ref().unwrap()[1].clone();
            // Maintain the per-user drive summary in the Drives table.
            let existing = session.select(
                &Select::star("Drives").filter(Predicate::Eq("userid".into(), userid.clone())),
            )?;
            if existing.is_empty() {
                session.insert(&Insert::new("Drives", vec![userid, Datum::Int(1)]))?;
            } else {
                let points = existing.first().unwrap().get_int("points").unwrap() + 1;
                session.update(&Update::new(
                    "Drives",
                    Predicate::Eq("userid".into(), userid),
                    vec![("points", Datum::Int(points))],
                ))?;
            }
            Ok(())
        }),
    })
    .unwrap();

    // Alice's ingest process inserts raw locations with the location+drives
    // labels.
    let mut ingest = db.session(alice);
    ingest.add_secrecy(alice_drives).unwrap();
    ingest.add_secrecy(alice_location).unwrap();
    ingest
        .insert(&Insert::new(
            "Locations",
            vec![Datum::Int(1), Datum::Int(7)],
        ))
        .unwrap();
    ingest
        .insert(&Insert::new(
            "Locations",
            vec![Datum::Int(2), Datum::Int(7)],
        ))
        .unwrap();

    // The Drives table was maintained by the trigger.
    let drives = ingest.select(&Select::star("Drives")).unwrap();
    assert_eq!(drives.len(), 1);
    assert_eq!(drives.first().unwrap().get_int("points"), Some(2));
}

#[test]
fn baseline_mode_skips_label_enforcement() {
    let db = Database::new(DatabaseConfig::baseline());
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("T")
            .column("a", DataType::Int)
            .primary_key(&["a"]),
    )
    .unwrap();
    let mut s = db.session(user);
    s.insert(&Insert::new("T", vec![Datum::Int(1)])).unwrap();
    // Any other session sees the row; there are no labels.
    let mut o = db.anonymous_session();
    let rows = o.select(&Select::star("T")).unwrap();
    assert_eq!(rows.len(), 1);
    assert!(rows.first().unwrap().label.is_empty());
}

#[test]
fn aggregates_and_ordering_work_under_confinement() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let t1 = db.create_tag(user, "t1", &[]).unwrap();
    db.create_table(
        TableDef::new("Scores")
            .column("player", DataType::Text)
            .column("score", DataType::Int)
            .primary_key(&["player"]),
    )
    .unwrap();
    let mut s = db.session(user);
    s.add_secrecy(t1).unwrap();
    for (p, v) in [("a", 10), ("b", 30), ("c", 20)] {
        s.insert(&Insert::new("Scores", vec![Datum::from(p), Datum::Int(v)]))
            .unwrap();
    }
    let ordered = s
        .select(&Select::star("Scores").order("score", Order::Desc).take(2))
        .unwrap();
    assert_eq!(ordered.len(), 2);
    assert_eq!(ordered.first().unwrap().get_text("player"), Some("b"));

    let agg = s
        .select_aggregate(&Aggregate {
            from: "Scores".into(),
            predicate: Predicate::True,
            group_by: None,
            aggregates: vec![
                (AggFunc::Count, "score".into()),
                (AggFunc::Sum, "score".into()),
                (AggFunc::Max, "score".into()),
            ],
        })
        .unwrap();
    let row = agg.first().unwrap();
    assert_eq!(row.get_int("count"), Some(3));
    assert_eq!(row.get_float("sum_score"), Some(60.0));
    assert_eq!(row.get_float("max_score"), Some(30.0));
    // The aggregate's label reflects the data it covered.
    assert_eq!(row.label, Label::singleton(t1));

    // An uncontaminated session aggregates over nothing.
    let mut anon = db.anonymous_session();
    let empty = anon
        .select_aggregate(&Aggregate {
            from: "Scores".into(),
            predicate: Predicate::True,
            group_by: None,
            aggregates: vec![(AggFunc::Count, "score".into())],
        })
        .unwrap();
    assert_eq!(empty.first().unwrap().get_int("count"), Some(0));
}

#[test]
fn write_conflicts_surface_as_storage_errors() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("Counter")
            .column("id", DataType::Int)
            .column("n", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut setup = db.session(user);
    setup
        .insert(&Insert::new("Counter", vec![Datum::Int(1), Datum::Int(0)]))
        .unwrap();

    let mut s1 = db.session(user);
    let mut s2 = db.session(user);
    s1.begin().unwrap();
    s2.begin().unwrap();
    s1.update(&Update::new(
        "Counter",
        Predicate::Eq("id".into(), Datum::Int(1)),
        vec![("n", Datum::Int(1))],
    ))
    .unwrap();
    let err = s2
        .update(&Update::new(
            "Counter",
            Predicate::Eq("id".into(), Datum::Int(1)),
            vec![("n", Datum::Int(2))],
        ))
        .unwrap_err();
    assert!(matches!(err, IfdbError::Storage(_)));
    s1.commit().unwrap();
    s2.abort().unwrap();
}

#[test]
fn unauthenticated_session_cannot_release_what_it_reads() {
    let (db, alice, _bob, alice_medical, _bm) = medical_db();
    insert_patient(&db, alice, alice_medical, "Alice", "2/1/60");
    let mut anon = db.anonymous_session();
    // The anonymous session raises its label trying to read everything.
    anon.add_secrecy(alice_medical).unwrap();
    let rows = anon.select(&Select::star("HIVPatients")).unwrap();
    assert_eq!(rows.len(), 1, "contaminated process can read");
    // But it can never send the data to the outside world.
    assert!(anon.check_release_to_world().is_err());
    assert!(anon.declassify(alice_medical).is_err());
    // The blocked release is counted; the chain ends with the raise, as
    // the refused declassification chained nothing.
    let counted = db.audit_counters();
    assert_eq!(counted.get(ifdb_difc::audit::kind::BLOCKED_RELEASE), 1);
    assert_eq!(counted.events(), 1);
    assert!(matches!(
        db.replay_audit().last(),
        Some(AuditEvent::LabelRaise { .. })
    ));
}

#[test]
fn deferred_triggers_run_with_query_label_at_commit() {
    use crate::catalog::{TriggerDef, TriggerEvent, TriggerTiming};
    use parking_lot::Mutex;
    use std::sync::Arc;

    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tag = db.create_tag(user, "t", &[]).unwrap();
    db.create_table(
        TableDef::new("Events")
            .column("id", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let observed: Arc<Mutex<Vec<Label>>> = Arc::new(Mutex::new(Vec::new()));
    let observed_clone = observed.clone();
    db.create_trigger(TriggerDef {
        name: "audit_events".into(),
        table: "Events".into(),
        events: vec![TriggerEvent::Insert],
        timing: TriggerTiming::Deferred,
        authority: None,
        body: Arc::new(move |session, _inv| {
            observed_clone.lock().push(session.label().clone());
            Ok(())
        }),
    })
    .unwrap();

    let mut s = db.session(user);
    s.begin().unwrap();
    s.add_secrecy(tag).unwrap();
    s.insert(&Insert::new("Events", vec![Datum::Int(1)]))
        .unwrap();
    // Declassify before commit so the commit label rule passes; the deferred
    // trigger must still observe the label of the *query*, not the commit
    // label.
    s.declassify(tag).unwrap();
    s.commit().unwrap();
    let labels = observed.lock();
    assert_eq!(labels.len(), 1);
    assert_eq!(labels[0], Label::singleton(tag));
}

/// Builds a 200-row table with five label populations (empty, three single
/// tags, one two-tag label) and mixed data for executor tests.
fn mixed_label_db() -> (Database, PrincipalId, Vec<TagId>) {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tags: Vec<TagId> = (0..4)
        .map(|i| db.create_tag(user, &format!("t{i}"), &[]).unwrap())
        .collect();
    db.create_table(
        TableDef::new("D")
            .column("id", DataType::Int)
            .column("grp", DataType::Int)
            .nullable_column("v", DataType::Float)
            .primary_key(&["id"]),
    )
    .unwrap();
    for i in 0..200i64 {
        let mut s = db.session(user);
        match i % 5 {
            0 => {}
            1 => s.add_secrecy(tags[0]).unwrap(),
            2 => s.add_secrecy(tags[1]).unwrap(),
            3 => s.add_secrecy(tags[2]).unwrap(),
            _ => {
                s.add_secrecy(tags[0]).unwrap();
                s.add_secrecy(tags[1]).unwrap();
            }
        }
        let v = if i % 7 == 0 {
            Datum::Null
        } else {
            Datum::Float(i as f64 / 3.0)
        };
        s.insert(&Insert::new(
            "D",
            vec![Datum::Int(i), Datum::Int(i % 10), v],
        ))
        .unwrap();
    }
    (db, user, tags)
}

#[test]
fn streaming_executor_matches_reference_executor() {
    let (db, user, tags) = mixed_label_db();
    // A plain filtered view and a declassifying view over everything, so the
    // differential covers the view pipeline and the declassify-cover memo.
    db.create_view(
        "Mid",
        ViewSource::Select(
            Select::star("D")
                .filter(Predicate::Ge("id".into(), Datum::Int(40)))
                .project(&["id", "grp"]),
        ),
    )
    .unwrap();
    db.create_declassifying_view(
        user,
        "AllD",
        ViewSource::Select(Select::star("D")),
        Label::from_tags(tags.iter().copied()),
    )
    .unwrap();
    let queries = vec![
        Select::star("Mid").filter(Predicate::Eq("id".into(), Datum::Int(50))),
        Select::star("Mid"),
        Select::star("AllD"),
        Select::star("AllD").filter(Predicate::Ge("id".into(), Datum::Int(100))),
        Select::star("D"),
        Select::star("D").filter(Predicate::Eq("id".into(), Datum::Int(42))),
        Select::star("D").filter(
            Predicate::Ge("id".into(), Datum::Int(50))
                .and(Predicate::Lt("id".into(), Datum::Int(120))),
        ),
        Select::star("D").filter(Predicate::Eq("grp".into(), Datum::Int(3))),
        Select::star("D").filter(
            Predicate::IsNull("v".into()).or(Predicate::Gt("v".into(), Datum::Float(40.0))),
        ),
        Select::star("D").filter(Predicate::Eq("grp".into(), Datum::Int(0)).negate()),
        Select::star("D")
            .project(&["id", "v"])
            .order("id", Order::Desc)
            .take(17),
        Select::star("D").with_exact_label(Label::empty()),
        Select::star("D").filter(Predicate::LabelContains(tags[0])),
    ];
    let reader_labels = [
        Label::empty(),
        Label::from_tags([tags[0], tags[1]]),
        Label::from_tags(tags.iter().copied()),
    ];
    for label in &reader_labels {
        for q in &queries {
            let mut fast_session = db.session(user);
            fast_session.raise_label(label).unwrap();
            let fast = fast_session.select(q).unwrap();
            let mut ref_session = db.session(user);
            ref_session.raise_label(label).unwrap();
            let reference = ref_session.select_reference(q).unwrap();
            let key = |r: &Row| format!("{:?}|{}", r.values, r.label);
            let mut a: Vec<String> = fast.iter().map(key).collect();
            let mut b: Vec<String> = reference.iter().map(key).collect();
            // Index-driven scans may emit in key order rather than heap
            // order; only ORDER BY pins the sequence.
            if q.order_by.is_none() {
                a.sort();
                b.sort();
            }
            assert_eq!(a, b, "query {q:?} under label {label}");
        }
    }
}

/// The differential again, over everything a scan reads in place: nine
/// interleaved labels (members of a compound), a Text column, superseded and
/// deleted versions, an aborted writer and one still running, a declassifying
/// view over the compound, label predicates, and a query for each of the four
/// access paths. Rows and labels must match the reference executor's, in
/// order wherever both walk the heap or the statement orders its output.
#[test]
fn in_place_scan_matches_reference_on_every_access_path() {
    use crate::plan::{plan_table_scan, AccessPath};

    let db = Database::in_memory();
    let service = db.create_principal("service", PrincipalKind::Service);
    let user = db.create_principal("u", PrincipalKind::User);
    let all = db.create_compound_tag(service, "all", &[]).unwrap();
    let tags: Vec<TagId> = (0..8)
        .map(|i| db.create_tag(user, &format!("t{i}"), &[all]).unwrap())
        .collect();
    db.create_table(
        TableDef::new("E")
            .column("grp", DataType::Int)
            .column("id", DataType::Int)
            .column("lab", DataType::Int)
            .column("name", DataType::Text)
            .nullable_column("v", DataType::Float)
            .primary_key(&["grp", "id"])
            .secondary_index("e_name", &["name"]),
    )
    .unwrap();
    // Label `k` of the nine: empty, seven single tags, one pair.
    let mut labels = vec![Label::empty()];
    labels.extend(tags[..7].iter().map(|t| Label::singleton(*t)));
    labels.push(Label::from_tags([tags[0], tags[7]]));
    let session = |k: usize| {
        let mut s = db.session(user);
        s.raise_label(&labels[k]).unwrap();
        s
    };
    let row = |i: i64| {
        let v = if i % 7 == 0 {
            Datum::Null
        } else {
            Datum::Float(i as f64 / 3.0)
        };
        let name = Datum::Text(format!("n{:02}", i % 40));
        vec![Datum::Int(i % 6), Datum::Int(i), Datum::Int(i % 9), name, v]
    };
    let of_label = |k: usize| Predicate::Eq("lab".into(), Datum::Int(k as i64));
    let below = |id: i64| Predicate::Lt("id".into(), Datum::Int(id));
    let from = |id: i64| Predicate::Ge("id".into(), Datum::Int(id));

    // Nine open loaders insert round-robin, so neighbours in a page differ
    // in label and in writer.
    let mut loaders: Vec<Session> = (0..9).map(session).collect();
    for s in &mut loaders {
        s.begin().unwrap();
    }
    for i in 0..360 {
        loaders[i as usize % 9]
            .insert(&Insert::new("E", row(i)))
            .unwrap();
    }
    for mut s in loaders {
        s.commit().unwrap();
    }
    // Committed updates and deletes leave superseded and dead versions.
    for k in [1, 4, 8] {
        let mut s = session(k);
        let set = vec![("v", Datum::Float(1000.0 + k as f64))];
        s.update(&Update::new("E", of_label(k).and(below(120)), set))
            .unwrap();
        s.delete(&Delete::new("E", of_label(k).and(from(300))))
            .unwrap();
    }
    // One writer aborts; another is still running while the readers look.
    let mut aborted = session(3);
    aborted.begin().unwrap();
    aborted.insert(&Insert::new("E", row(2001))).unwrap();
    aborted
        .delete(&Delete::new("E", of_label(3).and(below(60))))
        .unwrap();
    aborted.abort().unwrap();
    let mut running = session(2);
    running.begin().unwrap();
    for i in [1001, 1010, 1019] {
        running.insert(&Insert::new("E", row(i))).unwrap();
    }
    let set = vec![("name", Datum::Text("renamed".into()))];
    running
        .update(&Update::new("E", of_label(2).and(below(50)), set))
        .unwrap();
    running
        .delete(&Delete::new("E", of_label(2).and(from(330))))
        .unwrap();

    db.create_declassifying_view(
        service,
        "AllE",
        ViewSource::Select(Select::star("E")),
        Label::singleton(all),
    )
    .unwrap();
    db.create_view(
        "Names",
        ViewSource::Select(Select::star("E").filter(from(40)).project(&["id", "name"])),
    )
    .unwrap();

    let grp = |g: i64| Predicate::Eq("grp".into(), Datum::Int(g));
    let name = |n: &str| Predicate::Eq("name".into(), Datum::from(n));
    let in_range = grp(2).and(from(100)).and(below(200));
    // (query, the access path its base-table scan must take, whether both
    // executors emit in the same order)
    let queries: Vec<(Select, &str, bool)> = vec![
        (Select::star("E"), "full", true),
        (Select::star("E").filter(grp(0).negate()), "full", true),
        (
            Select::star("E").filter(Predicate::LabelContains(tags[0])),
            "full",
            true,
        ),
        (
            Select::star("E").filter(Predicate::LabelEquals(labels[8].clone())),
            "full",
            true,
        ),
        (
            Select::star("E").with_exact_label(labels[1].clone()),
            "full",
            true,
        ),
        (
            Select::star("E")
                .project(&["id", "name"])
                .order("id", Order::Desc)
                .take(25),
            "full",
            true,
        ),
        (
            Select::star("E").filter(grp(3).and(Predicate::Eq("id".into(), Datum::Int(45)))),
            "eq",
            true,
        ),
        (Select::star("E").filter(name("n07")), "eq", false),
        (
            Select::star("E").filter(name("n07").and(Predicate::IsNull("v".into()))),
            "eq",
            false,
        ),
        (Select::star("E").filter(name("renamed")), "eq", false),
        (Select::star("E").filter(grp(2)), "prefix", false),
        (
            Select::star("E").filter(grp(1).and(Predicate::LabelEquals(Label::empty()))),
            "prefix",
            false,
        ),
        (Select::star("E").filter(in_range.clone()), "range", false),
        (
            Select::star("E").filter(Predicate::Ge("name".into(), Datum::from("n30"))),
            "range",
            false,
        ),
        (Select::star("AllE"), "full", true),
        (Select::star("AllE").filter(in_range), "range", false),
        (Select::star("AllE").filter(name("n11")), "eq", false),
        (
            Select::star("AllE").filter(Predicate::LabelContains(tags[0])),
            "full",
            true,
        ),
        (
            Select::star("AllE").filter(Predicate::LabelEquals(Label::empty())),
            "full",
            true,
        ),
        (Select::star("Names").filter(below(90)), "full", true),
    ];
    let info = db.inner.catalog.read().table("E").unwrap();
    for (q, path, _) in &queries {
        let access = plan_table_scan(&info, &q.predicate).unwrap().access;
        let taken = match access {
            AccessPath::FullScan => "full",
            AccessPath::IndexEq { .. } => "eq",
            AccessPath::IndexPrefix { .. } => "prefix",
            AccessPath::IndexRange { .. } => "range",
        };
        if q.from != "Names" {
            assert_eq!(taken, *path, "plan for {q:?}");
        }
    }

    let answers = |s: &mut Session, reference: bool| -> Vec<Vec<String>> {
        let run = |(q, _, same_order): &(Select, &str, bool)| {
            let rows = if reference {
                s.select_reference(q).unwrap()
            } else {
                s.select(q).unwrap()
            };
            let key = |r: &Row| format!("{:?}|{}", r.values, r.label);
            let mut keys: Vec<String> = rows.iter().map(key).collect();
            if !same_order {
                keys.sort();
            }
            keys
        };
        queries.iter().map(run).collect()
    };
    let check = |fast: Vec<Vec<String>>, reference: Vec<Vec<String>>, who: &str| {
        for ((q, _, _), (a, b)) in queries.iter().zip(fast.into_iter().zip(reference)) {
            assert_eq!(a, b, "query {q:?} for {who}");
        }
    };
    let everything = Label::from_tags(tags.iter().copied());
    for label in [&labels[0], &labels[8], &labels[2], &everything] {
        let mut s = db.session(user);
        s.raise_label(label).unwrap();
        let (fast, reference) = (answers(&mut s, false), answers(&mut s, true));
        check(fast, reference, &format!("a reader under {label}"));
    }
    // A writer sees its own uncommitted versions, on both paths alike.
    let mut own = session(2);
    own.begin().unwrap();
    own.insert(&Insert::new("E", row(1028))).unwrap();
    let seen = own.select(&Select::star("E").filter(name("n28"))).unwrap();
    assert!(seen.iter().any(|r| r.values[1] == Datum::Int(1028)));
    let (fast, reference) = (answers(&mut own, false), answers(&mut own, true));
    check(fast, reference, "the writing transaction");
    // Sanity: the fixture really has what it claims. The committed deletes
    // took effect; nothing of the aborted or running writers shows.
    let mut all_seeing = db.session(user);
    all_seeing.raise_label(&everything).unwrap();
    let base = all_seeing.select(&Select::star("E")).unwrap();
    let deleted = (300..360).filter(|i| [1, 4, 8].contains(&(i % 9))).count();
    assert_eq!(base.len(), 360 - deleted);
    assert!(base.iter().all(|r| r.values[1].as_int().unwrap() < 1000));
    assert!(base
        .iter()
        .all(|r| r.values[3].as_text() != Some("renamed")));
    let through_view = all_seeing.select(&Select::star("AllE")).unwrap();
    assert!(through_view.iter().all(|r| r.label.is_empty()));
    drop(running);
}

/// Rows of `table` on the heap's shared tail and on single-label pages.
fn rows_by_page_kind(db: &Database, table: &str) -> (usize, usize) {
    let (mut shared, mut chained) = (0, 0);
    let t = db.engine().table_by_name(table).unwrap();
    t.heap()
        .walk::<ifdb_storage::StorageError>(
            &[],
            |_| Ok(ifdb_storage::Verdict::Read),
            |_, label, _| {
                match label {
                    None => shared += 1,
                    Some(_) => chained += 1,
                }
                Ok(true)
            },
        )
        .unwrap();
    (shared, chained)
}

/// The budget is charged for a tuple before its label is looked at, so how
/// far a capped scan gets says nothing about the labels in its way: a scan
/// over rows it may not read is killed at the same row as one over rows it
/// may — on the heap's shared tail, on a single-label page whose label is
/// decided once (denied or admitted), and through an index alike.
#[test]
fn execution_budget_is_charged_before_the_label_decision() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tag = db.create_tag(user, "secret", &[]).unwrap();
    db.create_table(
        TableDef::new("T")
            .column("id", DataType::Int)
            .column("cat", DataType::Int)
            .primary_key(&["id"])
            .secondary_index("t_cat", &["cat"]),
    )
    .unwrap();
    let mut writer = db.session(user);
    writer.add_secrecy(tag).unwrap();
    writer.begin().unwrap();
    for i in 0..500 {
        writer
            .insert(&Insert::new("T", vec![Datum::Int(i), Datum::Int(i % 2)]))
            .unwrap();
    }
    writer.commit().unwrap();
    // The first page's worth of rows shares the tail; the rest fill the
    // label's own pages.
    let (shared, chained) = rows_by_page_kind(&db, "T");
    assert!(
        shared > 137 && shared < 400 && chained > 0,
        "{shared} + {chained}"
    );

    let killed_at = |label: Label, q: &Select, cap: u64| {
        let mut s = db.session(user);
        s.raise_label(&label).unwrap();
        s.set_execution_constraints(ExecutionConstraints::unlimited().with_max_rows(cap));
        match s.select(q) {
            Err(IfdbError::BudgetExceeded {
                resource,
                limit,
                used,
            }) if resource == "rows" && limit == cap => used,
            other => panic!("expected a budget kill, got {other:?}"),
        }
    };
    let by_heap = Select::star("T");
    let by_index = Select::star("T").filter(Predicate::Eq("cat".into(), Datum::Int(1)));
    // A kill on the shared tail, on a single-label page, and on an index.
    for (q, cap) in [(&by_heap, 137), (&by_heap, 400), (&by_index, 137)] {
        let admitted = killed_at(Label::singleton(tag), q, cap);
        let denied = killed_at(Label::empty(), q, cap);
        assert_eq!(admitted, cap + 1);
        assert_eq!(denied, admitted, "{q:?}");
    }
    // Uncapped, the two readers do differ — in what they get back.
    let mut blind = db.session(user);
    assert_eq!(blind.select(&by_heap).unwrap().len(), 0);
    let mut sighted = db.session(user);
    sighted.raise_label(&Label::singleton(tag)).unwrap();
    assert_eq!(sighted.select(&by_heap).unwrap().len(), 500);
}

/// Each heap page of `table` in walk order, as its slot count, read from
/// the page summaries without reading a page.
fn page_slots(db: &Database, table: &str) -> Vec<u64> {
    let mut slots = Vec::new();
    let t = db.engine().table_by_name(table).unwrap();
    t.heap()
        .walk::<ifdb_storage::StorageError>(
            &[],
            |page| {
                slots.push(u64::from(page.slots));
                Ok(ifdb_storage::Verdict::Skip)
            },
            |_, _, _| Ok(true),
        )
        .unwrap();
    slots
}

/// A heap scan charges the budget for each page's slots before it decides
/// whether to read the page, and walks the page that would cross the cap
/// slot by slot. So a capped scan is killed at the same slot whether its
/// filter's bounds let it skip every single-label page or none, and whether
/// the label admits its reader or not — at a page boundary and mid-page.
#[test]
fn execution_budget_is_charged_before_the_range_decision() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tag = db.create_tag(user, "secret", &[]).unwrap();
    db.create_table(
        TableDef::new("T")
            .column("id", DataType::Int)
            .column("n", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut writer = db.session(user);
    writer.add_secrecy(tag).unwrap();
    writer.begin().unwrap();
    for i in 0..1_000 {
        writer
            .insert(&Insert::new("T", vec![Datum::Int(i), Datum::Int(i)]))
            .unwrap();
    }
    writer.commit().unwrap();
    // The shared tail's page, then at least three of the label's own.
    let pages = page_slots(&db, "T");
    let (shared, chained) = rows_by_page_kind(&db, "T");
    assert!(pages.len() >= 4 && pages[0] == shared as u64 && chained > 0);
    let tail_rows = pages[0] as i64;

    let used = |label: Label, q: &Select, cap: u64| {
        let mut s = db.session(user);
        s.raise_label(&label).unwrap();
        s.set_execution_constraints(ExecutionConstraints::unlimited().with_max_rows(cap));
        let before = db.engine().stats().pages_skipped;
        match s.select(q) {
            Err(IfdbError::BudgetExceeded {
                resource,
                limit,
                used,
            }) if resource == "rows" && limit == cap => {
                (used, db.engine().stats().pages_skipped - before)
            }
            other => panic!("expected a budget kill, got {other:?}"),
        }
    };
    let n = |p: fn(String, Datum) -> Predicate, v: i64| {
        Select::star("T").filter(p("n".into(), Datum::Int(v)))
    };
    // `n` follows the insert order, so the label's pages hold disjoint
    // ranges of it: the first filter's bounds miss every one of them, the
    // second's meet them all.
    let skips_every_chain_page = n(Predicate::Lt, tail_rows);
    let skips_none = n(Predicate::Ge, 0);
    let boundary = pages[0] + pages[1];
    let mid_page = boundary + pages[2] / 2;
    for cap in [boundary, mid_page] {
        let mut kills = Vec::new();
        for q in [&skips_every_chain_page, &skips_none] {
            for label in [Label::singleton(tag), Label::empty()] {
                kills.push(used(label, q, cap));
            }
        }
        assert!(kills.iter().all(|(used, _)| *used == cap + 1), "{kills:?}");
        // Before the kill, the range skipped the first of the label's pages
        // for both readers, and the label skipped it for the blind one.
        let skipped: Vec<u64> = kills.iter().map(|(_, skipped)| *skipped).collect();
        assert_eq!(skipped, vec![1, 1, 0, 1], "cap {cap}");
    }
}

/// Stock-Level's order-line read — equality on the warehouse and district,
/// a lower bound on the order — starts at the bound and stops at the end of
/// the district, so it visits the lines of the recent orders only, not
/// every line the district ever had. The budget counts the rows an index
/// scan visits: the query fits a cap of exactly its rows.
#[test]
fn a_lower_bound_after_an_equality_prefix_visits_only_the_rows_from_the_bound_on() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("order_line")
            .column("ol_w_id", DataType::Int)
            .column("ol_d_id", DataType::Int)
            .column("ol_o_id", DataType::Int)
            .column("ol_number", DataType::Int)
            .primary_key(&["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"]),
    )
    .unwrap();
    let mut s = db.session(user);
    s.begin().unwrap();
    for d in 1..=2 {
        for o in 1..=300 {
            for n in 1..=5 {
                let line = [1, d, o, n].map(Datum::Int).to_vec();
                s.insert(&Insert::new("order_line", line)).unwrap();
            }
        }
    }
    s.commit().unwrap();
    let district = Predicate::Eq("ol_w_id".into(), Datum::Int(1))
        .and(Predicate::Eq("ol_d_id".into(), Datum::Int(1)));
    let recent = Select::star("order_line").filter(
        district
            .clone()
            .and(Predicate::Ge("ol_o_id".into(), Datum::Int(281))),
    );
    let capped = |q: &Select, cap: u64| {
        let mut s = db.session(user);
        s.set_execution_constraints(ExecutionConstraints::unlimited().with_max_rows(cap));
        let before = db.engine().stats();
        let rows = s.select(q).map(|rows| rows.len());
        let after = db.engine().stats();
        assert_eq!(after.full_table_scans, before.full_table_scans);
        assert_eq!(after.index_range_scans - before.index_range_scans, 1);
        rows
    };
    assert_eq!(capped(&recent, 100).unwrap(), 100);
    assert!(matches!(
        capped(&recent, 99),
        Err(IfdbError::BudgetExceeded { used: 100, .. })
    ));
    // The district alone is 1 500 lines.
    let whole = Select::star("order_line").filter(district);
    assert!(capped(&whole, 100).is_err());
    assert_eq!(capped(&whole, 1_500).unwrap(), 1_500);
}

/// The harness's `label_scan` shape in small: 16 labels inserted
/// round-robin by 16 open sessions. The heap gives each label its own pages
/// once its rows fill one page of the shared tail, so a full scan decides
/// labels one by one only on that tail and once per page elsewhere.
#[test]
fn a_full_scan_of_interleaved_labels_decides_row_by_row_only_on_the_shared_tail() {
    const LABELS: i64 = 16;
    const PER_LABEL: i64 = 400;
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tags: Vec<TagId> = (0..LABELS)
        .map(|i| db.create_tag(user, &format!("g{i}"), &[]).unwrap())
        .collect();
    db.create_table(
        TableDef::new("D")
            .column("id", DataType::Int)
            .column("grp", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut loaders: Vec<Session> = tags
        .iter()
        .map(|tag| {
            let mut s = db.session(user);
            s.add_secrecy(*tag).unwrap();
            s.begin().unwrap();
            s
        })
        .collect();
    for id in 0..LABELS * PER_LABEL {
        let row = vec![Datum::Int(id), Datum::Int(id % LABELS)];
        loaders[(id % LABELS) as usize]
            .insert(&Insert::new("D", row))
            .unwrap();
    }
    for mut s in loaders {
        s.commit().unwrap();
    }
    let (shared, chained) = rows_by_page_kind(&db, "D");
    assert!(
        chained > shared,
        "{shared} shared, {chained} on label pages"
    );
    // Four of label 0's rows on the shared tail (ids 0, 16, 32 and 48)
    // are deleted: their versions keep their slots, invisible.
    let mut writer = db.session(user);
    writer.add_secrecy(tags[0]).unwrap();
    let gone = Predicate::Lt("id".into(), Datum::Int(64));
    assert_eq!(writer.delete(&Delete::new("D", gone)).unwrap(), 4);

    let mut reader = db.session(user);
    reader
        .raise_label(&Label::from_tags(tags[..8].iter().copied()))
        .unwrap();
    let before = db.engine().stats();
    let rows = reader.select(&Select::star("D")).unwrap();
    let after = db.engine().stats();
    assert_eq!(rows.len() as i64, 8 * PER_LABEL - 4);
    // Each live slot of the shared tail has its label decided once, from
    // the page's column view and before its visibility is asked: the four
    // deleted versions count, and so does every slot of a label the reader
    // cannot read. Chain pages are decided once each.
    let checks = after.label_checks - before.label_checks;
    let pages = after.label_page_checks - before.label_page_checks;
    assert_eq!(checks, shared as u64);
    let heap_pages = db.engine().table_by_name("D").unwrap().heap().page_count();
    assert!(
        pages > 0 && pages < heap_pages as u64,
        "{pages} page decisions"
    );
}

/// A full scan tests the filter's `Int` bounds on each slot its label
/// admits, in the page's column view, before it asks the slot's visibility,
/// and counts the slots that fail them: exactly the admitted slots whose
/// `Int`s lie outside the bounds, invisible versions included. Slots the
/// label denies and fields that are not `Int`s (`Null`s, `Float`s compared
/// with `Int` literals) are never counted, and neither is anything on an
/// index path or under a filter that bounds nothing.
#[test]
fn a_full_scan_counts_the_admitted_rows_its_bounds_reject() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let tag = db.create_tag(user, "secret", &[]).unwrap();
    db.create_table(
        TableDef::new("D")
            .column("id", DataType::Int)
            .nullable_column("val", DataType::Int)
            .column("f", DataType::Float)
            .primary_key(&["id"]),
    )
    .unwrap();
    // `val` is spread over every page, so no page is skipped on its range;
    // every 50th row's is a Null.
    let val = |i: i64| (i % 50 != 0).then_some((i * 7_919) % 600);
    let insert = |s: &mut Session, ids: std::ops::Range<i64>| {
        s.begin().unwrap();
        for i in ids {
            let v = val(i).map_or(Datum::Null, Datum::Int);
            let row = vec![Datum::Int(i), v, Datum::Float(4.5)];
            s.insert(&Insert::new("D", row)).unwrap();
        }
        s.commit().unwrap();
    };
    let mut public = db.session(user);
    insert(&mut public, 0..600);
    let mut secret = db.session(user);
    secret.add_secrecy(tag).unwrap();
    insert(&mut secret, 600..900);
    // Deleted versions stay on their pages, invisible.
    let gone = Predicate::Lt("id".into(), Datum::Int(40));
    assert_eq!(public.delete(&Delete::new("D", gone)).unwrap(), 40);

    let rejected = |q: Select| {
        let mut reader = db.session(user);
        let before = db.engine().stats();
        let rows = reader.select(&q).unwrap().len();
        let after = db.engine().stats();
        (
            rows,
            after.rows_rejected_by_bounds - before.rows_rejected_by_bounds,
        )
    };
    let window = Predicate::Ge("val".into(), Datum::Int(100))
        .and(Predicate::Lt("val".into(), Datum::Int(150)));
    // The label admits the 600 public slots, the 40 deleted versions among
    // them included (they are rejected on their bounds before visibility is
    // asked), and denies the 300 secret ones. Of the 600, 61 are inside the
    // window or Null, so 539 are rejected: the 504 visible ones outside the
    // window and 35 of the 40 deleted ones.
    let admitted = 600 - 40;
    let inside = (0..600)
        .filter(|i| val(*i).is_none_or(|v| (100..150).contains(&v)))
        .count();
    let returned = (40..600).filter(|i| val(*i).is_some_and(|v| (100..150).contains(&v)));
    assert_eq!(
        rejected(Select::star("D").filter(window.clone())),
        (returned.count(), (600 - inside) as u64)
    );
    assert_eq!(600 - inside, 539);
    // Floats pass even an empty `Int` interval, and a filter that bounds
    // nothing, or an index path, rejects nothing from its bytes.
    let no_int_between =
        Predicate::Gt("f".into(), Datum::Int(4)).and(Predicate::Lt("f".into(), Datum::Int(5)));
    assert_eq!(
        rejected(Select::star("D").filter(no_int_between)),
        (admitted, 0)
    );
    let either = window
        .clone()
        .or(Predicate::Eq("val".into(), Datum::Int(7)));
    assert_eq!(rejected(Select::star("D").filter(either)).1, 0);
    let by_key = Predicate::Eq("id".into(), Datum::Int(41)).and(window);
    assert_eq!(rejected(Select::star("D").filter(by_key)).1, 0);
}

/// A page's column view is decoded once and kept: a second identical scan
/// decodes nothing, a scan that bounds another column decodes only that
/// column, a delete (an `xmax` patch) keeps every view, and an insert makes
/// the next scan decode the one page it went to, and no other.
#[test]
fn a_page_is_decoded_once_until_a_slot_is_added_to_it() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("D")
            .column("id", DataType::Int)
            .column("v", DataType::Int)
            .column("w", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut s = db.session(user);
    s.begin().unwrap();
    for i in 0..2_000 {
        let row = vec![Datum::Int(i), Datum::Int(i % 40), Datum::Int(i % 7)];
        s.insert(&Insert::new("D", row)).unwrap();
    }
    s.commit().unwrap();
    let pages = db.engine().table_by_name("D").unwrap().heap().page_count() as u64;
    assert!(pages > 4, "{pages} pages");

    // Every page holds every `v` and `w`, so no page is skipped on a range.
    let v_below = |k| Select::star("D").filter(Predicate::Lt("v".into(), Datum::Int(k)));
    let w_below = |k| Select::star("D").filter(Predicate::Lt("w".into(), Datum::Int(k)));
    let mut reader = db.session(user);
    let mut decoded = |q: Select, rows: usize| {
        let before = db.engine().stats().pages_decoded;
        assert_eq!(reader.select(&q).unwrap().len(), rows);
        db.engine().stats().pages_decoded - before
    };
    // The first scan decodes each page's label ids and its `v`s.
    assert_eq!(decoded(v_below(10), 500), 2 * pages);
    assert_eq!(decoded(v_below(10), 500), 0);
    assert_eq!(decoded(v_below(20), 1_000), 0);
    // Another column is decoded once per page, beside the first.
    assert_eq!(decoded(w_below(1), 286), pages);
    assert_eq!(decoded(w_below(1), 286), 0);
    // A filter that bounds nothing decodes nothing.
    assert_eq!(decoded(Select::star("D"), 2_000), 0);
    // A delete patches `xmax` in place and keeps every view.
    let gone = Predicate::Eq("id".into(), Datum::Int(5));
    assert_eq!(s.delete(&Delete::new("D", gone)).unwrap(), 1);
    assert_eq!(decoded(v_below(10), 499), 0);
    // An insert adds a slot to one page, whose view it drops: that page's
    // label ids and `v`s are decoded again, and nothing else.
    let row = vec![Datum::Int(2_000), Datum::Int(0), Datum::Int(0)];
    s.insert(&Insert::new("D", row)).unwrap();
    assert_eq!(decoded(v_below(10), 500), 2);
    assert_eq!(decoded(w_below(1), 287), 1);
}

#[test]
fn secondary_index_equality_avoids_full_scan() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("T")
            .column("id", DataType::Int)
            .column("cat", DataType::Int)
            .primary_key(&["id"])
            .secondary_index("t_cat", &["cat"]),
    )
    .unwrap();
    let mut s = db.session(user);
    for i in 0..500 {
        s.insert(&Insert::new("T", vec![Datum::Int(i), Datum::Int(i % 20)]))
            .unwrap();
    }
    let before = db.engine().stats();
    let r = s
        .select(&Select::star("T").filter(Predicate::Eq("cat".into(), Datum::Int(7))))
        .unwrap();
    let after = db.engine().stats();
    assert_eq!(r.len(), 25);
    assert_eq!(
        after.full_table_scans, before.full_table_scans,
        "equality on an indexed column must not scan the heap"
    );
    assert!(after.index_point_lookups > before.index_point_lookups);
}

#[test]
fn late_secondary_index_is_picked_up_by_planner() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("T")
            .column("id", DataType::Int)
            .column("cat", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut s = db.session(user);
    for i in 0..100 {
        s.insert(&Insert::new("T", vec![Datum::Int(i), Datum::Int(i % 4)]))
            .unwrap();
    }
    // Back-filled after the data exists.
    db.create_secondary_index("T", "t_cat", &["cat"]).unwrap();
    let before = db.engine().stats();
    let r = s
        .select(&Select::star("T").filter(Predicate::Eq("cat".into(), Datum::Int(1))))
        .unwrap();
    let after = db.engine().stats();
    assert_eq!(r.len(), 25);
    assert_eq!(after.full_table_scans, before.full_table_scans);
}

#[test]
fn indexed_range_query_avoids_full_scan() {
    let (db, user, tags) = mixed_label_db();
    // An all-seeing session, so every row in range is returned.
    let mut s = db.session(user);
    s.raise_label(&Label::from_tags(tags.iter().copied()))
        .unwrap();
    let before = db.engine().stats();
    let r = s
        .select(
            &Select::star("D").filter(
                Predicate::Ge("id".into(), Datum::Int(100))
                    .and(Predicate::Lt("id".into(), Datum::Int(120))),
            ),
        )
        .unwrap();
    let after = db.engine().stats();
    assert_eq!(r.len(), 20);
    assert_eq!(
        after.full_table_scans, before.full_table_scans,
        "a bounded primary-key range must use the index"
    );
    assert!(after.index_range_scans > before.index_range_scans);
    // Bounds that cross select nothing through the index.
    let crossed = Predicate::Ge("id".into(), Datum::Int(120))
        .and(Predicate::Le("id".into(), Datum::Int(100)));
    assert!(s
        .select(&Select::star("D").filter(crossed))
        .unwrap()
        .is_empty());
}

#[test]
fn view_pushdown_reaches_primary_key_index() {
    let (db, user, tags) = mixed_label_db();
    db.create_view(
        "Evens",
        ViewSource::Select(Select::star("D").filter(Predicate::Eq("grp".into(), Datum::Int(2)))),
    )
    .unwrap();
    let mut s = db.session(user);
    s.raise_label(&Label::from_tags(tags.iter().copied()))
        .unwrap();
    let before = db.engine().stats();
    let r = s
        .select(&Select::star("Evens").filter(Predicate::Eq("id".into(), Datum::Int(12))))
        .unwrap();
    let after = db.engine().stats();
    assert_eq!(r.len(), 1);
    assert_eq!(
        after.full_table_scans, before.full_table_scans,
        "a PK equality through a view must become a point lookup"
    );
    assert!(after.index_point_lookups > before.index_point_lookups);
}

#[test]
fn join_key_equality_propagates_to_both_sides() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("Users")
            .column("userid", DataType::Int)
            .column("name", DataType::Text)
            .primary_key(&["userid"]),
    )
    .unwrap();
    db.create_table(
        TableDef::new("Orders")
            .column("orderid", DataType::Int)
            .column("userid", DataType::Int)
            .primary_key(&["orderid"])
            .secondary_index("orders_userid", &["userid"]),
    )
    .unwrap();
    let mut s = db.session(user);
    for u in 0..50 {
        s.insert(&Insert::new(
            "Users",
            vec![Datum::Int(u), Datum::Text(format!("user{u}"))],
        ))
        .unwrap();
        for k in 0..4 {
            s.insert(&Insert::new(
                "Orders",
                vec![Datum::Int(u * 10 + k), Datum::Int(u)],
            ))
            .unwrap();
        }
    }
    let before = db.engine().stats();
    let join = Join::inner("Users", "Orders", ("userid", "userid"))
        .filter(Predicate::Eq("userid".into(), Datum::Int(3)));
    let r = s.select_join(&join).unwrap();
    let after = db.engine().stats();
    assert_eq!(r.len(), 4);
    assert_eq!(
        after.full_table_scans, before.full_table_scans,
        "pinning the join key must turn both sides into index lookups"
    );
    assert!(after.index_point_lookups >= before.index_point_lookups + 2);
}

#[test]
fn limit_without_order_stops_scan_early() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("Big")
            .column("id", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut s = db.session(user);
    s.begin().unwrap();
    for i in 0..1000 {
        s.insert(&Insert::new("Big", vec![Datum::Int(i)])).unwrap();
    }
    s.commit().unwrap();
    let before = db.engine().stats();
    let r = s.select(&Select::star("Big").take(3)).unwrap();
    let after = db.engine().stats();
    assert_eq!(r.len(), 3);
    assert!(
        after.tuples_scanned - before.tuples_scanned < 100,
        "LIMIT without ORDER BY must stop the scan early (scanned {})",
        after.tuples_scanned - before.tuples_scanned
    );
}

#[test]
fn session_stats_count_statements_and_label_syncs() {
    let (db, alice, _bob, alice_medical, _bm) = medical_db();
    let mut s = db.session(alice);
    s.select(&Select::star("HIVPatients")).unwrap();
    s.add_secrecy(alice_medical).unwrap();
    s.select(&Select::star("HIVPatients")).unwrap();
    s.select(&Select::star("HIVPatients")).unwrap();
    let stats = s.stats();
    assert_eq!(stats.statements, 3);
    assert_eq!(stats.label_syncs, 1, "only the label change forces a sync");
}

/// Statements through a declassifying view are counted, not chained: the
/// audit state they leave is O(1) however many run.
#[test]
fn declassifying_view_statements_are_counted_not_chained() {
    let db = Database::in_memory();
    let owner = db.create_principal("owner", PrincipalKind::User);
    let tag = db.create_tag(owner, "secret", &[]).unwrap();
    db.create_table(
        TableDef::new("S")
            .column("id", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut w = db.session(owner);
    w.add_secrecy(tag).unwrap();
    w.insert(&Insert::new("S", vec![Datum::Int(1)])).unwrap();
    db.create_declassifying_view(
        owner,
        "AllS",
        ViewSource::Select(Select::star("S")),
        Label::singleton(tag),
    )
    .unwrap();
    let chain = db.replay_audit();
    let counted = db.audit_counters().declassifications();
    let mut reader = db.anonymous_session();
    for _ in 0..1_000 {
        assert_eq!(reader.select(&Select::star("AllS")).unwrap().len(), 1);
    }
    assert_eq!(db.replay_audit(), chain);
    assert_eq!(db.audit_counters().declassifications(), counted + 1_000);
    assert_eq!(
        db.audit_counters()
            .get(ifdb_difc::audit::kind::DECLASSIFYING_VIEW),
        1_000
    );
}

/// The audit chain fails closed: while the log refuses appends, every
/// chained label and authority operation is refused and leaves no effect,
/// a closure unwind keeps the tag it could not log, and a commit refusal
/// fails with the append's error. A reopened database's chain verifies and
/// holds no link for any of them.
#[test]
fn a_refused_chain_append_refuses_the_operation() {
    use crate::catalog::StoredProcedure;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("ifdb-audit-closed-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let open = |recover: bool| {
        let b = Database::builder().on_disk(dir.clone(), 64).seed(0xA0D17);
        if recover { b.recover() } else { b }.build().unwrap()
    };
    let db = open(false);
    let alice = db.create_principal("alice", PrincipalKind::User);
    let bob = db.create_principal("bob", PrincipalKind::User);
    let t1 = db.create_tag(alice, "t1", &[]).unwrap();
    let t2 = db.create_tag(alice, "t2", &[]).unwrap();
    db.create_table(
        TableDef::new("R")
            .column("id", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let mut admin = db.session(alice);
    admin.delegate(bob, t2).unwrap();
    for id in 2..5 {
        admin
            .insert(&Insert::new("R", vec![Datum::Int(id)]))
            .unwrap();
    }
    let mut high = db.session(alice);
    high.add_secrecy(t1).unwrap();
    let mut writer = db.session(alice);
    writer.add_secrecy(t1).unwrap();
    writer.begin().unwrap();
    writer
        .insert(&Insert::new("R", vec![Datum::Int(1)]))
        .unwrap();
    writer.add_secrecy(t2).unwrap();
    let refusing = Arc::new(db.clone());
    let in_closure = refusing.clone();
    db.create_procedure(StoredProcedure {
        name: "raise_then_refuse".into(),
        authority: Some(alice),
        body: Arc::new(move |session, _args| {
            session.add_secrecy(t1)?;
            in_closure.inner.refuse_audit.store(true, Ordering::Relaxed);
            Ok(ResultSet::default())
        }),
    })
    .unwrap();

    // The closure's raise is chained; its unwind's declassification is not.
    let mut caller = db.session(bob);
    caller.call_procedure("raise_then_refuse", &[]).unwrap();
    assert_eq!(caller.label(), &Label::singleton(t1), "the unwind kept t1");
    let chained = db.replay_audit();
    assert!(matches!(
        chained.last(),
        Some(AuditEvent::LabelRaise { .. })
    ));

    let mut low = db.session(alice);
    assert!(low.add_secrecy(t1).is_err());
    assert!(low.raise_label(&Label::singleton(t2)).is_err());
    assert!(low.label().is_empty());
    assert!(high.declassify(t1).is_err());
    assert!(high.declassify_all(&Label::singleton(t1)).is_err());
    assert_eq!(high.label(), &Label::singleton(t1));
    assert!(admin.delegate(bob, t1).is_err());
    assert!(!db.session(bob).has_authority(t1));
    assert!(admin.revoke(bob, t2).is_err());
    assert!(db.session(bob).has_authority(t2));
    match writer.commit() {
        Err(IfdbError::Storage(_)) => {}
        other => panic!("a refused commit should fail with the append's error: {other:?}"),
    }
    assert!(!writer.in_transaction());
    low.set_execution_constraints(ExecutionConstraints::default().with_max_rows(1));
    match low.select(&Select::star("R")) {
        Err(IfdbError::Storage(_)) => {}
        other => panic!("a budget kill should fail with the append's error: {other:?}"),
    }

    refusing.inner.refuse_audit.store(false, Ordering::Relaxed);
    assert_eq!(db.replay_audit(), chained, "nothing refused was chained");
    db.verify_audit_chain().unwrap();
    drop((admin, high, writer, low, caller, refusing));
    db.engine().wal().sync().unwrap();
    drop(db);
    let db = open(true);
    db.verify_audit_chain().unwrap();
    assert_eq!(db.replay_audit(), chained);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// `t(k, v)` keyed by `k`, with `UNIQUE (v)`, holding `(1, 10)` and
/// `(2, 20)` written by an empty-labeled session of the returned principal.
fn keyed_db() -> (Database, PrincipalId) {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("t")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .primary_key(&["k"])
            .unique("t_v_key", &["v"]),
    )
    .unwrap();
    let mut s = db.session(user);
    for (k, v) in [(1, 10), (2, 20)] {
        s.insert(&Insert::new("t", vec![Datum::Int(k), Datum::Int(v)]))
            .unwrap();
    }
    (db, user)
}

fn keys_of(s: &mut Session) -> Vec<(i64, i64)> {
    let rows = s.select(&Select::star("t").order("k", Order::Asc)).unwrap();
    rows.iter()
        .map(|r| (r.get_int("k").unwrap(), r.get_int("v").unwrap()))
        .collect()
}

#[test]
fn an_update_that_duplicates_a_key_is_refused() {
    let (db, user) = keyed_db();
    let mut s = db.session(user);
    let k = |v| Predicate::Eq("k".into(), Datum::Int(v));
    match s.update(&Update::new("t", k(2), vec![("k", Datum::Int(1))])) {
        Err(IfdbError::UniqueViolation { constraint }) => assert_eq!(constraint, "t_pkey"),
        other => panic!("a duplicate primary key was not refused: {other:?}"),
    }
    match s.update(&Update::new("t", k(2), vec![("v", Datum::Int(10))])) {
        Err(IfdbError::UniqueViolation { constraint }) => assert_eq!(constraint, "t_v_key"),
        other => panic!("a duplicate UNIQUE value was not refused: {other:?}"),
    }
    // One statement giving two rows the same key fails on the second, and
    // the whole statement rolls back.
    let every = Predicate::Ge("k".into(), Datum::Int(0));
    assert!(matches!(
        s.update(&Update::new("t", every, vec![("k", Datum::Int(7))])),
        Err(IfdbError::UniqueViolation { .. })
    ));
    assert_eq!(keys_of(&mut s), vec![(1, 10), (2, 20)]);
    // A row keeps its own key, and takes a free one.
    assert_eq!(
        s.update(&Update::new(
            "t",
            k(1),
            vec![("k", Datum::Int(1)), ("v", Datum::Int(10))]
        ))
        .unwrap(),
        1
    );
    assert_eq!(
        s.update(&Update::new("t", k(2), vec![("k", Datum::Int(3))]))
            .unwrap(),
        1
    );
    assert_eq!(keys_of(&mut s), vec![(1, 10), (3, 20)]);
}

#[test]
fn an_update_may_take_a_key_only_an_invisible_row_holds() {
    let (db, user) = keyed_db();
    let tag = db.create_tag(user, "h", &[]).unwrap();
    let mut high = db.session(user);
    high.add_secrecy(tag).unwrap();
    high.insert(&Insert::new("t", vec![Datum::Int(5), Datum::Int(50)]))
        .unwrap();
    high.declassify(tag).unwrap();
    // The low writer cannot see (5, 50): refusing its update would tell it
    // the row exists, so the key is polyinstantiated, as for an insert.
    let mut low = db.session(user);
    let set = vec![("k", Datum::Int(5)), ("v", Datum::Int(50))];
    assert_eq!(
        low.update(&Update::new(
            "t",
            Predicate::Eq("k".into(), Datum::Int(2)),
            set.clone()
        ))
        .unwrap(),
        1
    );
    assert_eq!(keys_of(&mut low), vec![(1, 10), (5, 50)]);
    high.add_secrecy(tag).unwrap();
    assert_eq!(keys_of(&mut high), vec![(1, 10), (5, 50), (5, 50)]);
    // A writer that can see both may not make a third.
    assert!(matches!(
        high.insert(&Insert::new("t", vec![Datum::Int(5), Datum::Int(51)])),
        Err(IfdbError::UniqueViolation { .. })
    ));
}

#[test]
fn an_update_of_no_key_column_probes_no_index() {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    db.create_table(
        TableDef::new("t")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .column("w", DataType::Int)
            .primary_key(&["k"])
            .unique("t_v_key", &["v"]),
    )
    .unwrap();
    let mut s = db.session(user);
    s.insert(&Insert::new(
        "t",
        vec![Datum::Int(1), Datum::Int(10), Datum::Int(0)],
    ))
    .unwrap();
    let lookups = |db: &Database| db.engine().stats().index_point_lookups;
    let before = lookups(&db);
    let one = Predicate::Eq("k".into(), Datum::Int(1));
    s.update(&Update::new("t", one.clone(), vec![("w", Datum::Int(1))]))
        .unwrap();
    // The statement's own lookup of its row, and no probe.
    assert_eq!(lookups(&db) - before, 1);
    // A key column in the SET list is probed once per key it belongs to.
    let before = lookups(&db);
    s.update(&Update::new("t", one, vec![("v", Datum::Int(11))]))
        .unwrap();
    assert_eq!(lookups(&db) - before, 2);
}

/// `q(w, d, o, grp, cat, note)` keyed by `(w, d, o)`, with an index on
/// `(grp, cat)`, under four labels: rows at every label interleaved in key
/// order, some updated (leaving superseded versions under the same key),
/// some deleted, one aborted, and a writer holding an insert and a delete
/// uncommitted.
fn ordered_db() -> (Database, PrincipalId, Vec<Label>, Session) {
    let db = Database::in_memory();
    let user = db.create_principal("u", PrincipalKind::User);
    let a = db.create_tag(user, "a", &[]).unwrap();
    let b = db.create_tag(user, "b", &[]).unwrap();
    db.create_table(
        TableDef::new("q")
            .column("w", DataType::Int)
            .column("d", DataType::Int)
            .column("o", DataType::Int)
            .column("grp", DataType::Int)
            .column("cat", DataType::Int)
            .column("note", DataType::Text)
            .primary_key(&["w", "d", "o"])
            .secondary_index("q_grp_cat", &["grp", "cat"]),
    )
    .unwrap();
    let labels = vec![
        Label::empty(),
        Label::singleton(a),
        Label::singleton(b),
        Label::from_tags([a, b]),
    ];
    let session_at = |label: &Label| {
        let mut s = db.session(user);
        s.raise_label(label).unwrap();
        s
    };
    let key = |w: i64, d: i64, o: i64| {
        Predicate::Eq("w".into(), Datum::Int(w))
            .and(Predicate::Eq("d".into(), Datum::Int(d)))
            .and(Predicate::Eq("o".into(), Datum::Int(o)))
    };
    for o in 1..=120i64 {
        // The label cycles with an odd stride, so runs of rows a reader
        // cannot see lie between the rows it can.
        let label = &labels[(o * 7 / 3) as usize % 4];
        let mut s = session_at(label);
        for (w, d) in [(1, 1), (1, 2), (2, 1)] {
            let note = if o % 5 == 0 { "skip" } else { "keep" };
            s.insert(&Insert::new(
                "q",
                vec![
                    Datum::Int(w),
                    Datum::Int(d),
                    Datum::Int(o),
                    Datum::Int(o % 3),
                    Datum::Int(o % 4),
                    Datum::from(note),
                ],
            ))
            .unwrap();
        }
        if o % 4 == 1 {
            s.update(&Update::new(
                "q",
                key(1, 1, o),
                vec![("note", Datum::from("moved"))],
            ))
            .unwrap();
        }
        if o % 6 == 2 {
            s.delete(&Delete::new("q", key(1, 1, o))).unwrap();
        }
        if o % 9 == 4 {
            s.begin().unwrap();
            s.insert(&Insert::new(
                "q",
                vec![
                    Datum::Int(1),
                    Datum::Int(1),
                    Datum::Int(1_000 + o),
                    Datum::Int(0),
                    Datum::Int(0),
                    Datum::from("aborted"),
                ],
            ))
            .unwrap();
            s.abort().unwrap();
        }
    }
    let mut writer = session_at(&Label::empty());
    writer.begin().unwrap();
    writer
        .insert(&Insert::new(
            "q",
            vec![
                Datum::Int(1),
                Datum::Int(1),
                Datum::Int(0),
                Datum::Int(0),
                Datum::Int(0),
                Datum::from("in flight"),
            ],
        ))
        .unwrap();
    writer.delete(&Delete::new("q", key(1, 1, 3))).unwrap();
    (db, user, labels, writer)
}

fn rendered(rows: &ResultSet) -> Vec<String> {
    rows.iter()
        .map(|r| format!("{:?} {}", r.values, r.label))
        .collect()
}

#[test]
fn an_index_ordered_limit_returns_what_sort_then_truncate_returns() {
    let (db, user, labels, writer) = ordered_db();
    let eq = |c: &str, v| Predicate::Eq(c.into(), Datum::Int(v));
    let keep = Predicate::Ne("note".into(), Datum::from("skip"));
    for label in &labels {
        let mut s = db.session(user);
        s.raise_label(label).unwrap();
        for limit in [0, 1, 2, 5, 40, 500] {
            // On the primary key the order column is unique under one
            // label, so the reference executor's sort of a heap walk
            // gives the one right answer.
            for q in [
                Select::star("q").filter(eq("w", 1).and(eq("d", 1))),
                Select::star("q").filter(eq("w", 1).and(eq("d", 1)).and(keep.clone())),
                Select::star("q")
                    .filter(eq("w", 1).and(eq("d", 2)))
                    .with_exact_label(label.clone()),
            ] {
                let q = q.order("o", Order::Asc).take(limit);
                let before = db.engine().stats();
                let got = s.select(&q).unwrap();
                let after = db.engine().stats();
                assert_eq!(after.full_table_scans, before.full_table_scans);
                assert_eq!(after.index_range_scans - before.index_range_scans, 1);
                assert_eq!(
                    rendered(&got),
                    rendered(&s.select_reference(&q).unwrap()),
                    "{q:?} under {label}"
                );
            }
            // On `(grp, cat)`, `cat` has ties: the limited result is the
            // head of the whole ordered result, which is sorted, and holds
            // what the reference executor's does.
            for grp in 0..3 {
                let q = Select::star("q")
                    .filter(eq("grp", grp).and(keep.clone()))
                    .order("cat", Order::Asc);
                let whole = rendered(&s.select(&q).unwrap());
                let cats: Vec<i64> = s
                    .select(&q)
                    .unwrap()
                    .iter()
                    .map(|r| r.get_int("cat").unwrap())
                    .collect();
                assert!(cats.windows(2).all(|p| p[0] <= p[1]), "{cats:?}");
                let mut reference = rendered(&s.select_reference(&q).unwrap());
                let mut sorted = whole.clone();
                reference.sort();
                sorted.sort();
                assert_eq!(sorted, reference, "{q:?} under {label}");
                let head = rendered(&s.select(&q.clone().take(limit)).unwrap());
                assert_eq!(head, whole[..limit.min(whole.len())], "{q:?} under {label}");
            }
        }
    }
    drop(writer);
}

#[test]
fn an_index_ordered_limit_stops_after_the_rows_it_returns() {
    let (db, user, labels, _writer) = ordered_db();
    let mut s = db.session(user);
    s.raise_label(&labels[1]).unwrap();
    let pending = Select::star("q")
        .filter(
            Predicate::Eq("w".into(), Datum::Int(2)).and(Predicate::Eq("d".into(), Datum::Int(1))),
        )
        .order("o", Order::Asc);
    let all = s.select(&pending).unwrap();
    let first = all.first().unwrap().get_int("o").unwrap();
    // Rows `{a}` cannot read come before the first row it can, and are
    // fetched and passed over; nothing after that row is fetched.
    assert!(first > 1, "the reader can read the first row");
    let fetched = |s: &mut Session, q: &Select| {
        let before = db.engine().stats().index_rows_fetched;
        let rows = s.select(q).unwrap();
        (rows, db.engine().stats().index_rows_fetched - before)
    };
    let (one, cost) = fetched(&mut s, &pending.clone().take(1));
    assert_eq!(one.first().unwrap().get_int("o"), Some(first));
    assert_eq!(cost, first as u64);
    // A descending order is sorted after the whole prefix is read.
    let (_, cost) = fetched(&mut s, &pending.clone().order("o", Order::Desc).take(1));
    assert_eq!(cost, 120);
}
