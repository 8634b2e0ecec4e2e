//! Engine-level tests exercising the paper's scenarios.

use crate::prelude::*;
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
    assert!(!db.audit().is_empty());
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
        .walk::<ifdb_storage::StorageError>(|_, label, _| {
            match label {
                None => shared += 1,
                Some(_) => chained += 1,
            }
            Ok(true)
        })
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

    let mut reader = db.session(user);
    reader
        .raise_label(&Label::from_tags(tags[..8].iter().copied()))
        .unwrap();
    let before = db.engine().stats();
    let rows = reader.select(&Select::star("D")).unwrap();
    let after = db.engine().stats();
    assert_eq!(rows.len() as i64, 8 * PER_LABEL);
    let checks = after.label_checks - before.label_checks;
    let pages = after.label_page_checks - before.label_page_checks;
    assert_eq!(checks, shared as u64);
    let heap_pages = db.engine().table_by_name("D").unwrap().heap().page_count();
    assert!(
        pages > 0 && pages < heap_pages as u64,
        "{pages} page decisions"
    );
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
