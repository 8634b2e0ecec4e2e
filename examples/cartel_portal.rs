//! The CarTel case study end to end: build a deployment, ingest GPS traces,
//! and exercise the web portal, including the security bugs that IFDB
//! prevents (Section 6.1).
//!
//! Run with: `cargo run --example cartel_portal`

use ifdb_repro::cartel::{CartelApp, CartelConfig};
use ifdb_repro::difc::audit::AuditEvent;
use ifdb_repro::platform::Request;

fn main() {
    let app = CartelApp::build(&CartelConfig {
        users: 4,
        cars_per_user: 2,
        measurements_per_car: 60,
        ..Default::default()
    });
    let alice = app.policy.users()[0].clone();
    let bob = app.policy.users()[1].clone();

    println!("== {} views her own pages ==", alice.username);
    for script in ["cars.php", "drives.php", "drives_top.php"] {
        let resp = app.server.handle(
            &Request::new(script)
                .as_user(&alice.username)
                .param("user", &alice.username),
        );
        println!("{script}: {} line(s)", resp.body.len());
        for line in resp.body.iter().take(3) {
            println!("   {line}");
        }
    }

    println!();
    println!(
        "== URL manipulation: {} requests {}'s drives ==",
        alice.username, bob.username
    );
    let resp = app.server.handle(
        &Request::new("drives.php")
            .as_user(&alice.username)
            .param("user", &bob.username),
    );
    println!("body: {:?} (error: {:?})", resp.body, resp.error);
    assert!(resp.body.is_empty(), "non-friend drives must not leak");

    println!();
    println!(
        "== {} adds {} as a friend (delegation) ==",
        bob.username, alice.username
    );
    app.server.handle(
        &Request::new("friends.php")
            .as_user(&bob.username)
            .param("add", &alice.username),
    );
    let resp = app.server.handle(
        &Request::new("drives.php")
            .as_user(&alice.username)
            .param("user", &bob.username),
    );
    println!(
        "after delegation Alice sees {} of Bob's drives",
        resp.body.len()
    );

    println!();
    println!("== unauthenticated request (the missing-auth bug) ==");
    let resp = app.server.handle(&Request::new("cars.php"));
    println!("body: {:?} (error: {:?})", resp.body, resp.error);
    assert!(resp.body.is_empty());

    println!();
    // Scripts declassify explicitly (chained in the audit trail) and
    // through declassifying views (counted per statement).
    let chained = app
        .db
        .replay_audit()
        .into_iter()
        .filter(|e| matches!(e, AuditEvent::Declassify { .. }))
        .count();
    println!(
        "audited declassifications so far: {chained} chained, {} through views",
        app.db.audit_counters().declassifications()
    );
    println!(
        "trusted catalog objects: {}",
        app.db.trusted_component_count()
    );
}
