//! The application platform speaking the real wire protocol: the CarTel app
//! is built in-process, then its scripts are served by an
//! [`ifdb_platform::AppServer`] whose every request runs over pooled
//! `ifdb-client` connections to a real `ifdb-server`.

use std::sync::Arc;
use std::time::Duration;

use ifdb_cartel::{scripts, CartelApp, CartelConfig};
use ifdb_platform::httpsim::{ClosedLoopDriver, DriverConfig};
use ifdb_platform::webserver::ServerConfig as WebConfig;
use ifdb_platform::{AppServer, Request};
use ifdb_server::{start, ServerConfig};

const SECRET: &str = "cartel-platform-secret";

fn networked_cartel() -> (CartelApp, Arc<AppServer>, ifdb_server::ServerHandle) {
    let app = CartelApp::build(&CartelConfig {
        users: 4,
        cars_per_user: 1,
        measurements_per_car: 20,
        ..CartelConfig::default()
    });
    let handle = start(
        app.db.clone(),
        app.server.auth_handle(),
        ServerConfig {
            platform_secret: Some(SECRET.into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let net_server = Arc::new(AppServer::networked(
        app.db.clone(),
        app.server.auth_handle(),
        WebConfig::default(),
        &handle.addr().to_string(),
        SECRET,
    ));
    assert!(net_server.is_networked());
    scripts::register_scripts(&net_server, app.policy.clone());
    (app, net_server, handle)
}

#[test]
fn cartel_scripts_run_over_the_wire() {
    let (app, server, handle) = networked_cartel();
    let users = app.policy.users();
    let alice = &users[0];
    let bob = &users[1];

    // cars.php: the owner sees their car's declassified location.
    let resp = server.handle(&Request::new("cars.php").as_user(&alice.username));
    assert!(resp.is_ok(), "cars.php failed: {:?}", resp.error);
    assert!(!resp.body.is_empty(), "owner sees their own cars");

    // drives.php for a stranger's drives: the declassify fails server-side
    // (no authority over the wire either) and the gate never releases.
    let resp = server.handle(
        &Request::new("drives.php")
            .as_user(&alice.username)
            .param("user", &bob.username),
    );
    assert!(!resp.is_ok(), "stranger's drives must not be released");
    assert!(resp.body.is_empty());

    // friends.php?add=…: insert + delegation over the wire. Afterwards the
    // friend can view the drives.
    let resp = server.handle(
        &Request::new("friends.php")
            .as_user(&bob.username)
            .param("add", &alice.username),
    );
    assert!(resp.is_ok(), "friends.php failed: {:?}", resp.error);
    let resp = server.handle(
        &Request::new("drives.php")
            .as_user(&alice.username)
            .param("user", &bob.username),
    );
    assert!(
        resp.is_ok(),
        "delegated drives view failed: {:?}",
        resp.error
    );

    // drives_top.php: a stored authority closure, executed inside the
    // server, its declassified aggregate released through the gate.
    let resp = server.handle(&Request::new("drives_top.php").as_user(&alice.username));
    assert!(resp.is_ok(), "drives_top.php failed: {:?}", resp.error);
    assert!(!resp.body.is_empty());

    // Unauthenticated requests act as the anonymous principal.
    let resp = server.handle(&Request::new("cars.php"));
    assert!(!resp.is_ok());

    // In-process and networked deployments agree on the released output.
    let local = app
        .server
        .handle(&Request::new("cars.php").as_user(&alice.username));
    let remote = server.handle(&Request::new("cars.php").as_user(&alice.username));
    assert_eq!(local.body, remote.body);

    handle.shutdown();
}

#[test]
fn closed_loop_wips_runs_through_the_network() {
    let (app, server, handle) = networked_cartel();
    let users: Vec<String> = app
        .policy
        .users()
        .iter()
        .map(|u| u.username.clone())
        .collect();
    let driver = ClosedLoopDriver::new(server.clone(), |script, user, _rng| {
        Request::new(script).as_user(user)
    });
    let report = driver.run(&DriverConfig {
        clients: 4,
        duration: Duration::from_millis(400),
        mix: vec![(0.7, "get_cars.php".into()), (0.3, "cars.php".into())],
        users,
        seed: 17,
    });
    assert!(report.completed > 10, "network WIPS > 0: {report:?}");
    assert_eq!(report.failed, 0, "all requests succeed: {report:?}");
    // Steady state: every request reuses pooled connections and cached
    // statement templates.
    let stats = handle.stats();
    assert!(
        stats.stmt_cache_hit_rate() > 0.9,
        "steady-state hit rate: {stats:?}"
    );
    handle.shutdown();
}
