//! A primary server in a separate, killable process.
//!
//! Graceful shutdown is not a crash: an in-parent `ServerHandle::shutdown`
//! runs destructors, flushes buffers and closes sockets politely. The
//! durability invariant ("no acked commit is lost") is only meaningful
//! against `SIGABRT` — the process dies mid-whatever with no cleanup, and
//! whatever was acknowledged must still be on the surviving replica.
//!
//! The child is the test binary itself re-executed: [`ChildPrimary::spawn`]
//! launches `current_exe() --exact child_primary_main`, and the test file
//! must define that test as a one-liner:
//!
//! ```ignore
//! #[test]
//! fn child_primary_main() {
//!     ifdb_chaos::child::run_child_from_env();
//! }
//! ```
//!
//! Run normally (no [`ENV_ROLE`] in the environment) the test is a no-op.
//! Run as a spawned child it builds the standard chaos fixture
//! ([`crate::cluster::build_primary_fixture`]), serves it with replication
//! and the requested semi-sync window, writes its address to the
//! parent-named file, and parks forever — until the parent kills it.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ifdb_server::{start, ServerConfig};

use crate::cluster::{build_primary_fixture, REPL_SECRET};

/// Marks the process as a chaos child; value is the role (only
/// `"primary"` today).
pub const ENV_ROLE: &str = "IFDB_CHAOS_CHILD";
/// File the child writes its listen address to.
pub const ENV_ADDR_FILE: &str = "IFDB_CHAOS_ADDR_FILE";
/// The authority seed (decimal u64).
pub const ENV_SEED: &str = "IFDB_CHAOS_SEED_U64";
/// Semi-sync window in milliseconds; 0 or absent = asynchronous.
pub const ENV_SYNC_MS: &str = "IFDB_CHAOS_SYNC_MS";

/// The child-process entry point; see the module docs. Returns `false`
/// immediately when the process is not a spawned chaos child (the normal
/// test run), and never returns otherwise.
pub fn run_child_from_env() -> bool {
    let Ok(role) = std::env::var(ENV_ROLE) else {
        return false;
    };
    assert_eq!(role, "primary", "unknown chaos child role {role:?}");
    let addr_file = std::env::var(ENV_ADDR_FILE).expect("chaos child needs an address file");
    let seed: u64 = std::env::var(ENV_SEED)
        .expect("chaos child needs a seed")
        .parse()
        .expect("seed must be a u64");
    let sync_ms: u64 = std::env::var(ENV_SYNC_MS)
        .unwrap_or_default()
        .parse()
        .unwrap_or(0);

    let fixture = build_primary_fixture(seed);
    let server = start(
        fixture.db.clone(),
        fixture.auth.clone(),
        ServerConfig {
            workers: 8,
            replication_secret: Some(REPL_SECRET.into()),
            sync_replication: (sync_ms > 0).then(|| Duration::from_millis(sync_ms)),
            ..ServerConfig::default()
        },
    )
    .expect("chaos child server");

    // Write-then-rename so the parent never reads a half-written address.
    let tmp = format!("{addr_file}.tmp");
    std::fs::write(&tmp, server.addr().to_string()).expect("write address file");
    std::fs::rename(&tmp, &addr_file).expect("publish address file");

    loop {
        std::thread::park();
    }
}

/// A spawned child primary.
pub struct ChildPrimary {
    child: Mutex<Child>,
    killed: AtomicBool,
    addr: String,
    addr_file: PathBuf,
}

impl ChildPrimary {
    /// Spawns the current test binary as a child primary and waits for it
    /// to publish its address. `sync_replication` maps to
    /// `ServerConfig::sync_replication` in the child.
    pub fn spawn(seed: u64, sync_replication: Option<Duration>) -> std::io::Result<ChildPrimary> {
        let exe = std::env::current_exe()?;
        let addr_file = std::env::temp_dir().join(format!(
            "ifdb-chaos-addr-{}-{seed}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or_default()
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut child = Command::new(exe)
            .args([
                "--exact",
                "child_primary_main",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(ENV_ROLE, "primary")
            .env(ENV_ADDR_FILE, &addr_file)
            .env(ENV_SEED, seed.to_string())
            .env(
                ENV_SYNC_MS,
                sync_replication
                    .map_or(0, |d| d.as_millis() as u64)
                    .to_string(),
            )
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;

        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                let addr = addr.trim().to_string();
                if !addr.is_empty() {
                    break addr;
                }
            }
            if let Some(status) = child.try_wait()? {
                return Err(std::io::Error::other(format!(
                    "chaos child exited before publishing its address: {status}"
                )));
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(
                    "chaos child did not publish its address in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        Ok(ChildPrimary {
            child: Mutex::new(child),
            killed: AtomicBool::new(false),
            addr,
            addr_file,
        })
    }

    /// The child server's listen address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Kills the child with `SIGABRT` — no destructors, no flushes — and
    /// reaps it. Idempotent.
    pub fn kill_abrt(&self) {
        if self.killed.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut child = self.child.lock().expect("child handle");
        let pid = child.id().to_string();
        let aborted = Command::new("kill")
            .args(["-ABRT", &pid])
            .status()
            .map(|s| s.success())
            .unwrap_or(false);
        if !aborted {
            // No `kill` binary (or it failed): fall back to SIGKILL, which
            // is an even less polite death.
            let _ = child.kill();
        }
        let _ = child.wait();
    }

    /// Whether the child process is still running.
    pub fn alive(&self) -> bool {
        if self.killed.load(Ordering::Acquire) {
            return false;
        }
        matches!(
            self.child.lock().expect("child handle").try_wait(),
            Ok(None)
        )
    }
}

impl Drop for ChildPrimary {
    fn drop(&mut self) {
        if !self.killed.swap(true, Ordering::AcqRel) {
            let mut child = self.child.lock().expect("child handle");
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.addr_file);
    }
}
