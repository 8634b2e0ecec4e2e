//! Concurrent smoke test: N threads of labeled reads, writes and
//! declassifying-view queries against one shared `Database`.
//!
//! The streaming executor takes the authority lock only to build a scan's
//! declassify cover, never across the scan, so concurrent sessions must not
//! deadlock even while some of them mutate the authority state. Each thread
//! asserts its own reads are correct under Query by Label, and an explicit
//! transaction checks snapshot consistency while the other threads write.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use ifdb_repro::difc::Label;
use ifdb_repro::ifdb::prelude::*;
use ifdb_repro::ifdb::{DatabaseConfig, TableDef, ViewSource};

const THREADS: usize = 6;
const ITERS: i64 = 40;

struct Fixture {
    db: Database,
    users: Vec<(PrincipalId, TagId)>,
}

fn fixture() -> Fixture {
    let db = Database::in_memory();
    let service = db.create_principal("service", PrincipalKind::Service);
    let all_events = db.create_compound_tag(service, "all_events", &[]).unwrap();
    let users: Vec<(PrincipalId, TagId)> = (0..THREADS)
        .map(|i| {
            let p = db.create_principal(&format!("user{i}"), PrincipalKind::User);
            let t = db
                .create_tag(p, &format!("user{i}_events"), &[all_events])
                .unwrap();
            (p, t)
        })
        .collect();
    db.create_table(
        TableDef::new("Events")
            .column("id", DataType::Int)
            .column("owner", DataType::Int)
            .column("v", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    // The service owns the compound enclosing every per-user tag, so it can
    // create a view that declassifies all of them at once.
    db.create_declassifying_view(
        service,
        "PublicEvents",
        ViewSource::Select(Select::star("Events").project(&["id", "owner"])),
        Label::singleton(all_events),
    )
    .unwrap();
    Fixture { db, users }
}

fn worker(fx: Arc<Fixture>, me: usize) {
    let (principal, tag) = fx.users[me];
    let my_label = Label::singleton(tag);
    for i in 0..ITERS {
        let id = (me as i64) * 1_000_000 + i;
        // Write under this thread's label.
        let mut w = fx.db.session(principal);
        w.add_secrecy(tag).unwrap();
        w.insert(&Insert::new(
            "Events",
            vec![Datum::Int(id), Datum::Int(me as i64), Datum::Int(i)],
        ))
        .unwrap();

        // Read back own rows: Query by Label admits exactly this thread's
        // population for a {tag}-labeled reader.
        let mut r = fx.db.session(principal);
        r.add_secrecy(tag).unwrap();
        let mine = r
            .select(
                &Select::star("Events")
                    .filter(Predicate::Eq("owner".into(), Datum::Int(me as i64))),
            )
            .unwrap();
        assert_eq!(
            mine.len(),
            (i + 1) as usize,
            "thread {me} sees exactly its own inserts so far"
        );
        for row in mine.iter() {
            assert_eq!(row.label, my_label);
        }
        // A PK point read must find the row just written.
        let point = r
            .select(&Select::star("Events").filter(Predicate::Eq("id".into(), Datum::Int(id))))
            .unwrap();
        assert_eq!(point.len(), 1);

        // The declassifying view exposes stripped rows to an uncontaminated
        // session; it must see at least this thread's committed rows.
        if i % 8 == 3 {
            let mut anon = fx.db.anonymous_session();
            let public = anon
                .select(
                    &Select::star("PublicEvents")
                        .filter(Predicate::Eq("owner".into(), Datum::Int(me as i64))),
                )
                .unwrap();
            assert!(public.len() >= (i + 1) as usize);
            for row in public.iter() {
                assert!(row.label.is_empty(), "view strips every member tag");
            }
            assert!(anon.check_release_to_world().is_ok());
        }

        // Snapshot consistency: inside one explicit transaction, repeated
        // aggregate counts agree even while other threads commit inserts.
        if i % 8 == 6 {
            let mut t = fx.db.session(principal);
            t.add_secrecy(tag).unwrap();
            t.begin().unwrap();
            let count =
                |s: &mut Session| -> usize { s.select(&Select::star("Events")).unwrap().len() };
            let first = count(&mut t);
            thread::sleep(Duration::from_millis(1));
            let second = count(&mut t);
            assert_eq!(first, second, "snapshot must not move inside a txn");
            t.commit().unwrap();
        }
    }
}

#[test]
fn concurrent_sessions_do_not_deadlock_and_stay_consistent() {
    let fx = Arc::new(fixture());
    let (tx, rx) = mpsc::channel();
    let mut handles = Vec::new();
    for me in 0..THREADS {
        let fx = fx.clone();
        let tx = tx.clone();
        handles.push(thread::spawn(move || {
            worker(fx, me);
            tx.send(me).unwrap();
        }));
    }
    drop(tx);
    // Watchdog: a deadlocked executor shows up as a receive timeout instead
    // of a hung test suite.
    for _ in 0..THREADS {
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a worker thread deadlocked or panicked");
    }
    for h in handles {
        h.join().expect("worker panicked");
    }

    // Final state: every thread's full population, visible to an all-seeing
    // reader through the declassifying view.
    let mut anon = fx.db.anonymous_session();
    let all = anon.select(&Select::star("PublicEvents")).unwrap();
    assert_eq!(all.len(), THREADS * ITERS as usize);
}

/// Scanners race updaters of the same pages on an on-disk engine whose pool
/// is far smaller than the table. A scan reads each page on a pin, outside
/// the pool lock, so while it does, writers patch and extend that page (on a
/// copy, the original being pinned) and the pool evicts and re-reads it.
/// Every transfer moves balance between two accounts in one transaction, so
/// a scan that mixed two states of a page — or of the table — would see the
/// total move.
#[test]
fn scans_stay_snapshot_consistent_while_pages_are_rewritten_and_evicted() {
    const ACCOUNTS: i64 = 120;
    const UPDATERS: i64 = 3;
    const SCANNERS: usize = 3;
    const TRANSFERS: i64 = 60;
    const TOTAL: i64 = ACCOUNTS * 1_000;

    for buffer_pages in [2, 4, 8] {
        let dir = std::env::temp_dir().join(format!(
            "ifdb-scan-race-{}-{buffer_pages}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::builder()
            .config(DatabaseConfig::on_disk(dir.clone(), buffer_pages))
            .build()
            .unwrap();
        let user = db.create_principal("bank", PrincipalKind::User);
        db.create_table(
            TableDef::new("Acct")
                .column("id", DataType::Int)
                .column("bal", DataType::Int)
                .column("pad", DataType::Text)
                .primary_key(&["id"]),
        )
        .unwrap();
        let mut loader = db.session(user);
        loader.begin().unwrap();
        for id in 0..ACCOUNTS {
            let row = vec![Datum::Int(id), Datum::Int(1_000), "p".repeat(300).into()];
            loader.insert(&Insert::new("Acct", row)).unwrap();
        }
        loader.commit().unwrap();

        let start = Arc::new(Barrier::new(UPDATERS as usize + SCANNERS));
        /// Counts an updater out when its thread ends, however it ends, so
        /// the scanners never wait on one that panicked.
        struct Leaving(Arc<AtomicUsize>);
        impl Drop for Leaving {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let updating = Arc::new(AtomicUsize::new(UPDATERS as usize));
        let (done, finished) = mpsc::channel();
        let mut handles = Vec::new();
        // Updater `u` owns the accounts with `id % UPDATERS == u`: updaters
        // share pages but never a row, so none of them conflicts.
        for u in 0..UPDATERS {
            let (db, start, done) = (db.clone(), start.clone(), done.clone());
            let leaving = Leaving(updating.clone());
            handles.push(thread::spawn(move || {
                let _leaving = leaving;
                let by_id = |id: i64| Predicate::Eq("id".into(), Datum::Int(id));
                let mut s = db.session(user);
                start.wait();
                for i in 0..TRANSFERS {
                    let owned = ACCOUNTS / UPDATERS;
                    let from = u + UPDATERS * (i % owned);
                    let to = u + UPDATERS * ((i * 7 + 1) % owned);
                    if from == to {
                        continue;
                    }
                    s.begin().unwrap();
                    for (id, delta) in [(from, -5), (to, 5)] {
                        let bal = s.select(&Select::star("Acct").filter(by_id(id))).unwrap();
                        let bal = bal.iter().next().unwrap().values[1].as_int().unwrap();
                        let set = vec![("bal", Datum::Int(bal + delta))];
                        assert_eq!(s.update(&Update::new("Acct", by_id(id), set)).unwrap(), 1);
                    }
                    s.commit().unwrap();
                }
                done.send(()).unwrap();
            }));
        }
        for _ in 0..SCANNERS {
            let (db, start, done) = (db.clone(), start.clone(), done.clone());
            let updating = updating.clone();
            handles.push(thread::spawn(move || {
                let mut s = db.session(user);
                start.wait();
                let mut scans = 0;
                while updating.load(Ordering::SeqCst) > 0 || scans < 3 {
                    let rows = s.select(&Select::star("Acct")).unwrap();
                    assert_eq!(rows.len() as i64, ACCOUNTS);
                    let total: i64 = rows.iter().map(|r| r.values[1].as_int().unwrap()).sum();
                    assert_eq!(total, TOTAL, "a scan saw a transfer half-applied");
                    scans += 1;
                }
                done.send(()).unwrap();
            }));
        }
        drop(done);
        // Watchdog, as above: a hang is a timeout, not a stuck suite.
        for _ in 0..UPDATERS as usize + SCANNERS {
            finished
                .recv_timeout(Duration::from_secs(120))
                .expect("a thread deadlocked or panicked");
        }
        for h in handles {
            h.join().expect("thread panicked");
        }
        let stats = db.engine().stats();
        assert!(
            stats.evictions > 0,
            "{buffer_pages} pages held the table: {stats:?}"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
