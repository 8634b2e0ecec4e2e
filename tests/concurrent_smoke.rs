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
use ifdb_repro::ifdb::{DatabaseConfig, StorageError, TableDef, ViewSource};

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

/// Runs `body` as one explicit transaction, retrying it from the start
/// whenever first-updater-wins refuses it; returns how many tries conflicted.
fn retry_on_conflict(s: &mut Session, mut body: impl FnMut(&mut Session) -> IfdbResult<()>) -> u64 {
    let mut conflicts = 0;
    loop {
        s.begin().unwrap();
        match body(s).and_then(|()| s.commit()) {
            Ok(()) => return conflicts,
            Err(IfdbError::Storage(StorageError::WriteConflict { .. })) => {
                if s.in_transaction() {
                    s.abort().unwrap();
                }
                conflicts += 1;
            }
            Err(e) => panic!("{e}"),
        }
    }
}

/// Reads the `bal` of account `id` and writes it back moved by `delta`.
fn add_to_balance(s: &mut Session, table: &str, id: i64, delta: i64) -> IfdbResult<()> {
    let by_id = Predicate::Eq("id".into(), Datum::Int(id));
    let rows = s.select(&Select::star(table).filter(by_id.clone()))?;
    let bal = rows.iter().next().unwrap().values[1].as_int().unwrap();
    let set = vec![("bal", Datum::Int(bal + delta))];
    assert_eq!(s.update(&Update::new(table, by_id, set))?, 1);
    Ok(())
}

/// Scanners race updaters of the same pages on an on-disk engine whose pool
/// is far smaller than the table. A scan reads each page on a pin, outside
/// the pool lock, so while it does, writers patch and extend that page (on a
/// copy, the original being pinned) and the pool evicts and re-reads it.
/// Every transfer moves balance between two accounts in one transaction, so
/// a scan that mixed two states of a page — or of the table — would see the
/// total move. The updaters share a handful of hot accounts spread over the
/// table, so they collide on rows, not only on pages: the loser of a
/// collision is refused and retries, and a lost update would move the total
/// too.
#[test]
fn scans_stay_snapshot_consistent_while_pages_are_rewritten_and_evicted() {
    const ACCOUNTS: i64 = 120;
    const HOT: i64 = 10;
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
        for u in 0..UPDATERS {
            let (db, start, done) = (db.clone(), start.clone(), done.clone());
            let leaving = Leaving(updating.clone());
            handles.push(thread::spawn(move || {
                let _leaving = leaving;
                let hot = |k: i64| (k % HOT) * (ACCOUNTS / HOT);
                let mut s = db.session(user);
                start.wait();
                for i in 0..TRANSFERS {
                    let (from, to) = (hot(i), hot(i + 1 + u));
                    retry_on_conflict(&mut s, |s| {
                        add_to_balance(s, "Acct", from, -5)?;
                        add_to_balance(s, "Acct", to, 5)
                    });
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
        let rows = db.session(user).select(&Select::star("Acct")).unwrap();
        let total: i64 = rows.iter().map(|r| r.values[1].as_int().unwrap()).sum();
        assert_eq!(total, TOTAL, "a committed transfer was lost");
        let stats = db.engine().stats();
        assert!(
            stats.evictions > 0,
            "{buffer_pages} pages held the table: {stats:?}"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Lost updates, head on: threads increment one counter row, each increment
/// a read-then-write transaction retried whenever first-updater-wins
/// refuses it. Every increment that committed must have landed, so the
/// final value is exactly the number of commits.
#[test]
fn hot_row_increments_are_never_lost() {
    const INCREMENTERS: usize = 8;
    const INCREMENTS: i64 = 150;
    let db = Database::in_memory();
    let user = db.create_principal("counter", PrincipalKind::User);
    db.create_table(
        TableDef::new("Counter")
            .column("id", DataType::Int)
            .column("bal", DataType::Int)
            .primary_key(&["id"]),
    )
    .unwrap();
    let row = vec![Datum::Int(0), Datum::Int(0)];
    db.session(user)
        .insert(&Insert::new("Counter", row))
        .unwrap();

    let start = Arc::new(Barrier::new(INCREMENTERS));
    let (done, finished) = mpsc::channel();
    let handles: Vec<_> = (0..INCREMENTERS)
        .map(|_| {
            let (db, start, done) = (db.clone(), start.clone(), done.clone());
            thread::spawn(move || {
                let mut s = db.session(user);
                start.wait();
                let conflicts: u64 = (0..INCREMENTS)
                    .map(|_| retry_on_conflict(&mut s, |s| add_to_balance(s, "Counter", 0, 1)))
                    .sum();
                done.send(conflicts).unwrap();
            })
        })
        .collect();
    drop(done);
    let mut conflicts = 0;
    for _ in 0..INCREMENTERS {
        conflicts += finished
            .recv_timeout(Duration::from_secs(120))
            .expect("an incrementer deadlocked or panicked");
    }
    for h in handles {
        h.join().expect("incrementer panicked");
    }
    let rows = db.session(user).select(&Select::star("Counter")).unwrap();
    assert_eq!(
        rows.iter().next().unwrap().values[1].as_int(),
        Some(INCREMENTERS as i64 * INCREMENTS),
        "increments were lost ({conflicts} conflicting tries were retried)"
    );
}
