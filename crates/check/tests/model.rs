//! Engine tests for the model checker itself: positive properties are
//! proven schedule-exhaustively, and each seeded mutant is caught by the
//! exact detector that owns it, with a replayable certificate.

use morph_check::sync::{AtomicCell, Mutex, RaceCell};
use morph_check::{explore, explore_replay, Config, ViolationKind};

fn cfg() -> Config {
    Config::default().env_scaled()
}

// -------------------------------------------------------------------------
// Positive properties

#[test]
fn mutex_counter_is_exhaustively_correct() {
    let report = explore(&cfg(), || {
        let m = Mutex::new(0u32);
        morph_check::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..2 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 6);
    });
    report.assert_ok();
    assert!(report.completed || report.schedules_explored > 100);
}

#[test]
fn guarded_race_cell_has_no_race() {
    // The RaceCell is only ever touched under the mutex: the checker
    // proves the surrounding lock provides the happens-before edges.
    let report = explore(&cfg(), || {
        let lock = Mutex::new(());
        let cell = RaceCell::new(0u64);
        morph_check::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _g = lock.lock();
                    let v = cell.get();
                    cell.set(v + 1);
                });
            }
        });
        let _g = lock.lock();
        assert_eq!(cell.get(), 2);
    });
    report.assert_ok();
    assert!(report.completed, "small interleaving tree should exhaust");
}

#[test]
fn fetch_add_counter_loses_nothing() {
    let report = explore(&cfg(), || {
        let c = AtomicCell::new(0usize);
        morph_check::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    c.fetch_add(1);
                    c.fetch_add(1);
                });
            }
        });
        assert_eq!(c.load(), 6);
    });
    report.assert_ok();
}

#[test]
fn sleep_sets_prune_independent_interleavings() {
    // Two threads on two different mutexes: every interleaving is
    // equivalent, so DPOR must prune a chunk of the tree.
    let report = explore(&cfg(), || {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        morph_check::thread::scope(|s| {
            s.spawn(|| {
                *a.lock() += 1;
                *a.lock() += 1;
            });
            s.spawn(|| {
                *b.lock() += 1;
                *b.lock() += 1;
            });
        });
        assert_eq!(*a.lock() + *b.lock(), 4);
    });
    report.assert_ok();
    assert!(report.completed);
    assert!(
        report.schedules_pruned > 0,
        "independent ops must trigger sleep-set pruning (explored {}, pruned {})",
        report.schedules_explored,
        report.schedules_pruned
    );
}

#[test]
fn exploration_is_deterministic() {
    let run = || {
        explore(&Config::quick(), || {
            let m = Mutex::new(0u32);
            morph_check::thread::scope(|s| {
                s.spawn(|| *m.lock() += 1);
                s.spawn(|| *m.lock() += 1);
            });
        })
    };
    let (a, b) = (run(), run());
    assert_eq!(a.schedules_explored, b.schedules_explored);
    assert_eq!(a.schedules_pruned, b.schedules_pruned);
    assert_eq!(a.completed, b.completed);
}

// -------------------------------------------------------------------------
// Seeded mutants: each caught by its owning rule, each replayable.

fn assert_caught(report: &morph_check::Report, kind: ViolationKind) -> Vec<usize> {
    let v = report
        .first_violation()
        .unwrap_or_else(|| panic!("mutant must be caught, report: {report:?}"));
    assert_eq!(v.kind, kind, "wrong owning rule: {v}");
    assert!(
        !format!("{v}").is_empty() && v.schedule.len() == v.ops.len(),
        "certificate must be printable"
    );
    v.schedule.clone()
}

#[test]
fn mutant_unlocked_writes_caught_by_race_rule() {
    let mutant = || {
        let cell = RaceCell::new(0u64);
        morph_check::thread::scope(|s| {
            s.spawn(|| cell.set(1));
            s.spawn(|| cell.set(2));
        });
    };
    let report = explore(&cfg(), mutant);
    let cert = assert_caught(&report, ViolationKind::DataRace);
    // The certificate replays to the same violation.
    let replay = explore_replay(&cert, mutant);
    assert_caught(&replay, ViolationKind::DataRace);
}

#[test]
fn mutant_load_store_counter_caught_by_lost_update_rule() {
    let mutant = || {
        let c = AtomicCell::new(0usize);
        morph_check::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let v = c.load();
                    c.store(v + 1);
                });
            }
        });
    };
    let report = explore(&cfg(), mutant);
    let cert = assert_caught(&report, ViolationKind::LostUpdate);
    let replay = explore_replay(&cert, mutant);
    assert_caught(&replay, ViolationKind::LostUpdate);
}

#[test]
fn mutant_lock_order_inversion_caught_by_deadlock_rule() {
    let mutant = || {
        let a = Mutex::new(());
        let b = Mutex::new(());
        morph_check::thread::scope(|s| {
            s.spawn(|| {
                let _ga = a.lock();
                let _gb = b.lock();
            });
            s.spawn(|| {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        });
    };
    let report = explore(&cfg(), mutant);
    let cert = assert_caught(&report, ViolationKind::Deadlock);
    let v = report.first_violation().unwrap();
    assert!(
        v.message.contains("wait-for cycle"),
        "deadlock report must name the cycle: {v}"
    );
    let replay = explore_replay(&cert, mutant);
    assert_caught(&replay, ViolationKind::Deadlock);
}

#[test]
fn failed_assertion_caught_as_property_violation() {
    let report = explore(&cfg(), || {
        let c = AtomicCell::new(0usize);
        morph_check::thread::scope(|s| {
            s.spawn(|| {
                c.fetch_add(1);
            });
            s.spawn(|| {
                // Wrong claim: the other thread may not have run yet.
                assert_eq!(c.load(), 1, "impatient reader");
            });
        });
    });
    let cert = assert_caught(&report, ViolationKind::PropertyFailed);
    assert!(!cert.is_empty());
}

// -------------------------------------------------------------------------
// Normal-mode (no scheduler) semantics of the shims.

#[test]
fn shims_work_outside_the_model() {
    let m = Mutex::new(1u32);
    *m.lock() += 1;
    assert_eq!(*m.lock(), 2);
    assert_eq!(m.into_inner(), 2);

    let c = AtomicCell::new(5usize);
    assert_eq!(c.fetch_add(3), 5);
    assert_eq!(c.load(), 8);
    c.store(1);
    assert_eq!(c.swap(4), 1);
    assert_eq!(c.compare_exchange(4, 9), Ok(4));
    assert_eq!(c.compare_exchange(4, 9), Err(9));

    let r = RaceCell::new(7u64);
    r.set(8);
    assert_eq!(r.get(), 8);

    let total = morph_check::thread::scope(|s| {
        let h1 = s.spawn(|| 20u32);
        let h2 = s.spawn(|| 22u32);
        h1.join().unwrap() + h2.join().unwrap()
    });
    assert_eq!(total, 42);
    assert!(!morph_check::is_model_mode());
}
