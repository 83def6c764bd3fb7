//! morph-check: a loom-style interleaving model checker for the
//! workspace's own concurrency primitives.
//!
//! The crate has two faces:
//!
//! * **A sync shim** ([`sync::Mutex`], [`sync::AtomicCell`],
//!   [`sync::RaceCell`]) and a **thread shim** ([`thread::scope`]) that
//!   in normal builds are thin wrappers over `std::sync` /
//!   `std::thread` — same semantics, one thread-local lookup of
//!   overhead per operation.
//! * **A model checker** ([`explore`]): run a closure repeatedly under a
//!   deterministic scheduler that serialises the real OS threads and
//!   explores the tree of interleavings bounded-exhaustively (DFS with
//!   sleep-set pruning, a sound DPOR-lite that skips schedules equivalent
//!   up to commuting independent operations), then keeps going with
//!   seeded-LCG random sampling past the exhaustive bound.
//!
//! Because the shim types *are* the types the shipping code uses
//! (`DecisionStore`, the budgeted-optimizer maps, `par::map`'s cursor,
//! `TraceBuffer`), model tests exercise the real logic, not a toy.
//!
//! What the checker detects, per explored schedule:
//!
//! * **Data races** on [`sync::RaceCell`] via vector clocks (FastTrack
//!   style: last-write epoch + per-thread read clocks, synchronised
//!   through mutex acquire/release, atomic ops, and spawn/join edges).
//! * **Lost updates** on [`sync::AtomicCell`]: a plain `store` by a
//!   thread whose last `load` of the cell is stale (the value was
//!   republished in between) silently discards the concurrent update;
//!   read-modify-write ops (`fetch_add`, `compare_exchange`) are exempt.
//! * **Deadlocks**: the scheduler knows every thread's pending operation,
//!   so "no thread runnable but some blocked" is detected exactly, with
//!   the wait-for relation (who holds the lock, which join is pending)
//!   printed per blocked thread.
//! * **Property failures**: any panic inside the closure (a failed
//!   `assert!`) or an explicit [`violate`] call.
//!
//! Every violation carries a **replayable certificate**: the exact
//! sequence of thread choices that reached it, truncated at the failing
//! step. Feed it to [`explore_replay`] to reproduce the violation
//! deterministically.
//!
//! # Example
//!
//! ```
//! use morph_check::{explore, Config};
//! use morph_check::sync::Mutex;
//!
//! let report = explore(&Config::quick(), || {
//!     let m = Mutex::new(0u32);
//!     morph_check::thread::scope(|s| {
//!         s.spawn(|| *m.lock() += 1);
//!         s.spawn(|| *m.lock() += 1);
//!     });
//!     assert_eq!(*m.lock(), 2);
//! });
//! report.assert_ok();
//! assert!(report.schedules_explored > 1);
//! ```

pub mod sync;
pub mod thread;

mod sched;

use sched::{Mode, Scheduler};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

pub use sched::{ModelViolation, ViolationKind};

/// Exploration bounds for [`explore`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Cap on DFS executions (distinct schedules, explored + pruned).
    /// When the interleaving tree is exhausted under this bound the
    /// report is marked [`Report::completed`].
    pub max_exhaustive: u64,
    /// Random schedules sampled past the bound when DFS did not finish.
    pub samples: u64,
    /// Seed for the LCG driving the sampling phase.
    pub seed: u64,
    /// Safety cap on scheduling decisions per execution (catches
    /// livelock; the primitives themselves never spin).
    pub max_depth: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_exhaustive: 2000,
            samples: 200,
            seed: 0x00C0_FFEE,
            max_depth: 20_000,
        }
    }
}

impl Config {
    /// Small bounds for doc-tests and smoke tests.
    pub fn quick() -> Self {
        Config {
            max_exhaustive: 200,
            samples: 20,
            ..Config::default()
        }
    }

    /// Scale the exhaustive bound from the `MORPH_CHECK_SCHEDULES`
    /// environment variable (used by the CI `check` job to deepen the
    /// search without editing tests). Unset or unparsable leaves the
    /// config untouched.
    pub fn env_scaled(mut self) -> Self {
        if let Ok(s) = std::env::var("MORPH_CHECK_SCHEDULES") {
            if let Ok(n) = s.trim().parse::<u64>() {
                self.max_exhaustive = n;
                self.samples = (n / 4).max(1);
            }
        }
        self
    }
}

/// Outcome of an [`explore`] run.
#[derive(Debug, Default)]
pub struct Report {
    /// Full executions run to completion (DFS ones are distinct
    /// schedules by construction; the sampled ones are counted in
    /// [`Report::sampled`] as well).
    pub schedules_explored: u64,
    /// Executions abandoned by sleep-set pruning (their interleavings
    /// are covered by an already-explored equivalent schedule).
    pub schedules_pruned: u64,
    /// Random executions run in the sampling phase.
    pub sampled: u64,
    /// True when DFS exhausted the whole interleaving tree under the
    /// bound — the properties hold for *every* schedule.
    pub completed: bool,
    /// Violations found (exploration stops at the first one).
    pub violations: Vec<ModelViolation>,
}

impl Report {
    /// Panic with the full violation (message + replay certificate) if
    /// any schedule failed.
    pub fn assert_ok(&self) {
        if let Some(v) = self.violations.first() {
            panic!(
                "model checking failed after {} schedule(s):\n{v}",
                self.schedules_explored
            );
        }
    }

    /// First violation, if any.
    pub fn first_violation(&self) -> Option<&ModelViolation> {
        self.violations.first()
    }
}

/// Explore the interleavings of `f` under the model scheduler.
///
/// `f` runs once per schedule and must create every model-visible object
/// (shim mutexes, cells, the structures built on them) inside
/// the closure: the DFS replays schedule prefixes across executions and
/// relies on each execution starting from the same state.
///
/// Exploration stops at the first violation; the report carries it with
/// a certificate replayable via [`explore_replay`].
pub fn explore<F: Fn() + Sync>(config: &Config, f: F) -> Report {
    explore_inner(config, &f, None)
}

/// Re-run `f` under one fixed schedule — the `schedule` field of a
/// [`ModelViolation`] — to reproduce a failure deterministically. Once
/// the certificate is exhausted the scheduler continues with the first
/// enabled thread.
pub fn explore_replay<F: Fn() + Sync>(schedule: &[usize], f: F) -> Report {
    let config = Config {
        max_exhaustive: 1,
        samples: 0,
        ..Config::default()
    };
    explore_inner(&config, &f, Some(schedule.to_vec()))
}

fn explore_inner<F: Fn() + Sync>(config: &Config, f: &F, fixed: Option<Vec<usize>>) -> Report {
    assert!(
        sched::current_ctx().is_none(),
        "nested explore() inside a model thread is not supported"
    );
    let mut report = Report::default();

    if let Some(cert) = fixed {
        let sched = Scheduler::new(Mode::Fixed(cert), Vec::new(), config.max_depth);
        run_one(&sched, f);
        let out = sched.take_outcome();
        report.schedules_explored = 1;
        report.violations.extend(out.violation);
        return report;
    }

    // Phase 1: bounded-exhaustive DFS with sleep-set pruning.
    let mut trace = Vec::new();
    loop {
        let sched = Scheduler::new(Mode::Dfs, std::mem::take(&mut trace), config.max_depth);
        run_one(&sched, f);
        let out = sched.take_outcome();
        trace = out.trace;
        if out.redundant {
            report.schedules_pruned += 1;
        } else {
            report.schedules_explored += 1;
        }
        if let Some(v) = out.violation {
            report.violations.push(v);
            return report;
        }
        if !sched::advance(&mut trace) {
            report.completed = true;
            break;
        }
        if report.schedules_explored + report.schedules_pruned >= config.max_exhaustive {
            break;
        }
    }

    // Phase 2: seeded random sampling past the bound.
    if !report.completed {
        for i in 0..config.samples {
            let mode = Mode::Random(config.seed.wrapping_add(i).wrapping_mul(2).wrapping_add(1));
            let sched = Scheduler::new(mode, Vec::new(), config.max_depth);
            run_one(&sched, f);
            let out = sched.take_outcome();
            report.sampled += 1;
            report.schedules_explored += 1;
            if let Some(v) = out.violation {
                report.violations.push(v);
                return report;
            }
        }
    }
    report
}

fn run_one<F: Fn() + Sync>(sched: &Arc<Scheduler>, f: &F) {
    std::thread::scope(|s| {
        sched.register_root();
        let sc = Arc::clone(sched);
        s.spawn(move || {
            sched::set_ctx(Arc::clone(&sc), 0);
            let r = catch_unwind(AssertUnwindSafe(|| {
                sc.thread_start(0);
                f();
            }));
            if let Err(p) = r {
                if !panic_payload_is_abort(p.as_ref()) {
                    sc.property_panic(0, &sched::payload_message(p.as_ref()));
                }
            }
            sc.thread_finish(0);
            sched::clear_ctx();
        });
    });
}

/// Record a property violation from inside a model closure and abort the
/// current execution. Outside the model (normal build) this panics with
/// the message, so the call site behaves like a failed assertion either
/// way.
pub fn violate(kind: ViolationKind, message: impl Into<String>) -> ! {
    let message = message.into();
    if let Some(ctx) = sched::current_ctx() {
        ctx.sched.violate_from_thread(ctx.tid, kind, &message);
    }
    panic!("{message}");
}

/// True while the calling thread runs under the model scheduler. Lets
/// shared code (e.g. stress tests) skip wall-clock work in model mode.
pub fn is_model_mode() -> bool {
    sched::current_ctx().is_some()
}

/// True when a caught panic payload is the checker's internal
/// execution-abort signal. Code that catches panics around user work (the
/// `par` worker pool) must re-throw these unchanged instead of wrapping
/// them, or aborted executions would be misreported as user panics.
pub fn panic_payload_is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<sched::ModelAbort>()
}

/// Resume an abort payload (used by wrappers that caught a panic, checked
/// it with [`panic_payload_is_abort`], and must let it continue).
pub fn resume_abort(payload: Box<dyn std::any::Any + Send>) -> ! {
    std::panic::resume_unwind(payload)
}
