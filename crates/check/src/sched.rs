//! The deterministic scheduler behind [`crate::explore`].
//!
//! Real OS threads, serialised: exactly one model thread runs at a time,
//! holding a token granted by the scheduler. Every shim operation is a
//! *yield point* — the thread declares its pending operation, parks, and
//! the scheduler picks the next thread to run among the enabled ones
//! (those whose pending op would not block). Because all other live
//! threads are parked at yield points whenever a decision is made, the
//! scheduler always sees the complete frontier of pending operations;
//! deadlock detection ("nobody enabled, somebody blocked") is exact, not
//! a timeout heuristic.
//!
//! Exploration is depth-first over the tree of scheduling decisions with
//! **sleep-set pruning** (Godefroid): after fully exploring choice `t`
//! from a state, `t` is put to sleep there, and the sleep set is
//! inherited down other branches until an operation *conflicting* with
//! `t`'s pending op executes. An execution that reaches a state where
//! every enabled thread sleeps is redundant — some equivalent
//! interleaving (commuting adjacent independent ops) was already
//! explored — and is abandoned. Two ops conflict iff they touch the same
//! object and at least one writes (lock/lock pairs on the same object
//! always conflict).
//!
//! Happens-before is tracked with vector clocks: spawn and join edges,
//! mutex release→acquire and atomic store→load all transfer clocks. [`crate::sync::RaceCell`] accesses are deliberately
//! *not* synchronising — the checker flags any pair of concurrent
//! accesses (at least one a write) as a data race, FastTrack style
//! (last-write epoch + per-thread read clocks).

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

pub(crate) type Tid = usize;
pub(crate) type ObjId = usize;

/// What a detected violation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Concurrent unsynchronised accesses to a `RaceCell`, at least one
    /// a write.
    DataRace,
    /// A plain `AtomicCell::store` discarded a concurrent update that
    /// landed after the storing thread's last `load`.
    LostUpdate,
    /// No thread can make progress but some are blocked.
    Deadlock,
    /// A panic (failed assertion) inside the model closure, or an
    /// explicit [`crate::violate`] call.
    PropertyFailed,
}

impl ViolationKind {
    fn label(self) -> &'static str {
        match self {
            ViolationKind::DataRace => "data race",
            ViolationKind::LostUpdate => "lost update",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::PropertyFailed => "property failed",
        }
    }
}

/// One violation found by the checker, with a replayable certificate.
#[derive(Debug, Clone)]
pub struct ModelViolation {
    /// Classification of the failure.
    pub kind: ViolationKind,
    /// Human-readable description naming threads and objects.
    pub message: String,
    /// The failing schedule: the thread chosen at each scheduling
    /// decision, truncated at the violating step. Feed to
    /// [`crate::explore_replay`] to reproduce.
    pub schedule: Vec<usize>,
    /// Description of the operation executed at each step (parallel to
    /// `schedule`).
    pub ops: Vec<String>,
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}", self.kind.label(), self.message)?;
        writeln!(
            f,
            "  certificate (replay with explore_replay): {:?}",
            self.schedule
        )?;
        write!(f, "  steps: {}", self.ops.join(" -> "))
    }
}

/// Panic payload used to unwind model threads when an execution aborts
/// (violation found or schedule proven redundant). Never a user-visible
/// failure by itself.
pub(crate) struct ModelAbort;

pub(crate) fn abort_execution() -> ! {
    std::panic::panic_any(ModelAbort);
}

/// Best-effort string from a panic payload.
pub(crate) fn payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Thread-local model context

/// Per-thread handle into the active scheduler (None in normal builds).
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) sched: Arc<Scheduler>,
    pub(crate) tid: Tid,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

pub(crate) fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(sched: Arc<Scheduler>, tid: Tid) {
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { sched, tid }));
}

pub(crate) fn clear_ctx() {
    CTX.with(|c| *c.borrow_mut() = None);
}

// ---------------------------------------------------------------------------
// Operations and conflicts

/// A pending shim operation, declared at a yield point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// First yield of a thread after spawn.
    Begin,
    /// Acquire a shim mutex (blocks while held by anyone, including
    /// self — a re-entrant lock attempt is a real deadlock).
    MutexLock(ObjId),
    /// `AtomicCell::load`.
    AtomicLoad(ObjId),
    /// `AtomicCell::store`.
    AtomicStore(ObjId),
    /// `AtomicCell` read-modify-write (`fetch_add`, `compare_exchange`).
    AtomicRmw(ObjId),
    /// Unsynchronised read of a `RaceCell`.
    RaceRead(ObjId),
    /// Unsynchronised write of a `RaceCell`.
    RaceWrite(ObjId),
    /// Join a model thread (blocks until it finishes).
    Join(Tid),
}

impl Op {
    fn obj(self) -> Option<ObjId> {
        match self {
            Op::MutexLock(o)
            | Op::AtomicLoad(o)
            | Op::AtomicStore(o)
            | Op::AtomicRmw(o)
            | Op::RaceRead(o)
            | Op::RaceWrite(o) => Some(o),
            Op::Begin | Op::Join(_) => None,
        }
    }

    fn is_read(self) -> bool {
        matches!(self, Op::AtomicLoad(_) | Op::RaceRead(_))
    }
}

/// Dependence relation for sleep sets: ops commute unless they touch the
/// same object with at least one non-read.
fn conflicts(a: Op, b: Op) -> bool {
    match (a.obj(), b.obj()) {
        (Some(x), Some(y)) => x == y && !(a.is_read() && b.is_read()),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Vector clocks

#[derive(Debug, Clone, Default)]
struct Vc(Vec<u64>);

impl Vc {
    fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    fn set(&mut self, i: usize, v: u64) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = v;
    }

    fn bump(&mut self, i: usize) {
        let v = self.get(i) + 1;
        self.set(i, v);
    }

    fn join(&mut self, other: &Vc) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    fn entries(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.0.iter().copied().enumerate().filter(|&(_, v)| v > 0)
    }
}

// ---------------------------------------------------------------------------
// Per-execution state

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Registered by spawn but its OS thread has not parked yet;
    /// scheduling decisions wait for it.
    Starting,
    Running,
    Parked,
    Finished,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    pending: Option<Op>,
    vc: Vc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ObjKind {
    /// `sync::Mutex`.
    Mutex,
    /// `sync::AtomicCell`.
    Atomic,
    /// `sync::RaceCell`.
    Race,
}

impl ObjKind {
    fn label(self) -> &'static str {
        match self {
            ObjKind::Mutex => "Mutex",
            ObjKind::Atomic => "AtomicCell",
            ObjKind::Race => "RaceCell",
        }
    }
}

#[derive(Debug)]
struct ObjState {
    kind: ObjKind,
    /// Release clock (mutex unlocks, atomic stores).
    clock: Vc,
    owner: Option<Tid>,
    /// Store version for lost-update detection.
    version: u64,
    /// Version last observed (load/store/rmw) per thread.
    last_read: Vec<Option<u64>>,
    /// Race detection: epoch of the last write.
    write_epoch: Option<(Tid, u64)>,
    /// Race detection: per-thread clock component at the last read.
    read_vc: Vc,
}

impl ObjState {
    fn new(kind: ObjKind) -> Self {
        ObjState {
            kind,
            clock: Vc::default(),
            owner: None,
            version: 0,
            last_read: Vec::new(),
            write_epoch: None,
            read_vc: Vc::default(),
        }
    }

    fn note_observed(&mut self, tid: Tid, version: u64) {
        if self.last_read.len() <= tid {
            self.last_read.resize(tid + 1, None);
        }
        self.last_read[tid] = Some(version);
    }
}

/// One DFS stack entry: the scheduling decision taken at a depth, with
/// enough context to backtrack and to compute inherited sleep sets.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Enabled threads (and their pending ops) at this state.
    enabled: Vec<(Tid, Op)>,
    /// Enabled minus sleeping — the branches this frame will explore.
    candidates: Vec<Tid>,
    /// Index into `candidates` of the branch currently being explored.
    cursor: usize,
    /// Sleep set inherited from the parent state.
    sleep_in: Vec<(Tid, Op)>,
}

/// Advance the DFS stack to the next unexplored branch; false when the
/// whole tree is exhausted.
pub(crate) fn advance(trace: &mut Vec<Frame>) -> bool {
    while let Some(f) = trace.last_mut() {
        f.cursor += 1;
        if f.cursor < f.candidates.len() {
            return true;
        }
        trace.pop();
    }
    false
}

/// Scheduling policy for one execution.
#[derive(Debug)]
pub(crate) enum Mode {
    /// Follow the DFS trace prefix, then extend with first candidates.
    Dfs,
    /// Seeded LCG choice among enabled threads at every decision.
    Random(u64),
    /// Follow a violation certificate, then first-enabled.
    Fixed(Vec<usize>),
}

fn lcg(s: u64) -> u64 {
    s.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

#[derive(Debug)]
struct ExecState {
    threads: Vec<ThreadState>,
    objs: Vec<ObjState>,
    current: Option<Tid>,
    aborting: bool,
    redundant: bool,
    violation: Option<ModelViolation>,
    /// Chosen tid per decision so far (the certificate prefix).
    schedule: Vec<usize>,
    /// Op description per decision (parallel to `schedule`).
    ops: Vec<String>,
    mode: Mode,
    trace: Vec<Frame>,
    /// Sleep set to seed the next fresh frame with.
    next_sleep: Vec<(Tid, Op)>,
    max_depth: usize,
}

/// Result of one execution, harvested by the explorer.
pub(crate) struct Outcome {
    pub(crate) violation: Option<ModelViolation>,
    pub(crate) redundant: bool,
    pub(crate) trace: Vec<Frame>,
}

// ---------------------------------------------------------------------------
// Scheduler

static SERIAL: AtomicU64 = AtomicU64::new(1);

/// The per-execution scheduler; shared by every model thread via `Arc`.
pub(crate) struct Scheduler {
    /// Unique per execution: shim objects lazily re-register their ids
    /// against the serial, so ids are per-execution and assigned in
    /// deterministic first-use order.
    pub(crate) serial: u64,
    state: Mutex<ExecState>,
    cv: Condvar,
}

fn install_abort_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<ModelAbort>() {
                prev(info);
            }
        }));
    });
}

impl Scheduler {
    pub(crate) fn new(mode: Mode, trace: Vec<Frame>, max_depth: usize) -> Arc<Scheduler> {
        install_abort_hook();
        Arc::new(Scheduler {
            serial: SERIAL.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(ExecState {
                threads: Vec::new(),
                objs: Vec::new(),
                current: None,
                aborting: false,
                redundant: false,
                violation: None,
                schedule: Vec::new(),
                ops: Vec::new(),
                mode,
                trace,
                next_sleep: Vec::new(),
                max_depth,
            }),
            cv: Condvar::new(),
        })
    }

    fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    fn wait<'a>(&self, g: MutexGuard<'a, ExecState>) -> MutexGuard<'a, ExecState> {
        match self.cv.wait(g) {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    /// Register the root model thread (tid 0). Called by the explorer
    /// before spawning it.
    pub(crate) fn register_root(&self) {
        let mut st = self.lock_state();
        debug_assert!(st.threads.is_empty());
        let mut vc = Vc::default();
        vc.bump(0);
        st.threads.push(ThreadState {
            status: Status::Starting,
            pending: None,
            vc,
        });
    }

    /// Register a child thread spawned by `parent`; returns its tid.
    /// Decisions stall until the child's OS thread parks at `Begin`, so
    /// spawn order (not OS startup order) fixes tids deterministically.
    pub(crate) fn register_thread(&self, parent: Tid) -> Tid {
        let mut st = self.lock_state();
        let tid = st.threads.len();
        let mut vc = st.threads[parent].vc.clone();
        st.threads[parent].vc.bump(parent);
        vc.bump(tid);
        st.threads.push(ThreadState {
            status: Status::Starting,
            pending: None,
            vc,
        });
        tid
    }

    /// Register a shim object on first use in this execution.
    pub(crate) fn register_object(&self, kind: ObjKind) -> ObjId {
        let mut st = self.lock_state();
        let id = st.objs.len();
        st.objs.push(ObjState::new(kind));
        id
    }

    /// First park of a freshly spawned thread.
    pub(crate) fn thread_start(&self, tid: Tid) {
        self.yield_op(tid, Op::Begin);
    }

    /// A model thread finished (normally or via abort unwind).
    pub(crate) fn thread_finish(&self, tid: Tid) {
        let mut st = self.lock_state();
        st.threads[tid].status = Status::Finished;
        st.threads[tid].pending = None;
        if st.current == Some(tid) {
            st.current = None;
        }
        Self::pick_next(&mut st);
        self.cv.notify_all();
    }

    /// The heart of the protocol: declare `op`, park until granted,
    /// then apply the op's effects.
    pub(crate) fn yield_op(&self, tid: Tid, op: Op) {
        let mut st = self.lock_state();
        if st.aborting {
            drop(st);
            abort_execution();
        }
        st.threads[tid].pending = Some(op);
        st.threads[tid].status = Status::Parked;
        if st.current == Some(tid) {
            st.current = None;
        }
        Self::pick_next(&mut st);
        self.cv.notify_all();
        loop {
            if st.aborting {
                drop(st);
                abort_execution();
            }
            if st.current == Some(tid) {
                break;
            }
            st = self.wait(st);
        }
        st.threads[tid].status = Status::Running;
        st.threads[tid].pending = None;
        Self::apply(&mut st, tid, op);
        if st.aborting {
            self.cv.notify_all();
            drop(st);
            abort_execution();
        }
    }

    /// Unlock a shim mutex (guard drop). Not a yield point: between the
    /// unlock and the holder's next yield only thread-local work runs,
    /// so scheduling here would only enumerate equivalent interleavings.
    pub(crate) fn release_mutex(&self, tid: Tid, o: ObjId) {
        let mut st = self.lock_state();
        if o >= st.objs.len() {
            return;
        }
        st.objs[o].owner = None;
        let vc = st.threads[tid].vc.clone();
        st.objs[o].clock.join(&vc);
        st.threads[tid].vc.bump(tid);
    }

    /// Record a violation raised explicitly by [`crate::violate`].
    pub(crate) fn violate_from_thread(&self, tid: Tid, kind: ViolationKind, message: &str) -> ! {
        let mut st = self.lock_state();
        let msg = format!("thread {tid}: {message}");
        record_violation(&mut st, kind, msg);
        self.cv.notify_all();
        drop(st);
        abort_execution();
    }

    /// Record a user panic caught at a thread boundary as a property
    /// failure.
    pub(crate) fn property_panic(&self, tid: Tid, message: &str) {
        let mut st = self.lock_state();
        let msg = format!("thread {tid} panicked: {message}");
        record_violation(&mut st, ViolationKind::PropertyFailed, msg);
        self.cv.notify_all();
    }

    /// Harvest the execution result (explorer side, after all threads
    /// joined).
    pub(crate) fn take_outcome(&self) -> Outcome {
        let mut st = self.lock_state();
        Outcome {
            violation: st.violation.take(),
            redundant: st.redundant,
            trace: std::mem::take(&mut st.trace),
        }
    }

    /// Make a scheduling decision if every live thread is parked.
    fn pick_next(st: &mut ExecState) {
        if st.aborting {
            return;
        }
        if st
            .threads
            .iter()
            .any(|t| matches!(t.status, Status::Running | Status::Starting))
        {
            return;
        }
        let parked: Vec<Tid> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Parked)
            .map(|(i, _)| i)
            .collect();
        if parked.is_empty() {
            // Everything finished; the execution is over.
            return;
        }
        let enabled: Vec<(Tid, Op)> = parked
            .iter()
            .filter_map(|&t| {
                let op = st.threads[t].pending?;
                (!blocked(st, op)).then_some((t, op))
            })
            .collect();
        if enabled.is_empty() {
            let msg = deadlock_message(st, &parked);
            record_violation(st, ViolationKind::Deadlock, msg);
            return;
        }
        if st.schedule.len() >= st.max_depth {
            record_violation(
                st,
                ViolationKind::PropertyFailed,
                format!("depth limit ({}) exceeded — livelock?", st.max_depth),
            );
            return;
        }

        let depth = st.schedule.len();
        let chosen: Tid = match &mut st.mode {
            Mode::Dfs => {
                if depth < st.trace.len() {
                    let f = &st.trace[depth];
                    let c = f.candidates[f.cursor];
                    if !enabled.iter().any(|&(t, _)| t == c) {
                        record_violation(
                            st,
                            ViolationKind::PropertyFailed,
                            format!(
                                "replay divergence at step {depth}: thread {c} no longer \
                                 enabled (model closure is nondeterministic?)"
                            ),
                        );
                        return;
                    }
                    c
                } else {
                    let sleep_in = std::mem::take(&mut st.next_sleep);
                    let candidates: Vec<Tid> = enabled
                        .iter()
                        .map(|&(t, _)| t)
                        .filter(|t| !sleep_in.iter().any(|&(s, _)| s == *t))
                        .collect();
                    if candidates.is_empty() {
                        // Every enabled thread sleeps: this state's
                        // subtree is covered by an equivalent schedule.
                        st.redundant = true;
                        st.aborting = true;
                        return;
                    }
                    let c = candidates[0];
                    st.trace.push(Frame {
                        enabled: enabled.clone(),
                        candidates,
                        cursor: 0,
                        sleep_in,
                    });
                    c
                }
            }
            Mode::Random(seed) => {
                *seed = lcg(*seed);
                enabled[((*seed >> 33) as usize) % enabled.len()].0
            }
            Mode::Fixed(cert) => {
                if depth < cert.len() {
                    let c = cert[depth];
                    if !enabled.iter().any(|&(t, _)| t == c) {
                        record_violation(
                            st,
                            ViolationKind::PropertyFailed,
                            format!("certificate diverged at step {depth}: thread {c} not enabled"),
                        );
                        return;
                    }
                    c
                } else {
                    enabled[0].0
                }
            }
        };

        // Inherit the sleep set into the next state: previously explored
        // siblings join it; anything conflicting with the chosen op (or
        // the chosen thread itself) wakes up.
        if matches!(st.mode, Mode::Dfs) {
            let f = &st.trace[depth];
            let chosen_op = f
                .enabled
                .iter()
                .find(|&&(t, _)| t == chosen)
                .map(|&(_, op)| op)
                .expect("chosen thread is enabled");
            let mut ns = f.sleep_in.clone();
            for &c in &f.candidates[..f.cursor] {
                if let Some(&(_, op)) = f.enabled.iter().find(|&&(t, _)| t == c) {
                    ns.push((c, op));
                }
            }
            ns.retain(|&(t, op)| t != chosen && !conflicts(op, chosen_op));
            st.next_sleep = ns;
        }

        let op = enabled
            .iter()
            .find(|&&(t, _)| t == chosen)
            .map(|&(_, op)| op)
            .expect("chosen thread is enabled");
        let desc = format!("t{chosen}:{}", describe_op(op, &st.objs));
        st.schedule.push(chosen);
        st.ops.push(desc);
        st.current = Some(chosen);
    }

    /// Effects of a granted operation: object bookkeeping, clock
    /// transfer, and the per-op detectors.
    fn apply(st: &mut ExecState, tid: Tid, op: Op) {
        match op {
            Op::Begin => {}
            Op::MutexLock(o) => {
                debug_assert!(st.objs[o].owner.is_none());
                st.objs[o].owner = Some(tid);
                acquire(st, tid, o);
            }
            Op::AtomicLoad(o) => {
                acquire(st, tid, o);
                let v = st.objs[o].version;
                st.objs[o].note_observed(tid, v);
            }
            Op::AtomicStore(o) => {
                let version = st.objs[o].version;
                let observed = st.objs[o].last_read.get(tid).copied().flatten();
                if let Some(rv) = observed {
                    if version > rv {
                        let name = obj_name(&st.objs[o], o);
                        record_violation(
                            st,
                            ViolationKind::LostUpdate,
                            format!(
                                "thread {tid} stored to {name} after loading version {rv}, \
                                 but the cell is already at version {version}; the \
                                 intervening update(s) are silently overwritten (use a \
                                 read-modify-write op or a lock)"
                            ),
                        );
                        return;
                    }
                }
                st.objs[o].version += 1;
                let v = st.objs[o].version;
                st.objs[o].note_observed(tid, v);
                release(st, tid, o);
            }
            Op::AtomicRmw(o) => {
                acquire(st, tid, o);
                st.objs[o].version += 1;
                let v = st.objs[o].version;
                st.objs[o].note_observed(tid, v);
                release(st, tid, o);
            }
            Op::RaceRead(o) => {
                if let Some((wt, wc)) = st.objs[o].write_epoch {
                    if st.threads[tid].vc.get(wt) < wc {
                        let name = obj_name(&st.objs[o], o);
                        record_violation(
                            st,
                            ViolationKind::DataRace,
                            format!(
                                "read of {name} by thread {tid} is concurrent with the \
                                 write by thread {wt} (no happens-before edge)"
                            ),
                        );
                        return;
                    }
                }
                let c = st.threads[tid].vc.get(tid);
                st.objs[o].read_vc.set(tid, c);
            }
            Op::RaceWrite(o) => {
                if let Some((wt, wc)) = st.objs[o].write_epoch {
                    if st.threads[tid].vc.get(wt) < wc {
                        let name = obj_name(&st.objs[o], o);
                        record_violation(
                            st,
                            ViolationKind::DataRace,
                            format!(
                                "write of {name} by thread {tid} is concurrent with the \
                                 write by thread {wt} (no happens-before edge)"
                            ),
                        );
                        return;
                    }
                }
                let racy_reader = st.objs[o]
                    .read_vc
                    .entries()
                    .find(|&(u, rc)| u != tid && rc > st.threads[tid].vc.get(u));
                if let Some((u, _)) = racy_reader {
                    let name = obj_name(&st.objs[o], o);
                    record_violation(
                        st,
                        ViolationKind::DataRace,
                        format!(
                            "write of {name} by thread {tid} is concurrent with the read \
                             by thread {u} (no happens-before edge)"
                        ),
                    );
                    return;
                }
                let c = st.threads[tid].vc.get(tid);
                st.objs[o].write_epoch = Some((tid, c));
                st.objs[o].read_vc = Vc::default();
                st.threads[tid].vc.bump(tid);
            }
            Op::Join(u) => {
                debug_assert_eq!(st.threads[u].status, Status::Finished);
                let vc = st.threads[u].vc.clone();
                st.threads[tid].vc.join(&vc);
            }
        }
    }
}

fn acquire(st: &mut ExecState, tid: Tid, o: ObjId) {
    let clock = st.objs[o].clock.clone();
    st.threads[tid].vc.join(&clock);
}

fn release(st: &mut ExecState, tid: Tid, o: ObjId) {
    let vc = st.threads[tid].vc.clone();
    st.objs[o].clock.join(&vc);
    st.threads[tid].vc.bump(tid);
}

fn blocked(st: &ExecState, op: Op) -> bool {
    match op {
        Op::MutexLock(o) => st.objs[o].owner.is_some(),
        Op::Join(u) => st.threads[u].status != Status::Finished,
        Op::Begin
        | Op::AtomicLoad(_)
        | Op::AtomicStore(_)
        | Op::AtomicRmw(_)
        | Op::RaceRead(_)
        | Op::RaceWrite(_) => false,
    }
}

fn record_violation(st: &mut ExecState, kind: ViolationKind, message: String) {
    if st.violation.is_none() {
        st.violation = Some(ModelViolation {
            kind,
            message,
            schedule: st.schedule.clone(),
            ops: st.ops.clone(),
        });
    }
    st.aborting = true;
}

fn obj_name(obj: &ObjState, o: ObjId) -> String {
    format!("{}#{o}", obj.kind.label())
}

fn describe_op(op: Op, objs: &[ObjState]) -> String {
    let name = |o: ObjId| obj_name(&objs[o], o);
    match op {
        Op::Begin => "begin".to_string(),
        Op::MutexLock(o) => format!("lock({})", name(o)),
        Op::AtomicLoad(o) => format!("load({})", name(o)),
        Op::AtomicStore(o) => format!("store({})", name(o)),
        Op::AtomicRmw(o) => format!("rmw({})", name(o)),
        Op::RaceRead(o) => format!("read({})", name(o)),
        Op::RaceWrite(o) => format!("write({})", name(o)),
        Op::Join(u) => format!("join(t{u})"),
    }
}

/// Explain a global stall: one line per blocked thread with its wait-for
/// edge, plus the wait-for cycle if one exists among lock/join edges.
fn deadlock_message(st: &ExecState, parked: &[Tid]) -> String {
    let mut lines = Vec::new();
    for &t in parked {
        let Some(op) = st.threads[t].pending else {
            continue;
        };
        let line = match op {
            Op::MutexLock(o) => match st.objs[o].owner {
                Some(h) => format!(
                    "thread {t} waits to lock {} held by thread {h}",
                    obj_name(&st.objs[o], o)
                ),
                None => format!("thread {t} waits to lock {}", obj_name(&st.objs[o], o)),
            },
            Op::Join(u) => format!("thread {t} waits to join thread {u}"),
            _ => format!("thread {t} blocked on {}", describe_op(op, &st.objs)),
        };
        lines.push(line);
    }
    // Follow lock/join wait-for edges from each blocked thread looking
    // for a cycle.
    let edge = |t: Tid| -> Option<Tid> {
        match st.threads[t].pending? {
            Op::MutexLock(o) => st.objs[o].owner,
            Op::Join(u) => Some(u),
            _ => None,
        }
    };
    let mut cycle = None;
    'outer: for &start in parked {
        let mut seen = vec![start];
        let mut cur = start;
        while let Some(next) = edge(cur) {
            if let Some(pos) = seen.iter().position(|&x| x == next) {
                cycle = Some(seen[pos..].to_vec());
                break 'outer;
            }
            seen.push(next);
            cur = next;
        }
    }
    let mut msg = format!("{} thread(s) blocked: {}", lines.len(), lines.join("; "));
    if let Some(c) = cycle {
        use std::fmt::Write;
        let chain: Vec<String> = c.iter().map(|t| format!("t{t}")).collect();
        let _ = write!(
            msg,
            "; wait-for cycle: {} -> {}",
            chain.join(" -> "),
            chain[0]
        );
    }
    msg
}

// ---------------------------------------------------------------------------
// Lazy per-execution object registration for shim types

/// Identity tag embedded in every shim object. Ids are per-execution
/// (keyed by the scheduler serial) and assigned in first-use order,
/// which is deterministic under schedule replay — a global counter would
/// leak state across executions and break DFS backtracking.
#[derive(Debug, Default)]
pub(crate) struct ObjTag {
    slot: Mutex<(u64, ObjId)>,
}

impl ObjTag {
    pub(crate) fn new() -> Self {
        ObjTag {
            slot: Mutex::new((0, 0)),
        }
    }

    pub(crate) fn id(&self, sched: &Scheduler, kind: ObjKind) -> ObjId {
        let mut slot = match self.slot.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        if slot.0 != sched.serial {
            *slot = (sched.serial, sched.register_object(kind));
        }
        slot.1
    }
}
