//! Shim sync primitives: `std::sync` semantics in normal builds, model
//! scheduler yield points under [`crate::explore`].
//!
//! Each type stores its data in an ordinary `std` primitive (the
//! workspace forbids `unsafe`, so there is no custom cell magic); in
//! model mode every operation first declares itself to the scheduler,
//! parks until granted, and only then touches the — by construction
//! uncontended — underlying storage.

use crate::sched::{self, Ctx, ObjKind, ObjTag, Op};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync as std_sync;

fn std_lock<T>(m: &std_sync::Mutex<T>) -> std_sync::MutexGuard<'_, T> {
    // Model aborts unwind through user code while holding shim guards;
    // recover from the resulting poison instead of cascading panics.
    match m.lock() {
        Ok(g) => g,
        Err(e) => e.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Mutex

/// Mutual exclusion with `std::sync::Mutex` semantics, minus poisoning:
/// [`Mutex::lock`] returns the guard directly. Under the model checker
/// the acquire is a scheduler yield point and participates in deadlock
/// detection (the scheduler knows the holder of every shim mutex).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    tag: ObjTag,
    inner: std_sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; unlocks (and in model mode publishes the
/// release clock) on drop.
pub struct MutexGuard<'a, T> {
    inner: Option<std_sync::MutexGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex {
            tag: ObjTag::new(),
            inner: std_sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking (in model mode: parking the model
    /// thread) until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let model = sched::current_ctx().map(|ctx| {
            let id = self.tag.id(&ctx.sched, ObjKind::Mutex);
            ctx.sched.yield_op(ctx.tid, Op::MutexLock(id));
            (ctx, id)
        });
        MutexGuard {
            inner: Some(std_lock(&self.inner)),
            model,
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(e) => e.into_inner(),
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard not dropped")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard not dropped")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then tell the scheduler; the
        // release is not a yield point (see Scheduler::release_mutex).
        drop(self.inner.take());
        if let Some((ctx, id)) = self.model.take() {
            ctx.sched.release_mutex(ctx.tid, id);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// AtomicCell

/// A cell with atomic-register semantics: `load`, `store`, and
/// read-modify-write ops, each a single indivisible step under the model
/// scheduler. The checker flags a *lost update* when a plain `store`
/// overwrites a version the storing thread never observed — the pattern
/// `load; compute; store` that silently discards concurrent updates.
/// RMW ops are exempt: that is what they are for.
#[derive(Debug, Default)]
pub struct AtomicCell<T: Copy> {
    tag: ObjTag,
    inner: std_sync::Mutex<T>,
}

impl<T: Copy> AtomicCell<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        AtomicCell {
            tag: ObjTag::new(),
            inner: std_sync::Mutex::new(value),
        }
    }

    fn yield_to(&self, op: impl FnOnce(usize) -> Op) -> Option<Ctx> {
        sched::current_ctx().inspect(|ctx| {
            let id = self.tag.id(&ctx.sched, ObjKind::Atomic);
            ctx.sched.yield_op(ctx.tid, op(id));
        })
    }

    /// Read the current value.
    pub fn load(&self) -> T {
        self.yield_to(Op::AtomicLoad);
        *std_lock(&self.inner)
    }

    /// Overwrite the value (lost-update-checked under the model).
    pub fn store(&self, value: T) {
        self.yield_to(Op::AtomicStore);
        *std_lock(&self.inner) = value;
    }

    /// Atomically replace the value, returning the previous one.
    pub fn swap(&self, value: T) -> T {
        self.yield_to(Op::AtomicRmw);
        let mut g = std_lock(&self.inner);
        std::mem::replace(&mut *g, value)
    }
}

impl<T: Copy + PartialEq> AtomicCell<T> {
    /// Atomically store `new` if the current value equals `current`;
    /// returns `Ok(previous)` on success, `Err(actual)` otherwise.
    pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T> {
        self.yield_to(Op::AtomicRmw);
        let mut g = std_lock(&self.inner);
        if *g == current {
            *g = new;
            Ok(current)
        } else {
            Err(*g)
        }
    }
}

impl AtomicCell<usize> {
    /// Atomically add, returning the previous value (the `par` work
    /// cursor idiom).
    pub fn fetch_add(&self, n: usize) -> usize {
        self.yield_to(Op::AtomicRmw);
        let mut g = std_lock(&self.inner);
        let prev = *g;
        *g += n;
        prev
    }
}

// ---------------------------------------------------------------------------
// RaceCell

/// A deliberately *unsynchronised* cell for race checking. In a normal
/// build it is mutex-backed (the workspace forbids `unsafe`, so actual
/// UB is impossible); under the model the checker treats every access as
/// unsynchronised and reports a [`crate::ViolationKind::DataRace`]
/// whenever two concurrent accesses (one a write) lack a happens-before
/// edge. Passing the checker therefore proves the *surrounding*
/// synchronisation is sufficient and the internal mutex is redundant.
#[derive(Debug, Default)]
pub struct RaceCell<T: Copy> {
    tag: ObjTag,
    inner: std_sync::Mutex<T>,
}

impl<T: Copy> RaceCell<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RaceCell {
            tag: ObjTag::new(),
            inner: std_sync::Mutex::new(value),
        }
    }

    /// Read the value (race-checked under the model).
    pub fn get(&self) -> T {
        if let Some(ctx) = sched::current_ctx() {
            let id = self.tag.id(&ctx.sched, ObjKind::Race);
            ctx.sched.yield_op(ctx.tid, Op::RaceRead(id));
        }
        *std_lock(&self.inner)
    }

    /// Write the value (race-checked under the model).
    pub fn set(&self, value: T) {
        if let Some(ctx) = sched::current_ctx() {
            let id = self.tag.id(&ctx.sched, ObjKind::Race);
            ctx.sched.yield_op(ctx.tid, Op::RaceWrite(id));
        }
        *std_lock(&self.inner) = value;
    }
}
