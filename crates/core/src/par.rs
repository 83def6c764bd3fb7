//! Minimal data-parallel map over scoped threads.
//!
//! The workspace builds fully offline, so instead of rayon this module
//! provides the one primitive [`crate::Session`] needs: evaluate a slice of
//! independent items on a small worker pool and return the results in
//! input order. Work is distributed dynamically (an atomic cursor), which
//! keeps long searches — early C3D layers take much longer than late ones —
//! from serializing behind a static partition.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `items` on up to `threads` scoped worker threads,
/// preserving input order in the result.
///
/// Each worker claims its next index with one `fetch_add` on a shared
/// cursor, so every index is evaluated exactly once; results come back
/// through the scoped joins.
///
/// `threads <= 1` (or a short input) degrades to a plain sequential map.
///
/// # Panics
///
/// Panic propagation is **deterministic**: every item is evaluated
/// exactly once even when some evaluations panic, all panics are
/// collected, and the one with the *lowest item index* is re-thrown
/// (naming that index); any concurrent panics at higher indices are
/// swallowed cleanly after being fully unwound in their worker. The
/// propagated panic is therefore a pure function of `(items, f)`,
/// independent of thread count and scheduling — the same first-failure
/// the sequential fallback reports.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let eval = |i: usize, t: &T| -> Result<R, (usize, String)> {
        catch_unwind(AssertUnwindSafe(|| f(t))).map_err(|p| (i, panic_message(p.as_ref())))
    };
    let first_failure = |(i, msg): &(usize, String), swallowed: usize| -> ! {
        panic!("par_map worker panicked at item {i}: {msg} ({swallowed} later panic(s) swallowed)")
    };
    if threads <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| eval(i, t).unwrap_or_else(|e| first_failure(&e, 0)))
            .collect();
    }
    let workers = threads.min(n);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();

    type WorkerOut<R> = (Vec<(usize, R)>, Vec<(usize, String)>);
    let produced: Vec<WorkerOut<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    let mut failed = Vec::new();
                    loop {
                        // Relaxed suffices: the cursor publishes no data
                        // (items are shared before the spawn, results
                        // come back through the join).
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match eval(i, &items[i]) {
                            Ok(r) => local.push((i, r)),
                            Err(e) => failed.push(e),
                        }
                    }
                    (local, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => resume_unwind(p),
            })
            .collect()
    });

    let mut panics: Vec<(usize, String)> = Vec::new();
    for (results, failed) in produced {
        panics.extend(failed);
        for (i, r) in results {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
    }
    if !panics.is_empty() {
        panics.sort();
        first_failure(&panics[0], panics.len() - 1);
    }
    slots
        .into_iter()
        .map(|s| s.expect("par_map filled every index"))
        .collect()
}

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(8, &items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<usize> = (0..17).collect();
        assert_eq!(
            par_map(1, &items, |&x| x + 1),
            par_map(4, &items, |&x| x + 1)
        );
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |&x| x), vec![7]);
    }

    #[test]
    fn worker_panic_names_the_item_index() {
        let items: Vec<u32> = (0..8).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(2, &items, |&x| {
                assert!(x != 5, "boom");
                x
            })
        }))
        .expect_err("panic must propagate");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("item 5") && msg.contains("boom"),
            "panic message must carry the item index and cause: {msg}"
        );
    }

    #[test]
    fn concurrent_multi_panic_is_deterministic_first_by_index() {
        // Several items panic at once on different workers; the
        // propagated panic must always be the lowest-index one, with the
        // rest swallowed — independent of scheduling, so repeat it.
        let items: Vec<u32> = (0..16).collect();
        for _ in 0..25 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                par_map(4, &items, |&x| {
                    assert!(x % 5 != 2, "boom at {x}");
                    x
                })
            }))
            .expect_err("panic must propagate");
            let msg = panic_message(err.as_ref());
            assert!(
                msg.contains("item 2") && msg.contains("boom at 2"),
                "lowest failing index must win: {msg}"
            );
            assert!(
                !msg.contains("item 7") && !msg.contains("item 12"),
                "higher-index panics must be swallowed: {msg}"
            );
            assert!(
                msg.contains("2 later panic(s) swallowed"),
                "swallowed panics must be accounted for: {msg}"
            );
        }
    }

    #[test]
    fn sequential_fallback_panic_names_the_item_index() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(1, &[1u32, 3, 5], |&x| assert!(x != 3, "odd one out"))
        }))
        .expect_err("panic must propagate");
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("item 1") && msg.contains("odd one out"),
            "sequential fallback must name the index too: {msg}"
        );
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Dynamic distribution must complete even when item costs vary
        // wildly; correctness (not timing) is asserted.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(4, &items, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }
}
