//! Model-checked properties of the shipping worker pool and the
//! backend's lazily-built budgeted-optimizer map. `par::par_map`'s work
//! cursor and scope run on the morph-check shim, so the checker explores
//! the real claim-loop interleavings: every index claimed exactly once,
//! results in input order, all workers joined before the scope returns.

use morph_check::{explore, Config};
use morph_core::par::par_map;
use morph_core::{Backend, Morph};
use morph_optimizer::search::Objective;
use morph_optimizer::space::Effort;
use morph_tensor::shape::ConvShape;

#[test]
fn par_map_claims_each_index_once_across_schedules() {
    let cfg = Config {
        max_exhaustive: 8000,
        samples: 500,
        ..Config::default()
    }
    .env_scaled();
    let report = explore(&cfg, || {
        let items: Vec<usize> = (0..6).collect();
        let out = par_map(3, &items, |&x| x * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    });
    report.assert_ok();
    assert!(
        report.schedules_explored >= 1000,
        "acceptance: >= 1k distinct schedules, got {} (+{} pruned)",
        report.schedules_explored,
        report.schedules_pruned
    );
}

#[test]
fn par_map_dynamic_split_matches_sequential() {
    // 2 workers, 3 items: the cursor hands out items dynamically, so the
    // split differs per schedule; the result must not.
    let cfg = Config {
        max_exhaustive: 3000,
        samples: 200,
        ..Config::default()
    }
    .env_scaled();
    let report = explore(&cfg, || {
        let items: Vec<u64> = vec![10, 20, 30];
        let out = par_map(2, &items, |&x| x + 1);
        assert_eq!(out, vec![11, 21, 31]);
    });
    report.assert_ok();
}

#[test]
fn budgeted_optimizer_map_is_coherent_under_races() {
    // Two threads race the same sub-chip budget through the real Morph
    // backend: the lazily-built budgeted map (shim mutex) must hand both
    // the same optimizer, and the shared store must end up with exactly
    // one entry per key regardless of who builds first. Searches are
    // real (tiny shape), so bounds stay modest.
    let cfg = Config {
        max_exhaustive: 300,
        samples: 30,
        ..Config::default()
    };
    let shape = ConvShape::new_2d(4, 4, 2, 4, 1, 1);
    let report = explore(&cfg, || {
        let back = Morph::builder().effort(Effort::Fast).build();
        let back = &back;
        let evals = morph_check::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        back.evaluate_layer_budget_sweep(&shape, Objective::Energy, &[2])
                            .remove(0)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        // Both threads must agree on the decision...
        assert_eq!(
            evals[0].report.total_pj(),
            evals[1].report.total_pj(),
            "racing identical budgeted searches must agree"
        );
        // ...and the store must have memoized each key exactly once.
        let store = back.decision_store().expect("Morph shares a store");
        assert_eq!(
            store.len(),
            1,
            "one decision for one (shape, objective, budget)"
        );
    });
    report.assert_ok();
    assert!(
        report.completed || report.schedules_explored >= 100,
        "either exhaust the tree or cover 100+ schedules, got {} (+{} pruned, completed={})",
        report.schedules_explored,
        report.schedules_pruned,
        report.completed
    );
}
