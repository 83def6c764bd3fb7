//! Flexibility ablation: attribute Morph's gain over Morph_base to its
//! individual degrees of freedom (DESIGN.md §7) by enabling them one at a
//! time on C3D. Every variant is a named backend built through the public
//! builders — no hand-wired optimizer pipelines.
//!
//! * `base`        — fixed orders, Table I partitions, fixed parallelism,
//!   fixed tiling policy (hard-coded FSM analogue).
//! * `+tiles`      — per-layer tile search within the static partitions.
//! * `+buffers`    — banked shared buffers (tile search, fixed orders/par).
//! * `+orders`     — flexible loop orders as well.
//! * `full (Morph)` — + parallelism search.

use morph_bench::{emit_report, print_table};
use morph_core::{Morph, MorphBase, Session};
use morph_nets::zoo;
use morph_tensor::order::LoopOrder;

fn main() {
    let effort = morph_bench::effort_from_env();

    let report = Session::builder()
        .backend(
            MorphBase::builder()
                .fixed_tile_policy()
                .name("base (fixed policy)")
                .build(),
        )
        .backend(MorphBase::builder().name("+tiles").build())
        .backend(
            Morph::builder()
                .effort(effort)
                .outer_orders(vec![LoopOrder::base_outer()])
                .inner_orders(vec![LoopOrder::base_inner()])
                .base_parallelism()
                .name("+buffers")
                .build(),
        )
        .backend(
            Morph::builder()
                .effort(effort)
                .base_parallelism()
                .name("+orders")
                .build(),
        )
        .backend(Morph::builder().effort(effort).name("full (Morph)").build())
        .network(zoo::c3d())
        .threads(morph_bench::threads_from_env())
        .build()
        .run();

    let mut rows = Vec::new();
    let mut base_e = None;
    for run in &report.runs {
        let e = run.total.total_pj();
        let b = *base_e.get_or_insert(e);
        rows.push(vec![
            run.backend.clone(),
            format!("{:.2}", e / 1e9),
            format!("{:.2}x", b / e),
            format!("{:.2}x", run.total.perf_per_watt() / 1.0),
        ]);
    }
    print_table(
        "Flexibility ablation on C3D (energy objective)",
        &[
            "variant",
            "energy (mJ)",
            "gain vs fixed base",
            "perf/W (MACC/pJ)",
        ],
        &rows,
    );
    println!("\nEach added degree of flexibility must not hurt; buffers+orders carry most of the §VI-D gain, parallelism search adds perf/W (§VI-E).");
    emit_report("ablate_flex", &report);
}
