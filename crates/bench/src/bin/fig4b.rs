//! Figure 4b: how Opt partitions the L2 buffer between inputs, outputs and
//! weights across C3D layers (ratio of the L2 tile budget).

use morph_bench::{emit_report, print_table};
use morph_core::{Morph, Session};
use morph_dataflow::config::tile_bytes;
use morph_nets::zoo;

fn main() {
    let report = Session::builder()
        .backend(
            Morph::builder()
                .effort(morph_bench::effort_from_env())
                .build(),
        )
        .network(zoo::c3d())
        .threads(morph_bench::threads_from_env())
        .build()
        .run();

    let run = report.find("Morph", "C3D").unwrap();
    let mut rows = Vec::new();
    for layer in &run.layers {
        let d = layer.decision.as_ref().expect("Morph reports a mapping");
        let b = tile_bytes(&layer.shape, &d.config.levels[0].tile);
        let total = b.total() as f64;
        let sh = &layer.shape;
        let fits = |x: u64, whole: u64| if x >= whole { "whole" } else { "tile" };
        rows.push(vec![
            layer.name.clone(),
            format!("{:.2}", b.input as f64 / total),
            format!("{:.2}", b.psum as f64 / total),
            format!("{:.2}", b.weight as f64 / total),
            fits(b.weight, sh.weight_bytes()).into(),
            fits(b.psum / sh.psum_bytes().max(1), sh.output_elems()).into(),
        ]);
    }
    print_table(
        "Fig. 4b — Opt's L2 allocation across C3D layers",
        &[
            "layer",
            "inputs",
            "outputs",
            "weights",
            "weights resident?",
            "outputs resident?",
        ],
        &rows,
    );
    println!("\nPaper shape: inputs dominate the L2 in early layers; weights take over in later layers; fitting one data type entirely is preferred when possible.");
    emit_report("fig4b", &report);
}
