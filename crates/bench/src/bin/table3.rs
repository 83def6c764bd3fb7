//! Table III: the per-layer C3D configuration chosen by the Morph
//! software analysis when optimizing for energy.

use morph_bench::{emit_report, print_table};
use morph_core::{Morph, Session};
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
        let l2 = d.config.levels[0].tile;
        let ht_in = (l2.h - 1) * layer.shape.stride + layer.shape.r; // input coords, as in the paper
        rows.push(vec![
            layer.name.clone(),
            d.config.outer_order().to_string(),
            d.config.inner_order().to_lowercase(),
            l2.k.to_string(),
            ht_in.to_string(),
            l2.f.to_string(),
            (d.par.kp * 8).to_string(),
        ]);
    }
    print_table(
        "Table III — C3D configuration optimized for energy",
        &["layer", "outer", "inner", "Kt", "Ht", "Ft", "Kp*Vw"],
        &rows,
    );
    println!("\nPaper shape: loop orders and tile sizes vary across layers; later (weight-heavy) layers move K outward and increase Kp·Vw.");
    emit_report("table3", &report);
}
