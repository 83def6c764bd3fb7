//! Schedule C3D with the Morph backend and persist the result —
//! the §V "configuration file can be saved and recalled" workflow and the
//! source of the paper's Table III.
//!
//! ```sh
//! cargo run --release -p morph-core --example schedule_c3d
//! ```

use morph_core::{Morph, RunReport, Session};
use morph_nets::zoo;

fn main() {
    let report = Session::builder()
        .backend(Morph::builder().build())
        .network(zoo::c3d())
        .build()
        .run();
    let run = &report.runs[0];

    println!("C3D configuration optimized for energy (Table III analogue):\n");
    println!(
        "{:10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "layer", "outer", "inner", "Kt", "Ht", "Ft", "Kp*Vw"
    );
    for layer in &run.layers {
        let d = layer
            .decision
            .as_ref()
            .expect("Morph always reports a mapping");
        let l2 = d.config.levels[0].tile;
        // The paper reports Ht in input coordinates (incl. halo/pad).
        let ht_in = (l2.h - 1) * layer.shape.stride + layer.shape.r;
        println!(
            "{:10} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8}",
            layer.name,
            d.config.outer_order().to_string(),
            d.config.inner_order().to_lowercase(),
            l2.k,
            ht_in,
            l2.f,
            d.par.kp * 8
        );
    }

    // Persist and recall (§V): the report's JSON carries every layer's
    // tiling configuration and parallelism bit for bit.
    let path = std::env::temp_dir().join("c3d_schedule.json");
    std::fs::write(&path, report.to_json_string()).expect("write schedule");
    let recalled =
        RunReport::from_json_str(&std::fs::read_to_string(&path).unwrap()).expect("parse schedule");
    assert_eq!(recalled.runs[0].layers, run.layers);
    println!(
        "\nSchedule saved to {} and round-tripped ({} layers).",
        path.display(),
        recalled.runs[0].layers.len()
    );
}
