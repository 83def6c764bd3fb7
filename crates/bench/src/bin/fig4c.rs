//! Figure 4c: access energy per C3D layer as a function of the *inner*
//! loop order — `[kfwhc]`, `[whkfc]`, the average-best `[cfwhk]`, and Opt.

use morph_bench::{emit_report, print_table};
use morph_core::{Morph, Session};
use morph_nets::zoo;

const ORDERS: [&str; 3] = ["kfwhc", "whkfc", "cfwhk"];

fn main() {
    let effort = morph_bench::effort_from_env();
    let mut builder = Session::builder();
    for order in ORDERS {
        builder = builder.backend(
            Morph::builder()
                .effort(effort)
                .inner_orders(vec![order.parse().unwrap()])
                .name(format!("[{order}]"))
                .build(),
        );
    }
    let session = builder
        .backend(Morph::builder().effort(effort).name("Opt").build())
        .network(zoo::c3d())
        .threads(morph_bench::threads_from_env())
        .build();
    let report = session.run();

    let opt = report.find("Opt", "C3D").unwrap();
    let mut rows = Vec::new();
    for (li, layer) in opt.layers.iter().enumerate() {
        let mut row = vec![layer.name.clone()];
        for order in ORDERS {
            let r = &report.find(&format!("[{order}]"), "C3D").unwrap().layers[li];
            row.push(format!("{:.3}", r.report.total_pj() / 1e9));
        }
        row.push(format!("{:.3}", layer.report.total_pj() / 1e9));
        row.push(
            layer
                .decision
                .as_ref()
                .unwrap()
                .config
                .inner_order()
                .to_lowercase(),
        );
        rows.push(row);
    }
    print_table(
        "Fig. 4c — C3D energy (mJ, total) vs inner loop order",
        &["layer", "[kfwhc]", "[whkfc]", "[cfwhk]", "Opt", "Opt order"],
        &rows,
    );
    println!("\nPaper shape: the best inner order varies per layer; the average-best [cfwhk] is not optimal everywhere; Opt dominates.");
    emit_report("fig4c", &report);
}
