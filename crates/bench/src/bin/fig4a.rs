//! Figure 4a: access energy per C3D layer as a function of the *outer*
//! loop order — the two K extremes, the average-best `[WHCKF]`, and the
//! per-layer Opt. Each restricted variant is a `Morph` backend whose
//! builder pins the outer-order candidate set (§III-A methodology).

use morph_bench::{emit_report, print_table};
use morph_core::{Morph, Session};
use morph_nets::zoo;

const ORDERS: [&str; 3] = ["KWHCF", "WFHCK", "WHCKF"];

fn main() {
    let effort = morph_bench::effort_from_env();
    let mut builder = Session::builder();
    for order in ORDERS {
        builder = builder.backend(
            Morph::builder()
                .effort(effort)
                .outer_orders(vec![order.parse().unwrap()])
                .name(format!("[{order}]"))
                .build(),
        );
    }
    // Opt: free choice of outer order per layer.
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
                .outer_order()
                .to_string(),
        );
        rows.push(row);
    }
    print_table(
        "Fig. 4a — C3D energy (mJ, total) vs outer loop order",
        &["layer", "[KWHCF]", "[WFHCK]", "[WHCKF]", "Opt", "Opt order"],
        &rows,
    );
    println!("\nPaper shape: K-extreme orders win early OR late but not both; [WHCKF] is best on average; Opt beats all fixed orders.");
    emit_report("fig4a", &report);
}
