//! Figure 10: performance-per-watt of Morph normalized to Morph_base for
//! the five evaluation networks.

use morph_bench::{emit_report, print_table};
use morph_core::{Morph, MorphBase, Objective, Session};
use morph_nets::zoo;

fn main() {
    let report = Session::builder()
        .backend(Morph::builder().objective(Objective::PerfPerWatt).build())
        .backend(
            MorphBase::builder()
                .objective(Objective::PerfPerWatt)
                .build(),
        )
        .networks(zoo::evaluation_networks())
        .threads(morph_bench::threads_from_env())
        .build()
        .run();

    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for net in zoo::evaluation_networks() {
        let rm = report.find("Morph", net.name).unwrap();
        let rb = report.find("Morph_base", net.name).unwrap();
        let gain = rm.normalized_perf_per_watt(rb);
        rows.push(vec![
            net.name.to_string(),
            format!("{:.2}x", gain),
            format!("{:.1}%", 100.0 * rm.total.cycles.utilization()),
            format!("{:.1}%", 100.0 * rb.total.cycles.utilization()),
        ]);
        gains.push(gain);
    }
    print_table(
        "Fig. 10 — perf/W of Morph vs Morph_base (higher is better)",
        &["network", "perf/W gain", "Morph util", "base util"],
        &rows,
    );
    println!(
        "\nAverage gain {:.2}x (paper: 4x average, per-net 2.07x–5.08x). Gains come from adaptive parallelization keeping PEs busy (§VI-E).",
        gains.iter().sum::<f64>() / gains.len() as f64
    );
    emit_report("fig10", &report);
}
