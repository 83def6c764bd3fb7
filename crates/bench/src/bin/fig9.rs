//! Figure 9: energy of the five evaluation networks on Eyeriss,
//! Morph_base and Morph, normalized to Eyeriss, with the five-component
//! breakdown (DRAM / L2 / L1 / L0 / Compute).

use morph_bench::{emit_report, print_table, FIG9_COMPONENTS};
use morph_core::{Eyeriss, Morph, MorphBase, Session};
use morph_nets::zoo;

fn main() {
    let report = Session::builder()
        .backend(Eyeriss::builder().build())
        .backend(MorphBase::builder().build())
        .backend(
            Morph::builder()
                .effort(morph_bench::effort_from_env())
                .build(),
        )
        .networks(zoo::evaluation_networks())
        .threads(morph_bench::threads_from_env())
        .build()
        .run();

    let mut rows = Vec::new();
    let mut gains_3d: Vec<(f64, f64)> = Vec::new();
    for net in zoo::evaluation_networks() {
        let runs = report.network_runs(net.name);
        let eyeriss_total = runs[0].total.total_pj();
        for r in &runs {
            let comp = r.total.fig9_components();
            let dyn_total = r.total.dynamic_pj();
            rows.push(vec![
                net.name.to_string(),
                r.backend.clone(),
                format!("{:.3}", r.total.total_pj() / eyeriss_total),
                format!("{:.3}", r.total.total_pj() / 1e9),
                comp.iter()
                    .map(|c| format!("{:.0}%", 100.0 * c / dyn_total))
                    .collect::<Vec<_>>()
                    .join("/"),
            ]);
        }
        if net.is_3d() {
            gains_3d.push((
                runs[1].total.total_pj() / runs[2].total.total_pj(),
                runs[0].total.total_pj() / runs[2].total.total_pj(),
            ));
        }
    }
    print_table(
        "Fig. 9 — normalized energy (lower is better)",
        &[
            "network",
            "accelerator",
            "norm energy",
            "mJ",
            &format!("breakdown {}", FIG9_COMPONENTS.join("/")),
        ],
        &rows,
    );
    let avg =
        |f: fn(&(f64, f64)) -> f64, v: &[(f64, f64)]| v.iter().map(f).sum::<f64>() / v.len() as f64;
    println!(
        "\n3D-CNN averages: Morph vs Morph_base {:.2}x (paper 2.5x, max 3.4x); Morph vs Eyeriss {:.2}x (paper avg 15.9x).",
        avg(|g| g.0, &gains_3d),
        avg(|g| g.1, &gains_3d)
    );
    println!("Paper shape: Morph < Morph_base < Eyeriss on every 3D CNN; the Eyeriss gap widens with frame count (I3D > C3D); on AlexNet Eyeriss is competitive with Morph_base while Morph still wins.");
    emit_report("fig9", &report);
}
