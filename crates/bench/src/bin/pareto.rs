//! Pareto sweep of cluster-share allocations under a power cap.
//!
//! Runs `PipelineMode::Pareto` on a branching video network (Two_Stream —
//! two genuinely parallel streams competing for the same clusters) for
//! Morph and Eyeriss, prints the (frames/sec, energy/frame, peak power)
//! frontier, and asserts the sweep invariants the schema-v4 report is
//! specified to uphold:
//!
//! * no frontier point is dominated by another;
//! * with a power cap, every frontier point (and the scheduled point)
//!   respects the cap;
//! * the uncapped frontier covers the greedy rebalanced operating point
//!   or better — sweeping can only widen the choice, never lose the
//!   incumbent schedule.
//!
//! The cap itself is self-calibrated: an uncapped sweep runs first and
//! the midpoint of its frontier's power range becomes the binding cap, so
//! the assertion is meaningful on every backend without hand-tuned
//! constants.

use morph_bench::{emit_report, print_table};
use morph_core::{Eyeriss, Morph, PipelineMode, RunReport, Session};
use morph_nets::zoo;

const NETWORK: &str = "Two_Stream";

fn run(mode: PipelineMode) -> RunReport {
    Session::builder()
        .backend(
            Morph::builder()
                .effort(morph_bench::effort_from_env())
                .build(),
        )
        .backend(Eyeriss::builder().build())
        .network(zoo::by_name(NETWORK).expect("zoo network"))
        .pipeline(mode)
        .threads(morph_bench::threads_from_env())
        .build()
        .run()
}

fn main() {
    let greedy = run(PipelineMode::Rebalanced);
    let free = run(PipelineMode::Pareto { power_cap_mw: None });

    // Calibrate a binding cap from Morph's uncapped frontier: the
    // midpoint of the power range is tighter than the hottest point yet
    // attainable by the coolest.
    let morph_points = &free.runs[0]
        .pipeline
        .as_ref()
        .expect("pipeline mode is on")
        .pareto
        .as_ref()
        .expect("pareto mode attaches a frontier")
        .points;
    let hottest = morph_points
        .iter()
        .map(|p| p.peak_power_mw)
        .fold(0.0f64, f64::max);
    let coolest = morph_points
        .iter()
        .map(|p| p.peak_power_mw)
        .fold(f64::INFINITY, f64::min);
    // Never floor below the coolest point: a flat frontier must still
    // leave the cap attainable.
    let cap = (f64::midpoint(coolest, hottest) as u64).max(coolest.ceil() as u64);
    let capped = run(PipelineMode::Pareto {
        power_cap_mw: Some(cap),
    });

    let mut rows = Vec::new();
    for (which, report) in [("uncapped", &free), ("capped", &capped)] {
        for (run, grun) in report.runs.iter().zip(&greedy.runs) {
            let p = run.pipeline.as_ref().expect("pipeline mode is on");
            let pareto = p.pareto.as_ref().expect("frontier present");
            let g = grun.pipeline.as_ref().unwrap();

            // Invariant: the frontier is a real frontier.
            for a in &pareto.points {
                assert!(
                    !pareto.points.iter().any(|b| b.dominates(a)),
                    "{which} {} on {}: dominated point survived",
                    run.network,
                    run.backend
                );
            }
            match pareto.power_cap_mw {
                // Invariant: every reported point respects the cap. The
                // cap was calibrated from Morph's frontier, so only
                // Morph is guaranteed a non-empty capped frontier (and
                // thus a cap-respecting schedule); a fixed backend's
                // single operating point may lie entirely above it.
                Some(cap) => {
                    for point in &pareto.points {
                        assert!(
                            point.peak_power_mw <= cap as f64,
                            "{} on {}: {} mW violates the {} mW cap",
                            run.network,
                            run.backend,
                            point.peak_power_mw,
                            cap
                        );
                    }
                    if run.backend == "Morph" {
                        assert!(
                            !pareto.points.is_empty(),
                            "the calibrated cap is attainable on Morph"
                        );
                        assert!(
                            p.peak_power_mw <= cap as f64,
                            "scheduled point obeys the cap"
                        );
                    }
                }
                // Invariant: the free frontier covers the greedy
                // rebalanced point or better.
                None => {
                    let best = pareto.best_fps_point().expect("non-empty frontier");
                    assert!(
                        best.steady_fps >= g.steady_fps - 1e-9,
                        "{} on {}: frontier best {} below greedy {}",
                        run.network,
                        run.backend,
                        best.steady_fps,
                        g.steady_fps
                    );
                }
            }

            for point in &pareto.points {
                rows.push(vec![
                    run.backend.clone(),
                    which.to_string(),
                    pareto.power_cap_mw.map_or("-".into(), |c| format!("{c}")),
                    format!("{:.2}", point.steady_fps),
                    format!("{:.2}", point.energy_per_frame_pj / 1e9),
                    format!("{:.0}", point.peak_power_mw),
                    format!("{:?}", point.clusters),
                ]);
            }
        }
    }
    print_table(
        &format!("Pareto frontier — {NETWORK} cluster-share allocations"),
        &[
            "accelerator",
            "sweep",
            "cap (mW)",
            "frames/s",
            "mJ/frame",
            "peak mW",
            "clusters per stage",
        ],
        &rows,
    );
    println!("\nShape: each row is one non-dominated cluster-share allocation of the conv-level DAG, scored by the event engine. Morph trades throughput for power across a wide range (full-chip stages stream fastest; single-cluster stages draw least); the capped sweep keeps only allocations under the cap and schedules the fastest of them. Eyeriss cannot reallocate clusters, so its frontier collapses to a single operating point.");
    emit_report("pareto", &capped);
}
