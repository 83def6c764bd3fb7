//! Streaming-video pipeline throughput: the three video networks run as
//! cross-layer pipelines on Morph, Morph_base and Eyeriss, comparing the
//! greedy bottleneck rebalancer against the DAG-aware cluster-share
//! rebalancer.
//!
//! Each network's conv-level dependency DAG is scheduled directly:
//! fork/join branches (Two_Stream's parallel streams, ResNet-3D's
//! residual bypasses) run as genuinely parallel stages over per-edge
//! bounded channels. The table compares, per (network, accelerator) pair:
//!
//! * *serial fps* — the inverse of the summed per-layer latency (the
//!   paper's per-layer methodology);
//! * *chain fps* — the steady rate of the pre-DAG schedule (every layer a
//!   stage of one linearized chain);
//! * *greedy fps* — [`PipelineMode::Rebalanced`]: re-optimize the single
//!   bottleneck stage until it stops moving;
//! * *dag fps* — [`PipelineMode::DagRebalanced`]: the greedy pass plus
//!   DAG-aware cluster-share shifting between concurrently-live branch
//!   stages. The `mJ/frame` and `peak mW` columns show what the shift
//!   buys at unchanged throughput.

use morph_bench::{emit_report, print_table};
use morph_core::{Eyeriss, Morph, MorphBase, PipelineMode, RunReport, Session};
use morph_nets::zoo;

fn run(mode: PipelineMode) -> RunReport {
    let networks =
        ["C3D", "Two_Stream", "ResNet-3D"].map(|name| zoo::by_name(name).expect("zoo network"));
    Session::builder()
        .backend(
            Morph::builder()
                .effort(morph_bench::effort_from_env())
                .build(),
        )
        .backend(MorphBase::builder().build())
        .backend(Eyeriss::builder().build())
        .networks(networks)
        .pipeline(mode)
        .threads(morph_bench::threads_from_env())
        .build()
        .run()
}

fn main() {
    let greedy = run(PipelineMode::Rebalanced);
    let dag = run(PipelineMode::DagRebalanced);

    let mut rows = Vec::new();
    for (gr, dr) in greedy.runs.iter().zip(&dag.runs) {
        let g = gr.pipeline.as_ref().expect("pipeline mode is on");
        let d = dr.pipeline.as_ref().expect("pipeline mode is on");
        assert!(
            d.steady_fps >= d.serial_fps,
            "{} on {}: pipelining can only help",
            dr.network,
            dr.backend
        );
        // The acceptance invariant: DAG-aware rebalancing never streams
        // slower than the greedy bottleneck rebalancer — on every net,
        // branching or not...
        assert!(
            d.steady_fps >= g.steady_fps - 1e-9,
            "{} on {}: dag fps {} below greedy fps {}",
            dr.network,
            dr.backend,
            d.steady_fps,
            g.steady_fps
        );
        // ...and never spends more energy per frame: slack stages only
        // move to mappings at least as cheap as their scheduled ones.
        assert!(
            d.energy_per_frame_pj <= g.energy_per_frame_pj + 1e-3,
            "{} on {}: dag {} pJ/frame above greedy {} pJ/frame",
            dr.network,
            dr.backend,
            d.energy_per_frame_pj,
            g.energy_per_frame_pj
        );
        let branching = zoo::by_name(&dr.network).unwrap().is_branching();
        if branching {
            // Branch-parallel stages are never worse than the linearized
            // chain, and strictly better on fill latency.
            assert!(
                d.steady_fps >= d.chain_fps - 1e-9,
                "{} on {}: branch fps {} below chain fps {}",
                dr.network,
                dr.backend,
                d.steady_fps,
                d.chain_fps
            );
            assert!(
                d.fill_cycles < d.chain_fill_cycles,
                "{} on {}: branch-parallel fill must beat the chain",
                dr.network,
                dr.backend
            );
        } else {
            assert_eq!(d.chain_fps, d.steady_fps, "a chain is its own baseline");
        }
        let shifted = d
            .stages
            .iter()
            .zip(&g.stages)
            .filter(|(ds, gs)| ds.clusters != gs.clusters)
            .count();
        rows.push(vec![
            dr.network.clone(),
            dr.backend.clone(),
            format!("{:.2}", d.serial_fps),
            format!("{:.2}", d.chain_fps),
            format!("{:.2}", g.steady_fps),
            format!("{:.2}", d.steady_fps),
            format!("{:.2}", d.fill_cycles as f64 / d.clock_hz as f64 * 1e3),
            format!(
                "{:.2} -> {:.2}",
                g.energy_per_frame_pj / 1e9,
                d.energy_per_frame_pj / 1e9
            ),
            format!("{:.0} -> {:.0}", g.peak_power_mw, d.peak_power_mw),
            shifted.to_string(),
            d.bottleneck.clone(),
        ]);
    }
    print_table(
        &format!(
            "Streaming pipeline — greedy vs DAG-aware rebalancing ({}-frame window)",
            morph_core::DEFAULT_PIPELINE_FRAMES
        ),
        &[
            "network",
            "accelerator",
            "serial fps",
            "chain fps",
            "greedy fps",
            "dag fps",
            "fill (ms)",
            "mJ/frame (greedy -> dag)",
            "peak mW (greedy -> dag)",
            "shifted stages",
            "bottleneck",
        ],
        &rows,
    );
    println!("\nShape: steady-state throughput is set by the slowest stage, so the greedy and DAG-aware columns agree at the bottleneck rate — the DAG-aware win is the resource side: every non-critical stage keeps only the cluster share it needs to hold the bottleneck deadline, so energy/frame drops at identical frames/sec. The peak-mW column is scored honestly: greedy numbers are time-multiplexed derates (every stage claims the whole chip), while DAG-aware fork/join groups that fit the cluster budget are genuinely co-resident — their stage powers add, which can read higher on branchy nets; PipelineMode::Pareto caps it when power is the constraint. Branching networks additionally fill along the critical path instead of the serial chain.");
    emit_report("pipeline", &dag);
}
