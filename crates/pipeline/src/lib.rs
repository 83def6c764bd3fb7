//! # morph-pipeline
//!
//! Cross-layer pipeline scheduling for streaming video workloads.
//!
//! The paper's evaluation (and `morph-core`'s per-layer scoring) treats
//! every layer in isolation, but Morph's target workload is *streaming*
//! video understanding: frames flow through C3D / Two-Stream networks
//! continuously, so end-to-end throughput is set by inter-layer
//! pipelining, not by the sum of per-layer optima. This crate models a
//! network as a **DAG of layer stages** connected by **bounded,
//! double-buffered channels** ([`EdgeSpec`]; capacities derived from the
//! backend's buffer hierarchy via [`PipelineCaps`], split across parallel
//! branches with [`PipelineCaps::split`]) and computes its exact
//! schedule. The semantics are the Dataflow Abstract Machine simulator's
//! stage/channel decomposition: joins pop one frame from every branch,
//! forks replicate into every output channel, parallel source streams
//! draw frames independently. Because service times do not depend on
//! the data, that schedule is a max-plus recurrence over frames, and
//! [`simulate`] evaluates it directly in stage order (see [`engine`]),
//! in memory bounded by the spec rather than the frame count, and in
//! work bounded by the schedule's regime changes: while every time moves
//! by its own shift per frame, or the state repeats, the run jumps
//! straight to the next frame where some max could change its winner.
//!
//! ```
//! use morph_pipeline::{simulate, PipelineSpec, StageSpec};
//!
//! let spec = PipelineSpec::chain(
//!     vec![
//!         StageSpec { name: "conv1".into(), service_cycles: 30 },
//!         StageSpec { name: "conv2".into(), service_cycles: 50 },
//!     ],
//!     &[2],
//! );
//! let stats = simulate(&spec, 8);
//! assert_eq!(stats.frames_out, 8);
//! // Steady state runs at the bottleneck's rate, not the serial sum.
//! assert!((stats.steady_cycles_per_frame() - 50.0).abs() < 1e-9);
//! assert_eq!(stats.stages[stats.bottleneck()].name, "conv2");
//! ```
//!
//! Scheduling is allocation-aware ([`balance`]): the conv DAG's stages
//! partition into **concurrently-live groups** (anti-chains — parallel
//! branches compete for the chip's compute clusters at the same instant),
//! and the allocation search shifts cluster share between the live stages
//! of each group — under a per-group cluster budget — to meet a service
//! deadline as cheaply as possible. Sweeping that deadline yields the
//! Pareto frontier over (steady throughput, energy per frame, peak
//! power) that [`ParetoReport`] captures.
//!
//! `morph-core` builds on this: `Backend::pipeline_caps` provisions the
//! channels, `Session` (in `PipelineMode::Analytic` / `Rebalanced` /
//! `DagRebalanced` / `Pareto`) schedules each conv-level dependency edge
//! of the network graph with the per-layer decision the optimizer already
//! produced, and the resulting [`PipelineReport`] — throughput, fill and
//! drain latency, utilization, per-stage cluster share, per-edge
//! occupancy, energy/power scores, the cross-branch bottleneck, the
//! linearized-chain baseline and (for sweeps) the Pareto frontier — rides
//! inside the serialized `RunReport` (since schema v4; v6 splits each
//! stage's stall time by cause with `starved_cycles`). For observability
//! beyond the aggregates, [`simulate_traced`] additionally streams the
//! same simulation as per-stage service/blocked/starved spans and
//! per-edge occupancy gauges — in simulated cycles, bit-identical across
//! runs — through a `morph_trace::Recorder`.

pub mod balance;
pub mod engine;
pub mod report;

pub use balance::{
    concurrent_groups, deadline_allocation, deadline_levels, fit_group_budgets, peak_power_mw,
    stage_power_mw, AllocCandidate,
};
pub use engine::{
    simulate, simulate_traced, ChannelStats, EdgeSpec, PipelineCaps, PipelineSpec, PipelineStats,
    StageSpec, StageStats,
};
pub use report::{
    pareto_frontier, EdgeReport, ParetoPoint, ParetoReport, PipelineMode, PipelineReport,
    StageReport,
};
