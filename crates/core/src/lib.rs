//! # morph-core
//!
//! The top-level public API of the Morph reproduction (MICRO 2018,
//! "Morph: Flexible Acceleration for 3D CNN-based Video Understanding").
//!
//! Accelerator models implement the [`Backend`] trait; the paper's §VI-B
//! points of comparison ship as three built-in implementors, each
//! constructed through a builder that fixes provisioning, search effort
//! and objective:
//!
//! * [`Morph`] — the flexible Morph design: per-layer loop orders, tile
//!   sizes, banked shared buffers, searched parallelism.
//! * [`MorphBase`] — the inflexible baseline: fixed `[WHCKF]`/`[cfwhk]`
//!   orders, Table I static partitions, fixed `Hp × Kp` parallelism.
//! * [`Eyeriss`] — the Eyeriss-like 2D accelerator evaluating 3D CNNs
//!   frame by frame.
//!
//! A [`Session`] runs any set of backends over any set of networks with
//! concurrent pair execution (every pair's layers fan out over one worker
//! pool) and a memoized decision cache (identical layer shapes are decided
//! once), producing a JSON-serializable [`RunReport`] with per-layer
//! decisions, cycle counts and energy breakdowns:
//!
//! ```no_run
//! use morph_core::{Eyeriss, Morph, MorphBase, RunReport, Session};
//! use morph_nets::zoo;
//!
//! let report = Session::builder()
//!     .backend(Morph::builder().build())
//!     .backend(MorphBase::builder().build())
//!     .backend(Eyeriss::builder().build())
//!     .network(zoo::c3d())
//!     .build()
//!     .run();
//!
//! let morph = report.find("Morph", "C3D").unwrap();
//! let base = report.find("Morph_base", "C3D").unwrap();
//! println!("Morph saves {:.2}x energy", base.normalized_energy(morph));
//!
//! // Reports round-trip through JSON for machine-checkable trajectories.
//! let json = report.to_json_string();
//! assert_eq!(RunReport::from_json_str(&json).unwrap(), report);
//! ```
//!
//! Builders expose the evaluation knobs directly:
//!
//! ```
//! use morph_core::{Backend, Effort, Morph, Objective};
//! use morph_tensor::shape::ConvShape;
//!
//! let perf = Morph::builder()
//!     .effort(Effort::Fast)
//!     .objective(Objective::Performance)
//!     .build();
//! let layer = ConvShape::new_3d(14, 14, 4, 32, 64, 3, 3, 3).with_pad(1, 1);
//! assert!(perf.run_layer(&layer).total_pj() > 0.0);
//! ```
//!
//! Networks are **graph-native**: `morph_nets::Network` is a DAG of conv,
//! pool and explicit concat/add join nodes with typed `NodeId` edges, a
//! fluent `conv`/`pool` chain builder plus `fork()`/branch builders for
//! real Inception modules, residual bypasses and parallel input streams —
//! every connection is shape-checked exactly, and the deterministic
//! linearization keeps per-layer totals identical to the flat-list era.
//!
//! For streaming-video workloads, a session can additionally schedule each
//! network's conv-level dependency DAG as a cross-layer pipeline
//! ([`PipelineMode`], backed by the `morph-pipeline` schedule engine):
//! fork/join branches run as genuinely parallel stages on disjoint cluster
//! subsets (each branch channel takes a proportional split of the staging
//! buffer), and every run carries a [`PipelineReport`] with steady-state
//! frames/sec, fill/drain latency, per-stage utilization and cluster
//! share, per-edge occupancy, energy/frame and peak power, the
//! cross-branch bottleneck and the linearized-chain baseline it improves
//! on:
//!
//! ```no_run
//! use morph_core::{Morph, PipelineMode, Session};
//! use morph_nets::zoo;
//!
//! let report = Session::builder()
//!     .backend(Morph::builder().build())
//!     .network(zoo::by_name("Two_Stream").unwrap()) // two parallel streams
//!     .pipeline(PipelineMode::Rebalanced)
//!     .build()
//!     .run();
//! let p = report.runs[0].pipeline.as_ref().unwrap();
//! println!(
//!     "{:.1} frames/s, bottleneck {}, fill {:.2}x faster than the chain",
//!     p.steady_fps,
//!     p.bottleneck,
//!     p.fill_speedup()
//! );
//! ```
//!
//! Scheduling is **allocation-aware**: anti-chains of the conv DAG are
//! concurrently-live stage groups competing for the chip's compute
//! clusters. [`PipelineMode::DagRebalanced`] shifts cluster share
//! between live branch stages under a per-group budget
//! ([`Backend::evaluate_layer_budget_sweep`]) — throughput never drops below
//! the greedy rebalancer and energy/frame never rises — and
//! [`PipelineMode::Pareto`] sweeps allocations into a non-dominated
//! (frames/sec, energy/frame, peak power) frontier, optionally under a
//! peak-power cap ([`ParetoReport`]; see `examples/pareto.rs`):
//!
//! ```no_run
//! use morph_core::{Morph, PipelineMode, Session};
//! use morph_nets::zoo;
//!
//! let report = Session::builder()
//!     .backend(Morph::builder().build())
//!     .network(zoo::by_name("Two_Stream").unwrap())
//!     .pipeline(PipelineMode::Pareto { power_cap_mw: Some(500) })
//!     .build()
//!     .run();
//! let p = report.runs[0].pipeline.as_ref().unwrap();
//! for point in &p.pareto.as_ref().unwrap().points {
//!     println!(
//!         "{:.1} frames/s at {:.0} mW, {:.2} mJ/frame",
//!         point.steady_fps,
//!         point.peak_power_mw,
//!         point.energy_per_frame_pj / 1e9
//!     );
//! }
//! ```

pub mod backend;
pub mod par;
pub mod report;
pub mod session;

pub use backend::{
    Backend, Eyeriss, EyerissBuilder, LayerEval, MappingDecision, Morph, MorphBase,
    MorphBaseBuilder, MorphBuilder,
};
pub use morph_dataflow::arch::{ArchSpec, OnChipLevel};
pub use morph_dataflow::perf::Parallelism;
pub use morph_energy::{EnergyModel, EnergyReport};
pub use morph_optimizer::{
    DecisionStore, Effort, LayerDecision, Objective, Optimizer, SearchStats, StoreKey,
    StoredDecision,
};
pub use morph_pipeline::{
    EdgeReport, ParetoPoint, ParetoReport, PipelineCaps, PipelineMode, PipelineReport, StageReport,
};
pub use report::{LayerRecord, NetworkRun, RunReport, SCHEMA_VERSION};
pub use session::{Session, SessionBuilder, DEFAULT_PIPELINE_FRAMES};
