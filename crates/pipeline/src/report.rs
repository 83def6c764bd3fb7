//! Serializable pipeline scheduling reports.
//!
//! A [`PipelineReport`] summarizes one simulated streaming run of a
//! network on a backend: steady-state throughput, fill/drain latency, the
//! bottleneck stage (measured across every branch), per-stage utilization
//! and cluster share, per-channel occupancy on the explicit DAG edges,
//! energy per frame, peak power, the linearized-chain baseline the
//! branch-parallel schedule is compared against and — in
//! [`PipelineMode::Pareto`] — the [`ParetoReport`] frontier of
//! cluster-share allocations. It round-trips through `morph-json` exactly,
//! so it can ride inside a `RunReport` at schema v6; sections written
//! under an older schema are not read.

use crate::engine::PipelineStats;
use morph_json::{field, field_arr, field_f64, field_str, field_u64, FromJson, ToJson, Value};

/// How a session schedules layers across the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Per-layer scoring only (the paper's methodology); no pipeline.
    #[default]
    Off,
    /// Simulate the pipeline over the per-layer decisions as-is.
    Analytic,
    /// Simulate, then greedily re-optimize bottleneck stages with a
    /// latency objective to flatten the pipeline (one stage at a time —
    /// the pre-DAG-aware rebalancer).
    Rebalanced,
    /// DAG-aware rebalancing: the greedy pass first, then cluster share
    /// is shifted between concurrently-live branch stages — non-critical
    /// stages shrink onto fewer clusters (the cheapest mapping that still
    /// meets the bottleneck deadline) and fork/join groups are fitted
    /// into the chip's cluster budget where the reclaimed energy allows.
    /// Guarantees versus [`PipelineMode::Rebalanced`]: throughput never
    /// drops and energy per frame never rises. Peak power is scored
    /// honestly: fitted groups are genuinely co-resident (stage powers
    /// add), which can exceed the greedy schedule's time-multiplexed
    /// derate on branchy nets — cap it with [`PipelineMode::Pareto`]
    /// when power is the constraint.
    DagRebalanced,
    /// Sweep cluster-share allocations over service deadlines, simulate
    /// each with the event engine, and report the Pareto frontier over
    /// (steady throughput, energy per frame, peak power) as a
    /// [`ParetoReport`]. With a power cap only allocations whose peak
    /// power respects the cap enter the frontier, and the scheduled point
    /// is the fastest capped one.
    Pareto {
        /// Optional peak-power cap in mW; `None` sweeps unconstrained.
        power_cap_mw: Option<u64>,
    },
}

impl PipelineMode {
    /// Stable identifier used in serialized reports (the cap of
    /// [`PipelineMode::Pareto`] is carried separately — see
    /// [`PipelineMode::to_json`]).
    pub fn label(self) -> &'static str {
        match self {
            PipelineMode::Off => "off",
            PipelineMode::Analytic => "analytic",
            PipelineMode::Rebalanced => "rebalanced",
            PipelineMode::DagRebalanced => "dag_rebalanced",
            PipelineMode::Pareto { .. } => "pareto",
        }
    }

    /// Inverse of [`PipelineMode::label`] (`"pareto"` parses to an
    /// uncapped sweep).
    pub fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "off" => Ok(PipelineMode::Off),
            "analytic" => Ok(PipelineMode::Analytic),
            "rebalanced" => Ok(PipelineMode::Rebalanced),
            "dag_rebalanced" => Ok(PipelineMode::DagRebalanced),
            "pareto" => Ok(PipelineMode::Pareto { power_cap_mw: None }),
            other => Err(format!("unknown pipeline mode {other:?}")),
        }
    }
}

impl ToJson for PipelineMode {
    /// Simple modes serialize as their label string; a capped Pareto
    /// sweep serializes as `{"kind": "pareto", "power_cap_mw": <mW>}` so
    /// the cap round-trips.
    fn to_json(&self) -> Value {
        match self {
            PipelineMode::Pareto {
                power_cap_mw: Some(cap),
            } => Value::obj([
                ("kind", Value::Str("pareto".to_string())),
                ("power_cap_mw", Value::Int(*cap as i64)),
            ]),
            other => Value::Str(other.label().to_string()),
        }
    }
}

impl FromJson for PipelineMode {
    fn from_json(v: &Value) -> Result<Self, String> {
        if let Some(label) = v.as_str() {
            return PipelineMode::from_label(label);
        }
        match field_str(v, "kind")? {
            "pareto" => Ok(PipelineMode::Pareto {
                power_cap_mw: Some(field_u64(v, "power_cap_mw")?),
            }),
            other => Err(format!("unknown structured pipeline mode {other:?}")),
        }
    }
}

/// One stage of a [`PipelineReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage (layer) name.
    pub name: String,
    /// Scheduled per-frame service cycles (after any rebalancing).
    pub service_cycles: u64,
    /// Service cycles of the backend's original per-layer decision.
    pub base_service_cycles: u64,
    /// True if the rebalancer replaced this stage's mapping.
    pub rebalanced: bool,
    /// Busy cycles over the makespan.
    pub utilization: f64,
    /// Cycles spent blocked on a full output channel.
    pub blocked_cycles: u64,
    /// Cycles spent starved on empty input channels (blocked-on-empty;
    /// `0` for source stages).
    pub starved_cycles: u64,
    /// Compute clusters the stage is scheduled on (at least 1).
    pub clusters: u64,
}

/// One bounded channel of the scheduled DAG (a [`PipelineReport`] edge).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeReport {
    /// Producer stage index.
    pub from: u64,
    /// Consumer stage index.
    pub to: u64,
    /// Configured capacity in frames.
    pub capacity: u64,
    /// Peak frames simultaneously buffered.
    pub max_occupancy: u64,
    /// Time-weighted mean occupancy over the makespan.
    pub mean_occupancy: f64,
}

/// Streaming-throughput summary of one (backend, network) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Scheduling mode that produced this report.
    pub mode: PipelineMode,
    /// Frames simulated.
    pub frames: u64,
    /// Clock the cycle counts are converted at.
    pub clock_hz: u64,
    /// Cycle at which the last frame exited.
    pub makespan_cycles: u64,
    /// Cycle at which the first frame exited (fill latency).
    pub fill_cycles: u64,
    /// Makespan minus the last frame's entry (drain latency).
    pub drain_cycles: u64,
    /// Steady-state throughput of the branch-parallel DAG schedule in
    /// frames per second.
    pub steady_fps: f64,
    /// Non-pipelined throughput: clock over the summed per-layer latency.
    pub serial_fps: f64,
    /// Steady-state throughput of the same services scheduled as a
    /// linearized chain (the pre-DAG pipeline model) — the baseline the
    /// branch-parallel numbers are compared against.
    pub chain_fps: f64,
    /// Fill latency of the linearized-chain schedule.
    pub chain_fill_cycles: u64,
    /// Name of the bottleneck stage (across all branches).
    pub bottleneck: String,
    /// Energy one frame spends traversing every scheduled stage, in pJ.
    pub energy_per_frame_pj: f64,
    /// Peak chip power of the schedule in mW: the hottest
    /// concurrently-live stage group, with over-subscribed groups derated
    /// by their time-multiplexing factor.
    pub peak_power_mw: f64,
    /// Per-stage detail, in linearized order.
    pub stages: Vec<StageReport>,
    /// The scheduled DAG's bounded channels with occupancy stats.
    pub edges: Vec<EdgeReport>,
    /// The allocation frontier of a [`PipelineMode::Pareto`] sweep
    /// (`None` in every other mode).
    pub pareto: Option<ParetoReport>,
}

/// One non-dominated cluster-share allocation of a Pareto sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// Clusters allocated per stage, in linearized stage order.
    pub clusters: Vec<u64>,
    /// Steady-state throughput of the allocation (event-engine measured).
    pub steady_fps: f64,
    /// Energy one frame spends across all stages, in pJ.
    pub energy_per_frame_pj: f64,
    /// Peak power of the allocation in mW (hottest live group).
    pub peak_power_mw: f64,
}

impl ParetoPoint {
    /// True if `self` dominates `other`: at least as fast, at most as
    /// energy-hungry, at most as power-hungry — and strictly better on at
    /// least one axis.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.steady_fps >= other.steady_fps
            && self.energy_per_frame_pj <= other.energy_per_frame_pj
            && self.peak_power_mw <= other.peak_power_mw
            && (self.steady_fps > other.steady_fps
                || self.energy_per_frame_pj < other.energy_per_frame_pj
                || self.peak_power_mw < other.peak_power_mw)
    }
}

/// Drop dominated points and sort the survivors fastest-first (ties by
/// ascending energy, then power). Duplicate points collapse to one.
pub fn pareto_frontier(mut points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
    points.sort_by(|a, b| {
        b.steady_fps
            .total_cmp(&a.steady_fps)
            .then(a.energy_per_frame_pj.total_cmp(&b.energy_per_frame_pj))
            .then(a.peak_power_mw.total_cmp(&b.peak_power_mw))
    });
    points.dedup_by(|a, b| {
        a.steady_fps == b.steady_fps
            && a.energy_per_frame_pj == b.energy_per_frame_pj
            && a.peak_power_mw == b.peak_power_mw
    });
    let keep: Vec<bool> = points
        .iter()
        .map(|p| !points.iter().any(|q| q.dominates(p)))
        .collect();
    points
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

/// The product of a [`PipelineMode::Pareto`] sweep: every allocation on
/// the (throughput, energy/frame, peak power) frontier that respects the
/// power cap.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoReport {
    /// The peak-power cap the sweep ran under (`None` = unconstrained).
    pub power_cap_mw: Option<u64>,
    /// Distinct allocations the sweep evaluated (frontier and dominated,
    /// capped and uncapped alike).
    pub candidates: u64,
    /// The frontier, fastest point first. Empty iff no evaluated
    /// allocation respected the cap (the schedule then falls back to the
    /// lowest-power allocation).
    pub points: Vec<ParetoPoint>,
}

impl ParetoReport {
    /// The frontier's fastest point (`None` for an empty frontier).
    pub fn best_fps_point(&self) -> Option<&ParetoPoint> {
        self.points.first()
    }
}

impl PipelineReport {
    /// Assemble a report from simulation stats.
    ///
    /// `base_services[i]` is stage `i`'s pre-rebalance latency (equal to
    /// the simulated service unless `rebalanced[i]`); `serial_fps` is
    /// derived from their sum — the throughput of scoring every layer in
    /// isolation, which pipelining can only improve. `clusters[i]` is the
    /// compute-cluster share stage `i` is scheduled on. The chain-baseline
    /// fields default to the DAG numbers (exact for linear networks);
    /// callers that also simulated the linearized chain override them
    /// with [`PipelineReport::with_chain_baseline`], and energy/power ride
    /// in via [`PipelineReport::with_power`].
    pub fn from_stats(
        stats: &PipelineStats,
        mode: PipelineMode,
        clock_hz: u64,
        base_services: &[u64],
        rebalanced: &[bool],
        clusters: &[usize],
    ) -> Self {
        assert_eq!(stats.stages.len(), base_services.len());
        assert_eq!(stats.stages.len(), rebalanced.len());
        assert_eq!(stats.stages.len(), clusters.len());
        let serial_cycles: u64 = base_services.iter().sum();
        let stages: Vec<StageReport> = stats
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| StageReport {
                name: s.name.clone(),
                service_cycles: s.service_cycles,
                base_service_cycles: base_services[i],
                rebalanced: rebalanced[i],
                utilization: stats.utilization(i),
                blocked_cycles: s.blocked_cycles,
                starved_cycles: s.starved_cycles,
                clusters: clusters[i] as u64,
            })
            .collect();
        let edges: Vec<EdgeReport> = stats
            .channels
            .iter()
            .map(|c| EdgeReport {
                from: c.from as u64,
                to: c.to as u64,
                capacity: c.capacity as u64,
                max_occupancy: c.max_occupancy as u64,
                mean_occupancy: c.mean_occupancy,
            })
            .collect();
        let steady_fps = clock_hz as f64 / stats.steady_cycles_per_frame().max(1.0);
        PipelineReport {
            mode,
            frames: stats.frames_out,
            clock_hz,
            makespan_cycles: stats.makespan_cycles,
            fill_cycles: stats.fill_cycles,
            drain_cycles: stats.drain_cycles,
            steady_fps,
            serial_fps: clock_hz as f64 / (serial_cycles.max(1)) as f64,
            chain_fps: steady_fps,
            chain_fill_cycles: stats.fill_cycles,
            bottleneck: stats.stages[stats.bottleneck()].name.clone(),
            energy_per_frame_pj: 0.0,
            peak_power_mw: 0.0,
            stages,
            edges,
            pareto: None,
        }
    }

    /// Record the linearized-chain baseline (steady throughput and fill
    /// latency of the same services scheduled as a chain).
    pub fn with_chain_baseline(mut self, chain_fps: f64, chain_fill_cycles: u64) -> Self {
        self.chain_fps = chain_fps;
        self.chain_fill_cycles = chain_fill_cycles;
        self
    }

    /// Record the schedule's energy-per-frame and peak-power scores.
    pub fn with_power(mut self, energy_per_frame_pj: f64, peak_power_mw: f64) -> Self {
        self.energy_per_frame_pj = energy_per_frame_pj;
        self.peak_power_mw = peak_power_mw;
        self
    }

    /// Attach the allocation frontier of a [`PipelineMode::Pareto`] sweep.
    pub fn with_pareto(mut self, pareto: Option<ParetoReport>) -> Self {
        self.pareto = pareto;
        self
    }

    /// Streaming speedup over per-layer-serial execution.
    pub fn speedup(&self) -> f64 {
        self.steady_fps / self.serial_fps
    }

    /// Fill-latency speedup of the branch-parallel schedule over the
    /// linearized chain (1.0 for linear networks).
    pub fn fill_speedup(&self) -> f64 {
        self.chain_fill_cycles as f64 / (self.fill_cycles.max(1)) as f64
    }

    /// Number of stages the rebalancer changed.
    pub fn rebalanced_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.rebalanced).count()
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:.1} frames/s steady ({:.2}x over serial), fill {:.2} ms ({:.2}x vs chain), bottleneck {}",
            self.steady_fps,
            self.speedup(),
            self.fill_cycles as f64 / self.clock_hz as f64 * 1e3,
            self.fill_speedup(),
            self.bottleneck,
        )
    }
}

impl ToJson for StageReport {
    fn to_json(&self) -> Value {
        Value::obj([
            ("name", Value::Str(self.name.clone())),
            ("service_cycles", Value::Int(self.service_cycles as i64)),
            (
                "base_service_cycles",
                Value::Int(self.base_service_cycles as i64),
            ),
            ("rebalanced", Value::Bool(self.rebalanced)),
            ("utilization", Value::Float(self.utilization)),
            ("blocked_cycles", Value::Int(self.blocked_cycles as i64)),
            ("starved_cycles", Value::Int(self.starved_cycles as i64)),
            ("clusters", Value::Int(self.clusters as i64)),
        ])
    }
}

impl FromJson for StageReport {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(StageReport {
            name: field_str(v, "name")?.to_string(),
            service_cycles: field_u64(v, "service_cycles")?,
            base_service_cycles: field_u64(v, "base_service_cycles")?,
            rebalanced: field(v, "rebalanced")?
                .as_bool()
                .ok_or_else(|| "field \"rebalanced\" is not a bool".to_string())?,
            utilization: field_f64(v, "utilization")?,
            blocked_cycles: field_u64(v, "blocked_cycles")?,
            starved_cycles: field_u64(v, "starved_cycles")?,
            clusters: field_u64(v, "clusters")?,
        })
    }
}

impl ToJson for ParetoPoint {
    fn to_json(&self) -> Value {
        Value::obj([
            (
                "clusters",
                Value::Arr(
                    self.clusters
                        .iter()
                        .map(|&c| Value::Int(c as i64))
                        .collect(),
                ),
            ),
            ("steady_fps", Value::Float(self.steady_fps)),
            (
                "energy_per_frame_pj",
                Value::Float(self.energy_per_frame_pj),
            ),
            ("peak_power_mw", Value::Float(self.peak_power_mw)),
        ])
    }
}

impl FromJson for ParetoPoint {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(ParetoPoint {
            clusters: field_arr(v, "clusters")?
                .iter()
                .map(|c| c.as_u64().ok_or("cluster share must be an int"))
                .collect::<Result<Vec<_>, _>>()?,
            steady_fps: field_f64(v, "steady_fps")?,
            energy_per_frame_pj: field_f64(v, "energy_per_frame_pj")?,
            peak_power_mw: field_f64(v, "peak_power_mw")?,
        })
    }
}

impl ToJson for ParetoReport {
    fn to_json(&self) -> Value {
        Value::obj([
            (
                "power_cap_mw",
                self.power_cap_mw
                    .map_or(Value::Null, |cap| Value::Int(cap as i64)),
            ),
            ("candidates", Value::Int(self.candidates as i64)),
            ("points", self.points.to_json()),
        ])
    }
}

impl FromJson for ParetoReport {
    fn from_json(v: &Value) -> Result<Self, String> {
        let power_cap_mw = match field(v, "power_cap_mw")? {
            Value::Null => None,
            cap => Some(cap.as_u64().ok_or("power cap must be an int")?),
        };
        Ok(ParetoReport {
            power_cap_mw,
            candidates: field_u64(v, "candidates")?,
            points: field_arr(v, "points")?
                .iter()
                .map(ParetoPoint::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

impl ToJson for EdgeReport {
    fn to_json(&self) -> Value {
        Value::obj([
            ("from", Value::Int(self.from as i64)),
            ("to", Value::Int(self.to as i64)),
            ("capacity", Value::Int(self.capacity as i64)),
            ("max_occupancy", Value::Int(self.max_occupancy as i64)),
            ("mean_occupancy", Value::Float(self.mean_occupancy)),
        ])
    }
}

impl FromJson for EdgeReport {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(EdgeReport {
            from: field_u64(v, "from")?,
            to: field_u64(v, "to")?,
            capacity: field_u64(v, "capacity")?,
            max_occupancy: field_u64(v, "max_occupancy")?,
            mean_occupancy: field_f64(v, "mean_occupancy")?,
        })
    }
}

impl ToJson for PipelineReport {
    fn to_json(&self) -> Value {
        Value::obj([
            ("mode", self.mode.to_json()),
            ("frames", Value::Int(self.frames as i64)),
            ("clock_hz", Value::Int(self.clock_hz as i64)),
            ("makespan_cycles", Value::Int(self.makespan_cycles as i64)),
            ("fill_cycles", Value::Int(self.fill_cycles as i64)),
            ("drain_cycles", Value::Int(self.drain_cycles as i64)),
            ("steady_fps", Value::Float(self.steady_fps)),
            ("serial_fps", Value::Float(self.serial_fps)),
            ("chain_fps", Value::Float(self.chain_fps)),
            (
                "chain_fill_cycles",
                Value::Int(self.chain_fill_cycles as i64),
            ),
            ("bottleneck", Value::Str(self.bottleneck.clone())),
            (
                "energy_per_frame_pj",
                Value::Float(self.energy_per_frame_pj),
            ),
            ("peak_power_mw", Value::Float(self.peak_power_mw)),
            ("stages", self.stages.to_json()),
            ("edges", self.edges.to_json()),
            ("pareto", self.pareto.to_json()),
        ])
    }
}

impl FromJson for PipelineReport {
    fn from_json(v: &Value) -> Result<Self, String> {
        let pareto = match field(v, "pareto")? {
            Value::Null => None,
            p => Some(ParetoReport::from_json(p)?),
        };
        Ok(PipelineReport {
            mode: PipelineMode::from_json(field(v, "mode")?)?,
            frames: field_u64(v, "frames")?,
            clock_hz: field_u64(v, "clock_hz")?,
            makespan_cycles: field_u64(v, "makespan_cycles")?,
            fill_cycles: field_u64(v, "fill_cycles")?,
            drain_cycles: field_u64(v, "drain_cycles")?,
            steady_fps: field_f64(v, "steady_fps")?,
            serial_fps: field_f64(v, "serial_fps")?,
            chain_fps: field_f64(v, "chain_fps")?,
            chain_fill_cycles: field_u64(v, "chain_fill_cycles")?,
            bottleneck: field_str(v, "bottleneck")?.to_string(),
            energy_per_frame_pj: field_f64(v, "energy_per_frame_pj")?,
            peak_power_mw: field_f64(v, "peak_power_mw")?,
            stages: field_arr(v, "stages")?
                .iter()
                .map(StageReport::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            edges: field_arr(v, "edges")?
                .iter()
                .map(EdgeReport::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            pareto,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, EdgeSpec, PipelineSpec, StageSpec};

    fn sample() -> PipelineReport {
        let spec = PipelineSpec::chain(
            vec![
                StageSpec {
                    name: "conv1".into(),
                    service_cycles: 40,
                },
                StageSpec {
                    name: "conv2".into(),
                    service_cycles: 100,
                },
                StageSpec {
                    name: "conv3".into(),
                    service_cycles: 25,
                },
            ],
            &[2, 2],
        );
        let stats = simulate(&spec, 16);
        PipelineReport::from_stats(
            &stats,
            PipelineMode::Rebalanced,
            1_000_000_000,
            &[40, 130, 25],
            &[false, true, false],
            &[6, 6, 6],
        )
        .with_power(5e9, 120.0)
    }

    fn dag_sample() -> PipelineReport {
        // stem -> {b0, b1} -> head, a real fork/join.
        let spec = PipelineSpec {
            stages: ["stem", "b0", "b1", "head"]
                .iter()
                .zip([10u64, 30, 45, 10])
                .map(|(n, s)| StageSpec {
                    name: (*n).into(),
                    service_cycles: s,
                })
                .collect(),
            edges: vec![
                EdgeSpec {
                    from: 0,
                    to: 1,
                    capacity: 2,
                },
                EdgeSpec {
                    from: 0,
                    to: 2,
                    capacity: 2,
                },
                EdgeSpec {
                    from: 1,
                    to: 3,
                    capacity: 2,
                },
                EdgeSpec {
                    from: 2,
                    to: 3,
                    capacity: 2,
                },
            ],
        };
        let stats = simulate(&spec, 16);
        let chain = PipelineSpec::chain(spec.stages.clone(), &[2, 2, 2]);
        let chain_stats = simulate(&chain, 16);
        PipelineReport::from_stats(
            &stats,
            PipelineMode::Pareto {
                power_cap_mw: Some(250),
            },
            1_000_000_000,
            &[10, 30, 45, 10],
            &[false; 4],
            &[6, 2, 4, 6],
        )
        .with_chain_baseline(
            1e9 / chain_stats.steady_cycles_per_frame(),
            chain_stats.fill_cycles,
        )
        .with_power(3e9, 200.0)
        .with_pareto(Some(ParetoReport {
            power_cap_mw: Some(250),
            candidates: 7,
            points: vec![
                ParetoPoint {
                    clusters: vec![6, 2, 4, 6],
                    steady_fps: 2.0e7,
                    energy_per_frame_pj: 3e9,
                    peak_power_mw: 200.0,
                },
                ParetoPoint {
                    clusters: vec![2, 1, 2, 2],
                    steady_fps: 1.1e7,
                    energy_per_frame_pj: 3.4e9,
                    peak_power_mw: 90.0,
                },
            ],
        }))
    }

    #[test]
    fn pipelining_only_helps() {
        let r = sample();
        assert!(r.steady_fps >= r.serial_fps);
        assert!(r.speedup() >= 1.0);
        assert_eq!(r.bottleneck, "conv2");
        assert_eq!(r.rebalanced_stages(), 1);
        // A chain is its own baseline.
        assert_eq!(r.chain_fps, r.steady_fps);
        assert_eq!(r.chain_fill_cycles, r.fill_cycles);
        assert_eq!(r.edges.len(), 2);
    }

    #[test]
    fn branch_parallel_beats_the_chain_on_fill() {
        let r = dag_sample();
        // Fork/join fill is the critical path (10+45+10), not the serial
        // sum (95).
        assert_eq!(r.fill_cycles, 65);
        assert_eq!(r.chain_fill_cycles, 95);
        assert!(r.fill_speedup() > 1.0);
        // Steady state is bottleneck-limited either way.
        assert!(r.steady_fps >= r.chain_fps - 1e-6);
        assert_eq!(r.edges.len(), 4);
    }

    #[test]
    fn json_round_trip_is_exact() {
        for r in [sample(), dag_sample()] {
            let back =
                PipelineReport::from_json(&Value::parse(&r.to_json().pretty()).unwrap()).unwrap();
            assert_eq!(r, back);
        }
    }

    #[test]
    fn frontier_drops_dominated_points_and_sorts() {
        let p = |fps: f64, e: f64, mw: f64| ParetoPoint {
            clusters: vec![1],
            steady_fps: fps,
            energy_per_frame_pj: e,
            peak_power_mw: mw,
        };
        let frontier = pareto_frontier(vec![
            p(10.0, 5.0, 100.0),
            p(8.0, 6.0, 120.0),  // dominated by the first on every axis
            p(8.0, 4.0, 80.0),   // slower but cheaper and cooler: kept
            p(10.0, 5.0, 100.0), // exact duplicate: collapsed
            p(2.0, 9.0, 70.0),   // cooler than everything: kept
        ]);
        assert_eq!(frontier.len(), 3);
        assert_eq!(frontier[0].steady_fps, 10.0);
        assert_eq!(frontier[1].steady_fps, 8.0);
        assert_eq!(frontier[2].peak_power_mw, 70.0);
        for a in &frontier {
            assert!(!frontier.iter().any(|b| b.dominates(a)));
        }
    }

    #[test]
    fn pareto_section_and_capped_mode_round_trip() {
        let r = dag_sample();
        assert_eq!(
            r.mode,
            PipelineMode::Pareto {
                power_cap_mw: Some(250)
            }
        );
        let back =
            PipelineReport::from_json(&Value::parse(&r.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(r, back);
        let pareto = back.pareto.as_ref().unwrap();
        assert_eq!(pareto.power_cap_mw, Some(250));
        assert_eq!(pareto.candidates, 7);
        assert_eq!(pareto.best_fps_point().unwrap().steady_fps, 2.0e7);
        assert_eq!(back.stages[1].clusters, 2);
        assert_eq!(back.energy_per_frame_pj, 3e9);
        assert_eq!(back.peak_power_mw, 200.0);
    }

    #[test]
    fn mode_labels_round_trip() {
        for m in [
            PipelineMode::Off,
            PipelineMode::Analytic,
            PipelineMode::Rebalanced,
            PipelineMode::DagRebalanced,
            PipelineMode::Pareto { power_cap_mw: None },
        ] {
            assert_eq!(PipelineMode::from_label(m.label()).unwrap(), m);
            assert_eq!(PipelineMode::from_json(&m.to_json()).unwrap(), m);
        }
        // A capped sweep round-trips through the structured form.
        let capped = PipelineMode::Pareto {
            power_cap_mw: Some(450),
        };
        assert_eq!(PipelineMode::from_json(&capped.to_json()).unwrap(), capped);
        assert_eq!(capped.label(), "pareto");
        assert!(PipelineMode::from_label("bogus").is_err());
    }

    #[test]
    fn summary_names_the_bottleneck() {
        assert!(sample().summary().contains("conv2"));
    }
}
