//! Structured, serializable evaluation reports.
//!
//! A [`RunReport`] is the machine-readable product of a [`crate::Session`]:
//! one [`NetworkRun`] per (backend, network) pair, each carrying per-layer
//! mapping decisions, cycle counts and energy breakdowns. Reports
//! round-trip through JSON (`to_json_string` / `from_json_str`), so the
//! experiment binaries regenerate their text tables from the same data
//! they persist to `experiments_out/`.

use crate::backend::MappingDecision;
use morph_energy::EnergyReport;
use morph_json::{FromJson, ToJson, Value};
use morph_optimizer::{Objective, SearchStats};
use morph_pipeline::PipelineReport;
use morph_tensor::shape::ConvShape;

/// Version stamp written into every serialized report.
///
/// v2 added the optional per-run `pipeline` section ([`PipelineReport`]).
/// v3 made networks graph-native: each run carries its conv-level
/// dependency `edges`, and the pipeline section gained explicit DAG
/// `edges` plus the linearized-chain baseline (`chain_fps`,
/// `chain_fill_cycles`). v4 made schedules allocation-aware: pipeline
/// stages record their compute-cluster share (`clusters`), the section
/// scores the schedule (`energy_per_frame_pj`, `peak_power_mw`), the
/// `mode` accepts the structured capped-Pareto form, and Pareto sweeps
/// attach their allocation frontier (`pareto`:
/// [`morph_pipeline::ParetoReport`]). v5 records the mapping search's
/// effort: each run of a searched backend carries `search`
/// ([`SearchStats`] — candidates enumerated / bound-pruned / fully
/// costed behind the run's decisions). v6 broke pipeline stall time out
/// by cause: each pipeline stage records `starved_cycles` (cycles blocked
/// on an **empty** input channel) alongside the existing `blocked_cycles`
/// (blocked on a full output channel), giving reports a per-stage
/// blocked-cycle breakdown; trace timelines stay out of the schema
/// entirely — they are sidecar files (see `morph-trace`). Documents with
/// an older stamp are rejected: nothing writes them any more.
pub const SCHEMA_VERSION: u32 = 6;

/// One evaluated layer inside a [`NetworkRun`].
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRecord {
    /// Layer name (e.g. `"conv3a"`).
    pub name: String,
    /// Convolution shape.
    pub shape: ConvShape,
    /// Chosen mapping (`None` for fixed-dataflow backends).
    pub decision: Option<MappingDecision>,
    /// Energy/cycle breakdown.
    pub report: EnergyReport,
}

/// One backend evaluated over one network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRun {
    /// Backend display name (`"Morph"`, `"Morph_base"`, `"Eyeriss"`, …).
    pub backend: String,
    /// Network name.
    pub network: String,
    /// Objective the backend optimized for.
    pub objective: Objective,
    /// Layer evaluations served from the session's decision cache
    /// (repeated shapes are decided once).
    pub cache_hits: u64,
    /// Per-layer records, in the network's linearized (topological) order.
    pub layers: Vec<LayerRecord>,
    /// Conv-level dependency edges `(producer, consumer)` as indices into
    /// `layers` — the network graph with pools and joins collapsed. A
    /// linear chain is `[(0,1), (1,2), …]`; fork/join networks carry
    /// their real branch structure.
    pub edges: Vec<(usize, usize)>,
    /// Sum over layers.
    pub total: EnergyReport,
    /// Streaming-pipeline schedule and throughput (`None` when the session
    /// ran with [`morph_pipeline::PipelineMode::Off`]).
    pub pipeline: Option<PipelineReport>,
    /// Mapping-search effort behind this run's decisions: summed
    /// [`SearchStats`] of the run's distinct layer shapes (`None` for
    /// fixed-dataflow backends, whose evaluations search nothing).
    pub search: Option<SearchStats>,
}

impl NetworkRun {
    /// Energy normalized to another run (Fig. 9's y-axis).
    pub fn normalized_energy(&self, baseline: &NetworkRun) -> f64 {
        self.total.total_pj() / baseline.total.total_pj()
    }

    /// Perf/W normalized to another run (Fig. 10's y-axis).
    pub fn normalized_perf_per_watt(&self, baseline: &NetworkRun) -> f64 {
        self.total.perf_per_watt() / baseline.total.perf_per_watt()
    }

    /// Render the five Fig. 9 stack components as percentages of total
    /// dynamic energy.
    pub fn breakdown_percent(&self) -> [f64; 5] {
        let c = self.total.fig9_components();
        let sum: f64 = c.iter().sum();
        c.map(|x| 100.0 * x / sum.max(f64::MIN_POSITIVE))
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} on {}: {:.3} mJ total ({:.3} mJ dynamic), {:.2} ms, util {:.1}%",
            self.network,
            self.backend,
            self.total.total_pj() / 1e9,
            self.total.dynamic_pj() / 1e9,
            self.total.cycles.total as f64 / 1e6,
            100.0 * self.total.cycles.utilization(),
        )
    }

    /// Look up a layer record by name.
    pub fn layer(&self, name: &str) -> Option<&LayerRecord> {
        self.layers.iter().find(|l| l.name == name)
    }
}

/// The serializable product of a [`crate::Session`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Serialization schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// One entry per (backend, network) pair, in session order.
    pub runs: Vec<NetworkRun>,
}

impl RunReport {
    /// An empty report at the current schema version.
    pub fn new() -> Self {
        RunReport {
            schema: SCHEMA_VERSION,
            runs: Vec::new(),
        }
    }

    /// Find the run for a backend/network pair.
    pub fn find(&self, backend: &str, network: &str) -> Option<&NetworkRun> {
        self.runs
            .iter()
            .find(|r| r.backend == backend && r.network == network)
    }

    /// All runs of one network, in session (backend) order.
    pub fn network_runs(&self, network: &str) -> Vec<&NetworkRun> {
        self.runs.iter().filter(|r| r.network == network).collect()
    }

    /// Merge several reports into one (schema must match).
    pub fn merged(reports: impl IntoIterator<Item = RunReport>) -> Result<RunReport, String> {
        let mut out = RunReport::new();
        for r in reports {
            if r.schema != out.schema {
                return Err(format!("schema mismatch: {} vs {}", r.schema, out.schema));
            }
            out.runs.extend(r.runs);
        }
        Ok(out)
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Parse a report serialized with [`RunReport::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }
}

impl Default for RunReport {
    fn default() -> Self {
        Self::new()
    }
}

impl ToJson for LayerRecord {
    fn to_json(&self) -> Value {
        Value::obj([
            ("name", Value::Str(self.name.clone())),
            ("shape", self.shape.to_json()),
            ("decision", self.decision.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

impl FromJson for LayerRecord {
    fn from_json(v: &Value) -> Result<Self, String> {
        use morph_json::{field, field_str};
        let decision = match field(v, "decision")? {
            Value::Null => None,
            d => Some(MappingDecision::from_json(d)?),
        };
        Ok(LayerRecord {
            name: field_str(v, "name")?.to_string(),
            shape: ConvShape::from_json(field(v, "shape")?)?,
            decision,
            report: EnergyReport::from_json(field(v, "report")?)?,
        })
    }
}

impl ToJson for NetworkRun {
    fn to_json(&self) -> Value {
        let edges = Value::Arr(
            self.edges
                .iter()
                .map(|&(from, to)| Value::Arr(vec![Value::Int(from as i64), Value::Int(to as i64)]))
                .collect(),
        );
        Value::obj([
            ("backend", Value::Str(self.backend.clone())),
            ("network", Value::Str(self.network.clone())),
            ("objective", self.objective.to_json()),
            ("cache_hits", Value::Int(self.cache_hits as i64)),
            ("layers", self.layers.to_json()),
            ("edges", edges),
            ("total", self.total.to_json()),
            ("pipeline", self.pipeline.to_json()),
            ("search", self.search.to_json()),
        ])
    }
}

impl FromJson for NetworkRun {
    fn from_json(v: &Value) -> Result<Self, String> {
        use morph_json::{field, field_arr, field_str, field_u64};
        let pipeline = match field(v, "pipeline")? {
            Value::Null => None,
            p => Some(PipelineReport::from_json(p)?),
        };
        let layers: Vec<LayerRecord> = field_arr(v, "layers")?
            .iter()
            .map(LayerRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let edges = field_arr(v, "edges")?
            .iter()
            .map(|pair| match pair {
                Value::Arr(e) if e.len() == 2 => {
                    let from = e[0].as_u64().ok_or("edge endpoint must be an int")?;
                    let to = e[1].as_u64().ok_or("edge endpoint must be an int")?;
                    Ok((from as usize, to as usize))
                }
                other => Err(format!("edge must be a [from, to] pair, got {other:?}")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let search = match field(v, "search")? {
            Value::Null => None,
            s => Some(SearchStats::from_json(s)?),
        };
        Ok(NetworkRun {
            backend: field_str(v, "backend")?.to_string(),
            network: field_str(v, "network")?.to_string(),
            objective: Objective::from_json(field(v, "objective")?)?,
            cache_hits: field_u64(v, "cache_hits")?,
            layers,
            edges,
            total: EnergyReport::from_json(field(v, "total")?)?,
            pipeline,
            search,
        })
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Value {
        Value::obj([
            ("schema", Value::Int(self.schema as i64)),
            ("runs", self.runs.to_json()),
        ])
    }
}

impl FromJson for RunReport {
    fn from_json(v: &Value) -> Result<Self, String> {
        use morph_json::{field_arr, field_u64};
        let schema = field_u64(v, "schema")? as u32;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unsupported report schema {schema}, expected {SCHEMA_VERSION}"
            ));
        }
        Ok(RunReport {
            schema: SCHEMA_VERSION,
            runs: field_arr(v, "runs")?
                .iter()
                .map(NetworkRun::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Eyeriss, Morph, MorphBase};
    use crate::session::Session;
    use morph_nets::Network;

    fn tiny_net() -> Network {
        let mut n = Network::new("tiny");
        n.conv(
            "c1",
            ConvShape::new_3d(8, 8, 4, 4, 8, 3, 3, 3).with_pad(1, 1),
        );
        n.conv(
            "c2",
            ConvShape::new_3d(8, 8, 4, 8, 8, 3, 3, 3).with_pad(1, 1),
        );
        n
    }

    fn tiny_report() -> RunReport {
        Session::builder()
            .backend(Morph::new())
            .backend(MorphBase::new())
            .backend(Eyeriss::new())
            .network(tiny_net())
            .build()
            .run()
    }

    #[test]
    fn totals_sum_layers() {
        let rep = tiny_report();
        let run = rep.find("Morph", "tiny").unwrap();
        assert_eq!(run.layers.len(), 2);
        let sum: f64 = run.layers.iter().map(|l| l.report.total_pj()).sum();
        assert!((run.total.total_pj() - sum).abs() < 1e-6);
    }

    #[test]
    fn breakdown_sums_to_100() {
        let rep = tiny_report();
        let total: f64 = rep
            .find("Morph_base", "tiny")
            .unwrap()
            .breakdown_percent()
            .iter()
            .sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_is_reciprocal() {
        let rep = tiny_report();
        let a = rep.find("Morph", "tiny").unwrap();
        let b = rep.find("Morph_base", "tiny").unwrap();
        let x = a.normalized_energy(b);
        let y = b.normalized_energy(a);
        assert!((x * y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_mentions_names() {
        let rep = tiny_report();
        let s = rep.find("Eyeriss", "tiny").unwrap().summary();
        assert!(s.contains("tiny") && s.contains("Eyeriss"));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let rep = tiny_report();
        let text = rep.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(rep, back);
    }

    #[test]
    fn too_old_or_future_schemas_are_rejected() {
        let mut rep = tiny_report();
        for old in [1, 5] {
            rep.schema = old;
            let err = RunReport::from_json_str(&rep.to_json_string()).unwrap_err();
            assert!(err.contains("unsupported report schema"), "{err}");
        }
        rep.schema = SCHEMA_VERSION + 1;
        assert!(RunReport::from_json_str(&rep.to_json_string()).is_err());
    }

    #[test]
    fn merged_concatenates_runs() {
        let a = tiny_report();
        let n = a.runs.len();
        let merged = RunReport::merged([a.clone(), a]).unwrap();
        assert_eq!(merged.runs.len(), 2 * n);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut rep = tiny_report();
        rep.schema = 999;
        assert!(RunReport::from_json_str(&rep.to_json_string()).is_err());
    }
}
