//! Report-consistency audit: validate serialized `RunReport` documents
//! (schema v6) and the committed `baseline.json` perf-gate summary
//! directly on the JSON tree.
//!
//! This pass deliberately does **not** go through `RunReport::from_json`
//! — the deserializer is part of the code under audit. Instead the checks
//! here walk the raw [`morph_json::Value`] tree and re-derive every
//! cross-field invariant: totals vs per-layer sums, edge
//! well-formedness, per-stage cluster shares against the chip budget,
//! Pareto frontier sanity (mutual non-domination, power cap,
//! fastest-first order), and search-stats arithmetic. A malformed document (bad JSON, missing field, schema out
//! of range) becomes a [`Violation`] rather than a crash or a silent
//! default.
//!
//! Integer sums (cycle counters) are compared exactly. Energy sums are
//! floating point accumulated in layer order by the producer, so they are
//! compared with a relative tolerance of `1e-9` — loose enough for any
//! re-association, far below any modeling signal.

use crate::{AuditPass, Violation};
use morph_json::Value;

/// Relative tolerance for floating-point sum comparisons.
const REL_TOL: f64 = 1e-9;

/// Schema range this auditor understands (mirrors
/// `morph_core::report::SCHEMA_VERSION`, the one schema reports are read
/// at — stated here independently on purpose, so the auditor cannot
/// silently drift with the code it checks).
const SCHEMA_RANGE: std::ops::RangeInclusive<i64> = 6..=6;

/// Context the report pass needs from outside the document: which chips
/// the backends named in it ran on.
#[derive(Debug, Clone, Default)]
pub struct ReportContext {
    /// `(backend display name, chip cluster count)` pairs. Runs whose
    /// backend is not listed skip the cluster-budget checks (the document
    /// alone does not say how big the chip was).
    pub backend_clusters: Vec<(String, u64)>,
}

impl ReportContext {
    /// Register a backend's chip cluster count.
    pub fn with_backend(mut self, name: &str, clusters: u64) -> Self {
        self.backend_clusters.push((name.to_string(), clusters));
        self
    }

    fn clusters_for(&self, backend: &str) -> Option<u64> {
        self.backend_clusters
            .iter()
            .find(|(n, _)| n == backend)
            .map(|&(_, c)| c)
    }
}

fn v(rule: &'static str, subject: &str, detail: String) -> Violation {
    Violation::new(AuditPass::Report, rule, subject, detail)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Pipeline mode labels a document may carry (struct form is
/// `{"kind": "pareto", ...}`).
const MODE_LABELS: [&str; 5] = ["off", "analytic", "rebalanced", "dag_rebalanced", "pareto"];

/// Audit a serialized report document. A parse failure yields a single
/// `malformed-json` violation carrying the parser's byte-offset
/// diagnostic.
pub fn audit_document(text: &str, ctx: &ReportContext) -> Vec<Violation> {
    match Value::parse(text) {
        Ok(value) => audit_value(&value, ctx),
        Err(e) => vec![v("malformed-json", "document", e.to_string())],
    }
}

/// Audit an already-parsed report document.
pub fn audit_value(doc: &Value, ctx: &ReportContext) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(schema) = doc.get("schema").and_then(Value::as_i64) else {
        out.push(v(
            "missing-field",
            "document",
            "no integer \"schema\" field".into(),
        ));
        return out;
    };
    if !SCHEMA_RANGE.contains(&schema) {
        out.push(v(
            "schema-out-of-range",
            "document",
            format!("schema {schema} outside supported {SCHEMA_RANGE:?}"),
        ));
        return out;
    }
    let Some(runs) = doc.get("runs").and_then(Value::as_arr) else {
        out.push(v("missing-field", "document", "no \"runs\" array".into()));
        return out;
    };
    for (i, run) in runs.iter().enumerate() {
        audit_run(i, run, ctx, &mut out);
    }
    out
}

/// The seven energy fields summed across layers and compared to `total`.
const ENERGY_FIELDS: [&str; 7] = [
    "dram_pj",
    "l2_pj",
    "l1_pj",
    "l0_pj",
    "noc_pj",
    "compute_pj",
    "static_pj",
];

fn audit_run(index: usize, run: &Value, ctx: &ReportContext, out: &mut Vec<Violation>) {
    let backend = run.get("backend").and_then(Value::as_str).unwrap_or("?");
    let network = run.get("network").and_then(Value::as_str).unwrap_or("?");
    let subj = format!("run[{index}] {network} on {backend}");

    for key in [
        "backend",
        "network",
        "objective",
        "layers",
        "total",
        "edges",
    ] {
        if run.get(key).is_none() {
            out.push(v("missing-field", &subj, format!("no {key:?} field")));
        }
    }

    let layers = run
        .get("layers")
        .and_then(Value::as_arr)
        .unwrap_or_default();

    // Totals: exact for the integer cycle counters, tolerant for the
    // float energy terms.
    if let Some(total) = run.get("total") {
        let layer_cycles: Option<i64> = layers
            .iter()
            .map(|l| {
                l.get("report")?
                    .get("cycles")?
                    .get("total")
                    .and_then(Value::as_i64)
            })
            .sum();
        let total_cycles = total
            .get("cycles")
            .and_then(|c| c.get("total"))
            .and_then(Value::as_i64);
        match (layer_cycles, total_cycles) {
            (Some(sum), Some(tot)) if sum != tot => out.push(v(
                "total-cycles-mismatch",
                &subj,
                format!("layer cycle totals sum to {sum}, run total says {tot}"),
            )),
            (None, _) | (_, None) if !layers.is_empty() => out.push(v(
                "missing-field",
                &subj,
                "layer or total cycle counters absent/non-integer".into(),
            )),
            _ => {}
        }
        for fld in ENERGY_FIELDS {
            let sum: Option<f64> = layers
                .iter()
                .map(|l| l.get("report")?.get(fld).and_then(Value::as_f64))
                .sum();
            let tot = total.get(fld).and_then(Value::as_f64);
            if let (Some(sum), Some(tot)) = (sum, tot) {
                if !close(sum, tot) {
                    out.push(v(
                        "total-energy-mismatch",
                        &subj,
                        format!("layer {fld} sums to {sum}, run total says {tot}"),
                    ));
                }
            }
        }
    }

    // Conv-level dependency edges (required above).
    if let Some(edges) = run.get("edges").and_then(Value::as_arr) {
        let mut seen = std::collections::HashSet::new();
        for e in edges {
            let pair = e.as_arr().unwrap_or_default();
            let (Some(from), Some(to)) = (
                pair.first().and_then(Value::as_i64),
                pair.get(1).and_then(Value::as_i64),
            ) else {
                out.push(v(
                    "missing-field",
                    &subj,
                    format!("edge {e:?} is not a [from, to] integer pair"),
                ));
                continue;
            };
            let esubj = format!("{subj} edge {from}->{to}");
            if from < 0 || to as usize >= layers.len().max(1) || from as usize >= layers.len() {
                out.push(v(
                    "edge-out-of-bounds",
                    &esubj,
                    format!("layer index out of range (run has {} layers)", layers.len()),
                ));
                continue;
            }
            if to <= from {
                out.push(v(
                    "edge-not-forward",
                    &esubj,
                    "conv DAG edges must point forward in topological layer order".into(),
                ));
            }
            if !seen.insert((from, to)) {
                out.push(v("duplicate-edge", &esubj, "edge listed twice".into()));
            }
        }
    }

    if let Some(search) = run.get("search") {
        if !matches!(search, Value::Null) {
            audit_search_stats(search, &subj, out);
        }
    }

    match run.get("pipeline") {
        None | Some(Value::Null) => {}
        Some(p) => audit_pipeline(p, &subj, layers.len(), ctx.clusters_for(backend), out),
    }
}

fn audit_search_stats(stats: &Value, subj: &str, out: &mut Vec<Violation>) {
    let get = |k: &str| stats.get(k).and_then(Value::as_i64);
    match (get("enumerated"), get("bound_pruned"), get("costed")) {
        (Some(e), Some(b), Some(c)) => {
            if b + c > e {
                out.push(v(
                    "search-stats-arithmetic",
                    subj,
                    format!("bound_pruned {b} + costed {c} exceeds enumerated {e}"),
                ));
            }
        }
        _ => out.push(v(
            "missing-field",
            subj,
            "search stats lack integer enumerated/bound_pruned/costed".into(),
        )),
    }
}

fn audit_pipeline(
    p: &Value,
    run_subj: &str,
    layer_count: usize,
    chip_clusters: Option<u64>,
    out: &mut Vec<Violation>,
) {
    let subj = format!("{run_subj} pipeline");

    let cap_from_mode = match p.get("mode") {
        Some(Value::Str(label)) if MODE_LABELS.contains(&label.as_str()) => None,
        Some(m) if m.get("kind").and_then(Value::as_str) == Some("pareto") => {
            m.get("power_cap_mw").and_then(Value::as_f64)
        }
        other => {
            out.push(v(
                "unknown-pipeline-mode",
                &subj,
                format!("mode {other:?} is neither a known label nor a capped pareto object"),
            ));
            None
        }
    };

    let stages = p.get("stages").and_then(Value::as_arr);
    match stages {
        None => out.push(v("missing-field", &subj, "no \"stages\" array".into())),
        Some(stages) if layer_count > 0 && stages.len() != layer_count => out.push(v(
            "stage-count-mismatch",
            &subj,
            format!(
                "pipeline schedules {} stages over a run of {layer_count} layers",
                stages.len()
            ),
        )),
        Some(_) => {}
    }
    let stages = stages.unwrap_or_default();

    // Stall accounting: the engine's cycle identity. A stage is, at every
    // cycle of its busy span, in exactly one of {service, blocked-on-full,
    // starved-on-empty} — so busy (= frames x service, exact) plus blocked
    // plus starved is the stage's busy-span total and can never exceed the
    // makespan, and the serialized utilization must round-trip busy /
    // makespan.
    let frames = p.get("frames").and_then(Value::as_i64);
    let makespan = p.get("makespan_cycles").and_then(Value::as_i64);

    for (j, s) in stages.iter().enumerate() {
        let name = s.get("name").and_then(Value::as_str).unwrap_or("?");
        let ssubj = format!("{subj} stage[{j}] {name}");
        if s.get("service_cycles").and_then(Value::as_i64) == Some(0) {
            out.push(v("zero-service", &ssubj, "zero service cycles".into()));
        }
        if let Some(u) = s.get("utilization").and_then(Value::as_f64) {
            if !(-REL_TOL..=1.0 + REL_TOL).contains(&u) {
                out.push(v(
                    "utilization-out-of-range",
                    &ssubj,
                    format!("utilization {u} outside [0, 1]"),
                ));
            }
        }
        let field = |k: &str| s.get(k).and_then(Value::as_i64);
        if let (
            Some(frames),
            Some(makespan),
            Some(service),
            Some(blocked),
            Some(starved),
            Some(util),
        ) = (
            frames,
            makespan,
            field("service_cycles"),
            field("blocked_cycles"),
            field("starved_cycles"),
            s.get("utilization").and_then(Value::as_f64),
        ) {
            let busy = frames * service;
            if busy + blocked + starved > makespan {
                out.push(v(
                    "stall-accounting",
                    &ssubj,
                    format!(
                        "busy ({frames} frames x {service} cycles = {busy}) + blocked \
                         {blocked} + starved {starved} exceeds the makespan {makespan}: \
                         the three states partition the stage's busy span"
                    ),
                ));
            }
            if !close(util * makespan as f64, busy as f64) {
                out.push(v(
                    "stall-accounting",
                    &ssubj,
                    format!(
                        "utilization {util} over makespan {makespan} recovers \
                         {} busy cycles, but {frames} frames x {service} \
                         service cycles is {busy}",
                        util * makespan as f64
                    ),
                ));
            }
        }
        // Every stage runs on a positive share of the chip the run
        // executed on.
        match s.get("clusters").and_then(Value::as_u64) {
            None => out.push(v(
                "missing-field",
                &ssubj,
                "no non-negative integer \"clusters\" share".into(),
            )),
            Some(0) => out.push(v(
                "stage-clusters-zero",
                &ssubj,
                "stage scheduled on 0 clusters".into(),
            )),
            Some(share) => {
                if let Some(chip) = chip_clusters {
                    if share > chip {
                        out.push(v(
                            "stage-clusters-exceed-chip",
                            &ssubj,
                            format!("stage scheduled on {share} clusters, chip has {chip}"),
                        ));
                    }
                }
            }
        }
    }

    // Scheduled DAG channels.
    let edges = p.get("edges").and_then(Value::as_arr);
    if edges.is_none() {
        out.push(v("missing-field", &subj, "no \"edges\" array".into()));
    }
    for e in edges.unwrap_or_default() {
        let get = |k: &str| e.get(k).and_then(Value::as_i64);
        let (Some(from), Some(to), Some(cap)) = (get("from"), get("to"), get("capacity")) else {
            out.push(v(
                "missing-field",
                &subj,
                format!("channel {e:?} lacks integer from/to/capacity"),
            ));
            continue;
        };
        let esubj = format!("{subj} channel {from}->{to}");
        if from < 0 || to < 0 || (!stages.is_empty() && (from.max(to) as usize) >= stages.len()) {
            out.push(v(
                "edge-out-of-bounds",
                &esubj,
                format!("stage index out of range ({} stages)", stages.len()),
            ));
            continue;
        }
        if to <= from {
            out.push(v(
                "edge-not-forward",
                &esubj,
                "scheduled channels must point forward in stage order".into(),
            ));
            continue;
        }
        if let Some(occ) = get("max_occupancy") {
            if occ > cap {
                out.push(v(
                    "occupancy-exceeds-capacity",
                    &esubj,
                    format!("max occupancy {occ} over a capacity-{cap} channel"),
                ));
            }
        }
        if let Some(mean) = e.get("mean_occupancy").and_then(Value::as_f64) {
            if !(-REL_TOL..=cap as f64 + REL_TOL).contains(&mean) {
                out.push(v(
                    "occupancy-exceeds-capacity",
                    &esubj,
                    format!("mean occupancy {mean} outside [0, {cap}]"),
                ));
            }
        }
    }

    match p.get("pareto") {
        None | Some(Value::Null) => {}
        Some(pareto) => audit_pareto(
            pareto,
            &subj,
            stages.len(),
            chip_clusters,
            cap_from_mode,
            out,
        ),
    }
}

/// Independent re-statement of Pareto dominance over the serialized
/// `(steady_fps, energy_per_frame_pj, peak_power_mw)` triple: at least as
/// good on every axis, strictly better on one.
fn dominates(a: (f64, f64, f64), b: (f64, f64, f64)) -> bool {
    a.0 >= b.0 && a.1 <= b.1 && a.2 <= b.2 && (a.0 > b.0 || a.1 < b.1 || a.2 < b.2)
}

fn audit_pareto(
    pareto: &Value,
    pipe_subj: &str,
    stage_count: usize,
    chip_clusters: Option<u64>,
    cap_from_mode: Option<f64>,
    out: &mut Vec<Violation>,
) {
    let subj = format!("{pipe_subj} pareto");
    let cap = pareto
        .get("power_cap_mw")
        .and_then(Value::as_f64)
        .or(cap_from_mode);
    let points = pareto
        .get("points")
        .and_then(Value::as_arr)
        .unwrap_or_default();

    if let Some(candidates) = pareto.get("candidates").and_then(Value::as_u64) {
        if (points.len() as u64) > candidates {
            out.push(v(
                "pareto-candidate-count",
                &subj,
                format!(
                    "frontier carries {} points but the sweep claims only {candidates} candidates",
                    points.len()
                ),
            ));
        }
    }

    let mut triples: Vec<(f64, f64, f64)> = Vec::with_capacity(points.len());
    for (k, point) in points.iter().enumerate() {
        let psubj = format!("{subj} point[{k}]");
        let fps = point.get("steady_fps").and_then(Value::as_f64);
        let energy = point.get("energy_per_frame_pj").and_then(Value::as_f64);
        let power = point.get("peak_power_mw").and_then(Value::as_f64);
        let (Some(fps), Some(energy), Some(power)) = (fps, energy, power) else {
            out.push(v(
                "missing-field",
                &psubj,
                "point lacks steady_fps/energy_per_frame_pj/peak_power_mw".into(),
            ));
            continue;
        };
        triples.push((fps, energy, power));
        if let Some(cap) = cap {
            if power > cap * (1.0 + REL_TOL) {
                out.push(v(
                    "pareto-point-over-cap",
                    &psubj,
                    format!("peak power {power} mW exceeds the stated cap {cap} mW"),
                ));
            }
        }
        let clusters = point
            .get("clusters")
            .and_then(Value::as_arr)
            .unwrap_or_default();
        if stage_count > 0 && clusters.len() != stage_count {
            out.push(v(
                "pareto-clusters-length",
                &psubj,
                format!(
                    "allocation lists {} stages, schedule has {stage_count}",
                    clusters.len()
                ),
            ));
        }
        if let Some(chip) = chip_clusters {
            for (si, c) in clusters.iter().enumerate() {
                let share = c.as_u64().unwrap_or(0);
                if share == 0 || share > chip {
                    out.push(v(
                        "pareto-clusters-exceed-chip",
                        &psubj,
                        format!("stage {si} allocated {share} clusters of a {chip}-cluster chip"),
                    ));
                }
            }
        }
    }

    for (a_idx, &a) in triples.iter().enumerate() {
        for (b_idx, &b) in triples.iter().enumerate() {
            if a_idx != b_idx && dominates(a, b) {
                out.push(v(
                    "pareto-point-dominated",
                    &format!("{subj} point[{b_idx}]"),
                    format!("dominated by point[{a_idx}] ({a:?} vs {b:?}): not a frontier"),
                ));
            }
        }
    }
    if triples.windows(2).any(|w| w[0].0 < w[1].0) {
        out.push(v(
            "pareto-points-unsorted",
            &subj,
            "frontier points are not in fastest-first order".into(),
        ));
    }
}

/// Audit the committed `baseline.json` perf-gate summary (see
/// `bench_diff`): schema stamps, one well-formed entry per run key, no
/// duplicate keys, non-negative totals.
pub fn audit_baseline_document(text: &str) -> Vec<Violation> {
    match Value::parse(text) {
        Ok(value) => audit_baseline_value(&value),
        Err(e) => vec![v("malformed-json", "baseline", e.to_string())],
    }
}

/// Audit an already-parsed baseline summary.
pub fn audit_baseline_value(doc: &Value) -> Vec<Violation> {
    let mut out = Vec::new();
    if doc.get("baseline_schema").and_then(Value::as_i64) != Some(1) {
        out.push(v(
            "schema-out-of-range",
            "baseline",
            format!(
                "baseline_schema {:?} is not the supported version 1",
                doc.get("baseline_schema")
            ),
        ));
        return out;
    }
    match doc.get("report_schema").and_then(Value::as_i64) {
        Some(s) if SCHEMA_RANGE.contains(&s) => {}
        other => out.push(v(
            "schema-out-of-range",
            "baseline",
            format!("report_schema {other:?} outside supported {SCHEMA_RANGE:?}"),
        )),
    }
    let Some(entries) = doc.get("entries").and_then(Value::as_arr) else {
        out.push(v(
            "missing-field",
            "baseline",
            "no \"entries\" array".into(),
        ));
        return out;
    };
    let mut seen = std::collections::HashSet::new();
    for (i, e) in entries.iter().enumerate() {
        let backend = e.get("backend").and_then(Value::as_str);
        let network = e.get("network").and_then(Value::as_str);
        let objective = e.get("objective").and_then(Value::as_str);
        let occurrence = e.get("occurrence").and_then(Value::as_u64);
        let cycles = e.get("cycles").and_then(Value::as_u64);
        let total_pj = e.get("total_pj").and_then(Value::as_f64);
        let subj = format!(
            "baseline entry[{i}] {} on {}",
            network.unwrap_or("?"),
            backend.unwrap_or("?")
        );
        let (Some(backend), Some(network), Some(objective), Some(occurrence)) =
            (backend, network, objective, occurrence)
        else {
            out.push(v(
                "missing-field",
                &subj,
                "entry lacks backend/network/objective/occurrence".into(),
            ));
            continue;
        };
        if cycles.is_none() {
            out.push(v(
                "missing-field",
                &subj,
                "entry lacks a non-negative integer \"cycles\"".into(),
            ));
        }
        match total_pj {
            None => out.push(v(
                "missing-field",
                &subj,
                "entry lacks a numeric \"total_pj\"".into(),
            )),
            Some(pj) if pj < 0.0 => out.push(v(
                "negative-energy",
                &subj,
                format!("total_pj {pj} is negative"),
            )),
            Some(_) => {}
        }
        if !seen.insert((
            backend.to_string(),
            network.to_string(),
            objective.to_string(),
            occurrence,
        )) {
            out.push(v(
                "duplicate-baseline-entry",
                &subj,
                "same (backend, network, objective, occurrence) key listed twice".into(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully-consistent synthetic schema-6 document: one diamond
    /// network on a 6-cluster chip, DAG-rebalanced pipeline, a
    /// two-point Pareto frontier, honest totals, and exact stall
    /// accounting (64 frames through a 100-cycle stage feeding a
    /// 200-cycle bottleneck: makespan 300 + 63 x 200 = 12900).
    fn doc() -> Value {
        let text = r#"{
          "schema": 6,
          "runs": [{
            "backend": "Morph",
            "network": "diamond",
            "objective": "edp",
            "cache_hits": 1,
            "layers": [
              {"name": "a", "shape": {}, "decision": null,
               "report": {"dram_pj": 10.0, "l2_pj": 1.0, "l1_pj": 1.0, "l0_pj": 1.0,
                          "noc_pj": 0.5, "compute_pj": 2.0, "static_pj": 0.5,
                          "cycles": {"compute": 80, "dram": 10, "l2_l1": 5, "l1_l0": 5,
                                     "total": 100, "ideal": 80}, "maccs": 1000}},
              {"name": "b", "shape": {}, "decision": null,
               "report": {"dram_pj": 20.0, "l2_pj": 2.0, "l1_pj": 2.0, "l0_pj": 2.0,
                          "noc_pj": 1.0, "compute_pj": 4.0, "static_pj": 1.0,
                          "cycles": {"compute": 160, "dram": 20, "l2_l1": 10, "l1_l0": 10,
                                     "total": 200, "ideal": 160}, "maccs": 2000}}
            ],
            "edges": [[0, 1]],
            "total": {"dram_pj": 30.0, "l2_pj": 3.0, "l1_pj": 3.0, "l0_pj": 3.0,
                      "noc_pj": 1.5, "compute_pj": 6.0, "static_pj": 1.5,
                      "cycles": {"compute": 240, "dram": 30, "l2_l1": 15, "l1_l0": 15,
                                 "total": 300, "ideal": 240}, "maccs": 3000},
            "search": {"enumerated": 50, "bound_pruned": 20, "costed": 25},
            "pipeline": {
              "mode": "dag_rebalanced",
              "frames": 64, "clock_hz": 1000000000,
              "makespan_cycles": 12900, "fill_cycles": 300, "drain_cycles": 300,
              "steady_fps": 5000000.0, "serial_fps": 3300000.0,
              "chain_fps": 5000000.0, "chain_fill_cycles": 400,
              "bottleneck": "b", "energy_per_frame_pj": 45.0, "peak_power_mw": 210.0,
              "stages": [
                {"name": "a", "service_cycles": 100, "base_service_cycles": 100,
                 "rebalanced": false, "utilization": 0.49612403100775193,
                 "blocked_cycles": 6100, "starved_cycles": 0, "clusters": 2},
                {"name": "b", "service_cycles": 200, "base_service_cycles": 200,
                 "rebalanced": false, "utilization": 0.9922480620155039,
                 "blocked_cycles": 0, "starved_cycles": 100, "clusters": 4}
              ],
              "edges": [{"from": 0, "to": 1, "capacity": 2,
                         "max_occupancy": 2, "mean_occupancy": 1.5}],
              "pareto": {
                "power_cap_mw": 250,
                "candidates": 9,
                "points": [
                  {"clusters": [2, 4], "steady_fps": 5000000.0,
                   "energy_per_frame_pj": 45.0, "peak_power_mw": 210.0},
                  {"clusters": [1, 2], "steady_fps": 2500000.0,
                   "energy_per_frame_pj": 40.0, "peak_power_mw": 110.0}
                ]
              }
            }
          }]
        }"#;
        Value::parse(text).expect("synthetic document is valid JSON")
    }

    fn ctx() -> ReportContext {
        ReportContext::default().with_backend("Morph", 6)
    }

    /// Navigate to a mutable subtree: object keys and array indices.
    enum Step<'a> {
        Key(&'a str),
        Idx(usize),
    }

    fn at<'a>(v: &'a mut Value, path: &[Step<'_>]) -> &'a mut Value {
        let mut cur = v;
        for step in path {
            cur = match (step, cur) {
                (Step::Key(k), Value::Obj(m)) => m.get_mut(*k).expect("key exists"),
                (Step::Idx(i), Value::Arr(a)) => &mut a[*i],
                _ => panic!("path mismatch"),
            };
        }
        cur
    }

    use Step::{Idx, Key};

    /// Drop `key` from the object at `path`.
    fn remove(v: &mut Value, path: &[Step<'_>], key: &str) {
        let Value::Obj(m) = at(v, path) else {
            panic!("path mismatch")
        };
        m.remove(key).expect("key exists");
    }

    /// The one violation a mutant draws, by rule and detail.
    fn only(violations: &[Violation]) -> (&str, &str) {
        assert_eq!(violations.len(), 1, "{violations:?}");
        (violations[0].rule, violations[0].detail.as_str())
    }

    #[test]
    fn clean_document_passes() {
        let violations = audit_value(&doc(), &ctx());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn malformed_json_is_flagged() {
        let violations = audit_document("{\"schema\": 5,,}", &ctx());
        assert!(Violation::any_rule(&violations, "malformed-json"));
        assert!(violations[0].detail.contains("byte"));
    }

    #[test]
    fn bad_schema_is_flagged() {
        let mut d = doc();
        *at(&mut d, &[Key("schema")]) = Value::Int(99);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "schema-out-of-range"
        ));
    }

    #[test]
    fn cycle_total_mismatch_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("total"),
                Key("cycles"),
                Key("total"),
            ],
        ) = Value::Int(299);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "total-cycles-mismatch"
        ));
    }

    #[test]
    fn energy_total_mismatch_is_flagged() {
        let mut d = doc();
        *at(&mut d, &[Key("runs"), Idx(0), Key("total"), Key("dram_pj")]) = Value::Float(31.0);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "total-energy-mismatch"
        ));
    }

    #[test]
    fn backward_conv_edge_is_flagged() {
        let mut d = doc();
        *at(&mut d, &[Key("runs"), Idx(0), Key("edges"), Idx(0)]) =
            Value::Arr(vec![Value::Int(1), Value::Int(0)]);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "edge-not-forward"
        ));
    }

    #[test]
    fn out_of_bounds_conv_edge_is_flagged() {
        let mut d = doc();
        *at(&mut d, &[Key("runs"), Idx(0), Key("edges"), Idx(0)]) =
            Value::Arr(vec![Value::Int(0), Value::Int(7)]);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "edge-out-of-bounds"
        ));
    }

    #[test]
    fn bad_search_stats_are_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[Key("runs"), Idx(0), Key("search"), Key("enumerated")],
        ) = Value::Int(10);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "search-stats-arithmetic"
        ));
    }

    #[test]
    fn unknown_mode_is_flagged() {
        let mut d = doc();
        *at(&mut d, &[Key("runs"), Idx(0), Key("pipeline"), Key("mode")]) =
            Value::Str("bogus".into());
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "unknown-pipeline-mode"
        ));
    }

    #[test]
    fn utilization_above_one_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("stages"),
                Idx(0),
                Key("utilization"),
            ],
        ) = Value::Float(1.2);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "utilization-out-of-range"
        ));
    }

    #[test]
    fn stall_accounting_overflow_is_flagged() {
        // Seeded violation: inflate stage a's blocked count so busy +
        // blocked + starved (6400 + 7000 + 0) exceeds the 12900-cycle
        // makespan — impossible under the engine's state partition.
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("stages"),
                Idx(0),
                Key("blocked_cycles"),
            ],
        ) = Value::Int(7000);
        let violations = audit_value(&d, &ctx());
        assert!(
            Violation::any_rule(&violations, "stall-accounting"),
            "{violations:?}"
        );
    }

    #[test]
    fn stall_accounting_utilization_mismatch_is_flagged() {
        // Utilization that does not round-trip frames x service / makespan.
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("stages"),
                Idx(0),
                Key("utilization"),
            ],
        ) = Value::Float(0.6);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "stall-accounting"
        ));
    }

    #[test]
    fn stage_over_chip_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("stages"),
                Idx(1),
                Key("clusters"),
            ],
        ) = Value::Int(9);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "stage-clusters-exceed-chip"
        ));
        // Without chip knowledge the rule cannot fire.
        assert!(!Violation::any_rule(
            &audit_value(&d, &ReportContext::default()),
            "stage-clusters-exceed-chip"
        ));
    }

    #[test]
    fn run_without_edges_is_flagged() {
        let mut d = doc();
        remove(&mut d, &[Key("runs"), Idx(0)], "edges");
        let violations = audit_value(&d, &ctx());
        assert_eq!(only(&violations), ("missing-field", "no \"edges\" field"));
    }

    #[test]
    fn pipeline_without_edges_is_flagged() {
        let mut d = doc();
        remove(&mut d, &[Key("runs"), Idx(0), Key("pipeline")], "edges");
        let violations = audit_value(&d, &ctx());
        assert_eq!(only(&violations), ("missing-field", "no \"edges\" array"));
    }

    #[test]
    fn pipeline_without_stages_is_flagged() {
        let mut d = doc();
        remove(&mut d, &[Key("runs"), Idx(0), Key("pipeline")], "stages");
        let violations = audit_value(&d, &ctx());
        assert_eq!(only(&violations), ("missing-field", "no \"stages\" array"));
    }

    #[test]
    fn pipeline_with_no_stages_is_a_count_mismatch() {
        let mut d = doc();
        *at(
            &mut d,
            &[Key("runs"), Idx(0), Key("pipeline"), Key("stages")],
        ) = Value::Arr(vec![]);
        let violations = audit_value(&d, &ctx());
        assert_eq!(
            only(&violations),
            (
                "stage-count-mismatch",
                "pipeline schedules 0 stages over a run of 2 layers"
            )
        );
    }

    #[test]
    fn stage_without_clusters_is_flagged() {
        let mut d = doc();
        let stage = [Key("runs"), Idx(0), Key("pipeline"), Key("stages"), Idx(1)];
        remove(&mut d, &stage, "clusters");
        let violations = audit_value(&d, &ctx());
        assert_eq!(only(&violations).0, "missing-field");
        assert!(violations[0].subject.ends_with("stage[1] b"));
    }

    #[test]
    fn zero_stage_share_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("stages"),
                Idx(0),
                Key("clusters"),
            ],
        ) = Value::Int(0);
        // A share must be positive on any chip, known or not.
        for ctx in [ctx(), ReportContext::default()] {
            let violations = audit_value(&d, &ctx);
            assert_eq!(only(&violations).0, "stage-clusters-zero");
        }
    }

    #[test]
    fn occupancy_over_capacity_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("edges"),
                Idx(0),
                Key("max_occupancy"),
            ],
        ) = Value::Int(3);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "occupancy-exceeds-capacity"
        ));
    }

    #[test]
    fn dominated_pareto_point_is_flagged() {
        let mut d = doc();
        // Make point[1] strictly worse than point[0] on every axis.
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("pareto"),
                Key("points"),
                Idx(1),
                Key("energy_per_frame_pj"),
            ],
        ) = Value::Float(50.0);
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("pareto"),
                Key("points"),
                Idx(1),
                Key("peak_power_mw"),
            ],
        ) = Value::Float(230.0);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "pareto-point-dominated"
        ));
    }

    #[test]
    fn pareto_point_over_cap_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("pareto"),
                Key("points"),
                Idx(0),
                Key("peak_power_mw"),
            ],
        ) = Value::Float(260.0);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "pareto-point-over-cap"
        ));
    }

    #[test]
    fn unsorted_pareto_points_are_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("pareto"),
                Key("points"),
                Idx(1),
                Key("steady_fps"),
            ],
        ) = Value::Float(9000000.0);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "pareto-points-unsorted"
        ));
    }

    #[test]
    fn pareto_candidate_undercount_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("pareto"),
                Key("candidates"),
            ],
        ) = Value::Int(1);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "pareto-candidate-count"
        ));
    }

    #[test]
    fn pareto_cluster_length_mismatch_is_flagged() {
        let mut d = doc();
        *at(
            &mut d,
            &[
                Key("runs"),
                Idx(0),
                Key("pipeline"),
                Key("pareto"),
                Key("points"),
                Idx(0),
                Key("clusters"),
            ],
        ) = Value::Arr(vec![Value::Int(2)]);
        assert!(Violation::any_rule(
            &audit_value(&d, &ctx()),
            "pareto-clusters-length"
        ));
    }

    #[test]
    fn clean_baseline_passes() {
        let text = r#"{
          "baseline_schema": 1, "report_schema": 6,
          "entries": [
            {"backend": "Morph", "network": "resnet26", "objective": "edp",
             "occurrence": 0, "cycles": 1000, "total_pj": 5.5},
            {"backend": "Morph", "network": "resnet26", "objective": "edp",
             "occurrence": 1, "cycles": 1000, "total_pj": 5.5}
          ]
        }"#;
        let violations = audit_baseline_document(text);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn duplicate_baseline_entry_is_flagged() {
        let text = r#"{
          "baseline_schema": 1, "report_schema": 6,
          "entries": [
            {"backend": "Morph", "network": "resnet26", "objective": "edp",
             "occurrence": 0, "cycles": 1000, "total_pj": 5.5},
            {"backend": "Morph", "network": "resnet26", "objective": "edp",
             "occurrence": 0, "cycles": 999, "total_pj": 5.4}
          ]
        }"#;
        assert!(Violation::any_rule(
            &audit_baseline_document(text),
            "duplicate-baseline-entry"
        ));
    }

    #[test]
    fn baseline_bad_schema_is_flagged() {
        assert!(Violation::any_rule(
            &audit_baseline_document(r#"{"baseline_schema": 2, "entries": []}"#),
            "schema-out-of-range"
        ));
    }

    #[test]
    fn baseline_negative_energy_is_flagged() {
        let text = r#"{
          "baseline_schema": 1, "report_schema": 6,
          "entries": [{"backend": "Morph", "network": "n", "objective": "edp",
                       "occurrence": 0, "cycles": 1, "total_pj": -2.0}]
        }"#;
        assert!(Violation::any_rule(
            &audit_baseline_document(text),
            "negative-energy"
        ));
    }
}
