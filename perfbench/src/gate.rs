//! The correctness gate every session's output passes through, outside
//! the timed region. A (backend, network) run fails the gate when
//!
//! * its digest differs from the one recorded in `expected.json`;
//! * the report document or its backend's decision store has an audit
//!   violation (`morph-audit`);
//! * a pipeline spec rebuilt from the report has a graph-audit
//!   violation, or simulating it again does not reproduce the report's
//!   `steady_fps` and `fill_cycles` (for the adopted schedule and the
//!   chain baseline) exactly.

use crate::digest;
use crate::replay::Clock;
use crate::workload::Workload;
use morph_audit::{graph, mapping, report as report_audit};
use morph_core::{Backend, NetworkRun, PipelineReport, RunReport, Session};
use morph_json::ToJson;
use morph_pipeline::{simulate, EdgeSpec, PipelineSpec, PipelineStats, StageSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Expected run digests of one workload, keyed by [`digest::run_key`].
pub type Digests = BTreeMap<String, String>;

/// How much of the gate to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Digests only (every sample after a run's first).
    Digest,
    /// Digests plus the report and decision-store audits (the first
    /// sample of an untraced run).
    Audit,
    /// Everything, including the pipeline spec audits and
    /// re-simulations (traced runs, and before recording digests: the
    /// recorded digests then carry the re-simulation check to every
    /// later sample).
    Full,
}

/// One timed re-simulation of a reported pipeline schedule.
#[derive(Debug, Clone, Copy)]
pub struct SimTiming {
    /// Host seconds `simulate` took.
    pub seconds: f64,
    /// Stages times frames simulated.
    pub stage_frames: u64,
}

/// What the gate found for one report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs the workload expects: one per (backend, network) pair,
    /// whether or not the report holds it.
    pub attempted: usize,
    /// Keys of the runs that failed.
    pub failed: BTreeSet<String>,
    /// Why they failed, one line each.
    pub problems: Vec<String>,
    /// Pipeline re-simulations (full depth only).
    pub sims: Vec<SimTiming>,
    /// Keys of the expected runs.
    pairs: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, key: &str, why: String) {
        self.failed.insert(key.to_string());
        self.problems.push(format!("{key}: {why}"));
    }

    /// Mark every expected run failed (a document-level defect).
    pub fn fail_all(&mut self, why: &str) {
        for key in self.pairs.clone() {
            self.fail(&key, why.to_string());
        }
    }
}

/// Compare the report's runs with the expected digests. Every
/// (backend, network) pair of the workload counts as attempted; a pair
/// missing from the report fails, and so does one without a recorded
/// digest.
pub fn check_digests(workload: &Workload, report: &RunReport, expected: &Digests) -> Outcome {
    let pairs = workload.run_keys();
    let mut out = Outcome {
        attempted: pairs.len(),
        pairs: pairs.clone(),
        ..Outcome::default()
    };
    let runs: BTreeMap<String, &NetworkRun> = report
        .runs
        .iter()
        .map(|r| (digest::run_key(r), r))
        .collect();
    if runs.len() != report.runs.len() || runs.keys().any(|k| !pairs.contains(k)) {
        out.fail_all("report runs are not one per (backend, network) pair");
    }
    for key in &pairs {
        match (runs.get(key), expected.get(key)) {
            (None, _) => out.fail(key, "missing from the report".into()),
            (Some(_), None) => out.fail(key, "no expected digest recorded".into()),
            (Some(run), Some(want)) => {
                let got = digest::digest(run);
                if got != *want {
                    out.fail(key, format!("digest {got} != expected {want}"));
                }
            }
        }
    }
    out
}

/// Run the gate over one session's report. `clock` (full depth only)
/// records a span around each pipeline re-simulation.
pub fn check(
    workload: &Workload,
    session: &Session,
    report: &RunReport,
    expected: &Digests,
    depth: Depth,
    clock: Option<&Clock>,
) -> Outcome {
    let mut out = check_digests(workload, report, expected);
    if depth == Depth::Digest {
        return out;
    }

    let mut ctx = report_audit::ReportContext::default();
    for b in session.backends() {
        ctx = ctx.with_backend(b.name(), b.arch().clusters as u64);
    }
    // The report audit walks the serialized tree; it is handed the tree
    // directly because `morph-json`'s parser takes seconds on a zoo-sized
    // document.
    let doc = report_audit::audit_value(&report.to_json(), &ctx);
    if let Some(v) = doc.first() {
        out.fail_all(&format!("{} report violation(s), first: {v}", doc.len()));
    }

    for (bi, backend) in session.backends().iter().enumerate() {
        let Some(kind) = workload.kind_of(backend.name()) else {
            out.fail_all(&format!("unknown backend {}", backend.name()));
            continue;
        };
        if !kind.searched() {
            continue;
        }
        let store = session.decision_store(bi);
        let violations = mapping::audit_store(backend.arch(), kind.banked(), store);
        if let Some(v) = violations.first() {
            for run in report.runs.iter().filter(|r| r.backend == backend.name()) {
                out.fail(&digest::run_key(run), format!("store violation: {v}"));
            }
        }
    }

    if depth == Depth::Audit {
        return out;
    }
    for run in &report.runs {
        let Some(p) = &run.pipeline else { continue };
        let Some(backend) = session.backends().iter().find(|b| b.name() == run.backend) else {
            out.fail(
                &digest::run_key(run),
                "backend missing from the session".into(),
            );
            continue;
        };
        for why in check_pipeline(workload, backend.as_ref(), run, p, clock, &mut out.sims) {
            out.fail(&digest::run_key(run), why);
        }
    }
    out
}

/// The scheduled DAG a pipeline report describes: its stages' services
/// and its channels' endpoints and capacities.
pub fn adopted_spec(p: &PipelineReport) -> PipelineSpec {
    PipelineSpec {
        stages: p
            .stages
            .iter()
            .map(|s| StageSpec {
                name: s.name.clone(),
                service_cycles: s.service_cycles,
            })
            .collect(),
        edges: p
            .edges
            .iter()
            .map(|e| EdgeSpec {
                from: e.from as usize,
                to: e.to as usize,
                capacity: e.capacity as usize,
            })
            .collect(),
    }
}

/// The linearized-chain baseline of the same services: one undivided
/// staging channel per consecutive layer pair.
pub fn chain_spec(backend: &dyn Backend, run: &NetworkRun, p: &PipelineReport) -> PipelineSpec {
    let caps = backend.pipeline_caps();
    let capacities: Vec<usize> = run.layers[..run.layers.len().saturating_sub(1)]
        .iter()
        .map(|l| caps.channel_capacity(l.shape.output_bytes()))
        .collect();
    PipelineSpec::chain(adopted_spec(p).stages, &capacities)
}

/// Audit and re-simulate one run's adopted and chain schedules; returns
/// the problems found.
fn check_pipeline(
    workload: &Workload,
    backend: &dyn Backend,
    run: &NetworkRun,
    p: &PipelineReport,
    clock: Option<&Clock>,
    sims: &mut Vec<SimTiming>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if p.frames != workload.frames {
        problems.push(format!(
            "{} frames simulated, {} asked",
            p.frames, workload.frames
        ));
    }
    let fps = |s: &PipelineStats| p.clock_hz as f64 / s.steady_cycles_per_frame().max(1.0);
    for (label, spec) in [
        ("adopted", adopted_spec(p)),
        ("chain", chain_spec(backend, run, p)),
    ] {
        if let Some(v) = graph::audit_spec(&spec).first() {
            problems.push(format!("{label} spec violation: {v}"));
            continue;
        }
        let begin = clock.map(Clock::now);
        let t0 = Instant::now();
        let stats = simulate(&spec, workload.frames);
        sims.push(SimTiming {
            seconds: t0.elapsed().as_secs_f64(),
            stage_frames: spec.stages.len() as u64 * workload.frames,
        });
        if let (Some(clock), Some(begin)) = (clock, begin) {
            let track = format!("replay:simulate/{}", run.backend);
            clock.span(&track, &format!("{}/{label}", run.network), begin);
        }
        let (want_fps, want_fill) = match label {
            "adopted" => (p.steady_fps, p.fill_cycles),
            _ => (p.chain_fps, p.chain_fill_cycles),
        };
        if fps(&stats) != want_fps || stats.fill_cycles != want_fill {
            problems.push(format!(
                "{label} re-simulation gives {} fps / fill {}, report says {want_fps} / {want_fill}",
                fps(&stats),
                stats.fill_cycles
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn an_empty_report_fails_every_pair() {
        let w = workload::by_name("pareto-mixed").unwrap();
        let expected: Digests = w
            .run_keys()
            .into_iter()
            .map(|k| (k, "0000000000000000".to_string()))
            .collect();
        let out = check_digests(&w, &RunReport::default(), &expected);
        assert_eq!(out.attempted, 6);
        assert_eq!(out.failed.len(), 6);
        assert!(out
            .problems
            .iter()
            .all(|p| p.ends_with("missing from the report")));
    }
}
