//! Static audit of everything the repo computes: run the full zoo on all
//! three backends, then hand every artifact to the independent verifier
//! in `morph-audit` — no simulation-time cross-checks, pure re-derivation
//! from first principles.
//!
//! Four audit surfaces:
//!
//! 1. **Decision stores** — every mapping Morph and Morph_base memoized
//!    (full-chip and cluster-budgeted alike) is re-checked against the
//!    architecture its key claims: tile footprints vs level budgets,
//!    nesting, parallelism vs the cluster share's PEs.
//! 2. **Pipeline schedules** — each run's scheduled DAG is rebuilt as a
//!    `PipelineSpec` and statically proved deadlock-free with adequate
//!    skip-edge buffering.
//! 3. **Report documents** — the session's serialized `RunReport`, plus
//!    `experiments_out/bench.json` when present (run `run_all` first),
//!    checked for internal consistency on the raw JSON tree.
//! 4. **Perf baseline** — the committed `crates/bench/baseline.json`
//!    summary the CI perf gate diffs against.
//! 5. **Trace sidecars** — the `experiments_out/trace_*.json` Perfetto
//!    documents the `trace` bin writes (when present), re-parsed and
//!    checked for span nesting, timestamp monotonicity, fill/drain
//!    confinement and counter discipline.
//!
//! Exit code 0 = zero violations; 1 = violations (each printed); 2 =
//! environment error (e.g. missing baseline when run outside the repo
//! root).
//!
//! With `--json`, the verdict is additionally written to
//! `experiments_out/audit.json` as a machine-readable document: every
//! violation (pass/rule/subject/detail) plus, for each deadlock-free
//! scheduled DAG, the per-channel minimum-capacity certificates the
//! graph pass derived — the proof artifact CI archives next to the
//! trace sidecars.

use morph_audit::{graph, mapping, report as report_audit, trace as trace_audit, Violation};
use morph_core::{
    Backend, Eyeriss, Morph, MorphBase, PipelineMode, PipelineReport, RunReport, Session,
};
use morph_json::ToJson;
use morph_json::Value;
use morph_nets::zoo;
use morph_pipeline::{EdgeSpec, PipelineSpec, StageSpec};
use std::process::ExitCode;

/// Committed perf-gate baseline, relative to the repository root (same
/// path `bench_diff` uses).
const BASELINE_PATH: &str = "crates/bench/baseline.json";

/// Rebuild the scheduled DAG a pipeline report describes so the graph
/// pass can re-verify it. The report carries exactly the spec fields
/// (stage services, channel endpoints and capacities), so this is a
/// faithful reconstruction, not a re-derivation from the session's
/// sizing code.
fn spec_from_report(p: &PipelineReport) -> PipelineSpec {
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

fn print_violations(header: &str, violations: &[Violation]) {
    if violations.is_empty() {
        println!("  {header}: ok");
    } else {
        println!("  {header}: {} violation(s)", violations.len());
        for v in violations {
            println!("    {v}");
        }
    }
}

/// JSON form of one scheduled DAG's capacity certificates.
fn certs_json(network: &str, backend: &str, certs: &[graph::CapacityCert]) -> Value {
    Value::obj([
        ("network", Value::Str(network.to_string())),
        ("backend", Value::Str(backend.to_string())),
        (
            "channels",
            Value::Arr(
                certs
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("from", Value::Int(c.from as i64)),
                            ("to", Value::Int(c.to as i64)),
                            ("required", Value::Int(c.required as i64)),
                            ("actual", Value::Int(c.actual as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let json_out = std::env::args().any(|a| a == "--json");
    let mut total: Vec<Violation> = Vec::new();
    let mut certificates: Vec<Value> = Vec::new();

    // --- run the full zoo on all three backends -------------------------
    let morph = Morph::builder()
        .effort(morph_bench::effort_from_env())
        .build();
    let morph_base = MorphBase::builder().build();
    let eyeriss = Eyeriss::builder().build();

    // Capture each backend's chip and shared decision store *before* the
    // session takes ownership; the Arc keeps the store observable after
    // the run.
    let backends = [
        (&morph as &dyn Backend, true),
        (&morph_base as &dyn Backend, false),
        (&eyeriss as &dyn Backend, false),
    ];
    let mut ctx = report_audit::ReportContext::default();
    let mut stores = Vec::new();
    for (b, banked) in backends {
        ctx = ctx.with_backend(b.name(), b.arch().clusters as u64);
        stores.push((b.name().to_string(), *b.arch(), b.decision_store(), banked));
    }

    println!(
        "auditing full zoo ({} networks) x Morph/Morph_base/Eyeriss, dag_rebalanced pipeline",
        zoo::all().len()
    );
    let report: RunReport = Session::builder()
        .backend(morph)
        .backend(morph_base)
        .backend(eyeriss)
        .networks(zoo::all())
        .pipeline(PipelineMode::DagRebalanced)
        .threads(morph_bench::threads_from_env())
        .build()
        .run();

    // --- pass 1: mapping audit over every decision store ----------------
    for (name, arch, store, banked) in &stores {
        match store {
            Some(store) => {
                let violations = mapping::audit_store(arch, *banked, store);
                print_violations(
                    &format!("mapping audit: {name} store ({} decisions)", store.len()),
                    &violations,
                );
                total.extend(violations);
            }
            None => println!("  mapping audit: {name} has no decision store (fixed dataflow)"),
        }
    }

    // --- pass 2: pipeline-graph audit over every scheduled DAG ----------
    for run in &report.runs {
        if let Some(p) = &run.pipeline {
            let spec = spec_from_report(p);
            let violations = graph::audit_spec(&spec);
            print_violations(
                &format!("graph audit: {} on {}", run.network, run.backend),
                &violations,
            );
            // Capacity certificates: the positive half of the proof. An
            // empty list on a non-trivial DAG means some channel points
            // backward — the backward-edge violation above owns that case.
            let certs = graph::capacity_certificates(&spec);
            if violations.is_empty() && !certs.is_empty() {
                let floors: Vec<String> = certs
                    .iter()
                    .filter(|c| c.required > 1)
                    .map(|c| format!("{}->{} needs {} has {}", c.from, c.to, c.required, c.actual))
                    .collect();
                println!(
                    "    deadlock-free: {} channel capacity certificate(s){}",
                    certs.len(),
                    if floors.is_empty() {
                        String::new()
                    } else {
                        format!(" (skip floors: {})", floors.join(", "))
                    }
                );
            }
            certificates.push(certs_json(&run.network, &run.backend, &certs));
            total.extend(violations);
        }
    }

    // --- pass 3: report audit on the serialized session output ----------
    let violations = report_audit::audit_value(&report.to_json(), &ctx);
    print_violations("report audit: session RunReport", &violations);
    total.extend(violations);

    // bench.json is a merge of every experiment binary; audit it when the
    // experiments have been run.
    let bench_path = morph_bench::report_path("bench");
    match std::fs::read_to_string(&bench_path) {
        Ok(text) => {
            let violations = report_audit::audit_document(&text, &ctx);
            print_violations(
                &format!("report audit: {}", bench_path.display()),
                &violations,
            );
            total.extend(violations);
        }
        Err(_) => println!(
            "  report audit: {} not found (run `run_all` first) -- skipped",
            bench_path.display()
        ),
    }

    // --- pass 4: committed perf baseline --------------------------------
    match std::fs::read_to_string(BASELINE_PATH) {
        Ok(text) => {
            let violations = report_audit::audit_baseline_document(&text);
            print_violations(&format!("baseline audit: {BASELINE_PATH}"), &violations);
            total.extend(violations);
        }
        Err(e) => {
            eprintln!("cannot read {BASELINE_PATH}: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    }

    // --- pass 5: trace sidecars written by the `trace` bin --------------
    for name in ["trace_pipeline", "trace_search", "trace_session"] {
        let path = format!("{}/{name}.json", morph_bench::OUT_DIR);
        match std::fs::read_to_string(&path) {
            Ok(text) => match morph_trace::TraceBuffer::from_perfetto_str(&text) {
                Ok((buf, bounds)) => {
                    let violations = trace_audit::audit_trace(&buf.events(), bounds);
                    print_violations(
                        &format!("trace audit: {path} ({} events)", buf.len()),
                        &violations,
                    );
                    total.extend(violations);
                }
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(_) => println!("  trace audit: {path} not found (run `trace` first) -- skipped"),
        }
    }

    if json_out {
        let doc = Value::obj([
            ("audit_schema", Value::Int(1)),
            ("clean", Value::Bool(total.is_empty())),
            (
                "violations",
                Value::Arr(total.iter().map(ToJson::to_json).collect()),
            ),
            ("deadlock_certificates", Value::Arr(certificates)),
        ]);
        std::fs::create_dir_all(morph_bench::OUT_DIR).expect("create experiments_out");
        let path = morph_bench::report_path("audit");
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    if total.is_empty() {
        println!("audit clean: zero violations");
        ExitCode::SUCCESS
    } else {
        println!("audit FAILED: {} violation(s)", total.len());
        ExitCode::FAILURE
    }
}
