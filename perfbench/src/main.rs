//! Host-time benchmark of the Morph reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --workload <name> --record-expected
//! ```
//!
//! Run from the repository root. Each workload runs cold
//! `Session::run`s (fresh backends, 2 worker threads) through the public
//! API, with the session order permuted by the seed. `--trace 0` repeats
//! the session for `--seconds` (at least once) and reports the end-to-end
//! metrics: `session_ref_s` and `cpu_ref_s`, the medians of session wall
//! and CPU time scaled to the reference host speed (see [`host::Probe`]),
//! `setup_s`, the median session build time (timed in batches before
//! each session, each batch scaled by a one-thread probe), and
//! `peak_rss_mb`, the median peak RSS during a session run. The raw
//! times are printed. `--trace 1` runs a traced session between two
//! untraced ones, then replays their backend calls sequentially with a
//! span around each (written to `.perfbench_out/replay_<workload>.json`)
//! and reports the per-layer metrics. Every session's output goes through
//! the correctness gate ([`gate`]) outside the timed region. The last
//! line of standard output is the result as one JSON object.
//!
//! The metric names and units printed must equal the ones declared in
//! `BENCHMARK.json`, and `perfbench/layers.json` must say, for each
//! per-layer metric, which end-to-end metric it should move on which
//! workload and where it is predicted flat.
//! `--record-expected` runs one session, gates it without digests, and
//! writes its run digests into `perfbench/expected.json`.

mod digest;
mod gate;
mod host;
mod replay;
mod stats;
mod workload;

use gate::{Depth, Digests, Outcome};
use morph_core::Session;
use morph_json::Value;
use morph_optimizer::{DecisionStore, SearchStats};
use morph_trace::{Phase, Recorder, TraceBuffer, TraceEvent};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{BackendKind, Workload, THREADS};

const DECLARATION: &str = "BENCHMARK.json";
const EXPECTED: &str = "perfbench/expected.json";
const LAYERS: &str = "perfbench/layers.json";
const OUT_DIR: &str = ".perfbench_out";

/// Environment variables that change what the library runs: a run with
/// any of them set would measure a different program.
const REFUSED_ENV: [&str; 4] = [
    "MORPH_ENGINE",
    "MORPH_THREADS",
    "MORPH_EFFORT",
    "MORPH_TEST_THREADS",
];

/// Set-up samples timed before each measured session; `setup_s` is their
/// median over the whole run.
const SETUP_SAMPLES: usize = 12;

/// Session builds per set-up sample: one build takes well under a
/// millisecond, too short to time steadily on its own, so a sample is the
/// mean build time of a batch.
const SETUP_BATCH: usize = 24;

/// Untimed session builds before the first sample, so first-touch page
/// faults and cold caches stay out of `setup_s`.
const SETUP_WARMUPS: usize = 8;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        record: false,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        if flag == "--record-expected" {
            out.record = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = num(&value)?,
            "--seconds" => out.seconds = num(&value)?.max(1),
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Metric list under construction.
#[derive(Default)]
struct Metrics {
    list: Vec<Metric>,
    /// Metrics whose measurement failed (a NaN or infinite value).
    problems: Vec<String>,
}

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} is {value}: the measurement failed"));
        }
        self.list.push(Metric {
            name: name.to_string(),
            // `+ 0.0` turns the `-0.0` an empty float sum yields into `0.0`.
            value: value + 0.0,
            unit,
        });
    }

    /// A sample distribution: its median as `<base>.p50`, the highest
    /// percentile with ten samples beyond it as `<base>.tail` (which
    /// percentile in `<base>.tail_pct`), and the sample count as
    /// `<base>.n`.
    fn distribution(&mut self, base: &str, samples: &[f64], unit: &'static str) {
        let (pct, tail) = stats::tail(samples).unwrap_or((0.0, 0.0));
        self.push(&format!("{base}.p50"), stats::median(samples), unit);
        self.push(&format!("{base}.tail"), tail, unit);
        self.push(&format!("{base}.tail_pct"), pct, "%");
        self.push(&format!("{base}.n"), samples.len() as f64, "count");
        println!(
            "  {base}: p50 {:.4} {unit}, p{pct} {tail:.4} {unit} (n={})",
            stats::median(samples),
            samples.len()
        );
    }
}

/// Gate results summed over every report a run checked.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.failed += o.failed.len();
        self.problems.extend(o.problems.iter().cloned());
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

fn run() -> Result<(), String> {
    let set: Vec<&str> = REFUSED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: it changes the program under test",
            set.join(", ")
        ));
    }
    let args = parse_args(std::env::args().skip(1))?;
    let workload = workload::by_name(&args.workload)?;
    let declared = load_declaration(&workload)?;
    check_layer_map(&declared)?;
    let mut expected = load_expected()?;
    if args.record {
        return record_expected(&workload, &mut expected);
    }
    let digests = expected.get(workload.name).cloned().unwrap_or_default();

    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} threads={THREADS}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    let (metrics, tally, extra_problems) = if args.trace {
        traced(&workload, args.seed, &digests)?
    } else {
        untraced(&workload, args.seed, args.seconds, &digests)?
    };
    let list = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    check_names(&metrics, list)?;

    println!(
        "gate: {} of {} runs failed (error_rate {})",
        tally.failed,
        tally.attempted,
        tally.error_rate()
    );
    let problems: Vec<&String> = tally
        .problems
        .iter()
        .chain(&extra_problems)
        .chain(&metrics.problems)
        .collect();
    for p in &problems {
        println!("  FAIL {p}");
    }
    let correct = tally.failed == 0 && problems.is_empty();
    println!("{}", result_line(correct, &tally, &metrics));
    Ok(())
}

/// `--trace 0`: repeat cold sessions for `seconds` (at least one).
fn untraced(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    digests: &Digests,
) -> Result<(Metrics, Tally, Vec<String>), String> {
    let order = workload.order(seed);
    for _ in 0..SETUP_WARMUPS {
        drop(workload.session(&order, None));
    }
    let (mut walls, mut cpus, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let builds = setup_samples(workload, &order);
        let session = workload.session(&order, None);

        let probe0 = host::SESSION_PROBE.run();
        host::reset_peak_rss()?;
        let cpu0 = host::cpu_seconds()?;
        let t0 = Instant::now();
        let report = session.run();
        let wall = t0.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds()? - cpu0;
        // Read before the gate runs: its allocations are not the session's.
        rss.push(host::peak_rss_mb()?);
        let probe1 = host::SESSION_PROBE.run();
        let probe = (probe0 + probe1) / 2.0;

        let depth = if walls.is_empty() {
            Depth::Audit
        } else {
            Depth::Digest
        };
        tally.add(&gate::check(
            workload, &session, &report, digests, depth, None,
        ));
        println!(
            "  sample {}: session {wall:.4} s, cpu {cpu:.2} s, probes {probe0:.5} {probe1:.5} s",
            walls.len(),
        );
        walls.push(wall);
        cpus.push(cpu);
        scales.push(host::SESSION_PROBE.scale(probe));
        setup.extend(builds);
        // Stop when another sample like this one would overrun the
        // budget, so a run lasts `seconds` however slow the host is.
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let scaled =
        |raw: &[f64]| -> Vec<f64> { raw.iter().zip(&scales).map(|(r, s)| r * s).collect() };
    let ref_walls = scaled(&walls);
    for (label, values) in [("session_s", &walls), ("session_ref_s", &ref_walls)] {
        if let Some([q1, q2, q3]) = stats::quartiles(values) {
            println!(
                "  {label} over {} samples: q1 {q1:.4} median {q2:.4} q3 {q3:.4}",
                values.len()
            );
        }
    }
    let mut m = Metrics::default();
    m.push("session_ref_s", stats::median(&ref_walls), "s");
    m.push("cpu_ref_s", stats::median(&scaled(&cpus)), "s");
    m.push("setup_s", stats::median(&setup), "s");
    m.push("peak_rss_mb", stats::median(&rss), "MB");
    Ok((m, tally, Vec::new()))
}

/// [`SETUP_SAMPLES`] set-up samples, each the mean time one session
/// build takes over a batch of [`SETUP_BATCH`] builds, scaled to the
/// reference host speed by a [`host::SETUP_PROBE`] right before and after
/// the batch: one-thread host speed changes in spells of a few seconds,
/// which only a probe next to the batch tracks. Dropping the sessions is
/// not timed.
fn setup_samples(workload: &Workload, order: &workload::Order) -> Vec<f64> {
    let mut before = host::SETUP_PROBE.run();
    let (mut raws, mut out) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_SAMPLES {
        let mut built = Duration::ZERO;
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            let session = workload.session(order, None);
            built += t.elapsed();
            drop(session);
        }
        let after = host::SETUP_PROBE.run();
        let raw = built.as_secs_f64() / SETUP_BATCH as f64;
        raws.push(raw);
        out.push(raw * host::SETUP_PROBE.scale((before + after) / 2.0));
        before = after;
    }
    println!(
        "  setup: {:.7} s per build, {:.7} s scaled",
        stats::median(&raws),
        stats::median(&out)
    );
    out
}

/// A session recorder that keeps only the wall-clock `eval:` spans. The
/// session also traces its final pipeline simulations in simulated
/// cycles, event by event; at 50,000 frames those events would not fit
/// in memory, so they are built (their cost stays in the traced time)
/// and dropped.
struct EvalSpansOnly(TraceBuffer);

impl Recorder for EvalSpansOnly {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        if event.track.starts_with("eval:") {
            self.0.record(event);
        }
    }
}

/// Wall-clock `eval:` spans of a traced session (phase 2).
struct EvalSpans {
    calls: usize,
    busy_s: f64,
    first_begin_s: f64,
    last_end_s: f64,
}

fn eval_spans(buf: &TraceBuffer) -> EvalSpans {
    let mut open: BTreeMap<String, u64> = BTreeMap::new();
    let mut out = EvalSpans {
        calls: 0,
        busy_s: 0.0,
        first_begin_s: f64::INFINITY,
        last_end_s: 0.0,
    };
    for e in buf.events() {
        if !e.track.starts_with("eval:") {
            continue;
        }
        match e.phase {
            Phase::Begin => {
                open.insert(e.track, e.ts);
                out.first_begin_s = out.first_begin_s.min(e.ts as f64 / 1e9);
            }
            Phase::End => {
                if let Some(begin) = open.remove(&e.track) {
                    out.calls += 1;
                    out.busy_s += (e.ts - begin) as f64 / 1e9;
                    out.last_end_s = out.last_end_s.max(e.ts as f64 / 1e9);
                }
            }
            _ => {}
        }
    }
    if out.calls == 0 {
        out.first_begin_s = 0.0;
    }
    out
}

/// `--trace 1`: a traced session between two untraced ones, then the
/// sequential replay of their backend calls.
fn traced(
    workload: &Workload,
    seed: u64,
    digests: &Digests,
) -> Result<(Metrics, Tally, Vec<String>), String> {
    let order = workload.order(seed);
    let mut tally = Tally::default();
    let mut problems = Vec::new();
    let clock = replay::Clock::new();
    let timed_run = |session: &Session| {
        let t0 = Instant::now();
        let report = session.run();
        (report, t0.elapsed().as_secs_f64())
    };

    // The first session of a process runs slower than later ones, so the
    // traced session sits between two untraced ones and is compared with
    // their mean.
    let plain_session = workload.session(&order, None);
    let (plain, before_s) = timed_run(&plain_session);
    let buf = Arc::new(EvalSpansOnly(TraceBuffer::new()));
    let traced_session = workload.session(&order, Some(buf.clone()));
    let (traced, traced_s) = timed_run(&traced_session);
    let after_session = workload.session(&order, None);
    let (after, after_s) = timed_run(&after_session);
    let plain_s = (before_s + after_s) / 2.0;
    println!("  session {before_s:.4} s and {after_s:.4} s untraced, {traced_s:.4} s traced");

    for (session, report) in [(&traced_session, &traced), (&after_session, &after)] {
        let mut outcome = gate::check(workload, session, report, digests, Depth::Digest, None);
        if report.to_json_string() != plain.to_json_string() {
            outcome.fail_all("report differs from the first untraced one");
        }
        tally.add(&outcome);
    }

    let rep = replay::run(workload, &clock);
    let gated = gate::check(
        workload,
        &plain_session,
        &plain,
        digests,
        Depth::Full,
        Some(&clock),
    );
    tally.add(&gated);
    // The replay must leave the same decisions and search stats behind
    // as the session did.
    let stores = searched_stores(workload, &plain_session);
    let session_decisions: usize = stores.iter().map(|s| s.len()).sum();
    let session_stats = stores
        .iter()
        .fold(SearchStats::default(), |acc, s| acc.add(&s.stats()));
    if session_decisions != rep.decisions || session_stats != rep.stats {
        problems.push(format!(
            "replay stores ({} decisions, {:?}) differ from the session's ({session_decisions}, {session_stats:?})",
            rep.decisions, rep.stats
        ));
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let sidecar = format!("{OUT_DIR}/replay_{}.json", workload.name);
    std::fs::write(&sidecar, clock.buffer.to_perfetto_string(None))
        .map_err(|e| format!("cannot write {sidecar}: {e}"))?;
    let text = std::fs::read_to_string(&sidecar).map_err(|e| format!("{sidecar}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{sidecar}: {e}"))?;
    match morph_audit::trace::audit_trace_doc(&doc) {
        Ok(v) if v.is_empty() => println!(
            "  sidecar {sidecar}: audit clean ({} events)",
            clock.buffer.len()
        ),
        Ok(v) => problems.extend(v.iter().map(|v| format!("sidecar: {v}"))),
        Err(e) => problems.push(format!("sidecar: {e}")),
    }

    let evals = eval_spans(&buf.0);
    let phase2_s = evals.last_end_s - evals.first_begin_s;
    let sim_s: f64 = gated.sims.iter().map(|s| s.seconds).sum();
    let stage_frames: u64 = gated.sims.iter().map(|s| s.stage_frames).sum();
    let sim_ms: Vec<f64> = gated.sims.iter().map(|s| s.seconds * 1e3).collect();
    let pareto_candidates: u64 = plain
        .runs
        .iter()
        .filter_map(|r| r.pipeline.as_ref()?.pareto.as_ref())
        .map(|p| p.candidates)
        .sum();
    let p = &rep.primitives;

    let mut m = Metrics::default();
    m.push("core.evaluate_wall_s", phase2_s, "s");
    m.push(
        "core.assemble_wall_s",
        (traced_s - evals.last_end_s).max(0.0),
        "s",
    );
    m.push(
        "core.evaluate_busy_frac",
        evals.busy_s / (THREADS as f64 * phase2_s),
        "ratio",
    );
    m.push("core.evaluate_calls", evals.calls as f64, "count");
    m.push(
        "core.parallel_speedup",
        (rep.total_s() + sim_s) / plain_s,
        "ratio",
    );
    m.push(
        "trace.overhead_frac",
        (traced_s - plain_s) / plain_s,
        "ratio",
    );
    m.distribution("optimizer.search_ms", &rep.search_ms, "ms");
    m.distribution("optimizer.sweep_ms", &rep.sweep_ms, "ms");
    m.push(
        "optimizer.search_s",
        rep.search_ms.iter().sum::<f64>() / 1e3,
        "s",
    );
    m.push(
        "optimizer.sweep_s",
        rep.sweep_ms.iter().sum::<f64>() / 1e3,
        "s",
    );
    m.push("optimizer.decisions", rep.decisions as f64, "count");
    m.push("optimizer.enumerated", rep.stats.enumerated as f64, "count");
    m.push(
        "optimizer.bound_pruned",
        rep.stats.bound_pruned as f64,
        "count",
    );
    m.push("optimizer.costed", rep.stats.costed as f64, "count");
    m.push(
        "optimizer.costed_frac",
        rep.stats.costed as f64 / rep.stats.enumerated.max(1) as f64,
        "ratio",
    );
    m.push(
        "dataflow.layer_traffic_us",
        stats::median(&p.layer_traffic_us),
        "us",
    );
    m.push(
        "dataflow.compute_cycles_us",
        stats::median(&p.compute_cycles_us),
        "us",
    );
    m.push(
        "optimizer.allocate_hierarchy_us",
        stats::median(&p.allocate_hierarchy_us),
        "us",
    );
    m.push("energy.attribute_us", stats::median(&p.attribute_us), "us");
    m.distribution("eyeriss.eval_us", &rep.eyeriss_us, "us");
    m.distribution("pipeline.simulate_ms", &sim_ms, "ms");
    m.push("pipeline.simulate_s", sim_s, "s");
    m.push(
        "pipeline.stage_frames_per_s",
        if sim_s > 0.0 {
            stage_frames as f64 / sim_s
        } else {
            0.0
        },
        "1/s",
    );
    m.push(
        "pipeline.pareto_candidates",
        pareto_candidates as f64,
        "count",
    );
    m.push("gate.error_rate", tally.error_rate(), "ratio");
    Ok((m, tally, problems))
}

/// The decision stores of the session's searched backends.
fn searched_stores(workload: &Workload, session: &Session) -> Vec<Arc<DecisionStore>> {
    session
        .backends()
        .iter()
        .enumerate()
        .filter(|(_, b)| {
            workload
                .kind_of(b.name())
                .is_some_and(BackendKind::searched)
        })
        .map(|(bi, _)| Arc::clone(session.decision_store(bi)))
        .collect()
}

/// `--record-expected`: gate one session without digests, then store its
/// digests as the workload's expected ones.
fn record_expected(
    workload: &Workload,
    expected: &mut BTreeMap<String, Digests>,
) -> Result<(), String> {
    let order = workload.order(0);
    let session = workload.session(&order, None);
    let report = session.run();
    let digests: Digests = report
        .runs
        .iter()
        .map(|r| (digest::run_key(r), digest::digest(r)))
        .collect();
    let outcome = gate::check(workload, &session, &report, &digests, Depth::Full, None);
    if !outcome.problems.is_empty() {
        return Err(format!(
            "not recording a failing run: {:?}",
            outcome.problems
        ));
    }
    expected.insert(workload.name.to_string(), digests);
    let doc = Value::Obj(
        expected
            .iter()
            .map(|(w, d)| {
                let runs = d
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect();
                (w.clone(), Value::Obj(runs))
            })
            .collect(),
    );
    std::fs::write(EXPECTED, doc.pretty()).map_err(|e| format!("cannot write {EXPECTED}: {e}"))?;
    println!(
        "recorded {} run digests for {}",
        report.runs.len(),
        workload.name
    );
    Ok(())
}

fn load_expected() -> Result<BTreeMap<String, Digests>, String> {
    let text =
        std::fs::read_to_string(EXPECTED).map_err(|e| format!("cannot read {EXPECTED}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{EXPECTED}: {e}"))?;
    let Value::Obj(workloads) = doc else {
        return Err(format!("{EXPECTED}: not an object"));
    };
    let mut out = BTreeMap::new();
    for (w, runs) in workloads {
        let Value::Obj(runs) = runs else {
            return Err(format!("{EXPECTED}: {w} is not an object"));
        };
        let mut digests = Digests::new();
        for (k, v) in runs {
            let d = v
                .as_str()
                .ok_or_else(|| format!("{EXPECTED}: {w}/{k} is not a string"))?;
            digests.insert(k, d.to_string());
        }
        out.insert(w, digests);
    }
    Ok(out)
}

/// Metric names and units `BENCHMARK.json` declares.
struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn load_declaration(workload: &Workload) -> Result<Declared, String> {
    let text = std::fs::read_to_string(DECLARATION)
        .map_err(|e| format!("cannot read {DECLARATION}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{DECLARATION}: {e}"))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let arr = doc
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{DECLARATION}: no {key} list"))?;
        arr.iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                match name {
                    Some(n) if stats::valid_metric_name(n) => Ok((n.to_string(), unit.to_string())),
                    _ => Err(format!("{DECLARATION}: bad metric name in {key}: {m:?}")),
                }
            })
            .collect()
    };
    let workloads = list("workloads")?;
    if !workloads.iter().any(|(n, _)| n == workload.name) {
        return Err(format!(
            "{DECLARATION} does not declare workload {}",
            workload.name
        ));
    }
    Ok(Declared {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Every declared per-layer metric must say what it should move.
fn check_layer_map(declared: &Declared) -> Result<(), String> {
    let text = std::fs::read_to_string(LAYERS).map_err(|e| format!("cannot read {LAYERS}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{LAYERS}: {e}"))?;
    for (name, _) in &declared.per_layer {
        // A distribution's `.p50`/`.tail`/`.tail_pct`/`.n` share one entry.
        let base = match name.rsplit_once('.') {
            Some((base, "p50" | "tail" | "tail_pct" | "n")) => base,
            _ => name.as_str(),
        };
        let entry = doc
            .get(base)
            .ok_or_else(|| format!("{LAYERS} has no entry for {name}"))?;
        for key in ["layer", "measured", "moves", "flat_on"] {
            if entry.get(key).is_none() {
                return Err(format!("{LAYERS}: {name} lacks {key:?}"));
            }
        }
    }
    Ok(())
}

/// The printed metrics must be exactly the declared ones, with the
/// declared units.
fn check_names(metrics: &Metrics, declared: &[(String, String)]) -> Result<(), String> {
    let got: BTreeMap<&str, &str> = metrics
        .list
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let want: BTreeMap<&str, &str> = declared
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    if got.len() != metrics.list.len() {
        return Err("a metric is reported twice".into());
    }
    if got != want {
        return Err(format!(
            "metrics {got:?} differ from the {DECLARATION} declaration {want:?}"
        ));
    }
    Ok(())
}

/// The result as one JSON line.
fn result_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .list
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a metric is already a
            // problem that makes the run incorrect.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "{:?}: {{\"value\": {value}, \"unit\": {:?}}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_non_finite_metric_is_a_problem_not_a_zero() {
        let mut m = Metrics::default();
        m.push("core.evaluate_busy_frac", f64::NAN, "ratio");
        m.push("optimizer.sweep_s", -0.0, "s");
        assert_eq!(m.problems.len(), 1);
        assert!(m.problems[0].starts_with("metric core.evaluate_busy_frac is NaN"));
        let tally = Tally {
            attempted: 6,
            ..Tally::default()
        };
        let line = result_line(false, &tally, &m);
        assert!(line.contains(r#""core.evaluate_busy_frac": {"value": null"#));
        assert!(line.contains(r#""optimizer.sweep_s": {"value": 0.0"#));
    }
}
