//! The traced run's sequential replay: the session's searches, budget
//! sweeps and Eyeriss evaluations again, one public call at a time on
//! fresh backends, with a wall-clock span around each call. The spans go
//! to a Perfetto sidecar; their durations become the per-layer metrics.
//! The replay runs in canonical order, so its store counters do not
//! depend on the seed or the thread count.

use crate::workload::{BackendKind, Workload};
use morph_core::{Backend, Objective, PipelineMode};
use morph_dataflow::arch::ArchSpec;
use morph_dataflow::perf::{compute_cycles, layer_cycles};
use morph_dataflow::traffic::{apply_multicast, layer_traffic};
use morph_energy::EnergyModel;
use morph_optimizer::allocate::allocate_hierarchy;
use morph_optimizer::space::parallelism_candidates;
use morph_optimizer::{FitPolicy, Optimizer, SearchStats};
use morph_tensor::order::LoopOrder;
use morph_tensor::shape::ConvShape;
use morph_trace::{Recorder, TraceBuffer};
use std::hint::black_box;
use std::time::Instant;

/// A trace buffer on a wall clock (nanoseconds since the clock started).
pub struct Clock {
    /// Where the spans go.
    pub buffer: TraceBuffer,
    start: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn new() -> Self {
        Clock {
            buffer: TraceBuffer::new(),
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the clock started.
    pub fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Record a span from `begin` to now.
    pub fn span(&self, track: &str, name: &str, begin: u64) {
        self.buffer.span(track, name, begin, self.now());
    }

    /// Run `f` inside a span and return its result and duration in
    /// seconds.
    fn timed<T>(&self, track: &str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let begin = self.now();
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.span(track, name, begin);
        (out, secs)
    }
}

/// Host time of the primitives one searched decision is built from,
/// medians over decisions, in microseconds per call.
#[derive(Debug, Default)]
pub struct Primitives {
    /// `layer_traffic` on the decision's configuration.
    pub layer_traffic_us: Vec<f64>,
    /// `compute_cycles`, per parallelism candidate.
    pub compute_cycles_us: Vec<f64>,
    /// `allocate_hierarchy` below the decision's L2 tile and inner order.
    pub allocate_hierarchy_us: Vec<f64>,
    /// `EnergyModel::attribute` of the decision's traffic and cycles.
    pub attribute_us: Vec<f64>,
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Milliseconds of each cold `evaluate_layer` search.
    pub search_ms: Vec<f64>,
    /// Milliseconds of each `evaluate_layer_budget_sweep`.
    pub sweep_ms: Vec<f64>,
    /// Microseconds of each Eyeriss `evaluate_layer`.
    pub eyeriss_us: Vec<f64>,
    /// Decisions left in the searched backends' stores.
    pub decisions: usize,
    /// Their summed search stats.
    pub stats: SearchStats,
    /// Primitive timings over those decisions.
    pub primitives: Primitives,
}

impl Replay {
    /// Host seconds of every replayed call.
    pub fn total_s(&self) -> f64 {
        (self.search_ms.iter().sum::<f64>() + self.sweep_ms.iter().sum::<f64>()) / 1e3
            + self.eyeriss_us.iter().sum::<f64>() / 1e6
    }
}

/// The distinct layer shapes of the workload's networks, in canonical
/// network order.
fn distinct_shapes(workload: &Workload) -> Vec<ConvShape> {
    let mut shapes: Vec<ConvShape> = Vec::new();
    for net in workload.build_networks() {
        for layer in net.conv_layers() {
            if !shapes.contains(&layer.shape) {
                shapes.push(layer.shape);
            }
        }
    }
    shapes
}

/// Objectives a Pareto sweep asks of a backend: its own, then Energy and
/// Performance.
fn pareto_objectives(own: Objective) -> Vec<Objective> {
    let mut out = vec![own];
    for obj in [Objective::Energy, Objective::Performance] {
        if !out.contains(&obj) {
            out.push(obj);
        }
    }
    out
}

/// Replay the workload's backend calls sequentially on fresh backends.
pub fn run(workload: &Workload, clock: &Clock) -> Replay {
    let shapes = distinct_shapes(workload);
    let mut out = Replay::default();
    for &kind in &workload.backends {
        let backend = kind.build();
        let name = kind.name();
        if !kind.searched() {
            let track = format!("replay:eval/{name}");
            for sh in &shapes {
                let (eval, secs) = clock.timed(&track, &Optimizer::shape_tag(sh), || {
                    backend.evaluate_layer(sh)
                });
                black_box(eval);
                out.eyeriss_us.push(secs * 1e6);
            }
            continue;
        }
        let track = format!("replay:search/{name}");
        for sh in &shapes {
            let (eval, secs) = clock.timed(&track, &Optimizer::shape_tag(sh), || {
                backend.evaluate_layer(sh)
            });
            black_box(eval);
            out.search_ms.push(secs * 1e3);
        }
        if matches!(workload.mode, PipelineMode::Pareto { .. }) {
            let track = format!("replay:sweep/{name}");
            let budgets: Vec<usize> = (1..=backend.arch().clusters.max(1)).collect();
            for sh in &shapes {
                for obj in pareto_objectives(backend.objective()) {
                    let label = format!("{}/{}", Optimizer::shape_tag(sh), obj.label());
                    let (evals, secs) = clock.timed(&track, &label, || {
                        backend.evaluate_layer_budget_sweep(sh, obj, &budgets)
                    });
                    black_box(evals);
                    out.sweep_ms.push(secs * 1e3);
                }
            }
        }
        let store = backend
            .decision_store()
            .expect("searched backends keep a decision store");
        out.decisions += store.len();
        out.stats = out.stats.add(&store.stats());
        time_primitives(kind, backend.as_ref(), &mut out.primitives);
    }
    out
}

/// Calls per primitive timing: enough to lift microsecond calls well
/// above the clock's resolution.
const PRIMITIVE_REPS: u32 = 8;

fn per_call_us(calls: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
}

/// Time the dataflow, energy and allocation primitives on every decision
/// in the backend's store, under the cluster budget its key names.
fn time_primitives(kind: BackendKind, backend: &dyn Backend, out: &mut Primitives) {
    let store = backend
        .decision_store()
        .expect("searched backends keep a decision store");
    for ((shape, _, clusters), entry) in store.entries() {
        let Some((cfg, par)) = entry.mapping else {
            continue;
        };
        let arch = ArchSpec {
            clusters,
            ..*backend.arch()
        };
        let (model, policy) = match kind {
            BackendKind::Morph => (EnergyModel::morph(arch), FitPolicy::Banked),
            _ => (EnergyModel::morph_base(arch), FitPolicy::Partitioned),
        };
        out.layer_traffic_us.push(per_call_us(PRIMITIVE_REPS, || {
            black_box(layer_traffic(black_box(&shape), black_box(&cfg)));
        }));
        // Always non-empty: the serial mapping fits every chip.
        let candidates = parallelism_candidates(&arch);
        out.compute_cycles_us.push(
            per_call_us(1, || {
                for p in &candidates {
                    black_box(compute_cycles(black_box(&shape), &cfg, p, &arch));
                }
            }) / candidates.len() as f64,
        );
        out.allocate_hierarchy_us
            .push(per_call_us(PRIMITIVE_REPS, || {
                black_box(allocate_hierarchy(
                    black_box(&shape),
                    LoopOrder::base_outer(),
                    cfg.inner_order(),
                    cfg.levels[0].tile,
                    &arch,
                    policy,
                ));
            }));
        let mut traffic = layer_traffic(&shape, &cfg);
        apply_multicast(&mut traffic, par.hp, par.wp, par.fp, par.kp);
        let cycles = layer_cycles(&shape, &cfg, &par, &arch, &traffic);
        out.attribute_us.push(per_call_us(PRIMITIVE_REPS, || {
            black_box(model.attribute(black_box(&shape), &traffic, cycles));
        }));
    }
}
