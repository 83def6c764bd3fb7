//! The [`Session`] runner: backends × networks → [`RunReport`].
//!
//! A session owns a set of [`Backend`] trait objects and a set of
//! networks. [`Session::run`] evaluates every (backend, network) pair in
//! three phases:
//!
//! 1. **Plan** — list every decision the run reads: each backend's fresh
//!    full-chip layer shapes, then the cluster-budget sweeps the
//!    [`PipelineMode`]'s allocation tables read, deduplicated across all
//!    pairs. Pairs are walked in session order, so reports — including
//!    per-pair `cache_hits` — are identical at any thread count.
//! 2. **Decide** — the list fans out over one worker pool
//!    ([`crate::par`]). Every evaluation goes through one store-first path
//!    that calls only [`Backend::evaluate_layer_budget_sweep`].
//! 3. **Assemble** — per pair, records are read back from the store and,
//!    with a [`PipelineMode`], scheduled: store lookups plus simulations.
//!
//! Each backend has **one shared [`DecisionStore`]**: identical layers
//! (repeated ResNet blocks, the two Two-Stream towers, repeated networks)
//! are decided once per backend/objective/cluster budget. Searched
//! backends expose their own store ([`crate::Backend::decision_store`]),
//! so the optimizer's memo and the session's cache are the same object.
//!
//! With a pipeline mode, each run gains a
//! [`morph_pipeline::PipelineReport`] simulating the network's
//! **conv-level dependency DAG** as a streaming pipeline: one stage per
//! layer, one bounded channel per graph edge
//! ([`morph_nets::Network::layer_edges`]), with fork/join branches running
//! as genuinely parallel stages on disjoint cluster subsets — each branch
//! channel gets a proportional split of [`Backend::pipeline_caps`]'s
//! staging buffer. The report also carries the linearized-chain baseline
//! (the pre-DAG schedule) for comparison plus the schedule's
//! energy-per-frame and peak-power scores. In [`PipelineMode::Rebalanced`]
//! a greedy pass re-optimizes bottleneck stages (measured across branches)
//! with a latency objective to flatten the pipeline;
//! [`PipelineMode::DagRebalanced`] adds the DAG-aware pass (cluster share
//! shifts between concurrently-live branch stages under a per-group
//! cluster budget); and [`PipelineMode::Pareto`] sweeps cluster-share
//! allocations into a [`morph_pipeline::ParetoReport`] frontier over
//! (throughput, energy/frame, peak power), optionally under a peak-power
//! cap.

use crate::backend::{Backend, LayerEval, MappingDecision};
use crate::par;
use crate::report::{LayerRecord, NetworkRun, RunReport, SCHEMA_VERSION};
use morph_nets::Network;
use morph_optimizer::{DecisionStore, Objective, Optimizer, SearchStats, StoreKey, StoredDecision};
use morph_pipeline::{
    balance, pareto_frontier, simulate, simulate_traced, EdgeSpec, ParetoPoint, ParetoReport,
    PipelineMode, PipelineReport, PipelineSpec, StageSpec,
};
use morph_tensor::shape::ConvShape;
use morph_trace::{NoopRecorder, PrefixRecorder, Recorder};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// A [`LayerEval`] as a [`DecisionStore`] entry (cost-only evaluations
/// store no mapping; session-side inserts carry no search stats — for
/// searched backends the optimizer already recorded the real entry, and
/// [`DecisionStore::insert`] keeps the first write).
fn entry_of(eval: &LayerEval) -> StoredDecision {
    StoredDecision {
        report: eval.report,
        mapping: eval.decision.as_ref().map(|d| (d.config.clone(), d.par)),
        stats: SearchStats::default(),
    }
}

/// A [`DecisionStore`] entry as the session-level [`LayerEval`].
fn eval_of(entry: &StoredDecision) -> LayerEval {
    LayerEval {
        report: entry.report,
        decision: entry.mapping.as_ref().map(|(config, par)| MappingDecision {
            config: config.clone(),
            par: *par,
        }),
    }
}

/// Deadline levels a [`PipelineMode::Pareto`] sweep evaluates (each level
/// allocates, fits group budgets, and simulates once): enough to trace
/// the frontier, few enough to keep the sweep instant next to the mapping
/// searches that feed it.
const PARETO_LEVELS: usize = 12;

/// Frames simulated per pipeline run unless overridden by
/// [`SessionBuilder::pipeline_frames`]: long enough to reach steady state
/// on every zoo network, short enough to keep scheduling instant.
pub const DEFAULT_PIPELINE_FRAMES: u64 = 32;

/// Runs one or more backends over one or more networks.
pub struct Session {
    backends: Vec<Box<dyn Backend>>,
    /// Per-backend decision store: the backend's own
    /// ([`Backend::decision_store`]) when it has one, else a fresh store
    /// the session provides (fixed-dataflow backends).
    stores: Vec<Arc<DecisionStore>>,
    networks: Vec<Network>,
    threads: usize,
    pipeline: PipelineMode,
    pipeline_frames: u64,
    /// Trace sink for wall-clock evaluation spans, cache counters and the
    /// final pipeline simulation ([`NoopRecorder`] unless
    /// [`SessionBuilder::trace`] attached one).
    trace: Arc<dyn Recorder>,
}

/// Builder for [`Session`].
#[derive(Default)]
pub struct SessionBuilder {
    backends: Vec<Box<dyn Backend>>,
    networks: Vec<Network>,
    threads: Option<usize>,
    pipeline: PipelineMode,
    pipeline_frames: Option<u64>,
    trace: Option<Arc<dyn Recorder>>,
}

impl SessionBuilder {
    /// Add a backend (evaluated in insertion order).
    pub fn backend(mut self, backend: impl Backend + 'static) -> Self {
        self.backends.push(Box::new(backend));
        self
    }

    /// Add an already-boxed backend (for dynamically assembled sets).
    pub fn backend_boxed(mut self, backend: Box<dyn Backend>) -> Self {
        self.backends.push(backend);
        self
    }

    /// Add a network (evaluated in insertion order).
    pub fn network(mut self, network: Network) -> Self {
        self.networks.push(network);
        self
    }

    /// Add several networks.
    pub fn networks(mut self, networks: impl IntoIterator<Item = Network>) -> Self {
        self.networks.extend(networks);
        self
    }

    /// Worker-thread count (default: the machine's available parallelism;
    /// `1` forces sequential evaluation).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Cross-layer pipelined scheduling mode (default: [`PipelineMode::Off`]).
    pub fn pipeline(mut self, mode: PipelineMode) -> Self {
        self.pipeline = mode;
        self
    }

    /// Frames per simulated streaming run ([`DEFAULT_PIPELINE_FRAMES`]
    /// unless set; clamped to at least 1).
    pub fn pipeline_frames(mut self, frames: u64) -> Self {
        self.pipeline_frames = Some(frames.max(1));
        self
    }

    /// Attach a trace [`Recorder`]. Each [`Session::run`] then records:
    ///
    /// * a **wall-clock** span (nanoseconds since run start) per fresh
    ///   full-chip layer evaluation on track `eval:{backend}/{shape}`, and
    ///   per planned cluster-budget sweep on track
    ///   `sweep:{backend}/{shape}/{objective}`;
    /// * per-(backend, network) cache accounting on track
    ///   `session:{backend}/{network}` — a `cache_hits` counter and a
    ///   `fresh_evals` gauge (a gauge because re-runs serve more layers
    ///   from the store, so the value falls);
    /// * the final pipeline simulation's **simulated-cycle** spans and
    ///   occupancy gauges, with tracks namespaced
    ///   `pipe:{backend}/{network}/...` (see
    ///   [`morph_pipeline::simulate_traced`]).
    ///
    /// Wall-clock tracks are inherently nondeterministic, which is why
    /// traces are **sidecar files only** — a traced run's [`RunReport`]
    /// is byte-identical to an untraced one. Note the search layer does
    /// not trace through the session: attach the same recorder to the
    /// backend builder (e.g. `Morph::builder().recorder(...)`) to stream
    /// mapping-search tracks alongside.
    pub fn trace(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Construct the session.
    pub fn build(self) -> Session {
        let stores = self
            .backends
            .iter()
            .map(|b| b.decision_store().unwrap_or_default())
            .collect();
        Session {
            backends: self.backends,
            stores,
            networks: self.networks,
            threads: self.threads.unwrap_or_else(par::default_threads),
            pipeline: self.pipeline,
            pipeline_frames: self.pipeline_frames.unwrap_or(DEFAULT_PIPELINE_FRAMES),
            trace: self.trace.unwrap_or_else(|| Arc::new(NoopRecorder)),
        }
    }
}

impl Session {
    /// Start building a session.
    ///
    /// The ROADMAP quickstart, verbatim — backends × networks in, a
    /// JSON-round-trippable [`RunReport`] out:
    ///
    /// ```
    /// use morph_core::{Morph, MorphBase, Session};
    /// use morph_nets::zoo;
    ///
    /// let report = Session::builder()
    ///     .backend(Morph::builder().build())
    ///     .backend(MorphBase::builder().build())
    ///     .network(zoo::c3d())
    ///     .build()
    ///     .run(); // -> RunReport (serde-free JSON round-trip)
    /// println!("{}", report.runs[0].summary());
    /// # assert_eq!(report.runs.len(), 2);
    /// # assert_eq!(morph_core::RunReport::from_json_str(&report.to_json_string()).unwrap(), report);
    /// ```
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Run one pipeline simulation over the session's frame count.
    fn sim(&self, spec: &PipelineSpec) -> morph_pipeline::PipelineStats {
        simulate(spec, self.pipeline_frames)
    }

    /// The configured backends (session order).
    pub fn backends(&self) -> &[Box<dyn Backend>] {
        &self.backends
    }

    /// The configured networks (session order).
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// Number of distinct (backend, objective, cluster budget, shape)
    /// decisions currently memoized across the per-backend stores.
    pub fn cached_decisions(&self) -> usize {
        self.stores.iter().map(|s| s.len()).sum()
    }

    /// The decision store backing one backend (shared with the backend's
    /// own optimizers when it exposes one).
    pub fn decision_store(&self, backend_index: usize) -> &Arc<DecisionStore> {
        &self.stores[backend_index]
    }

    /// Evaluate every (backend, network) pair and assemble the report.
    ///
    /// Every decision the run reads is planned up front (in session
    /// order, giving deterministic per-pair cache accounting),
    /// deduplicated across pairs and decided in one flat parallel pool.
    /// The decision cache persists across calls, so re-running a session
    /// (or running a second network with shared shapes) is nearly free.
    pub fn run(&self) -> RunReport {
        let t0 = Instant::now();
        let traced = self.trace.enabled();
        // Phase 1: walk pairs in session order, splitting layers into
        // cache hits and a globally deduplicated work list. This is the
        // same accounting a sequential pair-by-pair run would produce.
        // `decided` holds the keys the store has or a planned job writes.
        let mut jobs: Vec<Job> = Vec::new();
        let mut sweeps: Vec<Job> = Vec::new();
        let mut hits = vec![vec![0u64; self.networks.len()]; self.backends.len()];
        let mut fresh_counts = vec![vec![0u64; self.networks.len()]; self.backends.len()];
        for (bi, backend) in self.backends.iter().enumerate() {
            let own = backend.objective();
            let m = backend.arch().clusters.max(1);
            let mut decided: HashSet<StoreKey> = self.stores[bi].keys().into_iter().collect();
            for (ni, net) in self.networks.iter().enumerate() {
                for layer in net.conv_layers() {
                    if decided.insert((layer.shape, own, m)) {
                        jobs.push(Job {
                            backend: bi,
                            shape: layer.shape,
                            objective: own,
                            budgets: vec![m],
                            sweep: false,
                        });
                        fresh_counts[bi][ni] += 1;
                    } else {
                        hits[bi][ni] += 1;
                    }
                }
            }
            // Then the cluster-budget sweeps the mode's tables read, one
            // job per (shape, objective), queued behind every full-chip
            // job. A sweep never holds the own-objective full-chip key:
            // the cold job above decides it, and two jobs deciding one key
            // would race (a cold search and a warm-started one record
            // different stats). It is the highest budget, so leaving it
            // out moves no warm start.
            let (objectives, budgets) = self.sweep_columns(backend.as_ref());
            let columns: Vec<(Objective, Vec<usize>)> = objectives
                .into_iter()
                .map(|obj| {
                    let swept = budgets.iter().copied().filter(|&c| (obj, c) != (own, m));
                    (obj, swept.collect())
                })
                .collect();
            for layer in self.networks.iter().flat_map(Network::conv_layers) {
                for (objective, budgets) in &columns {
                    let mut fresh = false;
                    for &c in budgets {
                        fresh |= decided.insert((layer.shape, *objective, c));
                    }
                    if fresh {
                        sweeps.push(Job {
                            backend: bi,
                            shape: layer.shape,
                            objective: *objective,
                            budgets: budgets.clone(),
                            sweep: true,
                        });
                    }
                }
            }
        }
        jobs.append(&mut sweeps);
        // Traced runs get one wall-clock span per phase, each on its own
        // `phase:` track.
        let planned = t0.elapsed().as_nanos() as u64;
        self.trace.span("phase:plan", "plan", 0, planned);
        if traced {
            for (bi, backend) in self.backends.iter().enumerate() {
                for (ni, net) in self.networks.iter().enumerate() {
                    let track = format!("session:{}/{}", backend.name(), net.name);
                    self.trace
                        .counter(&track, "cache_hits", planned, hits[bi][ni]);
                    // A gauge, not a counter: a re-run of the same session
                    // serves more layers from the store, so this falls.
                    self.trace
                        .gauge(&track, "fresh_evals", planned, fresh_counts[bi][ni]);
                }
            }
        }

        // Phase 2: every planned job runs in one flat pool — backend ×
        // network × sweep concurrency, not just per-layer threads — and
        // publishes into its backend's store. Traced runs get a
        // wall-clock span per job; jobs are deduplicated, so each span
        // owns its track.
        par::par_map(self.threads, &jobs, |job| {
            if !traced {
                self.decide(job.backend, &job.shape, job.objective, &job.budgets);
                return;
            }
            let name = self.backends[job.backend].name();
            let shape = Optimizer::shape_tag(&job.shape);
            let (track, span) = if job.sweep {
                let obj = job.objective.label();
                (format!("sweep:{name}/{shape}/{obj}"), "sweep")
            } else {
                (format!("eval:{name}/{shape}"), "evaluate_layer")
            };
            let begin = t0.elapsed().as_nanos() as u64;
            self.decide(job.backend, &job.shape, job.objective, &job.budgets);
            self.trace
                .span(&track, span, begin, t0.elapsed().as_nanos() as u64);
        });
        let decided = t0.elapsed().as_nanos() as u64;
        self.trace.span("phase:decide", "decide", planned, decided);

        // Phase 3: assemble runs (and pipeline schedules) in session
        // order. Tables are store lookups; pairs are independent, so the
        // greedy rebalancer's lazy bottleneck searches and the
        // simulations fan out over the pool. Results stay deterministic
        // because every evaluation is, whichever pair publishes a shared
        // decision first.
        let pairs: Vec<(usize, usize)> = (0..self.backends.len())
            .flat_map(|bi| (0..self.networks.len()).map(move |ni| (bi, ni)))
            .collect();
        let runs = par::par_map(self.threads, &pairs, |&(bi, ni)| {
            self.assemble(bi, &self.networks[ni], hits[bi][ni])
        });
        let end = t0.elapsed().as_nanos() as u64;
        self.trace.span("phase:assemble", "assemble", decided, end);
        RunReport {
            schema: SCHEMA_VERSION,
            runs,
        }
    }

    /// The cluster-budget sweeps the session's [`PipelineMode`] reads for
    /// every stage of one backend: one sweep over `budgets` per objective.
    /// The planner in [`Session::run`], [`Session::reclaim_slack`] and
    /// [`Session::pareto_sweep`] all read this one declaration.
    fn sweep_columns(&self, backend: &dyn Backend) -> (Vec<Objective>, Vec<usize>) {
        let m = backend.arch().clusters.max(1);
        let own = backend.objective();
        match self.pipeline {
            // Sub-chip shares under the backend's own objective; the
            // full-chip candidate is the greedy schedule's entry.
            PipelineMode::DagRebalanced if backend.supports_cluster_budget() && m > 1 => {
                (vec![own], (1..m).collect())
            }
            PipelineMode::Pareto { .. } => {
                let mut objectives = vec![own];
                for obj in [Objective::Energy, Objective::Performance] {
                    if !objectives.contains(&obj) {
                        objectives.push(obj);
                    }
                }
                let budgets = if backend.supports_cluster_budget() {
                    (1..=m).collect()
                } else {
                    vec![m]
                };
                (objectives, budgets)
            }
            _ => (Vec::new(), Vec::new()),
        }
    }

    /// Build one [`NetworkRun`] from the (fully populated) decision store.
    fn assemble(&self, backend_index: usize, net: &Network, cache_hits: u64) -> NetworkRun {
        let backend = self.backends[backend_index].as_ref();
        let objective = backend.objective();
        let clusters = backend.arch().clusters.max(1);
        let store = &self.stores[backend_index];
        // Per-run search stats: the store records each distinct decision's
        // stats exactly once, so summing over the run's distinct shapes is
        // deterministic at any thread count (cache-served layers still
        // report the stats of the search that first decided them).
        let mut distinct: HashSet<ConvShape> = HashSet::new();
        let mut search = SearchStats::default();
        let records: Vec<LayerRecord> = net
            .conv_layers()
            .map(|layer| {
                let entry = store
                    .get(&(layer.shape, objective, clusters))
                    .expect("every shape was just decided");
                if distinct.insert(layer.shape) {
                    search = search.add(&entry.stats);
                }
                let eval = eval_of(&entry);
                LayerRecord {
                    name: layer.name.clone(),
                    shape: layer.shape,
                    decision: eval.decision,
                    report: eval.report,
                }
            })
            .collect();
        let total = records
            .iter()
            .fold(morph_energy::EnergyReport::zero(), |acc, l| {
                acc.add(&l.report)
            });
        let edges = net.layer_edges();
        let pipeline = self.pipeline_report(backend_index, net.name, &records, &edges);

        NetworkRun {
            backend: backend.name().to_string(),
            network: net.name.to_string(),
            objective,
            cache_hits,
            layers: records,
            edges,
            total,
            pipeline,
            search: (!search.is_empty()).then_some(search),
        }
    }

    /// Schedule the network's conv-level DAG as a streaming pipeline: one
    /// stage per layer, service times from the per-layer decisions, one
    /// bounded channel per dependency edge. Parallel branch channels split
    /// the backend's staging buffer (branch stages occupy disjoint cluster
    /// subsets, so their staging slices shrink proportionally); the report
    /// also carries the linearized-chain schedule of the same services as
    /// the comparison baseline, plus the schedule's energy-per-frame and
    /// peak-power scores.
    ///
    /// Mode behavior past [`PipelineMode::Analytic`]:
    ///
    /// * [`PipelineMode::Rebalanced`] — greedily re-optimize the
    ///   bottleneck stage, wherever it sits across the branches, with a
    ///   latency objective until it stops moving.
    /// * [`PipelineMode::DagRebalanced`] — the greedy pass first, then
    ///   treat the anti-chains of the conv DAG as concurrently-live
    ///   groups and shift cluster share between their stages: every stage
    ///   takes the cheapest cluster-budgeted mapping that still meets the
    ///   bottleneck deadline (one [`Backend::evaluate_layer_budget_sweep`]
    ///   per stage, planned in phase 1), and
    ///   fork/join groups are fitted into the chip's cluster budget
    ///   (spending at most the energy the reclamation saved). The adopted
    ///   schedule is simulation-verified to stream at least as fast as
    ///   the greedy one (else the greedy schedule is kept), so throughput
    ///   is preserved while energy/frame never rises.
    /// * [`PipelineMode::Pareto`] — sweep service deadlines, allocate
    ///   cluster shares for each (both cheapest-feasible and
    ///   smallest-feasible flavors), simulate every distinct allocation,
    ///   and report the Pareto frontier over (steady fps, energy/frame,
    ///   peak power). With a power cap, only allocations whose peak power
    ///   respects the cap enter the frontier, and the scheduled point is
    ///   the fastest capped one (falling back to the coolest candidate
    ///   when nothing fits the cap).
    fn pipeline_report(
        &self,
        backend_index: usize,
        net_name: &str,
        records: &[LayerRecord],
        edges: &[(usize, usize)],
    ) -> Option<PipelineReport> {
        if self.pipeline == PipelineMode::Off || records.is_empty() {
            return None;
        }
        let backend = self.backends[backend_index].as_ref();
        let caps = backend.pipeline_caps();
        let base: Vec<u64> = records
            .iter()
            .map(|r| r.report.cycles.total.max(1))
            .collect();

        // Per-edge capacities: an edge inside a `ways`-wide parallel
        // region (fan-out at its producer or fan-in at its consumer)
        // stages through 1/ways of the staging buffer. A skip edge that
        // bypasses a deeper parallel path (a residual shortcut) must
        // additionally buffer one frame per stage the main path holds in
        // flight, or it would throttle the whole pipeline below the
        // bottleneck rate — that staging spills to DRAM when the on-chip
        // slice is too small, so its capacity floor is the bypassed
        // depth.
        let n = records.len();
        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in edges {
            out_deg[from] += 1;
            in_deg[to] += 1;
            consumers[from].push(to);
        }
        // Longest path (in hops) from `u` to `v` over the conv DAG; layer
        // indices are topological, so one forward sweep suffices.
        let longest_hops = |u: usize, v: usize| -> usize {
            let mut d = vec![usize::MAX; n];
            d[u] = 0;
            for i in u..v {
                if d[i] == usize::MAX {
                    continue;
                }
                for &j in &consumers[i] {
                    if d[j] == usize::MAX || d[j] < d[i] + 1 {
                        d[j] = d[i] + 1;
                    }
                }
            }
            if d[v] == usize::MAX {
                1
            } else {
                d[v]
            }
        };
        let edge_specs: Vec<EdgeSpec> = edges
            .iter()
            .map(|&(from, to)| EdgeSpec {
                from,
                to,
                capacity: caps
                    .split(out_deg[from].max(in_deg[to]))
                    .channel_capacity(records[from].shape.output_bytes())
                    .max(longest_hops(from, to)),
            })
            .collect();
        let stages_of = |services: &[u64]| -> Vec<StageSpec> {
            records
                .iter()
                .zip(services)
                .map(|(r, &s)| StageSpec {
                    name: r.name.clone(),
                    service_cycles: s,
                })
                .collect()
        };
        let spec_of = |services: &[u64]| PipelineSpec {
            stages: stages_of(services),
            edges: edge_specs.clone(),
        };

        let m = backend.arch().clusters.max(1);
        let clock = backend.arch().clock_hz;
        let groups = balance::concurrent_groups(n, edges);

        // The evolving schedule: per-stage service, energy and cluster
        // share, starting from the backend's own full-chip decisions.
        let mut services = base.clone();
        let mut energies: Vec<f64> = records.iter().map(|r| r.report.total_pj()).collect();
        let mut clusters: Vec<usize> = vec![m; n];
        let mut rebalanced = vec![false; n];
        let mut pareto: Option<ParetoReport> = None;

        match self.pipeline {
            PipelineMode::Off => unreachable!("handled above"),
            PipelineMode::Analytic => {}
            PipelineMode::Rebalanced | PipelineMode::DagRebalanced => {
                // Greedy pass: flatten the current bottleneck — wherever
                // it sits across the branches — until it stops moving.
                for _ in 0..n {
                    let stats = self.sim(&spec_of(&services));
                    let b = stats.bottleneck();
                    if rebalanced[b] {
                        break; // already latency-optimal and still the bottleneck
                    }
                    let eval = self
                        .decide(
                            backend_index,
                            &records[b].shape,
                            Objective::Performance,
                            &[m],
                        )
                        .remove(0);
                    let better = eval.report.cycles.total.max(1);
                    if better < services[b] {
                        services[b] = better;
                        energies[b] = eval.report.total_pj();
                        rebalanced[b] = true;
                    } else {
                        break; // the bottleneck cannot be flattened further
                    }
                }
                if self.pipeline == PipelineMode::DagRebalanced {
                    self.reclaim_slack(
                        backend_index,
                        records,
                        &groups,
                        &spec_of,
                        &mut services,
                        &mut energies,
                        &mut clusters,
                        &mut rebalanced,
                    );
                }
            }
            PipelineMode::Pareto { power_cap_mw } => {
                pareto = Some(self.pareto_sweep(
                    backend_index,
                    records,
                    &groups,
                    &spec_of,
                    power_cap_mw,
                    &base,
                    &mut services,
                    &mut energies,
                    &mut clusters,
                    &mut rebalanced,
                ));
            }
        }

        // The adopted schedule's simulation is the one that traces: its
        // simulated-cycle timeline is the deterministic Perfetto artifact.
        // Intermediate simulations (greedy iterations, Pareto sweep
        // points) stay untraced — they are search machinery, not the
        // schedule. The per-run prefix keeps concurrent pairs' identical
        // stage/edge track names apart.
        let stats = if self.trace.enabled() {
            let rec = PrefixRecorder::new(
                Arc::clone(&self.trace),
                format!("pipe:{}/{}/", backend.name(), net_name),
            );
            simulate_traced(&spec_of(&services), self.pipeline_frames, &rec)
        } else {
            self.sim(&spec_of(&services))
        };

        // The pre-DAG baseline: the same services scheduled as a
        // linearized chain with undivided staging channels.
        let chain_caps: Vec<usize> = records[..n - 1]
            .iter()
            .map(|r| caps.channel_capacity(r.shape.output_bytes()))
            .collect();
        let chain_spec = PipelineSpec::chain(stages_of(&services), &chain_caps);
        let chain_stats = self.sim(&chain_spec);

        let powers: Vec<f64> = services
            .iter()
            .zip(&energies)
            .map(|(&s, &e)| balance::stage_power_mw(e, s, clock))
            .collect();
        Some(
            PipelineReport::from_stats(&stats, self.pipeline, clock, &base, &rebalanced, &clusters)
                .with_chain_baseline(
                    clock as f64 / chain_stats.steady_cycles_per_frame().max(1.0),
                    chain_stats.fill_cycles,
                )
                .with_power(
                    energies.iter().sum(),
                    balance::peak_power_mw(&powers, &clusters, &groups, m),
                )
                .with_pareto(pareto),
        )
    }

    /// The DAG-aware pass of [`PipelineMode::DagRebalanced`]: with the
    /// post-greedy bottleneck service as the deadline, shift cluster
    /// share between the concurrently-live stages of each group — every
    /// stage takes the cheapest budgeted mapping that still meets the
    /// deadline, and over-subscribed fork/join groups shrink members
    /// (cheapest first) until they fit the chip's cluster budget. The new
    /// schedule is adopted only if the pipeline engine confirms it streams
    /// at least as fast as the greedy one.
    #[allow(clippy::too_many_arguments)]
    fn reclaim_slack(
        &self,
        backend_index: usize,
        records: &[LayerRecord],
        groups: &[Vec<usize>],
        spec_of: &dyn Fn(&[u64]) -> PipelineSpec,
        services: &mut [u64],
        energies: &mut [f64],
        clusters: &mut [usize],
        rebalanced: &mut [bool],
    ) {
        let backend = self.backends[backend_index].as_ref();
        let m = backend.arch().clusters.max(1);
        let deadline = *services.iter().max().expect("at least one stage");
        let greedy_steady = self.sim(&spec_of(services)).steady_cycles_per_frame();

        // Per-stage candidates: the current (greedy) schedule entry at
        // full share, then descending sub-chip budgets of the mode's
        // sweep (planned in phase 1, so these are store reads) while the
        // deadline holds — budgeted services are monotone in the share,
        // so the first miss ends the descent.
        let (objectives, sub_budgets) = self.sweep_columns(backend);
        let table: Vec<Vec<balance::AllocCandidate>> = (0..records.len())
            .map(|i| {
                let mut cands = vec![balance::AllocCandidate {
                    clusters: m,
                    service_cycles: services[i],
                    energy_pj: energies[i],
                }];
                for &objective in &objectives {
                    let evals =
                        self.decide(backend_index, &records[i].shape, objective, &sub_budgets);
                    for (&c, eval) in sub_budgets.iter().zip(&evals).rev() {
                        let s = eval.report.cycles.total.max(1);
                        if s > deadline {
                            break;
                        }
                        cands.push(balance::AllocCandidate {
                            clusters: c,
                            service_cycles: s,
                            energy_pj: eval.report.total_pj(),
                        });
                    }
                }
                cands
            })
            .collect();

        let mut choice = balance::deadline_allocation(&table, deadline, false);
        // Budget fitting may only spend what slack reclamation just
        // saved, so the schedule never exceeds the greedy one on energy.
        let energy_slack: f64 = choice
            .iter()
            .enumerate()
            .map(|(i, &j)| energies[i] - table[i][j].energy_pj)
            .sum::<f64>()
            .max(0.0);
        balance::fit_group_budgets(&table, &mut choice, groups, m, deadline, energy_slack);
        let cand_services: Vec<u64> = choice
            .iter()
            .enumerate()
            .map(|(i, &j)| table[i][j].service_cycles)
            .collect();
        let steady = self.sim(&spec_of(&cand_services)).steady_cycles_per_frame();
        if steady > greedy_steady + 1e-9 {
            return; // never trade throughput away: keep the greedy schedule
        }
        for (i, &j) in choice.iter().enumerate() {
            let cand = &table[i][j];
            if cand.service_cycles != services[i] || cand.clusters != m {
                rebalanced[i] = true;
            }
            services[i] = cand.service_cycles;
            energies[i] = cand.energy_pj;
            clusters[i] = cand.clusters;
        }
    }

    /// The [`PipelineMode::Pareto`] sweep: tabulate every stage's
    /// (service, energy) across cluster budgets and objectives, sweep
    /// service deadlines, allocate + budget-fit each, simulate every
    /// distinct allocation with the pipeline engine, filter by the power
    /// cap, and keep the non-dominated points. The chosen schedule (the
    /// fastest capped point, or the coolest candidate if the cap is
    /// unattainable) is written back into the schedule arrays; the
    /// frontier is returned.
    #[allow(clippy::too_many_arguments)]
    fn pareto_sweep(
        &self,
        backend_index: usize,
        records: &[LayerRecord],
        groups: &[Vec<usize>],
        spec_of: &dyn Fn(&[u64]) -> PipelineSpec,
        power_cap_mw: Option<u64>,
        base: &[u64],
        services: &mut [u64],
        energies: &mut [f64],
        clusters: &mut [usize],
        rebalanced: &mut [bool],
    ) -> ParetoReport {
        let backend = self.backends[backend_index].as_ref();
        let m = backend.arch().clusters.max(1);
        let clock = backend.arch().clock_hz;
        let (objectives, budgets) = self.sweep_columns(backend);

        let table: Vec<Vec<balance::AllocCandidate>> = records
            .iter()
            .map(|r| {
                // One warm-started, monotone budget sweep per objective
                // (planned in phase 1) covers the stage's whole column.
                let per_obj: Vec<Vec<LayerEval>> = objectives
                    .iter()
                    .map(|&obj| self.decide(backend_index, &r.shape, obj, &budgets))
                    .collect();
                let mut cands = Vec::new();
                for (ci, &c) in budgets.iter().enumerate() {
                    for evals in &per_obj {
                        let eval = &evals[ci];
                        let cand = balance::AllocCandidate {
                            clusters: c,
                            service_cycles: eval.report.cycles.total.max(1),
                            energy_pj: eval.report.total_pj(),
                        };
                        if !cands.contains(&cand) {
                            cands.push(cand);
                        }
                    }
                }
                cands
            })
            .collect();

        // Evaluate one point per distinct allocation the deadline sweep
        // produces (cheapest-feasible and smallest-feasible flavors).
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut candidates: Vec<(Vec<usize>, ParetoPoint)> = Vec::new();
        for deadline in balance::deadline_levels(&table, PARETO_LEVELS) {
            for prefer_small in [false, true] {
                let mut choice = balance::deadline_allocation(&table, deadline, prefer_small);
                balance::fit_group_budgets(&table, &mut choice, groups, m, deadline, f64::INFINITY);
                if !seen.insert(choice.clone()) {
                    continue;
                }
                let svc: Vec<u64> = choice
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| table[i][j].service_cycles)
                    .collect();
                let alloc: Vec<usize> = choice
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| table[i][j].clusters)
                    .collect();
                let energy: f64 = choice
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| table[i][j].energy_pj)
                    .sum();
                let powers: Vec<f64> = choice
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| balance::stage_power_mw(table[i][j].energy_pj, svc[i], clock))
                    .collect();
                let stats = self.sim(&spec_of(&svc));
                candidates.push((
                    choice,
                    ParetoPoint {
                        clusters: alloc.iter().map(|&c| c as u64).collect(),
                        steady_fps: clock as f64 / stats.steady_cycles_per_frame().max(1.0),
                        energy_per_frame_pj: energy,
                        peak_power_mw: balance::peak_power_mw(&powers, &alloc, groups, m),
                    },
                ));
            }
        }

        let capped: Vec<&(Vec<usize>, ParetoPoint)> = candidates
            .iter()
            .filter(|(_, p)| power_cap_mw.is_none_or(|cap| p.peak_power_mw <= cap as f64))
            .collect();
        // Schedule the fastest capped allocation (ties: least energy,
        // then least power); if nothing respects the cap, degrade to the
        // coolest candidate so the report still carries a real schedule.
        let chosen = capped
            .iter()
            .copied()
            .max_by(|(_, a), (_, b)| {
                a.steady_fps
                    .total_cmp(&b.steady_fps)
                    .then(b.energy_per_frame_pj.total_cmp(&a.energy_per_frame_pj))
                    .then(b.peak_power_mw.total_cmp(&a.peak_power_mw))
            })
            .or_else(|| {
                candidates
                    .iter()
                    .min_by(|(_, a), (_, b)| a.peak_power_mw.total_cmp(&b.peak_power_mw))
            })
            .expect("the sweep always evaluates at least one allocation");
        for (i, &j) in chosen.0.iter().enumerate() {
            let cand = &table[i][j];
            services[i] = cand.service_cycles;
            energies[i] = cand.energy_pj;
            clusters[i] = cand.clusters;
            rebalanced[i] = cand.service_cycles != base[i] || cand.clusters != m;
        }
        ParetoReport {
            power_cap_mw,
            candidates: candidates.len() as u64,
            points: pareto_frontier(capped.into_iter().map(|(_, p)| p.clone()).collect()),
        }
    }

    /// The session's one evaluation path: decisions for one shape under
    /// `objective` across cluster `budgets` (clamped to the chip), served
    /// from the store when every budget is decided, else by one
    /// [`Backend::evaluate_layer_budget_sweep`] whose results are
    /// published back. Searched backends have already written their
    /// entries with search stats ([`DecisionStore::insert`] keeps the
    /// first write); the session-side insert covers fixed backends.
    fn decide(
        &self,
        backend_index: usize,
        shape: &ConvShape,
        objective: Objective,
        budgets: &[usize],
    ) -> Vec<LayerEval> {
        let backend = self.backends[backend_index].as_ref();
        let store = &self.stores[backend_index];
        let clamped: Vec<usize> = budgets
            .iter()
            .map(|&c| backend.arch().clamp_budget(c))
            .collect();
        if let Some(hits) = clamped
            .iter()
            .map(|&c| store.get(&(*shape, objective, c)))
            .collect::<Option<Vec<_>>>()
        {
            return hits.iter().map(eval_of).collect();
        }
        let evals = backend.evaluate_layer_budget_sweep(shape, objective, &clamped);
        for (&c, eval) in clamped.iter().zip(&evals) {
            store.insert((*shape, objective, c), entry_of(eval));
        }
        evals
    }
}

/// One planned phase-2 job: a backend's decisions for one shape under one
/// objective across a set of cluster budgets.
struct Job {
    backend: usize,
    shape: ConvShape,
    objective: Objective,
    /// Ascending cluster budgets; `[m]` for a full-chip decision.
    budgets: Vec<usize>,
    /// A cluster-budget sweep (traced on `sweep:`) rather than a
    /// full-chip decision (traced on `eval:`).
    sweep: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Eyeriss, Morph, MorphBase};
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn repeated_net() -> Network {
        // Three distinct shapes across five layers → two duplicate layers.
        let a = ConvShape::new_3d(8, 8, 4, 4, 8, 3, 3, 3).with_pad(1, 1);
        let b = ConvShape::new_3d(8, 8, 4, 8, 8, 3, 3, 3).with_pad(1, 1);
        let c = ConvShape::new_3d(4, 4, 2, 8, 16, 3, 3, 2).with_pad(1, 0);
        let mut n = Network::new("repeats");
        n.conv("b1_a", a)
            .conv("b1_b", b)
            .conv("b2_a", b)
            .conv("b2_b", b)
            .conv("head", c);
        n
    }

    #[test]
    fn repeated_shapes_hit_the_cache() {
        let session = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .build();
        let rep = session.run();
        let run = &rep.runs[0];
        assert_eq!(run.layers.len(), 5);
        assert_eq!(
            run.cache_hits, 2,
            "layers b2_a and b2_b repeat b1_b's shape"
        );
        assert_eq!(session.cached_decisions(), 3);
        // The duplicates carry the identical decision.
        assert_eq!(run.layers[1].decision, run.layers[2].decision);
        assert_eq!(run.layers[1].report, run.layers[3].report);
    }

    #[test]
    fn second_run_is_fully_cached() {
        let session = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .build();
        let first = session.run();
        let second = session.run();
        assert_eq!(second.runs[0].cache_hits, 5, "every layer cached on re-run");
        assert_eq!(first.runs[0].layers, second.runs[0].layers);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let par = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .threads(4)
            .build();
        let seq = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .threads(1)
            .build();
        assert_eq!(par.run(), seq.run());
    }

    #[test]
    fn runs_cover_backend_network_product() {
        let mut other = repeated_net();
        other.name = "other";
        let session = Session::builder()
            .backend(Morph::new())
            .backend(MorphBase::new())
            .backend(Eyeriss::new())
            .network(repeated_net())
            .network(other)
            .build();
        let rep = session.run();
        assert_eq!(rep.runs.len(), 6);
        // Same layer shapes in both networks → the second network is
        // served entirely from the cache.
        assert_eq!(rep.runs[1].cache_hits, 5);
        assert!(rep.find("Eyeriss", "other").is_some());
    }

    #[test]
    fn pipeline_is_off_by_default() {
        let rep = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .build()
            .run();
        assert!(rep.runs[0].pipeline.is_none());
    }

    #[test]
    fn analytic_pipeline_reports_streaming_throughput() {
        let rep = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .pipeline(PipelineMode::Analytic)
            .pipeline_frames(16)
            .build()
            .run();
        let run = &rep.runs[0];
        let p = run.pipeline.as_ref().unwrap();
        assert_eq!(p.mode, PipelineMode::Analytic);
        assert_eq!(p.frames, 16);
        assert_eq!(p.stages.len(), run.layers.len());
        // Stage services are exactly the per-layer decision latencies.
        for (stage, layer) in p.stages.iter().zip(&run.layers) {
            assert_eq!(stage.name, layer.name);
            assert_eq!(stage.service_cycles, layer.report.cycles.total.max(1));
            assert!(!stage.rebalanced);
        }
        // Pipelining can only help, and the bottleneck is a real layer.
        assert!(p.steady_fps >= p.serial_fps);
        assert!(run.layer(&p.bottleneck).is_some());
    }

    #[test]
    fn rebalanced_pipeline_is_never_slower() {
        let build = |mode| {
            Session::builder()
                .backend(Morph::new())
                .network(repeated_net())
                .pipeline(mode)
                .build()
                .run()
        };
        let analytic = build(PipelineMode::Analytic);
        let rebalanced = build(PipelineMode::Rebalanced);
        let a = analytic.runs[0].pipeline.as_ref().unwrap();
        let r = rebalanced.runs[0].pipeline.as_ref().unwrap();
        // Same baseline, no worse throughput once bottlenecks re-optimize
        // for latency; per-layer records keep the original objective.
        assert_eq!(a.serial_fps, r.serial_fps);
        assert!(r.steady_fps >= a.steady_fps);
        assert_eq!(analytic.runs[0].layers, rebalanced.runs[0].layers);
    }

    /// A small fork/join net whose layers are big enough that cluster
    /// share genuinely moves their latency (tiny layers saturate on one
    /// cluster and collapse every allocation trade-off).
    fn branched_net() -> Network {
        let mut n = Network::new("branched");
        n.conv(
            "stem",
            ConvShape::new_3d(14, 14, 4, 8, 16, 3, 3, 3).with_pad(1, 1),
        );
        let mut f = n.fork();
        f.branch()
            .conv("b0", ConvShape::new_3d(14, 14, 4, 16, 8, 1, 1, 1));
        f.branch()
            .conv("b1_reduce", ConvShape::new_3d(14, 14, 4, 16, 4, 1, 1, 1))
            .conv(
                "b1_3x3",
                ConvShape::new_3d(14, 14, 4, 4, 8, 3, 3, 3).with_pad(1, 1),
            );
        f.concat("mix");
        n.conv("head", ConvShape::new_3d(14, 14, 4, 16, 16, 1, 1, 1));
        n
    }

    /// Test clusters: a 4-cluster Morph keeps the allocation sweeps quick.
    const TEST_CLUSTERS: usize = 4;

    fn test_arch() -> morph_dataflow::arch::ArchSpec {
        morph_dataflow::arch::ArchSpec {
            clusters: TEST_CLUSTERS,
            ..morph_dataflow::arch::ArchSpec::morph()
        }
    }

    fn run_mode(mode: PipelineMode) -> RunReport {
        Session::builder()
            .backend(Morph::builder().arch(test_arch()).build())
            .network(branched_net())
            .pipeline(mode)
            .build()
            .run()
    }

    /// Backend requests counted per (shape, objective, budgets).
    type Calls = HashMap<(ConvShape, Objective, Vec<usize>), usize>;

    /// A [`TEST_CLUSTERS`]-cluster Morph that counts every
    /// [`Backend::evaluate_layer_budget_sweep`] request.
    struct Counting {
        inner: Morph,
        calls: Arc<Mutex<Calls>>,
    }

    impl Backend for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn arch(&self) -> &morph_dataflow::arch::ArchSpec {
            self.inner.arch()
        }

        fn objective(&self) -> Objective {
            self.inner.objective()
        }

        fn evaluate_layer(&self, shape: &ConvShape) -> LayerEval {
            self.inner.evaluate_layer(shape)
        }

        fn supports_cluster_budget(&self) -> bool {
            self.inner.supports_cluster_budget()
        }

        fn evaluate_layer_budget_sweep(
            &self,
            shape: &ConvShape,
            objective: Objective,
            budgets: &[usize],
        ) -> Vec<LayerEval> {
            *self
                .calls
                .lock()
                .unwrap()
                .entry((*shape, objective, budgets.to_vec()))
                .or_default() += 1;
            self.inner
                .evaluate_layer_budget_sweep(shape, objective, budgets)
        }

        fn decision_store(&self) -> Option<Arc<DecisionStore>> {
            self.inner.decision_store()
        }
    }

    /// Every planned request reaches the backend exactly once, whichever
    /// pair reads it and however many workers race, and the report does
    /// not depend on the thread count.
    #[test]
    fn planned_decisions_reach_the_backend_once() {
        // A chain over branched_net's shapes (stem twice), so every sweep
        // is read by both pairs.
        let net = branched_net();
        let shape_of = |name: &str| net.conv_layers().find(|l| l.name == name).unwrap().shape;
        let mut sibling = Network::new("sibling");
        sibling
            .conv("stem", shape_of("stem"))
            .conv("b0", shape_of("b0"))
            .conv("stem2", shape_of("stem"))
            .conv("head", shape_of("head"));
        sibling.validate().unwrap();
        let run = |mode, threads| {
            let calls = Arc::new(Mutex::new(HashMap::new()));
            let report = Session::builder()
                .backend(Counting {
                    inner: Morph::builder().arch(test_arch()).build(),
                    calls: Arc::clone(&calls),
                })
                .network(branched_net())
                .network(sibling.clone())
                .pipeline(mode)
                .threads(threads)
                .build()
                .run();
            let calls = calls.lock().unwrap().clone();
            (report, calls)
        };

        let pareto = PipelineMode::Pareto { power_cap_mw: None };
        let (seq, seq_calls) = run(pareto, 1);
        let (par, par_calls) = run(pareto, 4);
        assert_eq!(seq, par);
        // The plan: one full-chip decision per distinct shape under the
        // backend's own objective (Energy), its sub-chip sweep, and a
        // whole-chip Performance sweep.
        let m = TEST_CLUSTERS;
        let mut expected = HashMap::new();
        for layer in net.conv_layers() {
            for (objective, budgets) in [
                (Objective::Energy, vec![m]),
                (Objective::Energy, (1..m).collect()),
                (Objective::Performance, (1..=m).collect()),
            ] {
                expected.insert((layer.shape, objective, budgets), 1);
            }
        }
        assert_eq!(seq_calls, expected);
        assert_eq!(par_calls, expected);

        let (seq, _) = run(PipelineMode::DagRebalanced, 1);
        let (par, _) = run(PipelineMode::DagRebalanced, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn dag_rebalancing_preserves_throughput_and_reclaims_slack() {
        let greedy = run_mode(PipelineMode::Rebalanced);
        let dag = run_mode(PipelineMode::DagRebalanced);
        let g = greedy.runs[0].pipeline.as_ref().unwrap();
        let d = dag.runs[0].pipeline.as_ref().unwrap();
        // The acceptance invariant: DAG-aware rebalancing never streams
        // slower than the greedy bottleneck rebalancer...
        assert!(
            d.steady_fps >= g.steady_fps - 1e-9,
            "dag {} vs greedy {}",
            d.steady_fps,
            g.steady_fps
        );
        // ...and never spends more energy per frame (every stage keeps
        // the cheapest mapping that still meets the bottleneck deadline).
        assert!(
            d.energy_per_frame_pj <= g.energy_per_frame_pj + 1e-6,
            "dag {} pJ vs greedy {} pJ",
            d.energy_per_frame_pj,
            g.energy_per_frame_pj
        );
        // Slack stages really moved off the full chip.
        assert!(
            d.stages.iter().any(|s| s.clusters < TEST_CLUSTERS as u64),
            "some stage should shrink: {:?}",
            d.stages.iter().map(|s| s.clusters).collect::<Vec<_>>()
        );
        assert!(g.stages.iter().all(|s| s.clusters == TEST_CLUSTERS as u64));
        // Layer records keep the backend's own decisions in both modes.
        assert_eq!(greedy.runs[0].layers, dag.runs[0].layers);
        // Both carry power scores; neither carries a frontier.
        assert!(d.peak_power_mw > 0.0 && g.peak_power_mw > 0.0);
        assert!(d.pareto.is_none() && g.pareto.is_none());
    }

    #[test]
    fn pareto_sweep_reports_a_clean_frontier() {
        let greedy = run_mode(PipelineMode::Rebalanced);
        let g_fps = greedy.runs[0].pipeline.as_ref().unwrap().steady_fps;
        let rep = run_mode(PipelineMode::Pareto { power_cap_mw: None });
        let p = rep.runs[0].pipeline.as_ref().unwrap();
        let pareto = p.pareto.as_ref().expect("pareto mode attaches a frontier");
        assert_eq!(pareto.power_cap_mw, None);
        assert!(pareto.candidates >= pareto.points.len() as u64);
        assert!(!pareto.points.is_empty());
        // No point dominates another.
        for a in &pareto.points {
            assert!(!pareto.points.iter().any(|b| b.dominates(a)));
            assert_eq!(a.clusters.len(), p.stages.len());
        }
        // The frontier covers the greedy rebalanced operating point (or
        // better): its fastest point streams at least as fast.
        let best = pareto.best_fps_point().unwrap();
        assert!(
            best.steady_fps >= g_fps - 1e-9,
            "frontier best {} vs greedy {}",
            best.steady_fps,
            g_fps
        );
        // The schedule is the fastest point, and the report's scores
        // match it.
        assert!((p.steady_fps - best.steady_fps).abs() < 1e-6);
        assert!((p.energy_per_frame_pj - best.energy_per_frame_pj).abs() < 1e-6);
        assert!((p.peak_power_mw - best.peak_power_mw).abs() < 1e-6);
        // The sweep found a genuine trade-off on this net: more than one
        // operating point survived domination.
        assert!(
            pareto.points.len() >= 2,
            "expected a trade-off, got {:?}",
            pareto.points
        );
        // Serialized round trip carries the frontier exactly.
        let back = RunReport::from_json_str(&rep.to_json_string()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn pareto_power_cap_is_respected() {
        // Calibrate a binding cap from the uncapped frontier: tighter
        // than the hottest point, attainable by the coolest.
        let free = run_mode(PipelineMode::Pareto { power_cap_mw: None });
        let frontier = &free.runs[0].pipeline.as_ref().unwrap();
        let points = &frontier.pareto.as_ref().unwrap().points;
        let hottest = points
            .iter()
            .map(|p| p.peak_power_mw)
            .fold(0.0f64, f64::max);
        let coolest = points
            .iter()
            .map(|p| p.peak_power_mw)
            .fold(f64::INFINITY, f64::min);
        // Ceil keeps the cap attainable even if the midpoint floors
        // toward the coolest point.
        let cap = f64::midpoint(coolest, hottest).ceil();
        assert!(coolest < cap && cap < hottest, "cap {cap} must bind");

        let capped = run_mode(PipelineMode::Pareto {
            power_cap_mw: Some(cap as u64),
        });
        let p = capped.runs[0].pipeline.as_ref().unwrap();
        let pareto = p.pareto.as_ref().unwrap();
        assert_eq!(pareto.power_cap_mw, Some(cap as u64));
        assert!(!pareto.points.is_empty(), "the cap is attainable");
        for point in &pareto.points {
            assert!(
                point.peak_power_mw <= cap,
                "point at {} mW violates the {} mW cap",
                point.peak_power_mw,
                cap
            );
        }
        // The scheduled point obeys the cap too.
        assert!(p.peak_power_mw <= cap);
        // A binding cap costs throughput relative to the free frontier.
        let free_best = points.first().unwrap().steady_fps;
        assert!(p.steady_fps <= free_best + 1e-9);
    }

    /// Tracing is strictly a sidecar: a traced run's report is identical
    /// to an untraced one, while the buffer carries all three session
    /// track families (wall-clock evals, cache accounting, and the
    /// namespaced simulated-cycle pipeline timeline).
    #[test]
    fn traced_run_report_is_identical_to_untraced() {
        use morph_trace::{Phase, TraceBuffer};
        let buf = Arc::new(TraceBuffer::new());
        let traced = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .pipeline(PipelineMode::Analytic)
            .trace(buf.clone())
            .build();
        let plain = Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .pipeline(PipelineMode::Analytic)
            .build();
        assert_eq!(traced.run(), plain.run());

        let events = buf.events();
        assert!(events
            .iter()
            .any(|e| e.track.starts_with("eval:Morph/") && matches!(e.phase, Phase::Begin)));
        assert!(events
            .iter()
            .any(|e| e.track == "session:Morph/repeats" && e.phase == Phase::Counter(2)));
        assert!(events
            .iter()
            .any(|e| e.track.starts_with("pipe:Morph/repeats/stage:")));
        assert!(events
            .iter()
            .any(|e| e.track.starts_with("pipe:Morph/repeats/edge:")
                && matches!(e.phase, Phase::Gauge(_))));

        // A re-run records fewer fresh evals (all store-served) and a
        // cache_hits counter that only grows.
        let before = buf.len();
        traced.run();
        assert!(buf.len() > before);
        let last_fresh = buf
            .events()
            .iter()
            .rev()
            .find_map(|e| match (e.track.as_str(), e.phase) {
                ("session:Morph/repeats", Phase::Gauge(v)) if e.name == "fresh_evals" => Some(v),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_fresh, 0, "second run is fully cached");
    }

    /// A traced run records one wall-clock span per session phase, each on
    /// its own `phase:` track, in order and without overlap.
    #[test]
    fn traced_runs_span_each_phase_once() {
        use morph_trace::{Phase, TraceBuffer};
        let buf = Arc::new(TraceBuffer::new());
        Session::builder()
            .backend(Morph::new())
            .network(repeated_net())
            .pipeline(PipelineMode::Analytic)
            .trace(buf.clone())
            .build()
            .run();
        let spans: Vec<(String, Phase, u64)> = buf
            .events()
            .into_iter()
            .filter(|e| e.track.starts_with("phase:"))
            .map(|e| (e.track, e.phase, e.ts))
            .collect();
        let expected: Vec<(String, Phase)> = ["plan", "decide", "assemble"]
            .into_iter()
            .flat_map(|p| {
                [
                    (format!("phase:{p}"), Phase::Begin),
                    (format!("phase:{p}"), Phase::End),
                ]
            })
            .collect();
        let got: Vec<(String, Phase)> = spans.iter().map(|(t, p, _)| (t.clone(), *p)).collect();
        assert_eq!(got, expected);
        assert!(
            spans.windows(2).all(|w| w[0].2 <= w[1].2),
            "phases run in order without overlap: {spans:?}"
        );
    }

    /// Each planned sweep records one wall-clock span on its own
    /// `sweep:{backend}/{shape}/{objective}` track; a re-run plans none.
    #[test]
    fn planned_sweeps_trace_one_span_each() {
        use morph_trace::{Phase, TraceBuffer};
        let buf = Arc::new(TraceBuffer::new());
        let session = Session::builder()
            .backend(Morph::builder().arch(test_arch()).build())
            .network(branched_net())
            .pipeline(PipelineMode::DagRebalanced)
            .trace(buf.clone())
            .build();
        assert_eq!(session.run(), run_mode(PipelineMode::DagRebalanced));
        let sweep_spans = || {
            let mut spans: Vec<(String, Phase)> = buf
                .events()
                .into_iter()
                .filter(|e| e.track.starts_with("sweep:"))
                .map(|e| (e.track, e.phase))
                .collect();
            spans.sort_by(|a, b| a.0.cmp(&b.0));
            spans
        };
        let expected: Vec<(String, Phase)> = {
            let mut tracks: Vec<String> = branched_net()
                .conv_layers()
                .map(|l| format!("sweep:Morph/{}/energy", Optimizer::shape_tag(&l.shape)))
                .collect();
            tracks.sort();
            tracks
                .into_iter()
                .flat_map(|t| [(t.clone(), Phase::Begin), (t, Phase::End)])
                .collect()
        };
        assert_eq!(sweep_spans(), expected);
        session.run();
        assert_eq!(sweep_spans(), expected, "a re-run reads the store");
    }

    #[test]
    fn distinct_objectives_are_cached_separately() {
        let session = Session::builder()
            .backend(Morph::builder().objective(Objective::Energy).build())
            .backend(Morph::builder().objective(Objective::Performance).build())
            .network(repeated_net())
            .build();
        let rep = session.run();
        assert_eq!(rep.runs[0].objective, Objective::Energy);
        assert_eq!(rep.runs[1].objective, Objective::Performance);
        assert!(session.cached_decisions() >= 6);
    }
}
