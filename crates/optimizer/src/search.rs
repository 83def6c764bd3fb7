//! The optimizer driver (§V): enumerate → allocate → cost → select,
//! restructured as a pruned branch-and-bound search.
//!
//! Candidates are no longer eagerly materialized and exhaustively costed.
//! The stream is organized by L2 tile: each tile group carries an
//! **admissible lower bound** on the best score any of its candidates can
//! reach — cycles are bounded by the MACC/parallelism roofline and the
//! DRAM bus time of the group's exact (and cheap to compute) DRAM
//! boundary traffic; energy is bounded by that compulsory DRAM traffic
//! plus the MACC datapath floor ([`EnergyModel::energy_floor_pj`]).
//! Groups are visited best-bound-first (optionally warm-started by a
//! neighboring cluster budget's decision), so a strong incumbent forms
//! early and every candidate whose bound cannot beat it is skipped
//! without allocation or costing. Because bounds never exceed true
//! scores and ties resolve by original enumeration index, the selected
//! [`LayerDecision`] is **bit-identical** to the exhaustive enumeration's
//! ([`Optimizer::search_layer_exhaustive`] keeps that reference path
//! alive for the `search` bench and the parity tests). Every search
//! records [`SearchStats`] (enumerated / bound-pruned / fully costed)
//! into the optimizer's [`DecisionStore`].
//!
//! The cluster budget is an argument of the search, as the objective is:
//! [`Optimizer::search_sweep`] searches one layer on several shares of
//! the chip's compute clusters. The searches of one sweep share their
//! budget-independent work: the L2-tile groups of the stream, every row's
//! hierarchy allocation and every tile chain's summary are built once per
//! sweep, not per budget.

use crate::allocate::{assemble_hierarchy, tile_fits, FitPolicy, RowAllocator};
use crate::space::{
    dedup_orders, inner_order_candidates, l2_tile_candidates, outer_order_candidates,
    parallelism_candidates, Effort,
};
use crate::store::{DecisionStore, SearchStats, StoredDecision};
use morph_dataflow::arch::{ArchSpec, OnChipLevel};
use morph_dataflow::config::TilingConfig;
use morph_dataflow::perf::{best_parallelism, layer_cycles, tile_grid, Parallelism};
use morph_dataflow::traffic::{layer_traffic, ChainSummaries};
use morph_energy::{EnergyModel, EnergyReport};
use morph_tensor::order::{Dim, LoopOrder};
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;
use morph_trace::{NoopRecorder, Recorder};
use std::collections::HashMap;
use std::sync::Arc;

/// What to optimize for (§V-E: "best performance, best performance/watt,
/// etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize total energy.
    Energy,
    /// Minimize latency (cycles).
    Performance,
    /// Maximize MACCs per joule including static energy.
    PerfPerWatt,
}

impl Objective {
    /// Stable identifier used in serialized reports.
    pub fn label(self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::Performance => "performance",
            Objective::PerfPerWatt => "perf_per_watt",
        }
    }

    /// Inverse of [`Objective::label`].
    pub fn from_label(label: &str) -> Result<Self, String> {
        match label {
            "energy" => Ok(Objective::Energy),
            "performance" => Ok(Objective::Performance),
            "perf_per_watt" => Ok(Objective::PerfPerWatt),
            other => Err(format!("unknown objective {other:?}")),
        }
    }
}

impl morph_json::ToJson for Objective {
    fn to_json(&self) -> morph_json::Value {
        morph_json::Value::Str(self.label().to_string())
    }
}

impl morph_json::FromJson for Objective {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        Objective::from_label(
            v.as_str()
                .ok_or_else(|| "objective must be a string".to_string())?,
        )
    }
}

/// The chosen configuration for one layer plus its evaluated cost.
#[derive(Debug, Clone)]
pub struct LayerDecision {
    /// Full multi-level dataflow configuration.
    pub config: TilingConfig,
    /// Spatial PE parallelism.
    pub par: Parallelism,
    /// Evaluated energy/performance.
    pub report: EnergyReport,
}

/// One L2-tile group of the candidate stream: its deduplicated outer
/// orders, the exact DRAM boundary traffic each outer order incurs (the
/// DRAM boundary depends only on the outermost level, so this is both
/// cheap and exact), and the original enumeration index of its first
/// candidate. Nothing here reads the cluster count or the objective.
struct TileGroup {
    l2: Tile,
    outers: Vec<LoopOrder>,
    dram_bytes: Vec<u64>,
    offset: u64,
}

/// One (L2 tile, inner order) row's hierarchy allocation as a
/// [`SweepState`] remembers it.
#[derive(Clone, Copy)]
enum Row {
    /// Not allocated yet.
    Unvisited,
    /// No hierarchy fits below the tile under this order.
    Empty,
    /// The allocated L1 and L0 tiles.
    Tiles(Tile, Tile),
}

/// The trace-only work counters of one search.
#[derive(Default)]
struct Work {
    allocated: u64,
    rows_shared: u64,
    par_grids: u64,
    corner_scores: u64,
}

/// The candidate stream a [`SweepState`] shares: its L2-tile groups,
/// per group its rows' allocations by inner order (empty until a search
/// first visits the group, so unvisited groups cost no row storage), and
/// the shape's chain summaries, which the groups' DRAM bytes, the rows'
/// corner sets and every costed candidate draw from.
struct SharedStream {
    groups: Vec<TileGroup>,
    rows: Vec<Vec<Row>>,
    chains: ChainSummaries,
}

/// The budget-independent work of one budget sweep, shared by its
/// searches ([`Optimizer::search_sweep`]): the neighbour seed, each L2
/// tile's deduplicated outer orders and exact DRAM bytes, each (L2 tile,
/// inner order) row's allocated (L1, L0) tiles, and the shape's
/// tile-chain summaries ([`ChainSummaries`]). None of it reads the
/// cluster count or the objective, so every budget and objective of a
/// shape can share it.
///
/// The seed is the last decision a search in this state returned; the
/// next search costs its L2-tile group first. It only orders the search.
/// The groups and rows are built by the state's first search and are
/// valid for every later one, so the state keeps no record of its inputs:
/// a state lives for one public call ([`Optimizer::search_layer`],
/// [`Optimizer::search_sweep`] or [`Optimizer::search_layer_exhaustive`])
/// of one optimizer on one shape, and an optimizer's inputs — fit policy,
/// architecture, effort, order restrictions — are fixed when it is built.
#[derive(Default)]
struct SweepState {
    seed: Option<LayerDecision>,
    stream: Option<SharedStream>,
}

/// The §V software optimizer.
///
/// It searches every cluster budget of one chip: a search at budget `c`
/// runs on the chip cut to `c` compute clusters (its L2 and every other
/// provision stay whole) and memoizes under that budget. Its inputs are
/// fixed when it is built: only the constructors and the `with_*` methods
/// set them, and each `with_*` method that changes the search space
/// starts a fresh memo, so no memoized decision outlives its inputs.
pub struct Optimizer {
    /// Cost model of the whole chip (also fixes the architecture).
    model: EnergyModel,
    /// Tile fit policy (banked for Morph, partitioned for Morph_base).
    policy: FitPolicy,
    /// Search effort.
    effort: Effort,
    /// Restrict the outer-order space (`None` = full candidate set).
    outer_orders: Option<Vec<LoopOrder>>,
    /// Restrict the inner-order space.
    inner_orders: Option<Vec<LoopOrder>>,
    /// Pin the parallelism to [`Parallelism::base`] of the searched chip
    /// instead of searching it.
    base_parallelism: bool,
    /// Use Morph_base's fixed tiling policy instead of searching tiles.
    fixed_tile_policy: bool,
    /// Decision memo (see [`DecisionStore`]), keyed by cluster budget.
    store: Arc<DecisionStore>,
    /// Trace sink for search spans/counters (see [`Optimizer::with_recorder`]).
    /// [`NoopRecorder`] by default — every instrumentation point is a dead
    /// branch unless a real recorder is attached.
    recorder: Arc<dyn Recorder>,
}

/// The model, once its chip is known to compute: the search divides by
/// the chip's peak MACC rate, so a chip that fails
/// [`morph_dataflow::arch::ArchSpec::validate`] panics here, naming the
/// field, instead of at its first search.
fn checked(model: EnergyModel) -> EnergyModel {
    if let Err(e) = model.arch.validate() {
        panic!("{e}");
    }
    model
}

impl Optimizer {
    /// Full-flexibility Morph optimizer.
    ///
    /// # Panics
    ///
    /// If the model's chip fails `ArchSpec::validate`; the message names
    /// the field.
    pub fn morph(model: EnergyModel, effort: Effort) -> Self {
        Self {
            model: checked(model),
            policy: FitPolicy::Banked,
            effort,
            outer_orders: None,
            inner_orders: None,
            base_parallelism: false,
            fixed_tile_policy: false,
            store: Arc::new(DecisionStore::new()),
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Morph_base: fixed `[WHCKF]`/`[cfwhk]` orders, Table I partitions,
    /// fixed `Hp × Kp` parallelism (§IV-A3, §VI-B).
    ///
    /// # Panics
    ///
    /// If the model's chip fails `ArchSpec::validate`; the message names
    /// the field.
    pub fn morph_base(model: EnergyModel) -> Self {
        Self {
            model: checked(model),
            policy: FitPolicy::Partitioned,
            effort: Effort::Fast,
            outer_orders: Some(vec![LoopOrder::base_outer()]),
            inner_orders: Some(vec![LoopOrder::base_inner()]),
            base_parallelism: true,
            fixed_tile_policy: false,
            store: Arc::new(DecisionStore::new()),
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Restrict the outer-order candidate set (builder style). Resets the
    /// decision memo — a changed space invalidates memoized decisions.
    pub fn with_outer_orders(mut self, orders: Vec<LoopOrder>) -> Self {
        self.outer_orders = Some(orders);
        self.store = Arc::new(DecisionStore::new());
        self
    }

    /// Restrict the inner-order candidate set (builder style).
    pub fn with_inner_orders(mut self, orders: Vec<LoopOrder>) -> Self {
        self.inner_orders = Some(orders);
        self.store = Arc::new(DecisionStore::new());
        self
    }

    /// Pin the parallelism to [`Parallelism::base`] of each searched chip
    /// (builder style).
    pub fn with_base_parallelism(mut self) -> Self {
        self.base_parallelism = true;
        self.store = Arc::new(DecisionStore::new());
        self
    }

    /// Use the fixed (hard-coded FSM) tiling policy — the strictest
    /// baseline variant, used by the flexibility ablation.
    pub fn with_fixed_tile_policy(mut self) -> Self {
        self.fixed_tile_policy = true;
        self.store = Arc::new(DecisionStore::new());
        self
    }

    /// Attach a trace [`Recorder`] (builder style). Every search this
    /// optimizer actually runs (memo hits record nothing) emits one span
    /// per layer on track `search:{shape}/{objective}/c{clusters}` in the
    /// **candidate-index clock** — `ts` counts candidates visited
    /// (pruned + costed) — plus streaming `enumerated` / `bound_pruned` /
    /// `costed` counters and an `incumbent` instant at every improvement.
    /// Tracing never changes the selected decision; it only observes.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The whole chip this optimizer searches budgets of.
    pub fn arch(&self) -> &ArchSpec {
        &self.model.arch
    }

    /// The decision store this optimizer reads and writes, one entry per
    /// (shape, objective, cluster budget).
    pub fn store(&self) -> &Arc<DecisionStore> {
        &self.store
    }

    /// Stats of the memoized whole-chip search for a shape (`None` if not
    /// searched yet).
    pub fn search_stats(&self, shape: &ConvShape, objective: Objective) -> Option<SearchStats> {
        self.store
            .get(&(*shape, objective, self.model.arch.clusters))
            .map(|e| e.stats)
    }

    /// Compact, deterministic track tag for a layer shape — input extents,
    /// channels/filters, kernel, stride — unique enough to separate the
    /// conv layers of every evaluated network on distinct trace tracks.
    /// Shared with the session layer so `search:` and `eval:` tracks for
    /// the same layer carry the same tag.
    pub fn shape_tag(shape: &ConvShape) -> String {
        format!(
            "{}x{}x{}c{}k{}q{}x{}x{}v{}",
            shape.h, shape.w, shape.f, shape.c, shape.k, shape.r, shape.s, shape.t, shape.stride
        )
    }

    fn score(objective: Objective, r: &EnergyReport) -> f64 {
        match objective {
            Objective::Energy => r.total_pj(),
            Objective::Performance => r.cycles.total as f64,
            Objective::PerfPerWatt => -r.perf_per_watt(),
        }
    }

    /// Search one layer on the whole chip; results are memoized in the
    /// [`DecisionStore`] (repeated blocks in ResNets hit the store).
    pub fn search_layer(&self, shape: &ConvShape, objective: Objective) -> LayerDecision {
        let clusters = self.model.arch.clusters;
        self.search_in(shape, objective, clusters, &mut SweepState::default())
    }

    /// Search one layer on each cluster budget of `budgets`, returning the
    /// decisions in the order of `budgets`. Budgets are clamped to the
    /// chip ([`ArchSpec::clamp_budget`]). The distinct budgets are walked
    /// **ascending**, and each search is warm-started by the previous
    /// budget's decision: it costs that decision's L2-tile group first,
    /// giving branch-and-bound a near-optimal incumbent at once. (The seed
    /// only orders the search, so either walk direction would be correct;
    /// ascending keeps each seed one step from its consumer.) The searches
    /// also share their budget-independent work, so a sweep over the
    /// whole chip costs little more than one cold search. Every decision
    /// is memoized under its budget and is bit-identical to a cold
    /// search's.
    pub fn search_sweep(
        &self,
        shape: &ConvShape,
        objective: Objective,
        budgets: &[usize],
    ) -> Vec<LayerDecision> {
        let arch = &self.model.arch;
        let mut walk: Vec<usize> = budgets.iter().map(|&c| arch.clamp_budget(c)).collect();
        walk.sort_unstable();
        walk.dedup();
        let mut state = SweepState::default();
        let decided: HashMap<usize, LayerDecision> = walk
            .into_iter()
            .map(|c| (c, self.search_in(shape, objective, c, &mut state)))
            .collect();
        budgets
            .iter()
            .map(|&c| decided[&arch.clamp_budget(c)].clone())
            .collect()
    }

    /// One memoized search at a cluster budget, as one step of a sweep:
    /// it shares `state`'s budget-independent work (building it on first
    /// use), is warm-started by its seed, and leaves its decision as the
    /// next seed.
    fn search_in(
        &self,
        shape: &ConvShape,
        objective: Objective,
        clusters: usize,
        state: &mut SweepState,
    ) -> LayerDecision {
        let key = (*shape, objective, clusters);
        let decision = match self.store.get(&key).and_then(|hit| hit.to_decision()) {
            Some(decision) => decision,
            None => {
                let (decision, stats) = self.run_search(shape, objective, clusters, state, true);
                self.store
                    .insert(key, StoredDecision::from_decision(&decision, stats));
                decision
            }
        };
        state.seed = Some(decision.clone());
        decision
    }

    /// The pre-refactor eager reference on the whole chip: cost every
    /// candidate, no bounds, no memoization, nothing shared. The `search`
    /// bench and the parity tests use this to prove the pruned stream
    /// selects the identical decision while fully costing far fewer
    /// candidates.
    pub fn search_layer_exhaustive(
        &self,
        shape: &ConvShape,
        objective: Objective,
    ) -> (LayerDecision, SearchStats) {
        let clusters = self.model.arch.clusters;
        self.run_search(
            shape,
            objective,
            clusters,
            &mut SweepState::default(),
            false,
        )
    }

    /// The L2-tile groups of this optimizer's candidate stream on `arch`
    /// for the shape `chains` summarizes, in original enumeration order.
    /// The DRAM boundary's traffic depends only on the outermost level, so
    /// each (L2 tile, outer order) pair's DRAM bytes are exact: scored
    /// from the tile's five one-level chain summaries, far cheaper than a
    /// full costing.
    fn tile_groups(
        &self,
        arch: &ArchSpec,
        chains: &mut ChainSummaries,
        outer_cands: &[LoopOrder],
        n_inner: u64,
    ) -> Vec<TileGroup> {
        let shape = *chains.shape();
        let mut l2_cands: Vec<_> = l2_tile_candidates(&shape, arch, self.effort)
            .into_iter()
            .filter(|t| tile_fits(&shape, t, OnChipLevel::L2, arch, self.policy))
            .collect();
        if l2_cands.is_empty() {
            // Fall back to the minimum tile so every layer is schedulable.
            l2_cands.push(Tile::unit());
        }
        let mut offset = 0u64;
        l2_cands
            .into_iter()
            .map(|l2| {
                let dims = Dim::ALL.map(|d| chains.chain(d, &[l2.extent(d)]));
                let outers = dedup_orders(outer_cands, chains.multi_trip(dims, 0));
                let dram_bytes = outers
                    .iter()
                    .map(|&outer| chains.boundary(&[outer], dims).total())
                    .collect();
                let group = TileGroup {
                    l2,
                    outers,
                    dram_bytes,
                    offset,
                };
                offset += group.outers.len() as u64 * n_inner;
                group
            })
            .collect()
    }

    /// The search core, on the chip cut to `clusters` compute clusters.
    /// `prune: false` is the exhaustive
    /// reference (original enumeration order, every feasible candidate
    /// costed); `prune: true` ranks L2-tile groups by admissible bound,
    /// seeds the incumbent from the neighbor decision's group, and skips
    /// every candidate whose bound cannot beat the incumbent. Both paths
    /// select the minimum `(score, original index)` candidate, so their
    /// decisions are identical. The groups and row allocations come from
    /// `state`, built here by its first search.
    fn run_search(
        &self,
        shape: &ConvShape,
        objective: Objective,
        clusters: usize,
        state: &mut SweepState,
        prune: bool,
    ) -> (LayerDecision, SearchStats) {
        // The budget's chip keeps the L2 and every other provision whole.
        let model = EnergyModel {
            arch: ArchSpec {
                clusters,
                ..self.model.arch
            },
            ..self.model.clone()
        };
        let arch = &model.arch;
        // Search-trace setup. The track is unique per (shape, objective,
        // cluster budget); timestamps are the candidate-index clock
        // (candidates visited so far), so traces are deterministic.
        let rec: &dyn Recorder = &*self.recorder;
        let traced = rec.enabled();
        let track = if traced {
            format!(
                "search:{}/{}/c{}",
                Self::shape_tag(shape),
                objective.label(),
                clusters
            )
        } else {
            String::new()
        };
        if self.fixed_tile_policy {
            let cfg = crate::allocate::base_hierarchy(shape, arch);
            let par = Parallelism::base(arch);
            let mut traffic = layer_traffic(shape, &cfg);
            morph_dataflow::traffic::apply_multicast(&mut traffic, par.hp, par.wp, par.fp, par.kp);
            let cycles = layer_cycles(shape, &cfg, &par, arch, &traffic);
            let report = model.attribute(shape, &traffic, cycles);
            let decision = LayerDecision {
                config: cfg,
                par,
                report,
            };
            let stats = SearchStats {
                enumerated: 1,
                bound_pruned: 0,
                costed: 1,
            };
            if traced {
                rec.span(&track, "search", 0, 1);
                rec.counter(&track, "enumerated", 1, stats.enumerated);
                rec.counter(&track, "bound_pruned", 1, stats.bound_pruned);
                rec.counter(&track, "costed", 1, stats.costed);
            }
            return (decision, stats);
        }

        let inner_cands = self
            .inner_orders
            .clone()
            .unwrap_or_else(|| inner_order_candidates(self.effort));
        let pars = if self.base_parallelism {
            vec![Parallelism::base(arch)]
        } else {
            parallelism_candidates(arch)
        };
        let n_inner = inner_cands.len();

        // The budget-independent part of the stream: built by the state's
        // first search, shared by every budget and objective after.
        let SweepState { seed, stream } = state;
        // Chain summaries this search finds already built (trace only).
        let summaries_before = stream.as_ref().map_or(0, |s| s.chains.built());
        let SharedStream {
            groups,
            rows,
            chains,
        } = stream.get_or_insert_with(|| {
            let outer_cands = self
                .outer_orders
                .clone()
                .unwrap_or_else(|| outer_order_candidates(self.effort));
            let mut chains = ChainSummaries::new(shape);
            let groups = self.tile_groups(arch, &mut chains, &outer_cands, n_inner as u64);
            SharedStream {
                rows: vec![Vec::new(); groups.len()],
                groups,
                chains,
            }
        });

        let maccs = shape.maccs();
        // Admissible score floor for a candidate, from its exact DRAM
        // bytes and a latency floor. Every objective's true score can only
        // be worse (larger): real latency is at least the roofline/bus
        // floor, and real energy adds on-chip access and NoC terms on top
        // of the DRAM + datapath floor.
        let score_floor = |dram_bytes: u64, cycles: u64| match objective {
            Objective::Performance => cycles as f64,
            Objective::Energy => model.energy_floor_pj(dram_bytes, maccs, cycles),
            Objective::PerfPerWatt => {
                let e = model.energy_floor_pj(dram_bytes, maccs, cycles);
                -(maccs as f64) / e.max(f64::MIN_POSITIVE)
            }
        };
        // MACC/parallelism roofline: no mapping finishes faster than the
        // chip's peak MACC rate allows.
        let roofline = maccs.div_ceil(arch.peak_maccs_per_cycle());
        let dram_bus_bytes = ((arch.bus_dram_bits / 8).max(1)) as u64;
        // Each group's admissible score bound over its outer orders.
        let bounds: Vec<f64> = groups
            .iter()
            .map(|g| {
                if !prune {
                    return f64::NEG_INFINITY;
                }
                g.dram_bytes
                    .iter()
                    .map(|&bytes| {
                        let floor = roofline.max(bytes.div_ceil(dram_bus_bytes));
                        score_floor(bytes, floor)
                    })
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mut stats = SearchStats {
            enumerated: groups
                .iter()
                .map(|g| g.outers.len() as u64 * n_inner as u64)
                .sum(),
            bound_pruned: 0,
            costed: 0,
        };
        if traced {
            rec.span_begin(&track, "search", 0);
            rec.counter(&track, "enumerated", 0, stats.enumerated);
        }

        // Group visit order. Pruned: ascending bound, with the seed's L2
        // group hoisted to the front (the neighboring budget's optimum
        // points at the most promising region). Exhaustive: original.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        if prune {
            order.sort_by(|&a, &b| bounds[a].total_cmp(&bounds[b]));
            if let Some(seed) = seed {
                let seed_l2 = seed.config.levels[0].tile;
                if let Some(pos) = order.iter().position(|&g| groups[g].l2 == seed_l2) {
                    let g = order.remove(pos);
                    order.insert(0, g);
                }
            }
        }

        let mut best: Option<(f64, u64, LayerDecision)> = None;
        let mut incumbent = f64::INFINITY;
        // The best parallelism depends only on the tile grid, which many
        // (L2 tile, inner order) rows share: score each grid once.
        let mut grid_par: HashMap<(Tile, Tile), (Parallelism, u64)> = HashMap::new();
        // Trace-only work counters: hierarchy allocations, rows served
        // from the state instead, tile grids scored for parallelism, and
        // the `f_reuse` corner scores the allocations computed — the steps
        // a row pays before its bound — plus the chain summaries built.
        let mut work = Work::default();
        let emit = |stats: &SearchStats, work: &Work, chains: &ChainSummaries| {
            let t = stats.bound_pruned + stats.costed;
            rec.counter(&track, "bound_pruned", t, stats.bound_pruned);
            rec.counter(&track, "costed", t, stats.costed);
            rec.counter(&track, "allocated", t, work.allocated);
            rec.counter(&track, "rows_shared", t, work.rows_shared);
            rec.counter(&track, "par_grids", t, work.par_grids);
            rec.counter(&track, "corner_scores", t, work.corner_scores);
            let summaries = chains.built() - summaries_before;
            rec.counter(&track, "summaries", t, summaries as u64);
        };
        let base_outer = LoopOrder::base_outer();

        for (pos, &gi) in order.iter().enumerate() {
            let g = &groups[gi];
            if prune && bounds[gi] > incumbent {
                // Groups past the seed are sorted by bound, so every
                // remaining group is bounded out with this one.
                stats.bound_pruned += order[pos..]
                    .iter()
                    .map(|&i| groups[i].outers.len() as u64 * n_inner as u64)
                    .sum::<u64>();
                if traced {
                    emit(&stats, &work, chains);
                }
                break;
            }
            // The sub-tile choice is driven by the inner order; the outer
            // order is swapped in afterwards. Each row is allocated once
            // per state, sharing its corner sets with the group's others.
            let mut alloc = RowAllocator::new(base_outer, g.l2, arch, self.policy);
            let g_rows = &mut rows[gi];
            if g_rows.is_empty() {
                g_rows.resize(n_inner, Row::Unvisited);
            }
            for ((j, inner), row) in inner_cands.iter().enumerate().zip(g_rows) {
                if let Row::Unvisited = row {
                    work.allocated += 1;
                    *row = alloc
                        .pick(chains, *inner)
                        .map_or(Row::Empty, |(l1, l0)| Row::Tiles(l1, l0));
                } else {
                    work.rows_shared += 1;
                }
                let Row::Tiles(l1, l0) = *row else {
                    continue;
                };
                let Some(base_cfg) =
                    assemble_hierarchy(shape, base_outer, *inner, [g.l2, l1, l0], arch)
                else {
                    continue;
                };
                // Best parallelism = fewest compute cycles; it depends only
                // on the tile grid, not the loop orders, so hoist it out of
                // the outer-order loop.
                let (par, compute) = *grid_par.entry(tile_grid(&base_cfg)).or_insert_with(|| {
                    work.par_grids += 1;
                    best_parallelism(shape, &base_cfg, &pars, arch)
                        .expect("at least one parallelism candidate")
                });
                if prune {
                    // Allocation-aware row bound: the compute roofline of
                    // this (L2, inner) hierarchy holds for every outer
                    // order it will be paired with.
                    let row = g
                        .dram_bytes
                        .iter()
                        .map(|&bytes| {
                            let floor = roofline.max(compute).max(bytes.div_ceil(dram_bus_bytes));
                            score_floor(bytes, floor)
                        })
                        .fold(f64::INFINITY, f64::min);
                    if row > incumbent {
                        stats.bound_pruned += g.outers.len() as u64;
                        continue;
                    }
                }
                for (k, outer) in g.outers.iter().enumerate() {
                    let idx = g.offset + (j * g.outers.len() + k) as u64;
                    if prune {
                        let bytes = g.dram_bytes[k];
                        let floor = roofline.max(compute).max(bytes.div_ceil(dram_bus_bytes));
                        if score_floor(bytes, floor) > incumbent {
                            stats.bound_pruned += 1;
                            continue;
                        }
                    }
                    stats.costed += 1;
                    let mut cfg = base_cfg.clone();
                    cfg.levels[0].order = *outer;
                    let mut traffic = chains.layer_traffic(&cfg);
                    morph_dataflow::traffic::apply_multicast(
                        &mut traffic,
                        par.hp,
                        par.wp,
                        par.fp,
                        par.kp,
                    );
                    let cycles = layer_cycles(shape, &cfg, &par, arch, &traffic);
                    let report = model.attribute(shape, &traffic, cycles);
                    let s = Self::score(objective, &report);
                    let replace = match &best {
                        None => true,
                        Some((bs, bi, _)) => s < *bs || (s == *bs && idx < *bi),
                    };
                    if replace {
                        best = Some((
                            s,
                            idx,
                            LayerDecision {
                                config: cfg,
                                par,
                                report,
                            },
                        ));
                        incumbent = s;
                        if traced {
                            rec.instant(&track, "incumbent", stats.bound_pruned + stats.costed);
                        }
                    }
                }
            }
            work.corner_scores += alloc.corner_scores();
            // Stream the prune/cost split once per visited tile group —
            // bounded by the group count, not the candidate count.
            if traced {
                emit(&stats, &work, chains);
            }
        }
        if traced {
            let t = stats.bound_pruned + stats.costed;
            rec.counter(&track, "enumerated", t, stats.enumerated);
            emit(&stats, &work, chains);
            rec.span_end(&track, "search", t);
        }
        let decision = best.expect("search space never empty").2;
        (decision, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_dataflow::arch::ArchSpec;

    fn layer() -> ConvShape {
        ConvShape::new_3d(28, 28, 8, 128, 256, 3, 3, 3).with_pad(1, 1)
    }

    /// An empty state whose first search is warm-started by `seed`.
    fn seeded(seed: LayerDecision) -> SweepState {
        SweepState {
            seed: Some(seed),
            stream: None,
        }
    }

    #[test]
    fn morph_beats_base_on_a_3d_layer() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let morph = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast);
        let base = Optimizer::morph_base(EnergyModel::morph_base(arch));
        let em = morph.search_layer(&sh, Objective::Energy).report;
        let eb = base.search_layer(&sh, Objective::Energy).report;
        assert!(
            em.total_pj() < eb.total_pj(),
            "morph {} vs base {}",
            em.total_pj(),
            eb.total_pj()
        );
    }

    #[test]
    fn constructors_reject_a_chip_that_cannot_compute() {
        use std::panic::catch_unwind;
        type Zero = (&'static str, fn(&mut ArchSpec));
        let zeros: [Zero; 5] = [
            ("clusters", |a| a.clusters = 0),
            ("pes_per_cluster", |a| a.pes_per_cluster = 0),
            ("vector_width", |a| a.vector_width = 0),
            ("banks", |a| a.banks = 0),
            ("clock_hz", |a| a.clock_hz = 0),
        ];
        for (field, zero) in zeros {
            let mut arch = ArchSpec::morph();
            zero(&mut arch);
            let builds = [
                catch_unwind(|| drop(Optimizer::morph(EnergyModel::morph(arch), Effort::Fast))),
                catch_unwind(|| drop(Optimizer::morph_base(EnergyModel::morph_base(arch)))),
            ];
            for (ctor, build) in ["morph", "morph_base"].into_iter().zip(builds) {
                let panic = build.expect_err(&format!("Optimizer::{ctor} took zero {field}"));
                let msg = panic.downcast_ref::<String>().expect("formatted message");
                assert!(
                    msg.contains(field),
                    "Optimizer::{ctor}, zero {field}: {msg}"
                );
            }
        }
    }

    #[test]
    fn cache_returns_identical_decision() {
        let sh = layer();
        let opt = Optimizer::morph(EnergyModel::morph(ArchSpec::morph()), Effort::Fast);
        let a = opt.search_layer(&sh, Objective::Energy);
        let b = opt.search_layer(&sh, Objective::Energy);
        assert_eq!(a.config, b.config);
        assert_eq!(a.par, b.par);
        // The memo is the shared store, keyed by the arch's clusters.
        assert_eq!(opt.store().len(), 1);
        assert!(opt.search_stats(&sh, Objective::Energy).is_some());
    }

    #[test]
    fn performance_objective_minimizes_cycles() {
        let sh = layer();
        let opt = Optimizer::morph(EnergyModel::morph(ArchSpec::morph()), Effort::Fast);
        let perf = opt.search_layer(&sh, Objective::Performance);
        let energy = opt.search_layer(&sh, Objective::Energy);
        assert!(perf.report.cycles.total <= energy.report.cycles.total);
        assert!(energy.report.total_pj() <= perf.report.total_pj());
    }

    #[test]
    fn decisions_respect_capacity() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let opt = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast);
        let d = opt.search_layer(&sh, Objective::Energy);
        assert!(d.config.fits(&sh, &arch).is_ok());
        assert!(d.config.validate(&sh).is_ok());
    }

    /// The acceptance invariant at the unit level: branch-and-bound
    /// returns the exhaustive argmin bit-for-bit under every objective,
    /// while fully costing a fraction of the candidates.
    #[test]
    fn pruned_search_matches_exhaustive_and_prunes() {
        let sh = layer();
        let opt = Optimizer::morph(EnergyModel::morph(ArchSpec::morph()), Effort::Fast);
        for objective in [
            Objective::Energy,
            Objective::Performance,
            Objective::PerfPerWatt,
        ] {
            let pruned = opt.search_layer(&sh, objective);
            let (exhaustive, full_stats) = opt.search_layer_exhaustive(&sh, objective);
            assert_eq!(pruned.config, exhaustive.config, "{objective:?}");
            assert_eq!(pruned.par, exhaustive.par, "{objective:?}");
            assert_eq!(pruned.report, exhaustive.report, "{objective:?}");

            let stats = opt.search_stats(&sh, objective).unwrap();
            assert_eq!(stats.enumerated, full_stats.enumerated, "{objective:?}");
            assert_eq!(full_stats.bound_pruned, 0);
            assert!(
                stats.costed * 3 <= full_stats.costed,
                "{objective:?}: pruned costed {} vs exhaustive {}",
                stats.costed,
                full_stats.costed
            );
            assert!(stats.bound_pruned > 0);
            assert!(stats.bound_pruned + stats.costed <= stats.enumerated);
        }
    }

    /// Seeding only accelerates the search — the decision is identical,
    /// and a well-placed seed never costs more than the cold search.
    #[test]
    fn seeded_search_is_identical_and_no_slower() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let cold = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast);
        let d_cold = cold.search_layer(&sh, Objective::Energy);

        let warm = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast);
        let d_seeded = warm.search_in(
            &sh,
            Objective::Energy,
            arch.clusters,
            &mut seeded(d_cold.clone()),
        );
        assert_eq!(d_cold.config, d_seeded.config);
        assert_eq!(d_cold.par, d_seeded.par);
        assert_eq!(d_cold.report, d_seeded.report);
        let s_cold = cold.search_stats(&sh, Objective::Energy).unwrap();
        let s_seeded = warm.search_stats(&sh, Objective::Energy).unwrap();
        assert!(
            s_seeded.costed <= s_cold.costed,
            "seeded {} vs cold {}",
            s_seeded.costed,
            s_cold.costed
        );
    }

    /// The final sample of every counter on a trace buffer's events,
    /// asserting each is monotone along the way.
    fn final_counters(events: &[morph_trace::TraceEvent]) -> HashMap<&str, u64> {
        let mut last: HashMap<&str, u64> = HashMap::new();
        for e in events {
            if let morph_trace::Phase::Counter(v) = e.phase {
                let prev = last.insert(e.name.as_str(), v).unwrap_or(0);
                assert!(v >= prev, "counter {} regressed", e.name);
            }
        }
        last
    }

    /// The streaming trace counters close exactly on the returned
    /// [`SearchStats`]: the final `enumerated` / `bound_pruned` / `costed`
    /// samples on the search track equal the stored stats, the
    /// `allocated`, `par_grids`, `summaries` and `corner_scores` work
    /// counters are monotone and nonzero, a cold search shares no rows,
    /// the span is balanced over `[0, visited]`, and attaching a recorder
    /// changes nothing about the selected decision. On a warm state,
    /// `allocated + rows_shared` still counts every visited row: it equals
    /// the allocations of the same search on a fresh state with the same
    /// seed, which builds more chain summaries than the warm search.
    #[test]
    fn trace_counters_close_on_search_stats() {
        use morph_trace::{Phase, TraceBuffer};
        let sh = layer();
        let arch = ArchSpec::morph();
        let plain = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast);
        let d_plain = plain.search_layer(&sh, Objective::Energy);

        let buf = Arc::new(TraceBuffer::new());
        let traced =
            Optimizer::morph(EnergyModel::morph(arch), Effort::Fast).with_recorder(buf.clone());
        let d_traced = traced.search_layer(&sh, Objective::Energy);
        assert_eq!(d_plain.config, d_traced.config);
        assert_eq!(d_plain.par, d_traced.par);
        assert_eq!(d_plain.report, d_traced.report);

        let stats = traced.search_stats(&sh, Objective::Energy).unwrap();
        let events = buf.events();
        assert!(!events.is_empty());
        let track = format!(
            "search:{}/{}/c{}",
            Optimizer::shape_tag(&sh),
            Objective::Energy.label(),
            arch.clusters
        );
        assert!(events.iter().all(|e| e.track == track));

        // Final counter samples == returned stats, streamed monotonically.
        let last = final_counters(&events);
        assert_eq!(last["enumerated"], stats.enumerated);
        assert_eq!(last["bound_pruned"], stats.bound_pruned);
        assert_eq!(last["costed"], stats.costed);
        // The work counters stream beside them: a cold search allocates
        // every visited row, and rows sharing a tile grid score
        // parallelism once.
        assert!(last["allocated"] > 0);
        assert_eq!(last["rows_shared"], 0);
        assert!(last["par_grids"] > 0);
        assert!(last["par_grids"] <= last["allocated"]);
        assert!(last["summaries"] > 0);
        assert!(last["corner_scores"] > 0);

        // One balanced span over the candidate-index clock, plus at least
        // one incumbent-improvement instant (the search found something).
        let begins = events
            .iter()
            .filter(|e| matches!(e.phase, Phase::Begin))
            .count();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.phase, Phase::End))
            .collect();
        assert_eq!(begins, 1);
        assert_eq!(ends.len(), 1);
        assert_eq!(ends[0].ts, stats.bound_pruned + stats.costed);
        assert!(events.iter().any(|e| matches!(e.phase, Phase::Instant)));

        // A memo hit replays the store without recording anything new.
        let before = buf.len();
        let _ = traced.search_layer(&sh, Objective::Energy);
        assert_eq!(buf.len(), before);

        // A warm full-chip search after a half-chip one, on one state,
        // against the same search on a fresh state with the same seed.
        let mut state = SweepState::default();
        let d_half = Optimizer::morph(EnergyModel::morph(arch), Effort::Fast).search_in(
            &sh,
            Objective::Energy,
            3,
            &mut state,
        );
        let run = |state: &mut SweepState| {
            let buf = Arc::new(TraceBuffer::new());
            let opt =
                Optimizer::morph(EnergyModel::morph(arch), Effort::Fast).with_recorder(buf.clone());
            let d = opt.search_in(&sh, Objective::Energy, arch.clusters, state);
            assert_eq!(d.report, d_plain.report);
            let events = buf.events();
            let last = final_counters(&events);
            (
                last["allocated"],
                last["rows_shared"],
                last["summaries"],
                opt.search_stats(&sh, Objective::Energy),
            )
        };
        let (warm_allocated, warm_shared, warm_summaries, warm_stats) = run(&mut state);
        let (cold_allocated, cold_shared, cold_summaries, cold_stats) = run(&mut seeded(d_half));
        assert_eq!(cold_shared, 0);
        assert!(
            warm_shared > 0,
            "the half-chip search left no rows to share"
        );
        assert!(warm_allocated < cold_allocated);
        assert_eq!(warm_allocated + warm_shared, cold_allocated);
        assert!(
            warm_summaries < cold_summaries,
            "warm {warm_summaries} vs cold {cold_summaries} summaries built"
        );
        assert_eq!(warm_stats, cold_stats);
    }

    /// Searches of one optimizer at different cluster budgets share its
    /// store without colliding: their decisions land under distinct keys,
    /// and each budget replays its own entry.
    #[test]
    fn shared_store_keys_by_cluster_budget() {
        let sh = ConvShape::new_3d(14, 14, 4, 32, 64, 3, 3, 3).with_pad(1, 1);
        let opt = Optimizer::morph(EnergyModel::morph(ArchSpec::morph()), Effort::Fast);
        let df = opt.search_layer(&sh, Objective::Performance);
        let dh = opt
            .search_sweep(&sh, Objective::Performance, &[3])
            .remove(0);
        assert_eq!(opt.store().len(), 2, "one entry per cluster budget");
        assert!(dh.report.cycles.total >= df.report.cycles.total);
        let replay = opt.search_sweep(&sh, Objective::Performance, &[6, 3]);
        assert_eq!(replay[0].report, df.report);
        assert_eq!(replay[1].report, dh.report);
        assert_eq!(opt.store().len(), 2);
    }
}
