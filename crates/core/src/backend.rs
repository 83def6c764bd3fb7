//! The [`Backend`] trait: the extension point every accelerator model in
//! the workspace plugs into.
//!
//! The paper's three points of comparison (§VI-B) — flexible Morph, the
//! inflexible Morph_base, and the Eyeriss-like 2D baseline — are the three
//! built-in implementors, each constructed through a builder that fixes
//! its architecture provisioning, search effort and optimization
//! objective; `build` rejects a chip that cannot compute
//! ([`ArchSpec::validate`]). A [`crate::Session`] drives any set of
//! backends (trait objects) over any set of networks.

use morph_dataflow::arch::ArchSpec;
use morph_dataflow::config::TilingConfig;
use morph_dataflow::perf::Parallelism;
use morph_energy::{EnergyModel, EnergyReport};
use morph_optimizer::{DecisionStore, Effort, LayerDecision, Objective, Optimizer};
use morph_pipeline::PipelineCaps;
use morph_tensor::order::LoopOrder;
use morph_tensor::shape::ConvShape;
use morph_trace::Recorder;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// The dataflow mapping a backend chose for one layer.
///
/// Morph variants report the searched configuration; fixed-dataflow
/// backends (Eyeriss) report none.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingDecision {
    /// Full multi-level tiling/order configuration.
    pub config: TilingConfig,
    /// Spatial PE parallelism.
    pub par: Parallelism,
}

/// One layer's evaluation: cost plus (when available) the chosen mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerEval {
    /// Energy/cycle breakdown.
    pub report: EnergyReport,
    /// The chosen mapping, `None` for fixed-dataflow backends.
    pub decision: Option<MappingDecision>,
}

/// An accelerator model that can evaluate convolution layers.
///
/// Implementors are `Send + Sync` so a [`crate::Session`] can fan layer
/// evaluations out across threads, and are driven through trait objects —
/// adding a backend never touches the session or report machinery.
pub trait Backend: Send + Sync {
    /// Display name as used in the paper's figures (`"Morph"`, …).
    fn name(&self) -> &str;

    /// Hardware provisioning backing the model.
    fn arch(&self) -> &ArchSpec;

    /// The objective this backend optimizes for (fixed at build time).
    fn objective(&self) -> Objective;

    /// Evaluate one layer under the backend's own objective on its full
    /// chip, returning cost and (if searched) the mapping.
    fn evaluate_layer(&self, shape: &ConvShape) -> LayerEval;

    /// True if [`Backend::evaluate_layer_budget_sweep`] really honors a
    /// reduced cluster budget. The DAG-aware rebalancer and the Pareto
    /// sweep only enumerate sub-chip shares for backends that return
    /// `true`; fixed-provisioning models keep the default `false` and are
    /// always scheduled on their full chip.
    fn supports_cluster_budget(&self) -> bool {
        false
    }

    /// Evaluate one layer under an explicit objective across a set of
    /// **cluster budgets** — the only evaluation a [`crate::Session`]
    /// makes; a single decision is a one-element sweep. A budget of `c`
    /// runs the mapping search on the same architecture with only `c`
    /// compute clusters (the shared L2 stays whole — branch stages split
    /// compute, not the last-level buffer). Budgets are clamped to the
    /// chip ([`ArchSpec::clamp_budget`]): 0 means one cluster, anything
    /// past the chip means the whole chip. Searched backends hand the
    /// sweep to [`Optimizer::search_sweep`], which walks the budgets
    /// ascending, **warm-starts** each budget's branch-and-bound search
    /// with the neighboring budget's best decision and pays each row's
    /// hierarchy allocation once per sweep, so a sweep over the whole chip
    /// costs little more than one cold search. Results come back in the
    /// order of `budgets`. The default maps [`Backend::evaluate_layer`]
    /// over them: fixed-dataflow backends ignore objective and budget.
    fn evaluate_layer_budget_sweep(
        &self,
        shape: &ConvShape,
        _objective: Objective,
        budgets: &[usize],
    ) -> Vec<LayerEval> {
        budgets.iter().map(|_| self.evaluate_layer(shape)).collect()
    }

    /// The backend's shared [`DecisionStore`], when it memoizes decisions
    /// through one. A [`crate::Session`] adopts it as the per-backend
    /// decision cache, so the optimizer layer and the session layer share
    /// one memo instead of stacking two. Fixed-dataflow backends keep the
    /// default `None` and the session provides a store for them.
    fn decision_store(&self) -> Option<Arc<DecisionStore>> {
        None
    }

    /// Channel provisioning for cross-layer pipelined scheduling: how much
    /// buffer the backend stages inter-layer frames in. Default: half the
    /// last-level buffer (the other half stays with the layer tiles),
    /// double buffered.
    fn pipeline_caps(&self) -> PipelineCaps {
        PipelineCaps::from_l2(self.arch().l2_bytes)
    }

    /// Cost-only convenience wrapper around [`Backend::evaluate_layer`].
    fn run_layer(&self, shape: &ConvShape) -> EnergyReport {
        self.evaluate_layer(shape).report
    }
}

/// The Eyeriss builder's chip, checked when its backend is built: a chip
/// that cannot compute panics here, naming the field, as the searched
/// backends' optimizers do.
fn checked(arch: ArchSpec) -> ArchSpec {
    if let Err(e) = arch.validate() {
        panic!("{e}");
    }
    arch
}

/// A searched [`LayerDecision`] as the trait-level [`LayerEval`].
fn eval_of(d: &LayerDecision) -> LayerEval {
    LayerEval {
        report: d.report,
        decision: Some(MappingDecision {
            config: d.config.clone(),
            par: d.par,
        }),
    }
}

/// A backend whose mappings one [`Optimizer`] searches, on every cluster
/// budget of its chip and into its one [`DecisionStore`], for a default
/// objective and under a display name. [`Morph`] and [`MorphBase`] share
/// this [`Backend`] body; `B`, the preset's builder, only tells them
/// apart.
pub struct Searched<B> {
    opt: Optimizer,
    objective: Objective,
    name: String,
    preset: PhantomData<fn() -> B>,
}

impl<B> Backend for Searched<B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn arch(&self) -> &ArchSpec {
        self.opt.arch()
    }

    fn objective(&self) -> Objective {
        self.objective
    }

    fn evaluate_layer(&self, shape: &ConvShape) -> LayerEval {
        eval_of(&self.opt.search_layer(shape, self.objective))
    }

    fn supports_cluster_budget(&self) -> bool {
        true
    }

    fn evaluate_layer_budget_sweep(
        &self,
        shape: &ConvShape,
        objective: Objective,
        budgets: &[usize],
    ) -> Vec<LayerEval> {
        self.opt
            .search_sweep(shape, objective, budgets)
            .iter()
            .map(eval_of)
            .collect()
    }

    fn decision_store(&self) -> Option<Arc<DecisionStore>> {
        Some(Arc::clone(self.opt.store()))
    }
}

/// The flexible Morph accelerator (per-layer searched dataflows).
pub type Morph = Searched<MorphBuilder>;

/// Builder for [`Morph`].
#[derive(Clone)]
pub struct MorphBuilder {
    arch: ArchSpec,
    effort: Effort,
    objective: Objective,
    outer_orders: Option<Vec<LoopOrder>>,
    inner_orders: Option<Vec<LoopOrder>>,
    base_parallelism: bool,
    name: Option<String>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl fmt::Debug for MorphBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MorphBuilder")
            .field("arch", &self.arch)
            .field("effort", &self.effort)
            .field("objective", &self.objective)
            .field("outer_orders", &self.outer_orders)
            .field("inner_orders", &self.inner_orders)
            .field("base_parallelism", &self.base_parallelism)
            .field("name", &self.name)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl Default for MorphBuilder {
    fn default() -> Self {
        Self {
            arch: ArchSpec::morph(),
            effort: Effort::Fast,
            objective: Objective::Energy,
            outer_orders: None,
            inner_orders: None,
            base_parallelism: false,
            name: None,
            recorder: None,
        }
    }
}

impl MorphBuilder {
    /// Override the Table II provisioning.
    pub fn arch(mut self, arch: ArchSpec) -> Self {
        self.arch = arch;
        self
    }

    /// Search effort (coarse vs dense discretization, §V-A).
    pub fn effort(mut self, effort: Effort) -> Self {
        self.effort = effort;
        self
    }

    /// Optimization objective (§V-E).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Restrict the outer-order candidate set (ablation studies).
    pub fn outer_orders(mut self, orders: Vec<LoopOrder>) -> Self {
        self.outer_orders = Some(orders);
        self
    }

    /// Restrict the inner-order candidate set (ablation studies).
    pub fn inner_orders(mut self, orders: Vec<LoopOrder>) -> Self {
        self.inner_orders = Some(orders);
        self
    }

    /// Pin the PE parallelism to Morph_base's fixed `Hp × Kp` split of
    /// each searched chip ([`Parallelism::base`]) instead of searching it
    /// (ablation studies).
    pub fn base_parallelism(mut self) -> Self {
        self.base_parallelism = true;
        self
    }

    /// Override the display name (defaults to `"Morph"`); lets ablation
    /// studies register several variants in one session.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Attach a trace [`Recorder`] to the backend's optimizer, so each
    /// actual mapping search, at every cluster budget, streams its span,
    /// counters and incumbent instants (see `Optimizer::with_recorder`).
    /// Tracing never changes any decision.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Construct the backend.
    ///
    /// # Panics
    ///
    /// If the chip fails [`ArchSpec::validate`]; the message names the
    /// field.
    pub fn build(self) -> Morph {
        let model = EnergyModel::morph(self.arch);
        let mut opt = Optimizer::morph(model, self.effort);
        if let Some(orders) = self.outer_orders {
            opt = opt.with_outer_orders(orders);
        }
        if let Some(orders) = self.inner_orders {
            opt = opt.with_inner_orders(orders);
        }
        if self.base_parallelism {
            opt = opt.with_base_parallelism();
        }
        if let Some(rec) = self.recorder {
            opt = opt.with_recorder(rec);
        }
        Searched {
            opt,
            objective: self.objective,
            name: self.name.unwrap_or_else(|| "Morph".to_string()),
            preset: PhantomData,
        }
    }
}

impl Morph {
    /// Builder with Table II provisioning, fast effort, energy objective.
    pub fn builder() -> MorphBuilder {
        MorphBuilder::default()
    }

    /// The all-defaults backend (equivalent to `builder().build()`).
    pub fn new() -> Self {
        Self::builder().build()
    }
}

impl Default for Morph {
    fn default() -> Self {
        Self::new()
    }
}

/// The inflexible Morph_base baseline (§IV-A3: fixed orders, Table I
/// partitions, fixed `Hp × Kp` parallelism).
pub type MorphBase = Searched<MorphBaseBuilder>;

/// Builder for [`MorphBase`].
#[derive(Clone)]
pub struct MorphBaseBuilder {
    arch: ArchSpec,
    objective: Objective,
    fixed_tile_policy: bool,
    name: Option<String>,
    recorder: Option<Arc<dyn Recorder>>,
}

impl fmt::Debug for MorphBaseBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MorphBaseBuilder")
            .field("arch", &self.arch)
            .field("objective", &self.objective)
            .field("fixed_tile_policy", &self.fixed_tile_policy)
            .field("name", &self.name)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl Default for MorphBaseBuilder {
    fn default() -> Self {
        Self {
            arch: ArchSpec::morph(),
            objective: Objective::Energy,
            fixed_tile_policy: false,
            name: None,
            recorder: None,
        }
    }
}

impl MorphBaseBuilder {
    /// Override the Table II provisioning.
    pub fn arch(mut self, arch: ArchSpec) -> Self {
        self.arch = arch;
        self
    }

    /// Optimization objective (tile search only; orders stay fixed).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Freeze even the tiling policy (the hard-coded-FSM analogue used by
    /// the flexibility ablation).
    pub fn fixed_tile_policy(mut self) -> Self {
        self.fixed_tile_policy = true;
        self
    }

    /// Override the display name (defaults to `"Morph_base"`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Attach a trace [`Recorder`] to the backend's optimizer; see
    /// [`MorphBuilder::recorder`].
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Construct the backend.
    ///
    /// # Panics
    ///
    /// If the chip fails [`ArchSpec::validate`]; the message names the
    /// field.
    pub fn build(self) -> MorphBase {
        let model = EnergyModel::morph_base(self.arch);
        let mut opt = Optimizer::morph_base(model);
        if self.fixed_tile_policy {
            opt = opt.with_fixed_tile_policy();
        }
        if let Some(rec) = self.recorder {
            opt = opt.with_recorder(rec);
        }
        Searched {
            opt,
            objective: self.objective,
            name: self.name.unwrap_or_else(|| "Morph_base".to_string()),
            preset: PhantomData,
        }
    }
}

impl MorphBase {
    /// Builder with Table II provisioning and energy objective.
    pub fn builder() -> MorphBaseBuilder {
        MorphBaseBuilder::default()
    }

    /// The all-defaults backend.
    pub fn new() -> Self {
        Self::builder().build()
    }
}

impl Default for MorphBase {
    fn default() -> Self {
        Self::new()
    }
}

/// The Eyeriss-like 2D baseline evaluating 3D CNNs frame by frame.
pub struct Eyeriss {
    model: morph_eyeriss::Eyeriss,
    objective: Objective,
    name: String,
}

/// Builder for [`Eyeriss`].
#[derive(Debug, Clone)]
pub struct EyerissBuilder {
    arch: ArchSpec,
    objective: Objective,
    name: Option<String>,
}

impl Default for EyerissBuilder {
    fn default() -> Self {
        Self {
            arch: morph_eyeriss::Eyeriss::table2().arch,
            objective: Objective::Energy,
            name: None,
        }
    }
}

impl EyerissBuilder {
    /// Override the Table II "Eyeriss" column provisioning.
    pub fn arch(mut self, arch: ArchSpec) -> Self {
        self.arch = arch;
        self
    }

    /// Reported objective (the dataflow itself is fixed).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Override the display name (defaults to `"Eyeriss"`); lets several
    /// variants register in one session.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Construct the backend.
    ///
    /// # Panics
    ///
    /// If the chip fails [`ArchSpec::validate`]; the message names the
    /// field.
    pub fn build(self) -> Eyeriss {
        let model = morph_eyeriss::Eyeriss {
            arch: checked(self.arch),
        };
        Eyeriss {
            model,
            objective: self.objective,
            name: self.name.unwrap_or_else(|| "Eyeriss".to_string()),
        }
    }
}

impl Eyeriss {
    /// Builder with Table II provisioning.
    pub fn builder() -> EyerissBuilder {
        EyerissBuilder::default()
    }

    /// The all-defaults backend.
    pub fn new() -> Self {
        Self::builder().build()
    }
}

impl Default for Eyeriss {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for Eyeriss {
    fn name(&self) -> &str {
        &self.name
    }

    fn arch(&self) -> &ArchSpec {
        &self.model.arch
    }

    fn objective(&self) -> Objective {
        self.objective
    }

    fn evaluate_layer(&self, shape: &ConvShape) -> LayerEval {
        LayerEval {
            report: self.model.evaluate_layer(shape),
            decision: None,
        }
    }
}

impl morph_json::ToJson for MappingDecision {
    fn to_json(&self) -> morph_json::Value {
        use morph_json::Value;
        Value::obj([
            ("config", self.config.to_json()),
            ("par", self.par.to_json()),
        ])
    }
}

impl morph_json::FromJson for MappingDecision {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        use morph_json::field;
        Ok(MappingDecision {
            config: TilingConfig::from_json(field(v, "config")?)?,
            par: Parallelism::from_json(field(v, "par")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvShape {
        ConvShape::new_3d(14, 14, 4, 32, 64, 3, 3, 3).with_pad(1, 1)
    }

    /// One decision under an explicit objective and cluster budget: a
    /// one-element sweep.
    fn budgeted(
        b: &dyn Backend,
        sh: &ConvShape,
        objective: Objective,
        clusters: usize,
    ) -> LayerEval {
        b.evaluate_layer_budget_sweep(sh, objective, &[clusters])
            .remove(0)
    }

    #[test]
    fn presets_have_paper_names() {
        assert_eq!(Morph::new().name(), "Morph");
        assert_eq!(MorphBase::new().name(), "Morph_base");
        assert_eq!(Eyeriss::new().name(), "Eyeriss");
    }

    #[test]
    fn builders_support_name_overrides() {
        assert_eq!(Morph::builder().name("Opt").build().name(), "Opt");
        assert_eq!(MorphBase::builder().name("+tiles").build().name(), "+tiles");
        assert_eq!(
            Eyeriss::builder().name("Eyeriss-2").build().name(),
            "Eyeriss-2"
        );
    }

    #[test]
    fn trait_objects_evaluate_all_presets() {
        let sh = layer();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(Morph::new()),
            Box::new(MorphBase::new()),
            Box::new(Eyeriss::new()),
        ];
        for b in &backends {
            let r = b.run_layer(&sh);
            assert!(r.total_pj() > 0.0, "{}", b.name());
            assert_eq!(r.maccs, sh.maccs());
        }
    }

    #[test]
    fn eyeriss_has_no_decision() {
        let sh = ConvShape::new_2d(14, 14, 32, 64, 3, 3);
        assert!(Eyeriss::new().evaluate_layer(&sh).decision.is_none());
        assert!(Morph::new().evaluate_layer(&sh).decision.is_some());
    }

    #[test]
    fn builder_objective_is_honored() {
        let sh = layer();
        let perf = Morph::builder().objective(Objective::Performance).build();
        let energy = Morph::builder().objective(Objective::Energy).build();
        assert_eq!(perf.objective(), Objective::Performance);
        let rp = perf.run_layer(&sh);
        let re = energy.run_layer(&sh);
        assert!(rp.cycles.total <= re.cycles.total);
        assert!(re.total_pj() <= rp.total_pj());
    }

    /// Every builder rejects a chip that cannot compute when it builds,
    /// naming the zero field, and accepts the two Table II chips.
    #[test]
    fn builders_reject_a_chip_that_cannot_compute() {
        use std::panic::catch_unwind;
        type Zero = (&'static str, fn(&mut ArchSpec));
        let zeros: [Zero; 5] = [
            ("clusters", |a| a.clusters = 0),
            ("pes_per_cluster", |a| a.pes_per_cluster = 0),
            ("vector_width", |a| a.vector_width = 0),
            ("banks", |a| a.banks = 0),
            ("clock_hz", |a| a.clock_hz = 0),
        ];
        assert_eq!(ArchSpec::morph().validate(), Ok(()));
        assert_eq!(morph_eyeriss::Eyeriss::table2().arch.validate(), Ok(()));
        for (field, zero) in zeros {
            let mut arch = ArchSpec::morph();
            zero(&mut arch);
            let builds = [
                catch_unwind(|| drop(Morph::builder().arch(arch).build())),
                catch_unwind(|| drop(MorphBase::builder().arch(arch).build())),
                catch_unwind(|| drop(Eyeriss::builder().arch(arch).build())),
            ];
            for (backend, build) in ["Morph", "Morph_base", "Eyeriss"].into_iter().zip(builds) {
                let panic = build.expect_err(&format!("{backend} built with zero {field}"));
                let msg = panic.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains(field), "{backend}, zero {field}: {msg}");
            }
        }
    }

    #[test]
    fn cluster_budget_trades_latency_for_power() {
        let sh = layer();
        let m = Morph::new();
        assert!(m.supports_cluster_budget());
        assert!(!Eyeriss::new().supports_cluster_budget());
        let full = budgeted(&m, &sh, Objective::Performance, 6).report;
        let half = budgeted(&m, &sh, Objective::Performance, 3).report;
        let one = budgeted(&m, &sh, Objective::Performance, 1).report;
        // A full budget is exactly the unbudgeted evaluation under that
        // objective.
        let perf = Morph::builder().objective(Objective::Performance).build();
        assert_eq!(full, perf.evaluate_layer(&sh).report);
        // Fewer clusters can only slow the layer down...
        assert!(half.cycles.total >= full.cycles.total);
        assert!(one.cycles.total >= half.cycles.total);
        // ...but it draws less power while in service (energy over time).
        let power = |r: &morph_energy::EnergyReport| r.total_pj() / r.cycles.total as f64;
        assert!(power(&one) < power(&full));
        // Budgets are clamped: oversized requests mean "the whole chip".
        assert_eq!(budgeted(&m, &sh, Objective::Performance, 99).report, full);
    }

    #[test]
    fn fixed_backends_ignore_the_budget() {
        let sh = layer();
        let ey = Eyeriss::new();
        assert_eq!(
            budgeted(&ey, &sh, Objective::Performance, 1).report,
            ey.evaluate_layer(&sh).report
        );
        // Morph_base honors it through its fixed-order search.
        let mb = MorphBase::new();
        assert!(mb.supports_cluster_budget());
        let full = budgeted(&mb, &sh, Objective::Energy, 6).report;
        let two = budgeted(&mb, &sh, Objective::Energy, 2).report;
        assert!(two.cycles.total >= full.cycles.total);
    }

    /// A searched backend built by `build`, the optimizer it should match
    /// on a chip of any cluster count, and whether it pins Morph_base's
    /// parallelism.
    type Preset = (fn() -> Box<dyn Backend>, fn(ArchSpec) -> Optimizer, bool);

    #[test]
    fn budget_sweep_matches_per_budget_evaluations() {
        let sh = layer();
        let budgets = [1usize, 3, 6, 6, 99];
        let presets: [Preset; 2] = [
            (
                || Box::new(Morph::new()),
                |arch| Optimizer::morph(EnergyModel::morph(arch), Effort::Fast),
                false,
            ),
            (
                || Box::new(MorphBase::new()),
                |arch| Optimizer::morph_base(EnergyModel::morph_base(arch)),
                true,
            ),
        ];
        for (build, reference, base_par) in presets {
            let swept = build();
            let sweep = swept.evaluate_layer_budget_sweep(&sh, Objective::Energy, &budgets);
            assert_eq!(sweep.len(), budgets.len());
            let cold = build();
            for (&c, eval) in budgets.iter().zip(&sweep) {
                let at = format!("{} budget {c}", swept.name());
                // The warm-started walk returns exactly what cold
                // per-budget evaluations (one-element sweeps, so nothing
                // seeds them) return on a fresh backend, where nothing is
                // cached...
                let direct = budgeted(cold.as_ref(), &sh, Objective::Energy, c);
                assert_eq!(eval, &direct, "{at}");
                // ...and what an optimizer built directly on the budget's
                // chip returns.
                let chip = ArchSpec {
                    clusters: swept.arch().clamp_budget(c),
                    ..*swept.arch()
                };
                let want = reference(chip).search_layer(&sh, Objective::Energy);
                assert_eq!(eval, &eval_of(&want), "{at}");
                if base_par {
                    assert_eq!(want.par, Parallelism::base(&chip), "{at}");
                }
            }
        }
        // Fixed backends fall back to their one operating point.
        let ey = Eyeriss::new();
        let evals = ey.evaluate_layer_budget_sweep(&sh, Objective::Energy, &[1, 2]);
        let point = ey.evaluate_layer(&sh).report;
        assert!(evals.iter().all(|e| e.report == point));
    }

    /// A Morph pinned to base parallelism (the flexibility ablation's
    /// "+orders" variant) pins each budget's own chip's `Hp × Kp` split,
    /// so every swept mapping fits its budget's PEs.
    #[test]
    fn base_parallelism_fits_every_budget() {
        let sh = layer();
        let pinned = Morph::builder().base_parallelism().build();
        let budgets: Vec<usize> = (1..=6).collect();
        for objective in [Objective::Energy, Objective::Performance] {
            let sweep = pinned.evaluate_layer_budget_sweep(&sh, objective, &budgets);
            for (&c, eval) in budgets.iter().zip(&sweep) {
                let chip = ArchSpec {
                    clusters: c,
                    ..ArchSpec::morph()
                };
                let par = eval.decision.as_ref().expect("searched").par;
                assert!(par.fits(&chip), "budget {c}: {par:?}");
                assert_eq!(par, Parallelism::base(&chip), "budget {c}");
            }
        }
    }

    /// A budget of 0 clamps to one cluster on the searched backends, the
    /// rule the session applies before it asks them.
    #[test]
    fn zero_budget_means_one_cluster() {
        let sh = layer();
        let backends: [Box<dyn Backend>; 2] = [Box::new(Morph::new()), Box::new(MorphBase::new())];
        for b in &backends {
            for objective in [Objective::Energy, Objective::Performance] {
                let zero = b.evaluate_layer_budget_sweep(&sh, objective, &[0]);
                let one = b.evaluate_layer_budget_sweep(&sh, objective, &[1]);
                assert_eq!(zero, one, "{} {objective:?}", b.name());
            }
        }
    }

    #[test]
    fn decision_store_is_shared_across_budget_variants() {
        let sh = layer();
        let m = Morph::new();
        let store = m.decision_store().unwrap();
        assert!(store.is_empty());
        m.evaluate_layer(&sh);
        assert_eq!(store.len(), 1, "the full-chip search writes through");
        budgeted(&m, &sh, Objective::Energy, 3);
        assert_eq!(store.len(), 2, "budgeted searches key their own budget");
        // Replays are store hits, and an oversized budget is the full key.
        m.evaluate_layer(&sh);
        budgeted(&m, &sh, Objective::Energy, 99);
        assert_eq!(store.len(), 2);
        assert!(Eyeriss::new().decision_store().is_none());
    }

    /// Workers racing one sub-chip budget on one backend all get the same
    /// decision, and the shared store memoizes the key once.
    #[test]
    fn racing_budget_searches_agree_and_memoize_once() {
        const WORKERS: usize = 8;
        let shape = ConvShape::new_2d(4, 4, 2, 4, 1, 1);
        for round in 0..16 {
            let back = Morph::builder().effort(Effort::Fast).build();
            let start = std::sync::Barrier::new(WORKERS);
            let evals: Vec<LayerEval> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..WORKERS)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            budgeted(&back, &shape, Objective::Energy, 2)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(
                evals.windows(2).all(|w| w[0] == w[1]),
                "round {round}: racing identical budgeted searches must agree"
            );
            let store = back.decision_store().expect("Morph shares a store");
            assert_eq!(
                store.len(),
                1,
                "round {round}: one decision for one (shape, objective, budget)"
            );
        }
    }

    /// A recorder attached at the builder reaches the full-chip search AND
    /// every cluster-budgeted one, on distinct per-budget tracks — and
    /// tracing changes no decision.
    #[test]
    fn builder_recorder_reaches_budgeted_variants() {
        use morph_trace::TraceBuffer;
        let sh = layer();
        let buf = Arc::new(TraceBuffer::new());
        let traced = Morph::builder().recorder(buf.clone()).build();
        let plain = Morph::new();

        let full = traced.evaluate_layer(&sh);
        assert_eq!(full, plain.evaluate_layer(&sh));
        let after_full = buf.len();
        assert!(after_full > 0, "full-chip search recorded nothing");

        let half = budgeted(&traced, &sh, Objective::Energy, 3);
        assert_eq!(half, budgeted(&plain, &sh, Objective::Energy, 3));
        assert!(buf.len() > after_full, "budgeted search recorded nothing");
        let tracks: std::collections::HashSet<String> =
            buf.events().into_iter().map(|e| e.track).collect();
        assert!(tracks.iter().any(|t| t.ends_with("/c6")));
        assert!(tracks.iter().any(|t| t.ends_with("/c3")));
    }

    #[test]
    fn restricted_builder_matches_hand_built_optimizer() {
        let sh = layer();
        let order: LoopOrder = "KWHCF".parse().unwrap();
        let via_builder = Morph::builder()
            .outer_orders(vec![order])
            .build()
            .run_layer(&sh);
        let hand = Optimizer::morph(EnergyModel::morph(ArchSpec::morph()), Effort::Fast)
            .with_outer_orders(vec![order])
            .search_layer(&sh, Objective::Energy)
            .report;
        assert_eq!(via_builder.total_pj(), hand.total_pj());
    }
}
