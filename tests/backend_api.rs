//! Integration tests for the `Backend` trait / `Session` / `RunReport`
//! API: trait-object dispatch parity with directly-driven models, JSON
//! round-tripping, and decision-cache behavior on repeated layer shapes.

use morph_core::{
    ArchSpec, Backend, Effort, EnergyModel, Eyeriss, Morph, MorphBase, Objective, Optimizer,
    PipelineMode, RunReport, Session,
};
use morph_nets::Network;
use morph_tensor::shape::ConvShape;

fn layer() -> ConvShape {
    ConvShape::new_3d(14, 14, 4, 32, 64, 3, 3, 3).with_pad(1, 1)
}

/// A network whose middle block repeats one shape three times.
fn resnet_like() -> Network {
    let stem = ConvShape::new_3d(16, 16, 4, 8, 16, 3, 3, 3).with_pad(1, 1);
    let block = ConvShape::new_3d(16, 16, 4, 16, 16, 3, 3, 3).with_pad(1, 1);
    let head = ConvShape::new_3d(8, 8, 2, 16, 32, 3, 3, 2).with_pad(1, 0);
    let mut n = Network::new("resnet-like");
    n.conv("stem", stem)
        .conv("block1", block)
        .conv("block2", block)
        .conv("block3", block)
        .conv("head", head);
    n
}

/// Trait-object dispatch produces exactly the numbers of the directly
/// driven optimizer — the redesign changed the API surface, not the math.
#[test]
fn morph_dispatch_parity_with_direct_optimizer() {
    let sh = layer();
    let via_trait: Box<dyn Backend> = Box::new(Morph::new());
    let r_trait = via_trait.run_layer(&sh);

    let direct = Optimizer::morph(EnergyModel::morph(ArchSpec::morph()), Effort::Fast)
        .search_layer(&sh, Objective::Energy);
    assert_eq!(r_trait, direct.report);

    let d_trait = via_trait.evaluate_layer(&sh).decision.unwrap();
    assert_eq!(d_trait.config, direct.config);
    assert_eq!(d_trait.par, direct.par);
}

/// Morph_base parity with the directly driven baseline optimizer.
#[test]
fn morph_base_dispatch_parity_with_direct_optimizer() {
    let sh = layer();
    let via_trait: Box<dyn Backend> = Box::new(MorphBase::new());
    let direct = Optimizer::morph_base(EnergyModel::morph_base(ArchSpec::morph()))
        .search_layer(&sh, Objective::Energy);
    assert_eq!(via_trait.run_layer(&sh), direct.report);
}

/// Eyeriss parity with the directly driven frame-by-frame model.
#[test]
fn eyeriss_dispatch_parity_with_direct_model() {
    let sh = layer();
    let via_trait: Box<dyn Backend> = Box::new(Eyeriss::new());
    let direct = morph_eyeriss::Eyeriss::table2().evaluate_layer(&sh);
    assert_eq!(via_trait.run_layer(&sh), direct);
    assert!(via_trait.evaluate_layer(&sh).decision.is_none());
}

/// A session over trait objects matches per-backend direct evaluation,
/// layer by layer.
#[test]
fn session_matches_per_layer_direct_evaluation() {
    let net = resnet_like();
    let report = Session::builder()
        .backend(Morph::new())
        .backend(Eyeriss::new())
        .network(net.clone())
        .build()
        .run();

    let morph = Morph::new();
    let eyeriss = morph_eyeriss::Eyeriss::table2();
    for (layer, rec) in net.conv_layers().zip(&report.runs[0].layers) {
        assert_eq!(rec.report, morph.run_layer(&layer.shape), "{}", layer.name);
    }
    for (layer, rec) in net.conv_layers().zip(&report.runs[1].layers) {
        assert_eq!(
            rec.report,
            eyeriss.evaluate_layer(&layer.shape),
            "{}",
            layer.name
        );
    }
}

/// RunReport → JSON → RunReport is the identity, including mapping
/// decisions, shapes, cycle counts and float-exact energies.
#[test]
fn run_report_json_round_trip() {
    let report = Session::builder()
        .backend(Morph::builder().objective(Objective::PerfPerWatt).build())
        .backend(Eyeriss::builder().build())
        .network(resnet_like())
        .build()
        .run();
    let json = report.to_json_string();
    let back = RunReport::from_json_str(&json).unwrap();
    assert_eq!(report, back);

    // Spot-check that decisions really are carried through the text form.
    let run = back.find("Morph", "resnet-like").unwrap();
    assert_eq!(run.objective, Objective::PerfPerWatt);
    assert!(run.layers.iter().all(|l| l.decision.is_some()));
    let eyeriss_run = back.find("Eyeriss", "resnet-like").unwrap();
    assert!(eyeriss_run.layers.iter().all(|l| l.decision.is_none()));
}

/// Repeated layer shapes are decided once: the three identical residual
/// blocks produce two cache hits, and their records are identical.
#[test]
fn decision_cache_hits_on_repeated_shapes() {
    let session = Session::builder()
        .backend(Morph::new())
        .network(resnet_like())
        .build();
    let report = session.run();
    let run = &report.runs[0];
    assert_eq!(run.layers.len(), 5);
    assert_eq!(run.cache_hits, 2, "block2/block3 repeat block1's shape");
    assert_eq!(session.cached_decisions(), 3, "stem, block, head");
    assert_eq!(run.layers[1], run.layers[2].clone_named("block1"));
    // A second run of the same session is served entirely from the cache
    // and reproduces the exact same report.
    let again = session.run();
    assert_eq!(again.runs[0].cache_hits, 5);
    assert_eq!(again.runs[0].layers, run.layers);
}

/// A second network sharing one shape with `resnet_like` (its stem).
fn pool_like() -> Network {
    let stem = ConvShape::new_3d(16, 16, 4, 8, 16, 3, 3, 3).with_pad(1, 1);
    let tail = ConvShape::new_3d(16, 16, 4, 16, 8, 3, 3, 3).with_pad(1, 1);
    let mut n = Network::new("pool-like");
    n.conv("stem", stem).conv("tail", tail);
    n
}

/// Concurrent pair execution (all backend × network pairs fan out over one
/// worker pool) must produce reports identical to sequential execution —
/// including per-pair `cache_hits`, which keep sequential semantics.
#[test]
fn concurrent_pair_execution_matches_sequential() {
    let build = |threads: usize| {
        Session::builder()
            .backend(Morph::new())
            .backend(MorphBase::new())
            .backend(Eyeriss::new())
            .network(resnet_like())
            .network(pool_like())
            .threads(threads)
            .pipeline(PipelineMode::Rebalanced)
            .build()
    };
    let concurrent = build(8).run();
    let sequential = build(1).run();
    assert_eq!(concurrent, sequential);
    assert_eq!(concurrent.runs.len(), 6);
    // Cross-pair sharing still registers: pool-like's stem repeats
    // resnet-like's stem on every backend.
    for pair in concurrent.runs.chunks(2) {
        assert!(pair[1].cache_hits >= 1, "{}", pair[1].backend);
    }
}

/// Session cache persistence: a re-run of the same session serves every
/// layer from the decision store, a second network sharing shapes
/// registers hits, and reports (search stats included) stay identical.
#[test]
fn session_cache_persists_across_runs_and_shared_shapes() {
    let session = Session::builder()
        .backend(Morph::new())
        .network(resnet_like())
        .network(pool_like())
        .build();
    let first = session.run();
    // resnet-like: 5 layers, 3 distinct shapes → 2 hits; pool-like's stem
    // repeats resnet-like's stem → 1 of its 2 layers hits.
    assert_eq!(first.runs[0].cache_hits, 2);
    assert_eq!(first.runs[1].cache_hits, 1);
    assert_eq!(session.cached_decisions(), 4);
    // Re-running decides nothing new: every layer is a store hit and the
    // reports are bit-identical, including the recorded search stats.
    let second = session.run();
    assert_eq!(second.runs[0].cache_hits, 5, "all resnet-like layers hit");
    assert_eq!(second.runs[1].cache_hits, 2, "all pool-like layers hit");
    assert_eq!(second.runs[0].layers, first.runs[0].layers);
    assert_eq!(second.runs[0].search, first.runs[0].search);
    assert_eq!(session.cached_decisions(), 4, "no new decisions");
}

/// Budgeted and unbudgeted decisions never collide: a sub-chip evaluation
/// made before a session run must not be mistaken for a full-chip
/// decision of the same shape/objective.
#[test]
fn budgeted_and_unbudgeted_keys_never_collide() {
    let backend = Morph::new();
    let stem = ConvShape::new_3d(16, 16, 4, 8, 16, 3, 3, 3).with_pad(1, 1);
    // Pre-populate the backend's store with a *budgeted* decision for the
    // stem shape under the session's own objective.
    let half = backend
        .evaluate_layer_budget_sweep(&stem, Objective::Energy, &[3])
        .remove(0);
    assert_eq!(backend.decision_store().unwrap().len(), 1);

    let session = Session::builder()
        .backend(backend)
        .network(resnet_like())
        .build();
    let report = session.run();
    // The stem still counts as fresh work — only the repeated blocks hit.
    assert_eq!(report.runs[0].cache_hits, 2);
    // Its record matches a cold full-chip evaluation, not the budgeted one.
    let full = Morph::new().evaluate_layer(&stem);
    let rec = report.runs[0].layer("stem").unwrap();
    assert_eq!(rec.report, full.report);
    assert_eq!(rec.decision, full.decision);
    // Both keys coexist: 3 full-chip decisions plus the budgeted entry.
    assert_eq!(session.cached_decisions(), 4);
    // A collision would be visible: the reduced chip can only be slower.
    assert!(half.report.cycles.total >= full.report.cycles.total);
}

/// Schema v5: runs of searched backends carry the mapping-search stats
/// behind their decisions; fixed backends carry none. Stats are
/// deterministic across thread counts and survive the JSON round trip.
#[test]
fn run_reports_carry_search_stats() {
    let build = |threads| {
        Session::builder()
            .backend(Morph::new())
            .backend(Eyeriss::new())
            .network(resnet_like())
            .threads(threads)
            .build()
    };
    let par = build(8).run();
    let seq = build(1).run();
    assert_eq!(par, seq, "stats must not depend on worker scheduling");
    let stats = par.runs[0].search.expect("searched backend records stats");
    assert!(stats.costed > 0 && stats.bound_pruned > 0);
    assert!(stats.bound_pruned + stats.costed <= stats.enumerated);
    assert!(par.runs[1].search.is_none(), "Eyeriss searches nothing");
    let back = RunReport::from_json_str(&par.to_json_string()).unwrap();
    assert_eq!(back, par);
}

/// The pipeline section rides inside the `RunReport` JSON exactly, and the
/// schedule it reports can only improve on per-layer-serial throughput.
#[test]
fn pipeline_report_round_trips_and_only_helps() {
    let report = Session::builder()
        .backend(Morph::new())
        .backend(Eyeriss::new())
        .network(resnet_like())
        .pipeline(PipelineMode::Rebalanced)
        .build()
        .run();
    for run in &report.runs {
        let p = run.pipeline.as_ref().unwrap();
        assert_eq!(p.stages.len(), run.layers.len());
        assert!(p.steady_fps >= p.serial_fps, "{}", run.backend);
        assert!(run.layer(&p.bottleneck).is_some());
        // One bounded channel per conv-level dependency edge.
        assert_eq!(p.edges.len(), run.edges.len());
        // resnet_like is a chain, so the chain baseline is the schedule.
        assert_eq!(p.chain_fps, p.steady_fps);
        assert_eq!(p.chain_fill_cycles, p.fill_cycles);
    }
    let back = RunReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(report, back);
}

/// A fork/join network: two branches off a stem, concatenated.
fn forked() -> Network {
    let stem = ConvShape::new_3d(16, 16, 4, 8, 16, 3, 3, 3).with_pad(1, 1);
    let b0 = ConvShape::new_3d(16, 16, 4, 16, 8, 3, 3, 3).with_pad(1, 1);
    let b1a = ConvShape::new_3d(16, 16, 4, 16, 4, 1, 1, 1);
    let b1b = ConvShape::new_3d(16, 16, 4, 4, 8, 3, 3, 3).with_pad(1, 1);
    let head = ConvShape::new_3d(16, 16, 4, 16, 16, 1, 1, 1);
    let mut n = Network::new("forked");
    n.conv("stem", stem);
    let mut f = n.fork();
    f.branch().conv("b0", b0);
    f.branch().conv("b1_reduce", b1a).conv("b1_3x3", b1b);
    f.concat("mix");
    n.conv("head", head);
    n
}

/// Branch-parallel scheduling: the fork/join stages fill along the
/// critical path instead of the serial chain, so the DAG schedule beats
/// the linearized-chain baseline on fill latency while steady throughput
/// stays bottleneck-limited (never worse than serial).
#[test]
fn branch_parallel_pipeline_beats_the_chain_baseline() {
    let net = forked();
    assert!(net.is_branching());
    let report = Session::builder()
        .backend(Morph::new())
        .network(net)
        .pipeline(PipelineMode::Analytic)
        .build()
        .run();
    let run = &report.runs[0];
    let p = run.pipeline.as_ref().unwrap();
    // The run records the real fork/join edges: stem feeds both branch
    // heads, both branch tails feed the head through the concat.
    assert_eq!(run.edges, vec![(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]);
    assert!(
        p.fill_cycles < p.chain_fill_cycles,
        "parallel branches fill faster"
    );
    assert!(p.fill_speedup() > 1.0);
    assert!(p.steady_fps >= p.serial_fps);
    // The whole report (edges included) round-trips exactly.
    let back = RunReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(report, back);
}

/// The acceptance check on a real zoo workload: Two_Stream's parallel
/// streams give the DAG schedule a strictly better fill latency and a
/// steady_fps at least as high as the chain baseline's on every backend.
#[test]
fn zoo_two_stream_gains_from_branch_parallel_stages() {
    let report = Session::builder()
        .backend(Eyeriss::new()) // closed-form model: fast on 10 layers
        .network(morph_nets::zoo::by_name("Two_Stream").unwrap())
        .pipeline(PipelineMode::Analytic)
        .build()
        .run();
    let p = report.runs[0].pipeline.as_ref().unwrap();
    assert!(
        p.steady_fps >= p.chain_fps - 1e-9,
        "branch-parallel steady {} vs chain {}",
        p.steady_fps,
        p.chain_fps
    );
    assert!(
        p.fill_cycles < p.chain_fill_cycles,
        "parallel streams must fill faster than the linearized chain"
    );
    assert!(p.steady_fps >= p.serial_fps);
}

/// DAG-aware rebalancing through the public API: on a fork/join network
/// the `DagRebalanced` schedule streams at least as fast as the greedy
/// `Rebalanced` one, never spends more energy per frame, and records the
/// cluster share each stage actually occupies (schema v4).
#[test]
fn dag_rebalancing_beats_greedy_on_energy_at_equal_fps() {
    let run = |mode| {
        Session::builder()
            .backend(Morph::new())
            .network(forked())
            .pipeline(mode)
            .build()
            .run()
    };
    let greedy = run(PipelineMode::Rebalanced);
    let dag = run(PipelineMode::DagRebalanced);
    let g = greedy.runs[0].pipeline.as_ref().unwrap();
    let d = dag.runs[0].pipeline.as_ref().unwrap();
    assert!(d.steady_fps >= g.steady_fps - 1e-9);
    assert!(d.energy_per_frame_pj <= g.energy_per_frame_pj + 1e-6);
    assert!(d.stages.iter().all(|s| (1..=6).contains(&s.clusters)));
    // The v4 report round-trips exactly, clusters and scores included.
    let back = RunReport::from_json_str(&dag.to_json_string()).unwrap();
    assert_eq!(back, dag);
}

/// The Pareto sweep through the public API: the frontier is free of
/// dominated points, covers the greedy operating point, and a capped
/// sweep respects its cap on every reported point.
#[test]
fn pareto_sweep_invariants_hold_through_the_public_api() {
    let run = |mode| {
        Session::builder()
            .backend(Morph::new())
            .network(forked())
            .pipeline(mode)
            .build()
            .run()
    };
    let greedy_fps = run(PipelineMode::Rebalanced).runs[0]
        .pipeline
        .as_ref()
        .unwrap()
        .steady_fps;
    let free = run(PipelineMode::Pareto { power_cap_mw: None });
    let p = free.runs[0].pipeline.as_ref().unwrap();
    let pareto = p.pareto.as_ref().expect("sweep attaches its frontier");
    assert!(!pareto.points.is_empty());
    for a in &pareto.points {
        assert!(!pareto.points.iter().any(|b| b.dominates(a)));
    }
    assert!(pareto.best_fps_point().unwrap().steady_fps >= greedy_fps - 1e-9);

    // Cap at the frontier's coolest point: still attainable, certainly
    // binding for the hotter points.
    let cap = pareto
        .points
        .iter()
        .map(|q| q.peak_power_mw)
        .fold(f64::INFINITY, f64::min)
        .ceil() as u64;
    let capped = run(PipelineMode::Pareto {
        power_cap_mw: Some(cap),
    });
    let cp = capped.runs[0].pipeline.as_ref().unwrap();
    let cpareto = cp.pareto.as_ref().unwrap();
    assert_eq!(cpareto.power_cap_mw, Some(cap));
    assert!(!cpareto.points.is_empty(), "cap chosen to be attainable");
    for point in &cpareto.points {
        assert!(point.peak_power_mw <= cap as f64);
    }
    assert!(
        cp.peak_power_mw <= cap as f64,
        "scheduled point obeys the cap"
    );
    let back = RunReport::from_json_str(&capped.to_json_string()).unwrap();
    assert_eq!(back, capped);
}

/// A full-chip, one-element sweep overrides the backend's built-time
/// objective: a latency-objective search is at least as fast as the
/// energy-optimal one.
#[test]
fn objective_override_reaches_latency_optimal_mappings() {
    let sh = layer();
    let full_chip = |b: &dyn Backend| {
        b.evaluate_layer_budget_sweep(&sh, Objective::Performance, &[b.arch().clusters])
            .remove(0)
            .report
    };
    let energy_opt = Morph::new();
    let base = energy_opt.evaluate_layer(&sh).report;
    let perf = full_chip(&energy_opt);
    assert!(perf.cycles.total <= base.cycles.total);
    // Fixed-dataflow backends ignore the override.
    let ey = Eyeriss::new();
    assert_eq!(full_chip(&ey), ey.evaluate_layer(&sh).report);
}

trait CloneNamed {
    fn clone_named(&self, name: &str) -> Self;
}

impl CloneNamed for morph_core::LayerRecord {
    fn clone_named(&self, name: &str) -> Self {
        let mut c = self.clone();
        c.name = name.to_string();
        c
    }
}
