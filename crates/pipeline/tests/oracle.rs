//! Oracle suite: the recurrence evaluation behind [`simulate`] against
//! the discrete-event loop in `event_loop/`, bit for bit.
//!
//! Every comparison is full-struct equality on [`PipelineStats`] (which
//! includes the float-valued channel means — both formulations must
//! compute *identical* arithmetic, not merely close results) and, for the
//! traced cases, event-list equality on the canonical sidecar. Random
//! frame counts run from 0 to 60; capacities cover tight channels,
//! channels larger than the run, and `usize::MAX`.

use morph_pipeline::{simulate, simulate_traced, EdgeSpec, PipelineSpec, StageSpec};
use morph_tensor::rng::XorShift as Rng;
use morph_trace::TraceBuffer;

mod common;
mod event_loop;
use common::{arb_chain, arb_dag};

/// A wide random DAG: 2–30 stages, each after the first with 0–4
/// in-edges from random earlier stages, and capacities drawn from tight
/// (1–12), larger than the run, and unbounded.
fn arb_wide_dag(rng: &mut Rng, frames: u64) -> PipelineSpec {
    let n = rng.range(2, 31);
    let stages = (0..n)
        .map(|i| StageSpec {
            name: format!("w{i}"),
            service_cycles: rng.range(1, 60) as u64,
        })
        .collect();
    let mut edges: Vec<EdgeSpec> = Vec::new();
    for to in 1..n {
        for _ in 0..rng.range(0, 5) {
            let from = rng.range(0, to);
            let capacity = match rng.range(0, 4) {
                0 => usize::MAX,
                1 => frames as usize + rng.range(1, 4),
                _ => rng.range(1, 13),
            };
            if !edges.iter().any(|e| e.from == from && e.to == to) {
                edges.push(EdgeSpec { from, to, capacity });
            }
        }
    }
    PipelineSpec { stages, edges }
}

fn st(name: &str, service: u64) -> StageSpec {
    StageSpec {
        name: name.into(),
        service_cycles: service,
    }
}

/// A fork/join diamond whose branches differ in service and capacity.
fn diamond() -> PipelineSpec {
    let edge = |from, to, capacity| EdgeSpec { from, to, capacity };
    PipelineSpec {
        stages: vec![st("src", 7), st("a", 13), st("b", 3), st("join", 5)],
        edges: vec![edge(0, 1, 2), edge(0, 2, 1), edge(1, 3, 1), edge(2, 3, 3)],
    }
}

/// Assert both formulations agree on `spec` untraced.
fn assert_stats_match(case: usize, spec: &PipelineSpec, frames: u64) {
    let oracle = event_loop::simulate(spec, frames);
    let stats = simulate(spec, frames);
    assert!(
        stats == oracle,
        "case {case}: stats diverged on {spec:?} frames {frames}\n\
         oracle: {oracle:?}\nengine: {stats:?}"
    );
}

/// Assert both formulations agree on `spec` traced — stats and sidecar
/// events — and that tracing leaves the stats unchanged. Returns the
/// number of events recorded.
fn assert_sidecars_match(case: usize, spec: &PipelineSpec, frames: u64) -> usize {
    let (oracle_buf, buf) = (TraceBuffer::new(), TraceBuffer::new());
    let oracle = event_loop::simulate_traced(spec, frames, &oracle_buf);
    let traced = simulate_traced(spec, frames, &buf);
    assert!(traced == oracle, "case {case}: traced stats diverged");
    assert!(
        traced == simulate(spec, frames),
        "case {case}: tracing changed the stats"
    );
    let events = buf.events();
    assert_eq!(
        oracle_buf.events(),
        events,
        "case {case}: sidecars diverged on {spec:?} frames {frames}"
    );
    events.len()
}

#[test]
fn hand_built_chains_match_the_oracle() {
    let s = PipelineSpec::chain(vec![st("s0", 30), st("s1", 50), st("s2", 20)], &[2, 1]);
    for (case, frames) in [0u64, 1, 2, 17, 64].into_iter().enumerate() {
        assert_stats_match(case, &s, frames);
    }
}

#[test]
fn hand_built_fork_join_matches_the_oracle() {
    assert_stats_match(0, &diamond(), 33);
}

#[test]
fn hand_built_traced_sidecars_are_byte_identical() {
    assert!(assert_sidecars_match(0, &diamond(), 19) > 0);
}

#[test]
fn random_chains_match_the_oracle_bit_for_bit() {
    let mut rng = Rng::new(0xD1FF);
    for case in 0..300 {
        let spec = arb_chain(&mut rng);
        let frames = rng.range(0, 61) as u64;
        assert_stats_match(case, &spec, frames);
        assert_sidecars_match(case, &spec, frames);
    }
}

#[test]
fn random_dags_match_the_oracle_bit_for_bit() {
    let mut rng = Rng::new(0xD1FF_DA60);
    for case in 0..300 {
        let spec = arb_dag(&mut rng);
        let frames = rng.range(0, 61) as u64;
        assert_stats_match(case, &spec, frames);
    }
}

#[test]
fn random_dag_traced_sidecars_are_bit_identical() {
    let mut rng = Rng::new(0x7AACE);
    for case in 0..300 {
        let spec = arb_dag(&mut rng);
        let frames = rng.range(0, 61) as u64;
        assert_sidecars_match(case, &spec, frames);
    }
}

#[test]
fn wide_dags_with_unbounded_channels_match_the_oracle() {
    let mut rng = Rng::new(0x30_57A6E5);
    for case in 0..200 {
        let frames = rng.range(0, 61) as u64;
        let spec = arb_wide_dag(&mut rng, frames);
        assert_stats_match(case, &spec, frames);
        assert_sidecars_match(case, &spec, frames);
    }
}
