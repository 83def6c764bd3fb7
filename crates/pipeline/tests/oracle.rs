//! Oracle suite: the recurrence evaluation behind [`simulate`] against
//! the discrete-event loop in `event_loop/`, bit for bit.
//!
//! Every comparison is full-struct equality on [`PipelineStats`] (which
//! includes the float-valued channel means — both formulations must
//! compute *identical* arithmetic, not merely close results) and, for the
//! traced cases, event-list equality on the canonical sidecar. Random
//! frame counts run from 0 to 60; capacities cover tight channels,
//! channels larger than the run, and `usize::MAX`. Untraced runs of 500
//! to 10,000 frames check the fast-forward, which only long runs reach
//! far enough to use: periodic schedules, and drifting ones whose stages
//! advance by unequal shifts, such as `stream-long`'s ResNet chain and a
//! random family with two near-tied bottlenecks far apart. Traced runs
//! never fast-forward and keep to short runs, since their buffers grow
//! with the frame count.

use morph_pipeline::{simulate, simulate_traced, EdgeSpec, PipelineSpec, StageSpec};
use morph_tensor::rng::XorShift as Rng;
use morph_trace::TraceBuffer;

mod common;
mod event_loop;
use common::{arb_chain, arb_dag};

include!("fixtures/resnet_chain.rs");

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

/// Two weakly connected components with interleaved stage indices and
/// unequal bottlenecks (Two_Stream's shape): each stage after the first
/// two joins a random side and draws 1–2 in-edges from earlier stages on
/// that side.
fn arb_two_streams(rng: &mut Rng) -> PipelineSpec {
    let n = rng.range(4, 13);
    let side: Vec<usize> = (0..n)
        .map(|i| if i < 2 { i } else { rng.range(0, 2) })
        .collect();
    let mut stages: Vec<StageSpec> = (0..n)
        .map(|i| st(&format!("t{i}"), rng.range(1, 50) as u64))
        .collect();
    // Side 1's bottleneck is strictly slower than side 0's.
    let slowest = |stages: &[StageSpec], k| {
        (0..n)
            .filter(|&i| side[i] == k)
            .map(|i| stages[i].service_cycles)
            .max()
            .unwrap_or(0)
    };
    stages[1].service_cycles = slowest(&stages, 0) + rng.range(1, 20) as u64;
    let mut edges: Vec<EdgeSpec> = Vec::new();
    for to in 2..n {
        let earlier: Vec<usize> = (0..to).filter(|&i| side[i] == side[to]).collect();
        for _ in 0..rng.range(1, 3) {
            let from = earlier[rng.range(0, earlier.len())];
            if !edges.iter().any(|e| e.from == from && e.to == to) {
                let capacity = rng.range(1, 10);
                edges.push(EdgeSpec { from, to, capacity });
            }
        }
    }
    PipelineSpec { stages, edges }
}

/// `spec` with every service redrawn within a few cycles of one base:
/// near-tied stages fill their channels slowly, so transients run long.
fn near_tied(rng: &mut Rng, mut spec: PipelineSpec) -> PipelineSpec {
    let base = rng.range(50, 5000) as u64;
    for s in &mut spec.stages {
        s.service_cycles = base + rng.range(0, 7) as u64 - 3;
    }
    spec
}

/// Two near-tied bottlenecks far apart (ResNet's shape): 8–16 stages of
/// 100–2,000 cycles, two of them 5,000–5,040 cycles at least a third of
/// the stages apart in either order, capacities 1–9, and for a DAG 1–3
/// skip edges that each reach 2–8 stages ahead. When the upstream
/// bottleneck is the faster one, the channels between them fill slowly,
/// one regime at a time.
fn arb_far_bottlenecks(rng: &mut Rng, dag: bool) -> PipelineSpec {
    let n = rng.range(8, 17);
    let mut stages: Vec<StageSpec> = (0..n)
        .map(|i| st(&format!("f{i}"), rng.range(100, 2001) as u64))
        .collect();
    let a = rng.range(0, n - n / 3);
    let b = rng.range(a + n / 3, n);
    stages[a].service_cycles = rng.range(5_000, 5_041) as u64;
    stages[b].service_cycles = rng.range(5_000, 5_041) as u64;
    let mut spec = PipelineSpec::chain(
        stages,
        &(1..n).map(|_| rng.range(1, 10)).collect::<Vec<_>>(),
    );
    for _ in 0..if dag { rng.range(1, 4) } else { 0 } {
        let from = rng.range(0, n - 2);
        let to = rng.range(from + 2, (from + 9).min(n));
        if !spec.edges.iter().any(|e| e.from == from && e.to == to) {
            let capacity = rng.range(1, 10);
            spec.edges.push(EdgeSpec { from, to, capacity });
        }
    }
    spec
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
/// events — and that tracing leaves the stats unchanged: the traced run
/// is evaluated frame by frame, the untraced one may fast-forward.
/// Returns the number of events recorded.
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

#[test]
fn hand_built_long_runs_match_the_oracle() {
    // A diamond and two unequal streams repeat early, a bypass around a
    // tight channel with period 2; a head one cycle faster than its tail
    // never repeats, but drifts by one cycle a frame and is jumped, and
    // `stream-long`'s ResNet chain drifts through many regimes.
    let mut bypass = PipelineSpec::chain(
        vec![
            st("s0", 1),
            st("s1", 7),
            st("s2", 7),
            st("s3", 4),
            st("s4", 2),
        ],
        &[2, 1, 2, 2],
    );
    bypass.edges.push(EdgeSpec {
        from: 0,
        to: 4,
        capacity: 2,
    });
    let streams = PipelineSpec::chain(
        vec![
            st("a0", 4),
            st("a1", 11),
            st("a2", 6),
            st("b0", 3),
            st("b1", 8),
        ],
        &[2, 3, 1, 2],
    );
    let streams = PipelineSpec {
        edges: streams.edges.into_iter().filter(|e| e.from != 2).collect(),
        ..streams
    };
    let drift = PipelineSpec::chain(vec![st("head", 999_999), st("tail", 1_000_000)], &[9]);
    let resnet = PipelineSpec::chain(
        RESNET_SERVICES
            .iter()
            .enumerate()
            .map(|(i, &s)| st(&format!("conv{i}"), s))
            .collect(),
        &RESNET_CAPACITIES,
    );
    for (case, spec) in [diamond(), bypass, streams, drift, resnet]
        .iter()
        .enumerate()
    {
        assert_stats_match(case, spec, 10_000);
    }
}

#[test]
fn far_apart_bottlenecks_match_the_oracle_bit_for_bit() {
    let mut rng = Rng::new(0xFA12_B077);
    for case in 0..40 {
        let spec = arb_far_bottlenecks(&mut rng, case % 2 == 1);
        let frames = rng.range(2_000, 10_001) as u64;
        assert_stats_match(case, &spec, frames);
    }
}

#[test]
fn long_random_runs_match_the_oracle_bit_for_bit() {
    let mut rng = Rng::new(0x0010_6F4A);
    for case in 0..160 {
        let frames = rng.range(500, 5001) as u64;
        let spec = match case % 5 {
            0 => arb_chain(&mut rng),
            1 => arb_dag(&mut rng),
            2 => {
                let spec = arb_chain(&mut rng);
                near_tied(&mut rng, spec)
            }
            3 => {
                let spec = arb_dag(&mut rng);
                near_tied(&mut rng, spec)
            }
            _ => arb_two_streams(&mut rng),
        };
        assert_stats_match(case, &spec, frames);
    }
}

#[test]
fn long_runs_with_a_channel_longer_than_the_run_match_the_oracle() {
    let mut rng = Rng::new(0x0B16_0CA9);
    for case in 0..40 {
        let frames = rng.range(500, 2001) as u64;
        let mut spec = arb_dag(&mut rng);
        let e = rng.range(0, spec.edges.len());
        spec.edges[e].capacity = frames as usize + rng.range(0, 3);
        assert_stats_match(case, &spec, frames);
    }
}
