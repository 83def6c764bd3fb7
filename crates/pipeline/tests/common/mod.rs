//! Shared seeded-pseudo-random spec generators for the integration
//! suites (the workspace's xorshift harness): property tests sweep them
//! against closed-form oracles, the oracle suite against the
//! discrete-event loop.

use morph_pipeline::{EdgeSpec, PipelineSpec, StageSpec};
use morph_tensor::rng::XorShift as Rng;

/// A random tandem chain: 1–7 stages, service 1–49, capacities 1–4.
pub fn arb_chain(rng: &mut Rng) -> PipelineSpec {
    let n = rng.range(1, 8);
    PipelineSpec::chain(
        (0..n)
            .map(|i| StageSpec {
                name: format!("s{i}"),
                service_cycles: rng.range(1, 50) as u64,
            })
            .collect(),
        &(0..n.saturating_sub(1))
            .map(|_| rng.range(1, 5))
            .collect::<Vec<_>>(),
    )
}

/// A random fork/join DAG: every stage after the first draws 1–3 in-edges
/// from random earlier stages, so the sweep covers joins, forks (a
/// producer drawn twice by different consumers), multi-source and
/// multi-sink shapes.
pub fn arb_dag(rng: &mut Rng) -> PipelineSpec {
    let n = rng.range(2, 9);
    let stages = (0..n)
        .map(|i| StageSpec {
            name: format!("s{i}"),
            service_cycles: rng.range(1, 50) as u64,
        })
        .collect();
    let mut edges: Vec<EdgeSpec> = Vec::new();
    for to in 1..n {
        // A few stages become fresh sources.
        if rng.range(0, 5) == 0 && to + 1 < n {
            continue;
        }
        let fanin = rng.range(1, 1 + to.min(3));
        for _ in 0..fanin {
            let from = rng.range(0, to);
            if !edges.iter().any(|e| e.from == from && e.to == to) {
                edges.push(EdgeSpec {
                    from,
                    to,
                    capacity: rng.range(1, 5),
                });
            }
        }
    }
    PipelineSpec { stages, edges }
}
