//! Pipeline-graph audit: static deadlock-freedom proof for a
//! [`PipelineSpec`]'s bounded-channel network, in the style of DAM-RS's
//! static deadlock pass — no engine run required.
//!
//! # The argument
//!
//! The schedule engine blocks a stage after service until every
//! out-edge has space (atomic fork push), and a join pops all in-edges
//! only when all are nonempty. All channels start **empty**.
//!
//! *Forward edges ⇒ no stall.* When every channel points forward in
//! stage index (`from < to`), index order is a topological order. A
//! blocked producer waits only on consumers with larger indices (its
//! out-channel is full), and a waiting join only on producers with
//! smaller indices (an in-channel is empty, and sources never starve).
//! Either way the wait-for relation embeds in a strict order, so it has
//! no cycle, and since every finite wait-for chain ends at a stage that
//! can act, progress is always possible with capacities ≥ 1.
//!
//! *Every other edge is flagged.* Indices cannot rise all the way round
//! a directed cycle, so every cycle holds an edge with `from >= to`, and
//! the `backward-edge` rule fires on each such edge. A cycle would
//! starve forever: each stage on it waits on its predecessor for a first
//! frame, and the channels start empty. The rule also fires on acyclic
//! specs whose indices are merely out of topological order;
//! `PipelineSpec::validate` refuses exactly the same edges, so neither
//! kind of spec reaches the engine.
//!
//! # Capacity certificates
//!
//! Beyond liveness the pass re-derives, per edge, the minimum capacity
//! that preserves steady-state throughput: a channel `u → v` must buffer
//! one frame per stage of the **longest** parallel `u ⇝ v` path
//! (`longest_hops`), or the join at `v` back-pressures `u` before the
//! long path fills and throttles the pipeline below its bottleneck rate.
//! For a plain chain hop the floor degenerates to 1. The full table is
//! exported by [`capacity_certificates`] so callers (the audit bin) can
//! print the proof artifact next to the pass/fail verdict; the
//! `skip-capacity-floor` rule fires on any edge below its floor.

use crate::{AuditPass, Violation};
use morph_pipeline::{EdgeSpec, PipelineSpec};

fn v(rule: &'static str, subject: &str, detail: String) -> Violation {
    Violation::new(AuditPass::PipelineGraph, rule, subject, detail)
}

fn stage_name(spec: &PipelineSpec, i: usize) -> String {
    spec.stages
        .get(i)
        .map_or_else(|| format!("#{i}"), |s| s.name.clone())
}

fn edge_subject(spec: &PipelineSpec, from: usize, to: usize) -> String {
    format!(
        "edge {} -> {}",
        stage_name(spec, from),
        stage_name(spec, to)
    )
}

/// Longest path from `u` to `v` in hops over forward-only `edges`,
/// walking stages in index order (a topological order once every edge
/// points forward), or 0 if `v` is unreachable from `u`. Re-derived here
/// independently of the session's channel-sizing code (the thing being
/// audited).
fn longest_hops(n: usize, edges: &[EdgeSpec], u: usize, v: usize) -> usize {
    let mut dist = vec![None; n];
    dist[u] = Some(0usize);
    for i in u..v {
        let Some(d) = dist[i] else { continue };
        for e in edges.iter().filter(|e| e.from == i) {
            if dist[e.to].is_none_or(|old| old <= d) {
                dist[e.to] = Some(d + 1);
            }
        }
    }
    dist[v].unwrap_or(0)
}

/// Minimum-capacity certificate for one channel: the throughput floor
/// the audit derives for it, next to what the spec provisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityCert {
    /// Producer stage index.
    pub from: usize,
    /// Consumer stage index.
    pub to: usize,
    /// Derived floor: `max(1, longest_hops(from, to))` frames.
    pub required: usize,
    /// Capacity the spec actually provisions.
    pub actual: usize,
}

/// Per-edge minimum-capacity certificates for a forward-only spec: the
/// proof artifact behind the `skip-capacity-floor` rule. Returns one
/// entry per structurally sound edge, in spec order (a duplicated stage
/// pair is certified once, for its first copy). Empty when any sound
/// edge points backward: stage-index order is then no topological
/// order, so no floor is derivable, and the `backward-edge` violation
/// owns that case.
pub fn capacity_certificates(spec: &PipelineSpec) -> Vec<CapacityCert> {
    let sound = sound_edges(spec, &mut Vec::new());
    if sound.iter().any(|e| e.from >= e.to) {
        return Vec::new();
    }
    sound
        .iter()
        .map(|e| CapacityCert {
            from: e.from,
            to: e.to,
            required: longest_hops(spec.stages.len(), &sound, e.from, e.to).max(1),
            actual: e.capacity,
        })
        .collect()
}

/// Structural screening shared by [`audit_spec`] and
/// [`capacity_certificates`]: bounds and duplicate checks, returning the
/// edges that survive (violations appended to `out`). Backward and self
/// edges are structurally *sound* here — the `backward-edge` rule owns
/// them.
fn sound_edges(spec: &PipelineSpec, out: &mut Vec<Violation>) -> Vec<EdgeSpec> {
    let n = spec.stages.len();
    let mut seen = std::collections::HashSet::new();
    let mut sound = Vec::new();
    for e in &spec.edges {
        let subj = edge_subject(spec, e.from, e.to);
        if e.from >= n || e.to >= n {
            out.push(v(
                "edge-out-of-bounds",
                &subj,
                format!("stage index out of range (pipeline has {n} stages)"),
            ));
            continue;
        }
        if e.capacity == 0 {
            out.push(v(
                "zero-capacity",
                &subj,
                "a zero-capacity channel can never accept a frame: the producer \
                 blocks forever on its first push"
                    .into(),
            ));
        }
        if !seen.insert((e.from, e.to)) {
            out.push(v(
                "duplicate-edge",
                &subj,
                "duplicate channel between the same stage pair double-counts \
                 occupancy at the join"
                    .into(),
            ));
            continue;
        }
        sound.push(*e);
    }
    sound
}

/// Statically audit a pipeline spec. An empty result is a proof (per the
/// module-level argument) that the bounded-channel network cannot
/// deadlock — every channel points forward in stage order — plus the
/// throughput floor on every reconvergent edge.
pub fn audit_spec(spec: &PipelineSpec) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = spec.stages.len();

    if n == 0 {
        out.push(v("empty-pipeline", "pipeline", "spec has no stages".into()));
        return out;
    }

    for (i, s) in spec.stages.iter().enumerate() {
        if s.service_cycles == 0 {
            out.push(v(
                "zero-service",
                &format!("stage {} (#{i})", s.name),
                "service time of zero cycles: the stage would emit frames in zero time, \
                 breaking the cycle accounting"
                    .into(),
            ));
        }
    }

    let sound = sound_edges(spec, &mut out);

    if n > 1 {
        let mut deg = vec![0usize; n];
        for e in &sound {
            deg[e.from] += 1;
            deg[e.to] += 1;
        }
        for (i, s) in spec.stages.iter().enumerate() {
            if deg[i] == 0 {
                out.push(v(
                    "isolated-stage",
                    &format!("stage {} (#{i})", s.name),
                    "stage is disconnected from the dataflow: it sources and sinks \
                     its own frames, so its numbers are not part of the pipeline \
                     being reported"
                        .into(),
                ));
            }
        }
    }

    for e in sound.iter().filter(|e| e.from >= e.to) {
        out.push(v(
            "backward-edge",
            &edge_subject(spec, e.from, e.to),
            format!(
                "channel #{} -> #{} does not point forward in stage order: every \
                 channel cycle holds such an edge, a cycle starves forever because \
                 all channels start empty, and the engine refuses the spec",
                e.from, e.to
            ),
        ));
    }

    // Reconvergence floor (no certificates when an edge points backward).
    for cert in capacity_certificates(spec) {
        if cert.actual >= 1 && cert.actual < cert.required {
            out.push(v(
                "skip-capacity-floor",
                &edge_subject(spec, cert.from, cert.to),
                format!(
                    "skip edge shortcuts a {}-hop parallel path but buffers only \
                     {} frame(s); the join back-pressures the fork before the long \
                     path fills, throttling steady-state below the bottleneck rate",
                    cert.required, cert.actual
                ),
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_pipeline::{EdgeSpec, PipelineSpec, StageSpec};

    fn stage(name: &str) -> StageSpec {
        StageSpec {
            name: name.into(),
            service_cycles: 100,
        }
    }

    fn edge(from: usize, to: usize, capacity: usize) -> EdgeSpec {
        EdgeSpec { from, to, capacity }
    }

    /// Diamond with an adequately-buffered skip edge: fork at 0 into
    /// {1, 2}, join at 3, plus skip 0 -> 3 over the 2-hop paths.
    fn diamond() -> PipelineSpec {
        PipelineSpec {
            stages: vec![stage("a"), stage("b"), stage("c"), stage("d")],
            edges: vec![
                edge(0, 1, 1),
                edge(0, 2, 1),
                edge(1, 3, 1),
                edge(2, 3, 1),
                edge(0, 3, 2),
            ],
        }
    }

    #[test]
    fn clean_diamond_passes() {
        let violations = audit_spec(&diamond());
        assert!(violations.is_empty(), "{violations:?}");
        assert!(diamond().validate().is_ok());
    }

    #[test]
    fn chain_passes() {
        let spec = PipelineSpec {
            stages: vec![stage("a"), stage("b"), stage("c")],
            edges: vec![edge(0, 1, 1), edge(1, 2, 4)],
        };
        assert!(audit_spec(&spec).is_empty());
    }

    #[test]
    fn shuffled_indices_diamond_is_flagged() {
        // The diamond with stage indices NOT in topological order (2 is
        // the source, 1 the sink). It is acyclic, but the engine refuses
        // it, so the pass flags every edge that points backward.
        let spec = PipelineSpec {
            stages: vec![stage("mid1"), stage("sink"), stage("source"), stage("mid2")],
            edges: vec![
                edge(2, 0, 1),
                edge(2, 3, 1),
                edge(0, 1, 1),
                edge(3, 1, 1),
                edge(2, 1, 2),
            ],
        };
        assert!(spec.validate().is_err());
        let violations = audit_spec(&spec);
        assert!(
            violations.iter().all(|x| x.rule == "backward-edge"),
            "{violations:?}"
        );
        assert_eq!(
            flagged(&spec, "backward-edge"),
            [
                "edge source -> mid1",
                "edge mid2 -> sink",
                "edge source -> sink"
            ]
        );
        assert!(capacity_certificates(&spec).is_empty());
    }

    #[test]
    fn empty_pipeline_is_flagged() {
        let spec = PipelineSpec {
            stages: vec![],
            edges: vec![],
        };
        assert!(Violation::any_rule(&audit_spec(&spec), "empty-pipeline"));
    }

    #[test]
    fn zero_service_is_flagged() {
        let mut spec = diamond();
        spec.stages[1].service_cycles = 0;
        assert!(Violation::any_rule(&audit_spec(&spec), "zero-service"));
    }

    /// The violations of `spec` under `rule`, by subject.
    fn flagged(spec: &PipelineSpec, rule: &str) -> Vec<String> {
        audit_spec(spec)
            .into_iter()
            .filter(|x| x.rule == rule)
            .map(|x| x.subject)
            .collect()
    }

    #[test]
    fn backward_edge_is_flagged() {
        // d -> b closes the cycle b -> d -> b.
        let mut spec = diamond();
        spec.edges.push(edge(3, 1, 1));
        assert!(spec.validate().is_err());
        assert_eq!(flagged(&spec, "backward-edge"), ["edge d -> b"]);
        assert!(capacity_certificates(&spec).is_empty());
    }

    #[test]
    fn self_loop_is_flagged() {
        let mut spec = diamond();
        spec.edges.push(edge(2, 2, 1));
        assert!(spec.validate().is_err());
        assert_eq!(flagged(&spec, "backward-edge"), ["edge c -> c"]);
    }

    #[test]
    fn mutant_cyclic_spec_caught_by_backward_edge_rule() {
        // Seeded mutant: a feedback loop a -> b -> c -> a with generous
        // capacities. No capacity assignment can save it (all channels
        // start empty); the edge closing the loop owns the finding, not
        // a capacity rule.
        let spec = PipelineSpec {
            stages: vec![stage("a"), stage("b"), stage("c")],
            edges: vec![edge(0, 1, 8), edge(1, 2, 8), edge(2, 0, 8)],
        };
        let violations = audit_spec(&spec);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "backward-edge");
        assert_eq!(violations[0].subject, "edge c -> a");
        // No capacity certificate pretends to prove anything.
        assert!(capacity_certificates(&spec).is_empty());
    }

    #[test]
    fn out_of_bounds_edge_is_flagged() {
        let mut spec = diamond();
        spec.edges.push(edge(1, 9, 1));
        assert!(Violation::any_rule(
            &audit_spec(&spec),
            "edge-out-of-bounds"
        ));
    }

    #[test]
    fn zero_capacity_is_flagged() {
        let mut spec = diamond();
        spec.edges[0].capacity = 0;
        assert!(Violation::any_rule(&audit_spec(&spec), "zero-capacity"));
    }

    #[test]
    fn duplicate_edge_is_flagged() {
        let mut spec = diamond();
        spec.edges.push(edge(0, 1, 3));
        assert!(Violation::any_rule(&audit_spec(&spec), "duplicate-edge"));
        // The pair is one sound edge: one certificate, for the first copy.
        let certs = capacity_certificates(&spec);
        let pair: Vec<_> = certs.iter().filter(|c| (c.from, c.to) == (0, 1)).collect();
        assert_eq!(pair.len(), 1, "{certs:?}");
        assert_eq!(pair[0].actual, 1);
    }

    #[test]
    fn isolated_stage_is_flagged() {
        let mut spec = diamond();
        spec.stages.push(stage("stray"));
        assert!(Violation::any_rule(&audit_spec(&spec), "isolated-stage"));
    }

    #[test]
    fn starved_skip_edge_is_flagged() {
        let mut spec = diamond();
        // The skip edge 0 -> 3 shortcuts two 2-hop paths but buffers one
        // frame: the join throttles the fork.
        spec.edges[4].capacity = 1;
        let violations = audit_spec(&spec);
        assert!(
            Violation::any_rule(&violations, "skip-capacity-floor"),
            "{violations:?}"
        );
    }

    #[test]
    fn capacity_certificates_cover_every_edge() {
        let certs = capacity_certificates(&diamond());
        assert_eq!(certs.len(), 5);
        // Chain hops floor at 1; the skip edge requires the 2-hop floor.
        let skip = certs.iter().find(|c| c.from == 0 && c.to == 3).unwrap();
        assert_eq!((skip.required, skip.actual), (2, 2));
        assert!(certs
            .iter()
            .filter(|c| !(c.from == 0 && c.to == 3))
            .all(|c| c.required == 1));
    }

    #[test]
    fn single_stage_pipeline_passes() {
        let spec = PipelineSpec {
            stages: vec![stage("only")],
            edges: vec![],
        };
        assert!(audit_spec(&spec).is_empty());
    }
}
