//! Pipeline-graph audit: static deadlock-freedom proof for a
//! [`PipelineSpec`]'s bounded-channel network, in the style of DAM-RS's
//! static deadlock pass — no engine run required.
//!
//! # The argument
//!
//! The cycle-level engine blocks a stage after service until every
//! out-edge has space (atomic fork push), and a join pops all in-edges
//! only when all are nonempty. All channels start **empty**. Under these
//! semantics, for any stage graph with capacities ≥ 1:
//!
//! **The network can stall permanently iff the channel graph has a
//! directed cycle.**
//!
//! *Cycle ⇒ stall.* Every stage on a directed channel cycle needs a
//! first frame from its predecessor on the cycle before it can ever
//! emit. Channels start empty, so by induction around the cycle no first
//! frame exists: the cycle's joins form a *knot* — a set of stages all
//! waiting, directly or transitively, on each other — and starve
//! forever, whatever the capacities.
//!
//! *Acyclic ⇒ no stall.* An acyclic graph admits a topological order.
//! A blocked producer waits only on consumers strictly later in that
//! order (its out-channel is full), and a waiting join only on producers
//! strictly earlier (an in-channel is empty, and sources never starve).
//! Either way the wait-for relation embeds in a strict order, so it has
//! no cycle, and since every finite wait-for chain ends at a stage that
//! can act, progress is always possible.
//!
//! Earlier versions of this pass proved acyclicity by *fiat* — edges had
//! to point strictly forward in index order (`from < to`), which is how
//! engine-bound specs are written today. This version proves it for
//! arbitrary edge lists: it builds the channel wait-for graph, detects
//! knots (strongly connected components with a cycle) and names their
//! members, and no longer assumes stage indices are topologically
//! sorted. That is the static half the future cyclic/feedback engine
//! needs: specs with deliberate back-edges will pass the structural
//! rules and fail only the knot rule until initial tokens exist.
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
use morph_pipeline::PipelineSpec;

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

/// Kahn topological sort over `edges`; `None` when the graph is cyclic.
fn topo_order(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    let mut indeg = vec![0usize; n];
    for &(_, to) in edges {
        indeg[to] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &(from, to) in edges {
            if from == i {
                indeg[to] -= 1;
                if indeg[to] == 0 {
                    queue.push(to);
                }
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Strongly connected components (Kosaraju, iterative), smallest-index
/// first within and across components for deterministic reports.
fn sccs(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut fwd = vec![Vec::new(); n];
    let mut rev = vec![Vec::new(); n];
    for &(from, to) in edges {
        fwd[from].push(to);
        rev[to].push(from);
    }
    // Pass 1: finish order on the forward graph.
    let mut finish = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < fwd[node].len() {
                let child = fwd[node][*next];
                *next += 1;
                if !seen[child] {
                    seen[child] = true;
                    stack.push((child, 0));
                }
            } else {
                finish.push(node);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for &start in finish.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = out.len();
        let mut members = vec![start];
        comp[start] = id;
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            for &p in &rev[node] {
                if comp[p] == usize::MAX {
                    comp[p] = id;
                    members.push(p);
                    stack.push(p);
                }
            }
        }
        members.sort_unstable();
        out.push(members);
    }
    out.sort_by_key(|m| m[0]);
    out
}

/// One directed cycle inside a knot component, as a certificate: walk
/// from the smallest member along in-component successors until a node
/// repeats. Every knot node has an in-component successor, so this
/// terminates with a genuine cycle.
fn knot_cycle(members: &[usize], edges: &[(usize, usize)]) -> Vec<usize> {
    let inside = |x: usize| members.contains(&x);
    let mut path = vec![members[0]];
    loop {
        let cur = *path.last().expect("path starts nonempty");
        let next = edges
            .iter()
            .filter(|&&(from, to)| from == cur && inside(to))
            .map(|&(_, to)| to)
            .min()
            .expect("knot nodes have an in-component successor");
        if let Some(pos) = path.iter().position(|&x| x == next) {
            return path[pos..].to_vec();
        }
        path.push(next);
    }
}

/// Longest path from `u` to `v` in hops over `edges`, computed in
/// topological order (no assumption that stage indices are sorted), or 0
/// if `v` is unreachable from `u`. Re-derived here independently of the
/// session's channel-sizing code (the thing being audited).
fn longest_hops(n: usize, edges: &[(usize, usize)], topo: &[usize], u: usize, v: usize) -> usize {
    let mut dist = vec![None; n];
    dist[u] = Some(0usize);
    for &i in topo {
        let Some(d) = dist[i] else { continue };
        for &(from, to) in edges {
            if from == i {
                let cand = d + 1;
                if dist[to].is_none_or(|old| old < cand) {
                    dist[to] = Some(cand);
                }
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

/// Per-edge minimum-capacity certificates for an acyclic spec: the proof
/// artifact behind the `skip-capacity-floor` rule. Returns one entry per
/// structurally sound edge, in spec order. Empty when the graph has a
/// knot (no topological order exists, so no floor is derivable — the
/// `wait-for-knot` violation owns that case) or when the spec is
/// structurally broken.
pub fn capacity_certificates(spec: &PipelineSpec) -> Vec<CapacityCert> {
    let n = spec.stages.len();
    let sound = sound_edges(spec, &mut Vec::new());
    let Some(topo) = topo_order(n, &sound) else {
        return Vec::new();
    };
    spec.edges
        .iter()
        .filter(|e| sound.contains(&(e.from, e.to)))
        .map(|e| CapacityCert {
            from: e.from,
            to: e.to,
            required: longest_hops(n, &sound, &topo, e.from, e.to).max(1),
            actual: e.capacity,
        })
        .collect()
}

/// Structural screening shared by [`audit_spec`] and
/// [`capacity_certificates`]: bounds and duplicate checks, returning the
/// edges that survive (violations appended to `out`). Backward and self
/// edges are structurally *sound* here — the knot analysis owns them.
fn sound_edges(spec: &PipelineSpec, out: &mut Vec<Violation>) -> Vec<(usize, usize)> {
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
        sound.push((e.from, e.to));
    }
    sound
}

/// Statically audit a pipeline spec. An empty result is a proof (per the
/// module-level argument) that the bounded-channel network cannot
/// deadlock — the channel wait-for graph is knot-free — plus the
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
        for &(from, to) in &sound {
            deg[from] += 1;
            deg[to] += 1;
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

    // Knot detection: every SCC with a cycle (>= 2 members, or a
    // self-edge) permanently starves from the all-empty start state.
    let mut knotted = false;
    for members in sccs(n, &sound) {
        let cyclic = members.len() > 1 || sound.contains(&(members[0], members[0]));
        if !cyclic {
            continue;
        }
        knotted = true;
        let cycle = knot_cycle(&members, &sound);
        let chain: Vec<String> = cycle
            .iter()
            .chain(std::iter::once(&cycle[0]))
            .map(|&i| stage_name(spec, i))
            .collect();
        let names: Vec<String> = members.iter().map(|&i| stage_name(spec, i)).collect();
        out.push(v(
            "wait-for-knot",
            &format!("stages {{{}}}", names.join(", ")),
            format!(
                "directed channel cycle {}: every stage on it waits on its \
                 predecessor for a first frame, and all channels start empty, so \
                 the knot starves forever regardless of capacities",
                chain.join(" -> ")
            ),
        ));
    }

    // Reconvergence floor, only derivable on knot-free graphs (a cyclic
    // graph has no topological order, and the knot rule already fired).
    if !knotted {
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
    fn shuffled_indices_acyclic_spec_passes() {
        // Same diamond but with stage indices NOT in topological order
        // (2 is the source, 1 the sink): the generalized pass must not
        // assume sorted indices.
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
        let violations = audit_spec(&spec);
        assert!(violations.is_empty(), "{violations:?}");
        // ...and the floor is still derived correctly for the skip edge.
        let certs = capacity_certificates(&spec);
        let skip = certs.iter().find(|c| c.from == 2 && c.to == 1).unwrap();
        assert_eq!(skip.required, 2);
        assert_eq!(skip.actual, 2);
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

    #[test]
    fn backward_edge_is_flagged_as_knot() {
        let mut spec = diamond();
        spec.edges.push(edge(3, 1, 1));
        let violations = audit_spec(&spec);
        assert!(
            Violation::any_rule(&violations, "wait-for-knot"),
            "{violations:?}"
        );
        // The certificate names the cycle members.
        let knot = violations
            .iter()
            .find(|x| x.rule == "wait-for-knot")
            .unwrap();
        assert!(
            knot.detail.contains('b') && knot.detail.contains('d'),
            "cycle certificate must name the knotted stages: {knot:?}"
        );
    }

    #[test]
    fn self_loop_is_flagged_as_knot() {
        let mut spec = diamond();
        spec.edges.push(edge(2, 2, 1));
        assert!(Violation::any_rule(&audit_spec(&spec), "wait-for-knot"));
    }

    #[test]
    fn mutant_cyclic_spec_with_starving_capacities_caught_by_knot_rule() {
        // ISSUE 8 seeded mutant: a feedback loop a -> b -> c -> a with
        // generous capacities. No capacity assignment can save it (all
        // channels start empty), and the knot rule — not a capacity rule
        // — must own the finding.
        let spec = PipelineSpec {
            stages: vec![stage("a"), stage("b"), stage("c")],
            edges: vec![edge(0, 1, 8), edge(1, 2, 8), edge(2, 0, 8)],
        };
        let violations = audit_spec(&spec);
        let knot = violations
            .iter()
            .find(|x| x.rule == "wait-for-knot")
            .unwrap_or_else(|| panic!("knot rule must fire: {violations:?}"));
        assert!(
            knot.detail.contains("a -> b -> c -> a") || knot.detail.contains("starves forever"),
            "knot diagnostic must carry the cycle: {knot:?}"
        );
        assert!(
            !Violation::any_rule(&violations, "skip-capacity-floor"),
            "no capacity floor is derivable on a knotted graph"
        );
        // And no capacity certificate pretends to prove anything.
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
        spec.edges.push(edge(0, 1, 1));
        assert!(Violation::any_rule(&audit_spec(&spec), "duplicate-edge"));
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
