//! DAG-aware cluster-share allocation search.
//!
//! The event engine ([`crate::engine`]) tells us *when* stages run; this
//! module decides *on how much hardware*. A streaming schedule maps every
//! layer stage onto a share of the chip's compute clusters, and stages on
//! parallel branches of the conv-level DAG are **concurrently live**: a
//! fork/join region's stages compete for the same clusters at the same
//! time, so their shares must be planned together. The model here:
//!
//! * [`concurrent_groups`] partitions the stages of a DAG into
//!   **anti-chains** — groups whose members are pairwise independent (no
//!   dependency path between them) and therefore live simultaneously.
//!   Stages in a chain run back-to-back and time-multiplex the whole chip;
//!   stages in one group must split it.
//! * [`AllocCandidate`] tabulates what a stage costs on a given cluster
//!   share (service cycles + energy per frame, produced by the backend's
//!   cluster-budgeted mapping search).
//! * [`deadline_allocation`] picks one candidate per stage so that every
//!   stage meets a service **deadline** — the knob a Pareto sweep turns:
//!   tight deadlines force big, power-hungry shares, loose deadlines let
//!   stages shrink onto fewer clusters.
//! * [`fit_group_budgets`] then *shifts share between live branch stages*:
//!   while a group demands more clusters than the chip has, the member
//!   that can give up clusters most cheaply (least energy increase, then
//!   least service increase, deadline preserved) is shrunk.
//! * [`peak_power_mw`] scores the result: a group that fits the budget is
//!   genuinely co-resident and its stage powers add; an over-subscribed
//!   group falls back to time-multiplexing, so only a budget's worth of
//!   clusters draws power at once and the sum is derated accordingly.
//!
//! All functions are pure and deterministic — `morph-core`'s session
//! produces the candidate tables (via `Backend::evaluate_layer_budget_sweep`)
//! and simulates the chosen services with [`crate::simulate`].

/// One evaluated option for running a stage: a cluster share plus the
/// service time and energy the backend's mapping search achieved on it.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocCandidate {
    /// Compute clusters this option occupies.
    pub clusters: usize,
    /// Per-frame service latency on that share (≥ 1).
    pub service_cycles: u64,
    /// Per-frame energy of the chosen mapping, in pJ.
    pub energy_pj: f64,
}

/// Partition `n` stages into deterministic concurrently-live groups:
/// maximal-by-construction anti-chains of the dependency DAG given by
/// `edges` (`(producer, consumer)` pairs with `producer < consumer`,
/// i.e. stages are topologically indexed).
///
/// Two stages are concurrently live iff neither reaches the other through
/// the DAG — parallel branches of a fork/join, or parallel source streams.
/// Stages are scanned in topological order and each joins the first group
/// it is independent of *every* member of, so the result is deterministic
/// and every stage lands in exactly one group. Chains degenerate to
/// singleton groups.
pub fn concurrent_groups(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let words = n.div_ceil(64);
    // reach[i] = bitset of stages reachable from i (excluding i itself).
    let mut reach = vec![vec![0u64; words]; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to) in edges {
        debug_assert!(from < to && to < n, "edges are forward and in bounds");
        succ[from].push(to);
    }
    for i in (0..n).rev() {
        // Edges point forward, so `reach[j]` (j > i) is already final.
        let (head, tail) = reach.split_at_mut(i + 1);
        for &j in &succ[i] {
            let rj = &tail[j - i - 1];
            let ri = &mut head[i];
            ri[j / 64] |= 1 << (j % 64);
            for (w, bits) in ri.iter_mut().zip(rj) {
                *w |= bits;
            }
        }
    }
    let reaches = |a: usize, b: usize| reach[a][b / 64] >> (b % 64) & 1 == 1;
    let parallel = |a: usize, b: usize| !reaches(a, b) && !reaches(b, a);

    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        match groups
            .iter_mut()
            .find(|g| g.iter().all(|&j| parallel(i, j)))
        {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Pick one candidate per stage so that its service meets `deadline`.
///
/// Among a stage's deadline-feasible candidates the choice minimizes
/// energy, then cluster share, then service — or, with `prefer_small`,
/// cluster share first (the power-greedy flavor a capped sweep needs).
/// A stage with no feasible candidate takes its fastest one (fewest
/// service cycles), so the returned schedule degrades gracefully instead
/// of failing. Returns one index into each stage's candidate list.
pub fn deadline_allocation(
    table: &[Vec<AllocCandidate>],
    deadline: u64,
    prefer_small: bool,
) -> Vec<usize> {
    table
        .iter()
        .map(|cands| {
            assert!(
                !cands.is_empty(),
                "every stage needs at least one candidate"
            );
            let feasible = cands.iter().any(|c| c.service_cycles <= deadline);
            let mut best = 0;
            for (i, c) in cands.iter().enumerate() {
                if feasible && c.service_cycles > deadline {
                    continue;
                }
                let b = &cands[best];
                let better = if !feasible {
                    // Nothing meets the deadline: take the fastest option.
                    (c.service_cycles, c.clusters, c.energy_pj)
                        < (b.service_cycles, b.clusters, b.energy_pj)
                } else if feasible && b.service_cycles > deadline {
                    true // first feasible candidate seen
                } else if prefer_small {
                    (c.clusters, c.energy_pj, c.service_cycles)
                        < (b.clusters, b.energy_pj, b.service_cycles)
                } else {
                    (c.energy_pj, c.clusters, c.service_cycles)
                        < (b.energy_pj, b.clusters, b.service_cycles)
                };
                if better {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Shift cluster share between the live stages of each group until the
/// group fits `budget` clusters (or no affordable, deadline-preserving
/// shrink is left).
///
/// While a group's combined demand exceeds the budget, the member whose
/// next-smaller feasible candidate costs the least (energy increase, then
/// service increase) gives up clusters. Members never drop below one
/// cluster and never past `deadline`, and energy-increasing shrinks draw
/// on `energy_slack` (pass `f64::INFINITY` to fit at any price, `0.0` to
/// only accept free shrinks) — so a group that cannot fit affordably is
/// left over-subscribed and [`peak_power_mw`] accounts for it as
/// time-multiplexed. `choice` is updated in place.
pub fn fit_group_budgets(
    table: &[Vec<AllocCandidate>],
    choice: &mut [usize],
    groups: &[Vec<usize>],
    budget: usize,
    deadline: u64,
    mut energy_slack: f64,
) {
    for group in groups.iter().filter(|g| g.len() >= 2) {
        loop {
            let demand: usize = group.iter().map(|&i| table[i][choice[i]].clusters).sum();
            if demand <= budget {
                break;
            }
            // Best shrink across the group: least (Δ energy, Δ service).
            let mut best: Option<(f64, u64, usize, usize)> = None;
            for &i in group {
                let cur = &table[i][choice[i]];
                for (j, cand) in table[i].iter().enumerate() {
                    if cand.clusters >= cur.clusters || cand.service_cycles > deadline {
                        continue;
                    }
                    let key = (
                        cand.energy_pj - cur.energy_pj,
                        cand.service_cycles.saturating_sub(cur.service_cycles),
                        i,
                        j,
                    );
                    if best.as_ref().is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                        best = Some(key);
                    }
                }
            }
            let Some((delta_e, _, i, j)) = best else {
                break; // no deadline-preserving shrink left: stay over budget
            };
            if delta_e > energy_slack {
                break; // the cheapest shrink is no longer affordable
            }
            energy_slack -= delta_e.max(0.0);
            choice[i] = j;
        }
    }
}

/// Average power a stage draws while in service, in mW: `energy_pj` spent
/// over `service_cycles` at `clock_hz`.
pub fn stage_power_mw(energy_pj: f64, service_cycles: u64, clock_hz: u64) -> f64 {
    energy_pj * clock_hz as f64 / service_cycles.max(1) as f64 * 1e-9
}

/// Peak chip power of a schedule in mW: the hottest concurrently-live
/// group.
///
/// A group whose combined cluster demand fits `budget` runs genuinely
/// co-resident — its stage powers add. An over-subscribed group
/// time-multiplexes the chip, so at most a budget's worth of clusters is
/// powered at any instant and the sum is derated by `budget / demand`.
pub fn peak_power_mw(
    powers_mw: &[f64],
    clusters: &[usize],
    groups: &[Vec<usize>],
    budget: usize,
) -> f64 {
    groups
        .iter()
        .map(|g| {
            let demand: usize = g.iter().map(|&i| clusters[i]).sum();
            let scale = if demand > budget && demand > 0 {
                budget as f64 / demand as f64
            } else {
                1.0
            };
            g.iter().map(|&i| powers_mw[i]).sum::<f64>() * scale
        })
        .fold(0.0, f64::max)
}

/// Deadline levels for a Pareto sweep: every achievable distinct service
/// value in `table` from the tightest feasible deadline up (the slowest
/// stage's fastest candidate — below that no allocation changes), evenly
/// subsampled down to `max_levels` with the extremes always kept.
pub fn deadline_levels(table: &[Vec<AllocCandidate>], max_levels: usize) -> Vec<u64> {
    let Some(floor) = table
        .iter()
        .map(|cands| cands.iter().map(|c| c.service_cycles).min().unwrap_or(1))
        .max()
    else {
        return Vec::new();
    };
    let mut levels: Vec<u64> = table
        .iter()
        .flatten()
        .map(|c| c.service_cycles)
        .filter(|&s| s >= floor)
        .chain(std::iter::once(floor))
        .collect();
    levels.sort_unstable();
    levels.dedup();
    if levels.len() > max_levels.max(2) {
        let keep = max_levels.max(2);
        let last = levels.len() - 1;
        let picked: Vec<u64> = (0..keep).map(|k| levels[k * last / (keep - 1)]).collect();
        let mut picked = picked;
        picked.dedup();
        return picked;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(clusters: usize, service: u64, energy: f64) -> AllocCandidate {
        AllocCandidate {
            clusters,
            service_cycles: service,
            energy_pj: energy,
        }
    }

    #[test]
    fn chains_are_singleton_groups() {
        let g = concurrent_groups(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn diamond_branches_group_together() {
        // 0 -> {1, 2} -> 3: the two branch stages are concurrently live.
        let g = concurrent_groups(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(g, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn deep_branch_splits_into_anti_chains() {
        // 0 -> {1, 2 -> 3} -> 4: stage 1 is parallel with both 2 and 3,
        // but 2 and 3 depend on each other, so 3 opens a second group.
        let g = concurrent_groups(5, &[(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]);
        assert_eq!(g, vec![vec![0], vec![1, 2], vec![3], vec![4]]);
    }

    #[test]
    fn parallel_streams_group_pairwise() {
        // Two independent 2-stage streams joining at 4 (Two_Stream shape):
        // wavefronts pair up across the streams.
        let g = concurrent_groups(5, &[(0, 1), (1, 4), (2, 3), (3, 4)]);
        assert_eq!(g, vec![vec![0, 2], vec![1, 3], vec![4]]);
    }

    #[test]
    fn allocation_meets_the_deadline_cheaply() {
        let table = vec![
            vec![cand(6, 10, 50.0), cand(3, 20, 30.0), cand(1, 60, 40.0)],
            vec![cand(6, 40, 80.0), cand(2, 45, 60.0)],
        ];
        // Loose deadline: both stages take their cheapest feasible option.
        let c = deadline_allocation(&table, 50, false);
        assert_eq!(c, vec![1, 1]);
        // Tight deadline: stage 0 must keep the big share.
        let c = deadline_allocation(&table, 10, false);
        assert_eq!(table[0][c[0]].clusters, 6);
        // Infeasible deadline: the fastest candidate wins.
        assert_eq!(table[1][c[1]].service_cycles, 40);
        // Power-greedy flavor prefers the smallest feasible share.
        let c = deadline_allocation(&table, 60, true);
        assert_eq!(table[0][c[0]].clusters, 1);
        assert_eq!(table[1][c[1]].clusters, 2);
    }

    #[test]
    fn budget_fitting_shifts_share_to_the_needy_branch() {
        // Two live branches both want the full chip; branch 1 can shrink
        // almost for free, branch 0 cannot shrink within the deadline.
        let table = vec![
            vec![cand(6, 50, 100.0), cand(3, 90, 80.0)],
            vec![cand(6, 20, 40.0), cand(2, 30, 41.0), cand(1, 55, 45.0)],
        ];
        let mut choice = deadline_allocation(&table, 55, false);
        // Min-energy picks (3 clusters? no — 90 > 55 infeasible) -> 6 + 6.
        assert_eq!(choice, vec![0, 0]);
        fit_group_budgets(&table, &mut choice, &[vec![0, 1]], 6, 55, f64::INFINITY);
        // Branch 1 gave up clusters (cheapest shrink chain) until the
        // group fits: 6 + ... only shrinking stage 1 helps; it lands on
        // the 1-cluster candidate but 6 + 1 = 7 > 6 still: no further
        // shrink possible, loop stops over budget.
        assert_eq!(table[1][choice[1]].clusters, 1);
        assert_eq!(table[0][choice[0]].clusters, 6);
    }

    #[test]
    fn budget_fitting_reaches_a_fit_when_possible() {
        let table = vec![
            vec![cand(6, 50, 100.0), cand(4, 52, 95.0), cand(3, 54, 92.0)],
            vec![cand(6, 20, 40.0), cand(2, 30, 41.0)],
        ];
        let mut choice = vec![0, 0];
        fit_group_budgets(&table, &mut choice, &[vec![0, 1]], 6, 55, f64::INFINITY);
        let demand = table[0][choice[0]].clusters + table[1][choice[1]].clusters;
        assert!(demand <= 6, "group fits the chip: demand {demand}");
        // Every member still meets the deadline.
        assert!(table[0][choice[0]].service_cycles <= 55);
        assert!(table[1][choice[1]].service_cycles <= 55);
    }

    #[test]
    fn peak_power_derates_oversubscribed_groups() {
        let powers = [100.0, 60.0, 40.0];
        // Group {1, 2} fits (3 + 3 = 6): co-resident, powers add.
        let fits = peak_power_mw(&powers, &[6, 3, 3], &[vec![0], vec![1, 2]], 6);
        assert!((fits - 100.0).abs() < 1e-9);
        // Over-subscribed (6 + 6 = 12): time-multiplexed, derated by 1/2.
        let muxed = peak_power_mw(&powers, &[6, 6, 6], &[vec![0], vec![1, 2]], 6);
        assert!((muxed - 100.0f64.max(f64::midpoint(60.0, 40.0))).abs() < 1e-9);
        // Stage power: 1e9 pJ over 1e6 cycles at 1 GHz = 1 W.
        assert!((stage_power_mw(1e9, 1_000_000, 1_000_000_000) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn levels_span_floor_to_slowest_and_subsample() {
        let table = vec![
            vec![cand(6, 10, 1.0), cand(1, 100, 1.0)],
            vec![cand(6, 30, 1.0), cand(1, 80, 1.0)],
        ];
        // Floor = max over stages of fastest service = 30.
        let levels = deadline_levels(&table, 16);
        assert_eq!(levels, vec![30, 80, 100]);
        let few = deadline_levels(&table, 2);
        assert_eq!(few, vec![30, 100]);
        assert!(deadline_levels(&[], 8).is_empty());
    }
}
