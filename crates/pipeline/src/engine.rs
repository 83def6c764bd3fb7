//! The pipeline engine: the exact schedule of a bounded-channel DAG.
//!
//! A [`PipelineSpec`] is a **DAG** of stages connected by bounded,
//! directed channels ([`EdgeSpec`]); [`simulate`] computes its schedule
//! and returns [`PipelineStats`]: makespan, fill/drain latency,
//! steady-state throughput, per-stage utilization and per-channel
//! occupancy. Linear chains build through [`PipelineSpec::chain`];
//! fork/join networks list their edges explicitly.
//!
//! Semantics are blocking-after-service: a stage pops one frame from
//! **every** input channel (a join waits for all branches), occupies
//! itself for `service_cycles`, then pushes the result into **every**
//! output channel atomically (a fork replicates) — holding both the frame
//! and the stage while any output channel is full. Source stages (no
//! in-edges) draw from their own per-source frame supply; a frame is
//! complete once every sink stage (no out-edges) has emitted it.
//!
//! Service times do not depend on the data, so the schedule is a
//! max-plus recurrence over the frame index `j`. With `pop_i(j)` the
//! instant stage `i` pops frame `j`, `rel_i(j)` the instant it pushes
//! it, `s_i` its service time, `cap_e` a channel's capacity and
//! `rel_i(-1) = 0`:
//!
//! ```text
//! pop_i(j) = max( rel_i(j-1), max over in-edges  (u -> i) rel_u(j) )
//! rel_i(j) = max( pop_i(j) + s_i, max over out-edges (i -> v) pop_v(j - cap_e) )
//! ```
//!
//! where an out-edge term exists only for `j >= cap_e`. Every edge
//! points forward ([`PipelineSpec::validate`]), so stage-index order is
//! a topological order and [`simulate`] evaluates the recurrence frame
//! by frame in that order, folding every statistic as it goes. Its state
//! is bounded by the spec, not the frame count: one ring per channel
//! holds the consumer's last `cap_e + 1` pops, which serve both the
//! credit term and the channel's peak occupancy.
//!
//! Its work is bounded by the schedule's regime changes. Once every
//! credit term is live, the rest of a run depends only on each stage's
//! `pop` and `rel`, each ring and each channel's lag, and the recurrence
//! reads those only through maxima, differences and `<=` tests. An
//! untraced run compares each frame's state with the previous frame's.
//! When every ring moved by its consumer's `pop` shift (the consumer
//! popped by one increment for its ring's length of frames in a row, a
//! run each stage counts as it goes), the schedule is
//! an affine regime: every `pop` and `rel` advances by its own shift per
//! frame for as long as each max keeps its winner. A term that grows
//! faster than its max closes the margin by the difference of the two
//! shifts per frame, so the run jumps straight to the first frame where
//! one could overtake. A periodic schedule of period 1 is the case where
//! no margin shrinks. Longer periods are caught by snapshots at
//! power-of-two checkpoints (Brent), once the state repeats with one
//! shift across every edge. A jump moves times by their shifts, and
//! blocked, starved and residence sums by a linear plus a quadratic
//! term. Every traced run, and every run whose rings never fill, is
//! evaluated frame by frame.
//!
//! [`simulate_traced`] additionally records the run through a
//! `morph_trace::Recorder` in **simulated cycles**: per-stage `service` /
//! `blocked_full` / `blocked_empty` spans on `stage:<i>:<name>` tracks
//! and per-edge occupancy gauges on `edge:<from>-><to>` tracks. Gauges
//! are settled (one per channel per touched timestamp, carrying the
//! value left once the timestamp's pushes and pops are done) and all
//! events are emitted in [`morph_trace::canonical_sort`] order, so the
//! recorded buffer is a pure function of the schedule, bit-identical
//! across runs; [`simulate`] uses the zero-overhead `NoopRecorder`.

use morph_trace::{canonical_sort, NoopRecorder, Phase, Recorder, TraceEvent};

/// How a backend provisions its buffer hierarchy for cross-layer
/// pipelining (the `Backend::pipeline_caps` hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineCaps {
    /// Last-level bytes available for staging inter-stage frames.
    pub staging_bytes: usize,
    /// Whether the staging buffers are double buffered (adds one in-flight
    /// slot per channel).
    pub double_buffered: bool,
}

impl PipelineCaps {
    /// Upper bound on slots per channel regardless of frame size: tiny
    /// activations must not imply unbounded queues.
    pub const MAX_SLOTS: usize = 8;

    /// Default provisioning from a last-level buffer: half the capacity is
    /// staging (the other half stays with the layer tiles), double
    /// buffered — mirroring the §III double-buffering convention.
    pub fn from_l2(l2_bytes: usize) -> Self {
        Self {
            staging_bytes: l2_bytes / 2,
            double_buffered: true,
        }
    }

    /// Provisioning for one of `ways` parallel branches: the staging
    /// buffer is split evenly across branch channels that are live at the
    /// same time (branch stages map onto disjoint cluster subsets, and
    /// their staging slices follow). Double buffering is preserved.
    pub fn split(self, ways: usize) -> Self {
        Self {
            staging_bytes: self.staging_bytes / ways.max(1),
            double_buffered: self.double_buffered,
        }
    }

    /// Bounded capacity of the channel fed by a producer whose per-frame
    /// output footprint is `slot_bytes`. Always at least one slot.
    pub fn channel_capacity(&self, slot_bytes: u64) -> usize {
        let slots = (self.staging_bytes as u64 / slot_bytes.max(1)).min(Self::MAX_SLOTS as u64);
        (slots as usize).max(1) + usize::from(self.double_buffered)
    }
}

/// One pipeline stage: a layer with a deterministic per-frame service time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Stage (layer) name.
    pub name: String,
    /// Cycles to process one frame (must be ≥ 1).
    pub service_cycles: u64,
}

/// A bounded channel from stage `from` to stage `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Producer stage index.
    pub from: usize,
    /// Consumer stage index (must be > `from`: stages are listed in
    /// topological order).
    pub to: usize,
    /// Channel capacity in frames (≥ 1).
    pub capacity: usize,
}

/// A pipeline DAG: stages in topological order plus bounded channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSpec {
    /// Stages in (topological) dataflow order.
    pub stages: Vec<StageSpec>,
    /// Directed bounded channels between stages.
    pub edges: Vec<EdgeSpec>,
}

impl PipelineSpec {
    /// A linear chain: `stages[i]` feeds `stages[i + 1]` through a channel
    /// of `capacities[i]` frames (`capacities.len() == stages.len() - 1`).
    pub fn chain(stages: Vec<StageSpec>, capacities: &[usize]) -> Self {
        let edges = capacities
            .iter()
            .enumerate()
            .map(|(i, &capacity)| EdgeSpec {
                from: i,
                to: i + 1,
                capacity,
            })
            .collect();
        Self { stages, edges }
    }

    /// Structural checks: at least one stage, nonzero service times,
    /// in-bounds forward edges with nonzero capacity, no duplicate edges.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("pipeline has no stages".into());
        }
        for s in &self.stages {
            if s.service_cycles == 0 {
                return Err(format!("stage {:?} has zero service time", s.name));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for e in &self.edges {
            if e.to >= self.stages.len() {
                return Err(format!("edge {}->{} is out of bounds", e.from, e.to));
            }
            if e.from >= e.to {
                return Err(format!(
                    "edge {}->{} must point forward (stages are topologically ordered)",
                    e.from, e.to
                ));
            }
            if e.capacity == 0 {
                return Err(format!("edge {}->{} has zero capacity", e.from, e.to));
            }
            if !seen.insert((e.from, e.to)) {
                return Err(format!("duplicate edge {}->{}", e.from, e.to));
            }
        }
        Ok(())
    }

    /// Serial (non-pipelined) cycles per frame: the sum of all services.
    pub fn serial_cycles_per_frame(&self) -> u64 {
        self.stages.iter().map(|s| s.service_cycles).sum()
    }

    /// Stages with no in-edges (they draw frames from the source).
    pub fn sources(&self) -> Vec<usize> {
        let mut has_in = vec![false; self.stages.len()];
        for e in &self.edges {
            has_in[e.to] = true;
        }
        (0..self.stages.len()).filter(|&i| !has_in[i]).collect()
    }

    /// Stages with no out-edges (frames exit the pipeline through them).
    pub fn sinks(&self) -> Vec<usize> {
        let mut has_out = vec![false; self.stages.len()];
        for e in &self.edges {
            has_out[e.from] = true;
        }
        (0..self.stages.len()).filter(|&i| !has_out[i]).collect()
    }

    /// Longest service-weighted path through the DAG — the fill latency a
    /// frame needs with unconstrained buffering (the chain equivalent is
    /// the serial sum; branch parallelism shrinks it to the critical
    /// path).
    pub fn critical_path_cycles(&self) -> u64 {
        let n = self.stages.len();
        let mut dist: Vec<u64> = (0..n).map(|i| self.stages[i].service_cycles).collect();
        // Stages are topologically ordered, so one forward sweep suffices.
        for i in 0..n {
            for e in self.edges.iter().filter(|e| e.to == i) {
                dist[i] = dist[i].max(dist[e.from] + self.stages[i].service_cycles);
            }
        }
        dist.into_iter().max().unwrap_or(0)
    }
}

/// Per-stage outcome of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name (copied from the spec).
    pub name: String,
    /// Service time simulated.
    pub service_cycles: u64,
    /// Frames fully processed.
    pub frames: u64,
    /// Cycles spent in service.
    pub busy_cycles: u64,
    /// Cycles spent holding a finished frame because an output channel
    /// was full (back-pressure).
    pub blocked_cycles: u64,
    /// Cycles spent idle waiting for an input frame (starvation:
    /// blocked-on-empty). Zero for source stages — they never wait for
    /// input — and excludes trailing idleness after a stage's last frame.
    pub starved_cycles: u64,
}

/// Per-channel occupancy outcome of a simulation, aligned with
/// [`PipelineSpec::edges`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelStats {
    /// Producer stage index.
    pub from: usize,
    /// Consumer stage index.
    pub to: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Peak frames simultaneously buffered.
    pub max_occupancy: usize,
    /// Time-weighted mean occupancy over the makespan.
    pub mean_occupancy: f64,
}

/// The product of [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Frames injected at each source.
    pub frames_in: u64,
    /// Frames that exited every sink (conservation: `== frames_in`).
    pub frames_out: u64,
    /// Cycle at which the last frame cleared the last sink.
    pub makespan_cycles: u64,
    /// Cycle at which the first frame cleared every sink (pipeline fill
    /// latency).
    pub fill_cycles: u64,
    /// Makespan minus the last frame's entry into the last source (drain
    /// latency).
    pub drain_cycles: u64,
    /// Per-stage statistics, in stage order.
    pub stages: Vec<StageStats>,
    /// Per-channel statistics, aligned with the spec's edges.
    pub channels: Vec<ChannelStats>,
}

impl PipelineStats {
    /// Index of the bottleneck stage: most busy cycles, earliest on ties —
    /// measured across every branch of the DAG.
    pub fn bottleneck(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.stages.iter().enumerate() {
            if s.busy_cycles > self.stages[best].busy_cycles {
                best = i;
            }
        }
        best
    }

    /// Steady-state cycles per frame, measured between the first and last
    /// exit (falls back to the makespan for a single frame).
    pub fn steady_cycles_per_frame(&self) -> f64 {
        if self.frames_out >= 2 {
            (self.makespan_cycles - self.fill_cycles) as f64 / (self.frames_out - 1) as f64
        } else {
            self.makespan_cycles as f64
        }
    }

    /// Utilization of stage `i`: busy cycles over the makespan.
    pub fn utilization(&self, i: usize) -> f64 {
        self.stages[i].busy_cycles as f64 / (self.makespan_cycles.max(1)) as f64
    }
}

/// One channel's share of the recurrence state. Its size depends on the
/// capacity, never on the frame count.
#[derive(Clone)]
struct Chan {
    /// The consumer's latest pops, `pop_to(k)` at slot `k % ring.len()`:
    /// frames `j - cap ..= j` once frame `j` is folded (every frame when
    /// the run is shorter than `cap + 1`).
    ring: Vec<u64>,
    /// Consumer pops no later than the producer's latest push.
    popped: u64,
    /// Peak settled occupancy.
    peak: u64,
    /// Total residence time `Σ_j (pop_to(j) − rel_from(j))`, which is
    /// the occupancy integral over the run.
    residence: u128,
}

impl Chan {
    fn slot(&self, k: u64) -> usize {
        (k % self.ring.len() as u64) as usize
    }

    /// `pop_to(j − cap)`: the consumer pop that frees the slot frame `j`
    /// pushes into (none while `j < cap`).
    fn credit(&self, j: u64, cap: usize) -> Option<u64> {
        j.checked_sub(cap as u64).map(|k| self.ring[self.slot(k)])
    }

    /// Fold frame `j`, pushed at `push = rel_from(j)` and popped at
    /// `pop = pop_to(j)`. Occupancy only rises at pushes, one per
    /// timestamp because `rel` strictly increases, so its settled peak is
    /// `(j + 1)` minus the pops no later than some push.
    fn fold(&mut self, j: u64, push: u64, pop: u64) {
        let s = self.slot(j);
        self.ring[s] = pop;
        self.residence += u128::from(pop - push);
        while self.popped <= j && self.ring[self.slot(self.popped)] <= push {
            self.popped += 1;
        }
        self.peak = self.peak.max(j + 1 - self.popped);
    }
}

/// Everything the frame loop carries from one frame to the next.
#[derive(Clone)]
struct State {
    /// `rel_i(j)` once stage `i` has run frame `j`, and `rel_i(j − 1)`
    /// before.
    rel: Vec<u64>,
    /// `pop_i(j)`, likewise.
    pop: Vec<u64>,
    blocked: Vec<u64>,
    starved: Vec<u64>,
    chans: Vec<Chan>,
    /// Per stage: its latest `pop` increment, and how many frames in a
    /// row (up to the latest) it has popped by that increment.
    step: Vec<u64>,
    run: Vec<u64>,
}

impl State {
    /// Record that stage `i` popped its next frame at `pop`.
    fn record_pop(&mut self, i: usize, pop: u64) {
        let step = pop - self.pop[i];
        if step == self.step[i] {
            self.run[i] += 1;
        } else {
            self.step[i] = step;
            self.run[i] = 1;
        }
        self.pop[i] = pop;
    }

    /// Overwrite this state's times and sums with `src`'s: all that
    /// [`State::regime_frames`] and an affine [`State::advance`] read of
    /// the frame before.
    fn copy_sums_from(&mut self, src: &State) {
        self.rel.copy_from_slice(&src.rel);
        self.pop.copy_from_slice(&src.pop);
        self.blocked.copy_from_slice(&src.blocked);
        self.starved.copy_from_slice(&src.starved);
        for (c, s) in self.chans.iter_mut().zip(&src.chans) {
            c.residence = s.residence;
        }
    }

    /// Overwrite this state's times, sums and rings with `src`'s,
    /// keeping this state's allocations.
    fn copy_from(&mut self, src: &State) {
        self.copy_sums_from(src);
        for (c, s) in self.chans.iter_mut().zip(&src.chans) {
            c.ring.copy_from_slice(&s.ring);
            c.popped = s.popped;
            c.peak = s.peak;
        }
    }

    /// Whether the schedule is in an affine regime, which lasts
    /// [`State::regime_frames`]: every ring moved by its consumer's `pop`
    /// shift over the last frame (each stage's `pop` and `rel` move by
    /// their own shifts by definition, and each channel's lag follows
    /// from its ring and its producer's push). A ring holds its
    /// consumer's last `cap + 1` pops, so it moved by one shift exactly
    /// when the consumer popped by one increment for `cap + 1` frames.
    fn affine(&self, edges: &[EdgeSpec]) -> bool {
        edges.iter().all(|e| self.run[e.to] > e.capacity as u64)
    }

    /// Whether this state, `p > 1` frames after `then`, repeats it up to
    /// one time shift per stage: every ring, read in frame order, moved
    /// by its consumer's `pop` shift, the two ends of every edge and
    /// each stage's `pop` and `rel` share one shift. Then so does every
    /// period after it.
    fn repeats(&self, then: &State, p: u64, edges: &[EdgeSpec]) -> bool {
        let rel = |i: usize| self.rel[i] - then.rel[i];
        let pop = |i: usize| self.pop[i] - then.pop[i];
        edges
            .iter()
            .zip(self.chans.iter().zip(&then.chans))
            .all(|(e, (c, old))| {
                let d = pop(e.to);
                // Slot `t` then is slot `t + p` now.
                let (wrapped, moved) = c.ring.split_at(c.slot(p));
                rel(e.from) == d
                    && old
                        .ring
                        .iter()
                        .zip(moved.iter().chain(wrapped))
                        .all(|(&t, &now)| t.checked_add(d) == Some(now))
            })
            && (0..self.rel.len()).all(|i| pop(i) == rel(i))
    }

    /// How many frames past frame `j` the affine regime lasts, where this
    /// state moved one frame from `last` ([`State::affine`]); at most
    /// `left`, and 0 unless every max is won by a term that grows as fast
    /// as the max itself. Every `pop` and `rel` then moves by its own
    /// shift per frame until a faster term overtakes the winner: a push
    /// that a pop awaits, the stage's own previous release, its service
    /// end, or a credit `pop_v(j - cap)`. Each closes its margin by the
    /// difference of the two shifts per frame, and a tie leaves the max
    /// unchanged.
    fn regime_frames(&self, last: &State, spec: &PipelineSpec, j: u64, left: u64) -> u64 {
        let n = self.rel.len();
        let rel = |i: usize| (self.rel[i], self.rel[i] - last.rel[i]);
        let pop = |i: usize| (self.pop[i], self.pop[i] - last.pop[i]);
        let mut q = left;
        let (mut pop_won, mut rel_won) = (vec![false; n], vec![false; n]);
        // A term `(value, shift)` of the max `(value, shift)`.
        let mut term = |won: &mut bool, (m, dm): (u64, u64), (t, dt): (u64, u64)| {
            *won |= t == m && dt == dm;
            if dt > dm {
                q = q.min((m - t) / (dt - dm));
            }
        };
        for (i, s) in spec.stages.iter().enumerate() {
            let ((r, dr), (at, dp)) = (rel(i), pop(i));
            term(&mut pop_won[i], (at, dp), (r - dr, dr));
            term(&mut rel_won[i], (r, dr), (at + s.service_cycles, dp));
        }
        for (e, c) in spec.edges.iter().zip(&self.chans) {
            term(&mut pop_won[e.to], pop(e.to), rel(e.from));
            let credit = c.ring[c.slot(j - e.capacity as u64)];
            term(&mut rel_won[e.from], rel(e.from), (credit, pop(e.to).1));
        }
        if pop_won.iter().chain(&rel_won).all(|&won| won) {
            q
        } else {
            0
        }
    }

    /// Jump `q` times `p` frames past frame `j`, where this state moved
    /// `p` frames from `then` ([`State::affine`] for `p = 1`,
    /// [`State::repeats`] above) and no max changes its winner on the way.
    /// Times gain `q` shifts and rings are re-slotted for the new frame
    /// index. A stage whose pops kept one increment for a whole period
    /// keeps it for the `q·p` frames. Each sum gains `q` times its last growth
    /// plus `q(q+1)/2` times the drift of its summand: blocked cycles
    /// (`rel - pop - s`), starved cycles (`pop - rel` of the frame before)
    /// and residence (`pop_to - rel_from`) all drift unless `p > 1`. Each
    /// channel's lag is recounted from its ring, and its peak takes the
    /// occupancy the jump leaves: within one regime occupancy moves one
    /// way only, so the skipped frames peak at an end. Returns `false`,
    /// with the state untouched, if a `rel` would overflow; every other
    /// time and sum is bounded by the `rel`s and the frame count.
    fn advance(&mut self, then: &State, j: u64, p: u64, q: u64, edges: &[EdgeSpec]) -> bool {
        let State {
            rel,
            pop,
            blocked,
            starved,
            chans,
            step: _,
            run,
        } = self;
        let fits = rel.iter().zip(&then.rel).all(|(&now, &old)| {
            q.checked_mul(now - old)
                .and_then(|gain| now.checked_add(gain))
                .is_some()
        });
        if !fits {
            return false;
        }
        for ((e, c), old) in edges.iter().zip(chans.iter_mut()).zip(&then.chans) {
            let (dp, dr) = (pop[e.to] - then.pop[e.to], rel[e.from] - then.rel[e.from]);
            c.residence += series(q, c.residence - old.residence, dp, dr);
            let len = c.ring.len() as u64;
            c.ring.rotate_right((q * p % len) as usize);
            for t in &mut c.ring {
                *t += q * dp;
            }
        }
        for i in 0..rel.len() {
            let (dr, dp) = (rel[i] - then.rel[i], pop[i] - then.pop[i]);
            blocked[i] += series(q, u128::from(blocked[i] - then.blocked[i]), dr, dp) as u64;
            starved[i] += series(q, u128::from(starved[i] - then.starved[i]), dp, dr) as u64;
            rel[i] += q * dr;
            pop[i] += q * dp;
            if run[i] >= p {
                run[i] += q * p;
            }
        }
        let to = j + q * p;
        for (e, c) in edges.iter().zip(chans.iter_mut()) {
            // The ring holds pops `to - cap ..= to`, and the credit put
            // every pop up to `to - cap` no later than the push.
            c.popped = to + 1 - c.ring.len() as u64;
            while c.popped <= to && c.ring[c.slot(c.popped)] <= rel[e.from] {
                c.popped += 1;
            }
            c.peak = c.peak.max(to + 1 - c.popped);
        }
        true
    }
}

/// `Σ_{t=1..=q} (r + t·(up − down))`: what a sum gains over `q` more
/// frames when it last gained `r` and its summand drifts by `up − down`
/// a frame. The regime keeps every summand non-negative.
fn series(q: u64, r: u128, up: u64, down: u64) -> u128 {
    let (q, tri) = (u128::from(q), u128::from(q) * (u128::from(q) + 1) / 2);
    if up >= down {
        q * r + u128::from(up - down) * tri
    } else {
        q * r - u128::from(down - up) * tri
    }
}

/// Run `frames` identical frames through the pipeline DAG and collect
/// stats. Every source stage draws `frames` frames; every sink must emit
/// all of them.
///
/// # Panics
///
/// Panics if the spec fails [`PipelineSpec::validate`].
pub fn simulate(spec: &PipelineSpec, frames: u64) -> PipelineStats {
    simulate_traced(spec, frames, &NoopRecorder)
}

/// [`simulate`] with a trace sink: every stage records `service`,
/// `blocked_full` and `blocked_empty` spans on its `stage:<i>:<name>`
/// track, and every channel records an `occupancy` gauge on its
/// `edge:<from>-><to>` track — all timestamped in **simulated cycles**,
/// so identical specs record bit-identical event sequences. Stats are
/// unchanged from the untraced run.
///
/// # Panics
///
/// Panics if the spec fails [`PipelineSpec::validate`].
pub fn simulate_traced(spec: &PipelineSpec, frames: u64, rec: &dyn Recorder) -> PipelineStats {
    evaluate(spec, frames, rec).0
}

/// The frame loop behind [`simulate_traced`]. Also returns how many
/// frames it evaluated one by one; the rest it fast-forwarded.
fn evaluate(spec: &PipelineSpec, frames: u64, rec: &dyn Recorder) -> (PipelineStats, u64) {
    spec.validate().expect("invalid pipeline spec");
    let n = spec.stages.len();
    let mut ins: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut outs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in spec.edges.iter().enumerate() {
        outs[e.from].push(ei);
        ins[e.to].push(ei);
    }
    let run_len = usize::try_from(frames).unwrap_or(usize::MAX);
    let mut st = State {
        rel: vec![0; n],
        pop: vec![0; n],
        blocked: vec![0; n],
        starved: vec![0; n],
        step: vec![0; n],
        run: vec![0; n],
        chans: spec
            .edges
            .iter()
            .map(|e| Chan {
                ring: vec![0; e.capacity.saturating_add(1).min(run_len)],
                popped: 0,
                peak: 0,
                residence: 0,
            })
            .collect(),
    };
    // `pop` and `rel` increase with `j`, so the sinks' latest `rel` is
    // the makespan and the sources' latest `pop` the last entry.
    let latest = |times: &[u64], ends: &[Vec<usize>]| {
        (0..n)
            .filter(|&i| ends[i].is_empty())
            .map(|i| times[i])
            .max()
            .unwrap_or(0)
    };
    let mut fill = 0;
    // A traced run keeps its whole `(pop, rel)` schedule for emission.
    let traced = rec.enabled();
    let mut schedule: Vec<Vec<(u64, u64)>> = vec![Vec::new(); if traced { n } else { 0 }];
    // Fast-forward: from frame `max_cap` on (so only when every capacity
    // is below the frame count) every credit term is live and every ring
    // holds `cap + 1` pops, so the state decides the rest of the run.
    // Each frame is compared with the one before it (affine regimes), and
    // with snapshots at `base + 2^k` (Brent) for longer periods; a jump
    // restarts the snapshots where it lands.
    let max_cap = spec
        .edges
        .iter()
        .map(|e| e.capacity as u64)
        .max()
        .unwrap_or(0);
    let mut last = st.clone();
    let mut snap: Option<(u64, State)> = None;
    let mut base = max_cap;
    let mut evaluated = 0;
    let mut j = 0;
    while j < frames {
        evaluated += 1;
        for i in 0..n {
            let prev = st.rel[i];
            let pop = ins[i]
                .iter()
                .map(|&e| st.rel[spec.edges[e].from])
                .fold(prev, u64::max);
            if !ins[i].is_empty() {
                st.starved[i] += pop - prev;
            }
            for &e in &ins[i] {
                st.chans[e].fold(j, st.rel[spec.edges[e].from], pop);
            }
            let done = pop + spec.stages[i].service_cycles;
            let r = outs[i]
                .iter()
                .filter_map(|&e| st.chans[e].credit(j, spec.edges[e].capacity))
                .fold(done, u64::max);
            st.blocked[i] += r - done;
            st.rel[i] = r;
            st.record_pop(i, pop);
            if traced {
                schedule[i].push((pop, r));
            }
        }
        if j == 0 {
            fill = latest(&st.rel, &outs);
        }
        if !traced && j >= max_cap {
            let mut jumped = false;
            if j > max_cap && st.affine(&spec.edges) {
                let q = st.regime_frames(&last, spec, j, frames - 1 - j);
                if q > 0 && st.advance(&last, j, 1, q, &spec.edges) {
                    j += q;
                    jumped = true;
                }
            } else if let Some((j0, then)) = &snap {
                // Period 1 is the affine case above.
                let p = j - j0;
                let q = (frames - 1 - j) / p;
                if p > 1
                    && q > 0
                    && st.repeats(then, p, &spec.edges)
                    && st.advance(then, j, p, q, &spec.edges)
                {
                    j += q * p;
                    jumped = true;
                }
            }
            if jumped {
                base = j;
            }
            if j == base || (j - base).is_power_of_two() {
                match &mut snap {
                    Some((at, then)) => {
                        *at = j;
                        then.copy_from(&st);
                    }
                    None => snap = Some((j, st.clone())),
                }
            }
            last.copy_sums_from(&st);
        }
        j += 1;
    }
    let makespan = latest(&st.rel, &outs);
    let last_entry = latest(&st.pop, &ins);

    if traced {
        record_schedule(spec, &schedule, rec);
    }
    let stages = spec
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| StageStats {
            name: s.name.clone(),
            service_cycles: s.service_cycles,
            frames,
            busy_cycles: frames * s.service_cycles,
            blocked_cycles: st.blocked[i],
            starved_cycles: st.starved[i],
        })
        .collect();
    let channels = spec
        .edges
        .iter()
        .zip(&st.chans)
        .map(|(e, c)| ChannelStats {
            from: e.from,
            to: e.to,
            capacity: e.capacity,
            max_occupancy: c.peak as usize,
            mean_occupancy: if makespan > 0 {
                c.residence as f64 / makespan as f64
            } else {
                0.0
            },
        })
        .collect();
    let stats = PipelineStats {
        frames_in: frames,
        frames_out: frames,
        makespan_cycles: makespan,
        fill_cycles: fill,
        drain_cycles: makespan - last_entry,
        stages,
        channels,
    };
    (stats, evaluated)
}

/// Emit a traced run's spans and settled occupancy gauges, in
/// [`canonical_sort`] order, from its per-stage `(pop, rel)` schedule.
fn record_schedule(spec: &PipelineSpec, schedule: &[Vec<(u64, u64)>], rec: &dyn Recorder) {
    let mut events = Vec::new();
    let mut span = |track: &str, name: &str, t0: u64, t1: u64| {
        for (ts, phase) in [(t0, Phase::Begin), (t1, Phase::End)] {
            events.push(TraceEvent {
                track: track.to_string(),
                name: name.into(),
                ts,
                phase,
            });
        }
    };
    for (i, stage) in spec.stages.iter().enumerate() {
        let track = format!("stage:{i}:{}", stage.name);
        let mut prev = 0;
        for &(pop, rel) in &schedule[i] {
            let done = pop + stage.service_cycles;
            span(&track, "service", pop, done);
            if rel > done {
                span(&track, "blocked_full", done, rel);
            }
            // A source pops as soon as it releases, so it never starves.
            if pop > prev {
                span(&track, "blocked_empty", prev, pop);
            }
            prev = rel;
        }
    }
    for e in &spec.edges {
        let track = format!("edge:{}->{}", e.from, e.to);
        // Merge the sorted push and pop instants; each distinct instant
        // gets one gauge carrying the occupancy left once it settles.
        let mut pushes = schedule[e.from].iter().map(|&(_, rel)| rel).peekable();
        let mut pops = schedule[e.to].iter().map(|&(pop, _)| pop).peekable();
        let mut occ = 0u64;
        while let Some(t) = match (pushes.peek(), pops.peek()) {
            (Some(&a), Some(&b)) => Some(a.min(b)),
            (a, b) => a.or(b).copied(),
        } {
            while pushes.next_if_eq(&t).is_some() {
                occ += 1;
            }
            while pops.next_if_eq(&t).is_some() {
                occ -= 1;
            }
            events.push(TraceEvent {
                track: track.clone(),
                name: "occupancy".into(),
                ts: t,
                phase: Phase::Gauge(occ),
            });
        }
    }
    canonical_sort(&mut events);
    for e in events {
        rec.record(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(services: &[u64], caps: &[usize]) -> PipelineSpec {
        PipelineSpec::chain(
            services
                .iter()
                .enumerate()
                .map(|(i, &s)| StageSpec {
                    name: format!("s{i}"),
                    service_cycles: s,
                })
                .collect(),
            caps,
        )
    }

    /// A diamond DAG: s0 fans out to s1/s2, which join at s3.
    fn diamond(services: [u64; 4], cap: usize) -> PipelineSpec {
        PipelineSpec {
            stages: services
                .iter()
                .enumerate()
                .map(|(i, &s)| StageSpec {
                    name: format!("s{i}"),
                    service_cycles: s,
                })
                .collect(),
            edges: vec![
                EdgeSpec {
                    from: 0,
                    to: 1,
                    capacity: cap,
                },
                EdgeSpec {
                    from: 0,
                    to: 2,
                    capacity: cap,
                },
                EdgeSpec {
                    from: 1,
                    to: 3,
                    capacity: cap,
                },
                EdgeSpec {
                    from: 2,
                    to: 3,
                    capacity: cap,
                },
            ],
        }
    }

    #[test]
    fn single_stage_is_serial() {
        let st = simulate(&spec(&[7], &[]), 5);
        assert_eq!(st.makespan_cycles, 35);
        assert_eq!(st.fill_cycles, 7);
        assert_eq!(st.frames_out, 5);
        assert_eq!(st.stages[0].busy_cycles, 35);
        assert!((st.utilization(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_stage_matches_closed_form() {
        // With any capacity ≥ 1, a two-stage pipeline completes N frames in
        // s0 + s1 + (N - 1) · max(s0, s1) cycles.
        for (a, b, cap) in [(3u64, 10u64, 1usize), (10, 3, 1), (4, 4, 2), (1, 9, 4)] {
            for frames in [1u64, 2, 7] {
                let st = simulate(&spec(&[a, b], &[cap]), frames);
                assert_eq!(
                    st.makespan_cycles,
                    a + b + (frames - 1) * a.max(b),
                    "a={a} b={b} cap={cap} frames={frames}"
                );
                assert_eq!(st.fill_cycles, a + b);
            }
        }
    }

    #[test]
    fn steady_state_tracks_the_bottleneck() {
        let st = simulate(&spec(&[2, 9, 4], &[2, 2]), 64);
        assert_eq!(st.bottleneck(), 1);
        assert!((st.steady_cycles_per_frame() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn tight_channels_add_back_pressure() {
        // Slow tail, capacity 1: the head blocks, but throughput still
        // equals the bottleneck rate.
        let st = simulate(&spec(&[1, 1, 12], &[1, 1]), 32);
        assert!(st.stages[0].blocked_cycles > 0);
        assert!((st.steady_cycles_per_frame() - 12.0).abs() < 1e-9);
        // Occupancy never exceeds capacity.
        for c in &st.channels {
            assert!(c.max_occupancy <= c.capacity);
            assert!(c.mean_occupancy <= c.capacity as f64 + 1e-12);
        }
    }

    #[test]
    fn larger_buffers_never_slow_the_pipeline() {
        let services = [5u64, 3, 8, 2];
        let tight = simulate(&spec(&services, &[1, 1, 1]), 40);
        let roomy = simulate(&spec(&services, &[4, 4, 4]), 40);
        assert!(roomy.makespan_cycles <= tight.makespan_cycles);
    }

    #[test]
    fn zero_frames_is_a_quiet_no_op() {
        let st = simulate(&spec(&[3, 4], &[1]), 0);
        assert_eq!(st.frames_out, 0);
        assert_eq!(st.makespan_cycles, 0);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(spec(&[], &[]).validate().is_err());
        assert!(spec(&[1, 0], &[1]).validate().is_err());
        assert!(spec(&[1, 1], &[0]).validate().is_err());
        // Backward, out-of-bounds and duplicate edges.
        let mut s = spec(&[1, 1], &[1]);
        s.edges.push(EdgeSpec {
            from: 1,
            to: 1,
            capacity: 1,
        });
        assert!(s.validate().is_err());
        let mut s = spec(&[1, 1], &[1]);
        s.edges.push(EdgeSpec {
            from: 0,
            to: 2,
            capacity: 1,
        });
        assert!(s.validate().is_err());
        let mut s = spec(&[1, 1], &[1]);
        s.edges.push(EdgeSpec {
            from: 0,
            to: 1,
            capacity: 2,
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn diamond_fill_is_the_critical_path() {
        // Fork/join: the first frame exits after the *longest* branch, not
        // after the branch sum — branch parallelism in action.
        let d = diamond([2, 10, 3, 4], 2);
        assert_eq!(d.critical_path_cycles(), 2 + 10 + 4);
        let st = simulate(&d, 8);
        assert_eq!(st.fill_cycles, 16);
        // Steady state still tracks the slowest stage.
        assert!((st.steady_cycles_per_frame() - 10.0).abs() < 1e-9);
        assert_eq!(st.bottleneck(), 1);
        assert_eq!(st.frames_out, 8);
        // The same services as a chain fill in the serial sum instead.
        let chain = spec(&[2, 10, 3, 4], &[2, 2, 2]);
        let cst = simulate(&chain, 8);
        assert_eq!(cst.fill_cycles, 19);
        assert!(st.fill_cycles < cst.fill_cycles);
        assert!(st.makespan_cycles <= cst.makespan_cycles);
    }

    #[test]
    fn join_waits_for_all_branches() {
        // s3 can only run when both s1 and s2 have delivered; with one
        // frame the makespan is the critical path exactly.
        let st = simulate(&diamond([1, 7, 2, 1], 1), 1);
        assert_eq!(st.makespan_cycles, 1 + 7 + 1);
        assert_eq!(st.stages[3].frames, 1);
    }

    #[test]
    fn parallel_sources_and_sinks_conserve_frames() {
        // Two independent two-stage streams (Two_Stream shape): two
        // sources, two sinks; completion requires both sinks.
        let s = PipelineSpec {
            stages: [3u64, 5, 4, 2]
                .iter()
                .enumerate()
                .map(|(i, &sv)| StageSpec {
                    name: format!("s{i}"),
                    service_cycles: sv,
                })
                .collect(),
            edges: vec![
                EdgeSpec {
                    from: 0,
                    to: 1,
                    capacity: 2,
                },
                EdgeSpec {
                    from: 2,
                    to: 3,
                    capacity: 2,
                },
            ],
        };
        assert_eq!(s.sources(), vec![0, 2]);
        assert_eq!(s.sinks(), vec![1, 3]);
        let st = simulate(&s, 10);
        assert_eq!(st.frames_out, 10);
        // Each stream fills independently; completion waits for the slower
        // stream (0→1: fill 8, steady 5).
        assert_eq!(st.fill_cycles, 8);
        assert!((st.steady_cycles_per_frame() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fork_replicates_and_blocks_on_any_full_output() {
        // s0 fans out to a fast and a slow consumer (both sinks). The slow
        // sink throttles s0 through its bounded channel.
        let s = PipelineSpec {
            stages: [1u64, 1, 9]
                .iter()
                .enumerate()
                .map(|(i, &sv)| StageSpec {
                    name: format!("s{i}"),
                    service_cycles: sv,
                })
                .collect(),
            edges: vec![
                EdgeSpec {
                    from: 0,
                    to: 1,
                    capacity: 1,
                },
                EdgeSpec {
                    from: 0,
                    to: 2,
                    capacity: 1,
                },
            ],
        };
        let st = simulate(&s, 16);
        assert_eq!(st.frames_out, 16);
        assert!((st.steady_cycles_per_frame() - 9.0).abs() < 1e-9);
        assert!(st.stages[0].blocked_cycles > 0, "fork feels back-pressure");
        assert_eq!(st.stages[1].frames, 16);
        assert_eq!(st.stages[2].frames, 16);
    }

    #[test]
    fn starved_cycles_account_for_input_waits() {
        // Slow head, fast tail: the tail is starved, never blocked. With
        // services (9, 2) over N frames the tail finishes each frame 2
        // cycles after the head delivers it, then waits 7 cycles — plus
        // the initial 9-cycle fill wait.
        let frames = 8;
        let st = simulate(&spec(&[9, 2], &[2]), frames);
        assert_eq!(st.stages[1].starved_cycles, 9 + (frames - 1) * 7);
        assert_eq!(st.stages[1].blocked_cycles, 0);
        // Sources never starve; a slow tail starves nobody upstream.
        let st = simulate(&spec(&[1, 1, 12], &[1, 1]), 32);
        assert_eq!(st.stages[0].starved_cycles, 0);
        // Attribution never exceeds the makespan.
        for s in &st.stages {
            assert!(s.busy_cycles + s.blocked_cycles + s.starved_cycles <= st.makespan_cycles);
        }
    }

    #[test]
    fn traced_run_is_deterministic_and_stats_identical() {
        use morph_trace::TraceBuffer;
        let d = diamond([2, 10, 3, 4], 2);
        let plain = simulate(&d, 16);
        let (b1, b2) = (TraceBuffer::new(), TraceBuffer::new());
        let s1 = simulate_traced(&d, 16, &b1);
        let s2 = simulate_traced(&d, 16, &b2);
        // Two identical runs record bit-identical simulated-time buffers,
        // and tracing never perturbs the measured stats.
        assert_eq!(b1.events(), b2.events());
        assert!(!b1.is_empty());
        assert_eq!(s1, s2);
        assert_eq!(s1, plain);
        assert_eq!(
            b1.to_perfetto_string(Some((0, s1.makespan_cycles))),
            b2.to_perfetto_string(Some((0, s2.makespan_cycles)))
        );
    }

    #[test]
    fn traced_spans_reconstruct_the_blocked_breakdown() {
        use morph_trace::{Phase, TraceBuffer};
        let s = spec(&[1, 1, 12], &[1, 1]);
        let buf = TraceBuffer::new();
        let st = simulate_traced(&s, 32, &buf);
        // Summing each track's span durations reproduces the per-stage
        // cycle attribution exactly.
        for (i, stage) in st.stages.iter().enumerate() {
            let track = format!("stage:{i}:{}", stage.name);
            let mut sums = std::collections::HashMap::new();
            let mut open = std::collections::HashMap::new();
            for e in buf.events().iter().filter(|e| e.track == track) {
                match e.phase {
                    Phase::Begin => {
                        open.insert(e.name.clone(), e.ts);
                    }
                    Phase::End => {
                        let begin = open.remove(&e.name).expect("balanced span");
                        *sums.entry(e.name.clone()).or_insert(0u64) += e.ts - begin;
                    }
                    _ => {}
                }
            }
            assert_eq!(sums.get("service").copied().unwrap_or(0), stage.busy_cycles);
            assert_eq!(
                sums.get("blocked_full").copied().unwrap_or(0),
                stage.blocked_cycles
            );
            assert_eq!(
                sums.get("blocked_empty").copied().unwrap_or(0),
                stage.starved_cycles
            );
        }
    }

    /// Evaluate `spec` untraced, check its stats against a frame-by-frame
    /// (traced) run, and return how many frames it evaluated.
    fn evaluated_frames(spec: &PipelineSpec, frames: u64) -> u64 {
        let (stats, evaluated) = evaluate(spec, frames, &NoopRecorder);
        let traced = simulate_traced(spec, frames, &morph_trace::TraceBuffer::new());
        assert_eq!(stats, traced, "fast-forward changed the stats");
        evaluated
    }

    /// Two components with unequal bottlenecks: a 3-stage chain and a
    /// 2-stage chain (Two_Stream's shape).
    fn two_streams() -> PipelineSpec {
        let mut s = spec(&[4, 11, 6, 3, 8], &[2, 3, 1, 2]);
        s.edges.remove(2);
        s
    }

    #[test]
    fn a_long_periodic_run_costs_its_transient() {
        assert!(evaluated_frames(&diamond([2, 10, 3, 4], 2), 10_000) < 100);
        assert!(evaluated_frames(&spec(&[7], &[]), 10_000) < 10);
        // Two components run at different rates: each stage moves by its
        // own time shift.
        assert!(evaluated_frames(&two_streams(), 10_000) < 100);
        // A bypass around a tight channel settles into period 2, and
        // 10,000 frames is no whole number of ring turns after it.
        let mut bypass = spec(&[1, 7, 7, 4, 2], &[2, 1, 2, 2]);
        bypass.edges.push(EdgeSpec {
            from: 0,
            to: 4,
            capacity: 2,
        });
        assert!(evaluated_frames(&bypass, 10_000) < 100);
    }

    include!("../tests/fixtures/resnet_chain.rs");

    #[test]
    fn a_drifting_run_costs_its_regime_changes() {
        // The head is one cycle faster than the tail, so the gap between
        // them grows every frame and the state never repeats; the channel
        // would only fill after millions of frames.
        let drift = spec(&[999_999, 1_000_000], &[9]);
        assert!(evaluated_frames(&drift, 10_000) < 100);
        // Two near-tied bottlenecks far apart: the channels between them
        // gain one frame of backlog every 40 frames until they fill, and
        // each fill is a regime change.
        let far = spec(
            &[300, 900, 500, 3_900, 700, 200, 600, 4_000, 800, 100],
            &[2, 3, 1, 4, 2, 3, 2, 1, 3],
        );
        assert!(evaluated_frames(&far, 10_000) < 300);
        // `stream-long`'s ResNet chain. Its traced run would hold millions
        // of events, so the oracle suite checks its stats instead.
        let resnet = spec(&RESNET_SERVICES, &RESNET_CAPACITIES);
        assert!(evaluate(&resnet, 10_000, &NoopRecorder).1 < 2_000);
    }

    #[test]
    fn a_run_that_never_repeats_is_evaluated_in_full() {
        // One channel as long as the run: its ring never fills, so no
        // state is compared and nothing is found to repeat.
        let mut long = diamond([2, 10, 3, 4], 2);
        long.edges[1].capacity = 5_000;
        assert_eq!(evaluated_frames(&long, 5_000), 5_000);
    }

    #[test]
    fn an_enabled_recorder_never_fast_forwards() {
        let d = diamond([2, 10, 3, 4], 2);
        let buf = morph_trace::TraceBuffer::new();
        assert_eq!(evaluate(&d, 10_000, &buf).1, 10_000);
    }

    #[test]
    fn capacity_derivation_is_bounded_and_double_buffered() {
        let caps = PipelineCaps::from_l2(1024 << 10);
        assert_eq!(caps.staging_bytes, 512 << 10);
        // Huge frames: one slot plus the double buffer.
        assert_eq!(caps.channel_capacity(10 << 20), 2);
        // Tiny frames: clamped at MAX_SLOTS plus the double buffer.
        assert_eq!(caps.channel_capacity(1), PipelineCaps::MAX_SLOTS + 1);
        let single = PipelineCaps {
            staging_bytes: 4096,
            double_buffered: false,
        };
        assert_eq!(single.channel_capacity(2048), 2);
        assert_eq!(single.channel_capacity(8192), 1);
        // Splitting across parallel branches shares the staging pool.
        let split = caps.split(4);
        assert_eq!(split.staging_bytes, 128 << 10);
        assert!(split.double_buffered);
        assert_eq!(caps.split(0).staging_bytes, caps.staging_bytes);
    }
}
