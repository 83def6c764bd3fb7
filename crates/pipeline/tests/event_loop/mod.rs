//! The discrete-event pipeline loop, kept as the test oracle for
//! `morph_pipeline::simulate`.
//!
//! It advances a [`PipelineSpec`] with time-stamped completion events
//! (DAM-style): a stage pops one frame from every input channel (a join
//! waits for all branches), serves it, then pushes the result into every
//! output channel atomically (a fork replicates), holding both the frame
//! and the stage while any output channel is full. Pops, pushes and
//! starts cascade within a timestamp until a fixpoint. Nothing here is
//! shared with the library's recurrence evaluation: channel occupancy is
//! tracked op by op, and traced gauges are settled per timestamp from
//! the raw samples.

use morph_pipeline::{ChannelStats, PipelineSpec, PipelineStats, StageStats};
use morph_trace::{canonical_sort, NoopRecorder, Phase, Recorder, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bounded-channel state with time-weighted occupancy accounting.
struct Chan {
    cap: usize,
    occ: usize,
    max: usize,
    integral: u128,
    last_t: u64,
}

/// Track name for stage `i`.
fn stage_track(i: usize, name: &str) -> String {
    format!("stage:{i}:{name}")
}

/// Track name for the channel of edge `from -> to`.
fn edge_track(from: usize, to: usize) -> String {
    format!("edge:{from}->{to}")
}

impl Chan {
    /// Record an occupancy change at `now`. Peak and integral fold only
    /// *settled* values — the occupancy left once a timestamp's cascade
    /// has finished — so both are pure functions of the push/pop time
    /// multisets, independent of same-cycle cascade order. (Transient
    /// intra-timestamp spikes occupy the buffer for zero cycles and
    /// would otherwise make `max` depend on relaxation order.)
    fn set(&mut self, now: u64, occ: usize) {
        if now > self.last_t {
            self.max = self.max.max(self.occ);
            self.integral += self.occ as u128 * u128::from(now - self.last_t);
            self.last_t = now;
        }
        self.occ = occ;
    }

    /// Fold the final settled value; call once after the last `set`.
    fn close(&mut self, makespan: u64) {
        self.set(makespan, self.occ);
        self.max = self.max.max(self.occ);
    }
}

struct Sim<'a> {
    spec: &'a PipelineSpec,
    frames: u64,
    now: u64,
    /// In/out channel indices per stage.
    ins: Vec<Vec<usize>>,
    outs: Vec<Vec<usize>>,
    /// Frames still waiting at each source stage (0 for non-sources).
    source: Vec<u64>,
    chans: Vec<Chan>,
    busy: Vec<bool>,
    holding: Vec<bool>,
    hold_since: Vec<u64>,
    /// When each stage last went idle (starvation clock for non-sources).
    idle_since: Vec<u64>,
    done: Vec<u64>,
    busy_cycles: Vec<u64>,
    blocked_cycles: Vec<u64>,
    starved_cycles: Vec<u64>,
    /// Hoisted `Recorder::enabled()` flag; when tracing is off the
    /// instrumentation below is a dead branch per event site.
    traced: bool,
    /// Per-stage and per-edge track names (built only when traced).
    stage_tracks: Vec<String>,
    edge_tracks: Vec<String>,
    /// Buffered span events (service / blocked_full / blocked_empty) in
    /// engine call order; canonicalized and emitted after the run.
    spans: Vec<TraceEvent>,
    /// Raw per-op occupancy samples `(channel, time, occupancy)`; the
    /// last sample per `(channel, time)` is the settled gauge value.
    gauges: Vec<(usize, u64, u64)>,
    /// Frames emitted per sink stage (usize::MAX sentinel unused).
    sink_exits: Vec<u64>,
    is_source: Vec<bool>,
    is_sink: Vec<bool>,
    frames_out: u64,
    first_exit: u64,
    last_exit: u64,
    last_entry: u64,
    /// Pending completion events: (time, sequence, stage).
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    seq: u64,
}

impl Sim<'_> {
    fn input_ready(&self, i: usize) -> bool {
        if self.is_source[i] {
            self.source[i] > 0
        } else {
            self.ins[i].iter().all(|&c| self.chans[c].occ > 0)
        }
    }

    fn output_has_space(&self, i: usize) -> bool {
        self.outs[i]
            .iter()
            .all(|&c| self.chans[c].occ < self.chans[c].cap)
    }

    /// Buffer a closed `[t0, t1)` span as a Begin/End event pair.
    fn push_span(&mut self, i: usize, name: &str, t0: u64, t1: u64) {
        self.spans.push(TraceEvent {
            track: self.stage_tracks[i].clone(),
            name: name.into(),
            ts: t0,
            phase: Phase::Begin,
        });
        self.spans.push(TraceEvent {
            track: self.stage_tracks[i].clone(),
            name: name.into(),
            ts: t1,
            phase: Phase::End,
        });
    }

    fn pop_input(&mut self, i: usize) {
        if self.is_source[i] {
            self.source[i] -= 1;
            // The drain clock starts when the *last* source pop happens.
            self.last_entry = self.now;
        } else {
            for ci in 0..self.ins[i].len() {
                let c = self.ins[i][ci];
                let occ = self.chans[c].occ - 1;
                self.chans[c].set(self.now, occ);
                if self.traced {
                    self.gauges.push((c, self.now, occ as u64));
                }
            }
        }
    }

    /// Push stage `i`'s finished frame into every output channel (the
    /// caller checked space); sink stages exit into the completion
    /// accounting instead.
    fn push_output(&mut self, i: usize) {
        if self.is_sink[i] {
            self.sink_exits[i] += 1;
            // A frame is complete once every sink has emitted it.
            let completed = self
                .is_sink
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s)
                .map(|(j, _)| self.sink_exits[j])
                .min()
                .unwrap_or(0);
            if completed > self.frames_out {
                if self.frames_out == 0 {
                    self.first_exit = self.now;
                }
                self.frames_out = completed;
                self.last_exit = self.now;
            }
        } else {
            for ci in 0..self.outs[i].len() {
                let c = self.outs[i][ci];
                let occ = self.chans[c].occ + 1;
                self.chans[c].set(self.now, occ);
                if self.traced {
                    self.gauges.push((c, self.now, occ as u64));
                }
            }
        }
    }

    /// Cascade deliveries and starts at the current timestamp until no
    /// stage can make progress.
    fn relax(&mut self) {
        let n = self.spec.stages.len();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if self.holding[i] && self.output_has_space(i) {
                    self.push_output(i);
                    self.holding[i] = false;
                    self.blocked_cycles[i] += self.now - self.hold_since[i];
                    if self.traced && self.now > self.hold_since[i] {
                        self.push_span(i, "blocked_full", self.hold_since[i], self.now);
                    }
                    self.idle_since[i] = self.now;
                    changed = true;
                }
                if !self.busy[i] && !self.holding[i] && self.input_ready(i) {
                    // Idle time of a non-source stage is exactly time spent
                    // waiting for input: back-pressure shows up as `holding`
                    // and service as `busy`, so nothing else keeps a ready
                    // stage idle.
                    if !self.is_source[i] {
                        let starved = self.now - self.idle_since[i];
                        self.starved_cycles[i] += starved;
                        if self.traced && starved > 0 {
                            self.push_span(i, "blocked_empty", self.idle_since[i], self.now);
                        }
                    }
                    self.pop_input(i);
                    self.busy[i] = true;
                    if self.traced {
                        let ev = TraceEvent {
                            track: self.stage_tracks[i].clone(),
                            name: "service".into(),
                            ts: self.now,
                            phase: Phase::Begin,
                        };
                        self.spans.push(ev);
                    }
                    let t = self.now + self.spec.stages[i].service_cycles;
                    self.heap.push(Reverse((t, self.seq, i)));
                    self.seq += 1;
                    changed = true;
                }
            }
        }
    }

    fn run(&mut self) {
        self.relax();
        while let Some(Reverse((t, _, i))) = self.heap.pop() {
            debug_assert!(t >= self.now, "events must be processed in time order");
            self.now = t;
            self.busy[i] = false;
            self.done[i] += 1;
            self.busy_cycles[i] += self.spec.stages[i].service_cycles;
            if self.traced {
                let ev = TraceEvent {
                    track: self.stage_tracks[i].clone(),
                    name: "service".into(),
                    ts: t,
                    phase: Phase::End,
                };
                self.spans.push(ev);
            }
            if self.output_has_space(i) {
                self.push_output(i);
                self.idle_since[i] = self.now;
            } else {
                self.holding[i] = true;
                self.hold_since[i] = self.now;
            }
            self.relax();
        }
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
    spec.validate().expect("invalid pipeline spec");
    let n = spec.stages.len();
    let mut ins: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut outs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in spec.edges.iter().enumerate() {
        outs[e.from].push(ei);
        ins[e.to].push(ei);
    }
    let is_source: Vec<bool> = (0..n).map(|i| ins[i].is_empty()).collect();
    let is_sink: Vec<bool> = (0..n).map(|i| outs[i].is_empty()).collect();
    let source: Vec<u64> = (0..n)
        .map(|i| if is_source[i] { frames } else { 0 })
        .collect();
    let traced = rec.enabled();
    let (stage_tracks, edge_tracks) = if traced {
        (
            spec.stages
                .iter()
                .enumerate()
                .map(|(i, s)| stage_track(i, &s.name))
                .collect(),
            spec.edges
                .iter()
                .map(|e| edge_track(e.from, e.to))
                .collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };
    let mut sim = Sim {
        spec,
        frames,
        now: 0,
        ins,
        outs,
        source,
        chans: spec
            .edges
            .iter()
            .map(|e| Chan {
                cap: e.capacity,
                occ: 0,
                max: 0,
                integral: 0,
                last_t: 0,
            })
            .collect(),
        busy: vec![false; n],
        holding: vec![false; n],
        hold_since: vec![0; n],
        idle_since: vec![0; n],
        done: vec![0; n],
        busy_cycles: vec![0; n],
        blocked_cycles: vec![0; n],
        starved_cycles: vec![0; n],
        traced,
        stage_tracks,
        edge_tracks,
        spans: Vec::new(),
        gauges: Vec::new(),
        sink_exits: vec![0; n],
        is_source,
        is_sink,
        frames_out: 0,
        first_exit: 0,
        last_exit: 0,
        last_entry: 0,
        heap: BinaryHeap::new(),
        seq: 0,
    };
    sim.run();
    assert_eq!(sim.frames_out, frames, "conservation: frames in == out");

    if traced {
        let mut events = std::mem::take(&mut sim.spans);
        // Settle gauges: per-op samples for one channel arrive in
        // non-decreasing time order, so the last sample per timestamp is
        // the value left once the cascade finished — the only value the
        // buffer holds for a nonzero duration.
        let mut pending: Vec<Option<(u64, u64)>> = vec![None; spec.edges.len()];
        for (c, t, occ) in std::mem::take(&mut sim.gauges) {
            match pending[c] {
                Some((pt, _)) if pt == t => pending[c] = Some((t, occ)),
                Some((pt, pocc)) => {
                    events.push(TraceEvent {
                        track: sim.edge_tracks[c].clone(),
                        name: "occupancy".into(),
                        ts: pt,
                        phase: Phase::Gauge(pocc),
                    });
                    pending[c] = Some((t, occ));
                }
                None => pending[c] = Some((t, occ)),
            }
        }
        for (c, p) in pending.iter().enumerate() {
            if let Some((t, occ)) = p {
                events.push(TraceEvent {
                    track: sim.edge_tracks[c].clone(),
                    name: "occupancy".into(),
                    ts: *t,
                    phase: Phase::Gauge(*occ),
                });
            }
        }
        canonical_sort(&mut events);
        for e in events {
            rec.record(e);
        }
    }

    let makespan = sim.last_exit;
    let stages = (0..n)
        .map(|i| StageStats {
            name: spec.stages[i].name.clone(),
            service_cycles: spec.stages[i].service_cycles,
            frames: sim.done[i],
            busy_cycles: sim.busy_cycles[i],
            blocked_cycles: sim.blocked_cycles[i],
            starved_cycles: sim.starved_cycles[i],
        })
        .collect();
    let channels = sim
        .chans
        .iter_mut()
        .zip(&spec.edges)
        .map(|(c, e)| {
            c.close(makespan); // close the occupancy integral and peak
            ChannelStats {
                from: e.from,
                to: e.to,
                capacity: c.cap,
                max_occupancy: c.max,
                mean_occupancy: if makespan > 0 {
                    c.integral as f64 / makespan as f64
                } else {
                    0.0
                },
            }
        })
        .collect();
    PipelineStats {
        frames_in: sim.frames,
        frames_out: sim.frames_out,
        makespan_cycles: makespan,
        fill_cycles: sim.first_exit,
        drain_cycles: makespan - sim.last_entry,
        stages,
        channels,
    }
}
