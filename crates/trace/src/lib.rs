//! # morph-trace
//!
//! Dependency-free tracing/metrics substrate for the Morph workspace, in
//! the same spirit as `morph-json`: no external crates, deterministic
//! output, one small surface every other layer can instrument through.
//!
//! The model is the Chrome `trace_event` one — named **tracks** (rendered
//! as Perfetto threads) carrying four kinds of [`TraceEvent`]:
//!
//! * **spans** — `Begin`/`End` pairs with stack discipline per track
//!   (a stage in service, a layer's mapping search, a wall-clock
//!   evaluation);
//! * **counters** — cumulative, monotonically non-decreasing samples
//!   (candidates enumerated, cache hits);
//! * **gauges** — level samples that may go up and down (channel
//!   occupancy);
//! * **instants** — zero-duration marks (a branch-and-bound incumbent
//!   improving).
//!
//! Timestamps are plain `u64` in whatever clock the producing layer uses:
//! the pipeline engine records **simulated cycles** (bit-identical across
//! runs), the mapping search records its **candidate index** (also
//! deterministic), and the session records **wall-clock nanoseconds**
//! (inherently nondeterministic — which is why trace files are sidecars
//! and never ride inside a `RunReport`; see `crates/json`'s schema docs).
//!
//! Producers write through the [`Recorder`] trait. The default
//! [`NoopRecorder`] reports `enabled() == false`, and every convenience
//! method is gated on that flag before it builds an event, so an
//! uninstrumented run pays one inlined boolean test per site — nothing
//! more. [`TraceBuffer`] is the in-memory implementation; its
//! [`TraceBuffer::to_perfetto`] exporter writes a Chrome
//! `trace_event`-format JSON document via `morph-json` that
//! [Perfetto](https://ui.perfetto.dev) (or `chrome://tracing`) opens
//! directly, and [`TraceBuffer::from_perfetto`] reads the same document
//! back losslessly.
//!
//! ```
//! use morph_trace::{Recorder, TraceBuffer};
//!
//! let buf = TraceBuffer::new();
//! buf.span_begin("stage:conv1", "service", 0);
//! buf.gauge("edge:0->1", "occupancy", 20, 1);
//! buf.span_end("stage:conv1", "service", 30);
//! let doc = buf.to_perfetto(Some((0, 30)));
//! let (back, bounds) = TraceBuffer::from_perfetto(&doc).unwrap();
//! assert_eq!(back.events(), buf.events());
//! assert_eq!(bounds, Some((0, 30)));
//! ```

use morph_json::Value;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What kind of mark a [`TraceEvent`] is.
///
/// `Counter` carries cumulative values (audited monotonic per
/// `(track, name)`); `Gauge` carries level samples free to move both
/// ways. Both render as Perfetto counter tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Open a span on the track (stack discipline per track).
    Begin,
    /// Close the innermost open span of the same name on the track.
    End,
    /// Cumulative counter sample (monotonically non-decreasing).
    Counter(u64),
    /// Level sample (may rise and fall).
    Gauge(u64),
    /// Zero-duration mark.
    Instant,
}

/// One recorded event: a named mark on a named track at a `u64`
/// timestamp in the producer's clock (simulated cycles, candidate index,
/// or wall nanoseconds — see the crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Track the event belongs to (rendered as a Perfetto thread).
    pub track: String,
    /// Event name (span label, counter name, instant label).
    pub name: String,
    /// Timestamp in the producer's clock.
    pub ts: u64,
    /// Event kind (and payload, for counters/gauges).
    pub phase: Phase,
}

/// Sink for trace events. Instrumented code holds a `&dyn Recorder` (or
/// an `Arc<dyn Recorder>`) and calls the convenience methods; each one
/// checks [`Recorder::enabled`] before building an event, so the default
/// [`NoopRecorder`] costs a single branch per instrumentation point.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps events at all. Hot loops may hoist
    /// this into a local and skip their instrumentation entirely.
    fn enabled(&self) -> bool;

    /// Store one event. Only called when [`Recorder::enabled`] is true.
    fn record(&self, event: TraceEvent);

    /// Open a span on `track`.
    fn span_begin(&self, track: &str, name: &str, ts: u64) {
        if self.enabled() {
            self.record(TraceEvent {
                track: track.to_string(),
                name: name.to_string(),
                ts,
                phase: Phase::Begin,
            });
        }
    }

    /// Close the innermost open span named `name` on `track`.
    fn span_end(&self, track: &str, name: &str, ts: u64) {
        if self.enabled() {
            self.record(TraceEvent {
                track: track.to_string(),
                name: name.to_string(),
                ts,
                phase: Phase::End,
            });
        }
    }

    /// Record a complete span in one call (begin at `ts`, end at
    /// `ts_end`). Purely a convenience for producers that only learn
    /// about an interval after it closed.
    fn span(&self, track: &str, name: &str, ts: u64, ts_end: u64) {
        if self.enabled() {
            self.span_begin(track, name, ts);
            self.span_end(track, name, ts_end);
        }
    }

    /// Sample a cumulative counter (values must never decrease).
    fn counter(&self, track: &str, name: &str, ts: u64, value: u64) {
        if self.enabled() {
            self.record(TraceEvent {
                track: track.to_string(),
                name: name.to_string(),
                ts,
                phase: Phase::Counter(value),
            });
        }
    }

    /// Sample a level gauge (values are free to rise and fall).
    fn gauge(&self, track: &str, name: &str, ts: u64, value: u64) {
        if self.enabled() {
            self.record(TraceEvent {
                track: track.to_string(),
                name: name.to_string(),
                ts,
                phase: Phase::Gauge(value),
            });
        }
    }

    /// Record a zero-duration mark.
    fn instant(&self, track: &str, name: &str, ts: u64) {
        if self.enabled() {
            self.record(TraceEvent {
                track: track.to_string(),
                name: name.to_string(),
                ts,
                phase: Phase::Instant,
            });
        }
    }
}

/// The zero-overhead default: `enabled()` is `false`, so no convenience
/// method ever builds an event and `record` is unreachable in practice.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// In-memory [`Recorder`]: an append-only, mutex-guarded event list.
///
/// Event order is exactly call order. Single-threaded producers (the
/// pipeline engine, one layer's search) therefore yield deterministic
/// buffers; multi-threaded producers (the session's worker pool)
/// interleave nondeterministically between tracks while each track's own
/// sequence stays ordered.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The event log, locked. Every critical section is one push or one
    /// read, so a poisoned lock still guards a whole log: take it rather
    /// than cascade another thread's panic.
    fn log(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.log().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded events in call order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.log().clone()
    }

    /// A new buffer holding only the events `keep` accepts, in order.
    /// Used to split one mixed-clock recording into per-domain sidecar
    /// files (e.g. simulated-cycle tracks vs wall-clock tracks).
    pub fn filter(&self, keep: impl Fn(&TraceEvent) -> bool) -> TraceBuffer {
        let kept: Vec<TraceEvent> = self.log().iter().filter(|e| keep(e)).cloned().collect();
        TraceBuffer {
            events: Mutex::new(kept),
        }
    }

    /// Export as a Chrome `trace_event`/Perfetto JSON document.
    ///
    /// Tracks become threads of one process: tids are assigned by sorted
    /// track name (deterministic regardless of recording interleaving)
    /// and announced with standard `thread_name` metadata events, so both
    /// Perfetto and [`TraceBuffer::from_perfetto`] recover the names.
    /// `bounds` (e.g. `[fill start, drain end]` in simulated cycles) are
    /// carried in a top-level `morph_bounds` field the trace audit pass
    /// reads back; viewers ignore it.
    pub fn to_perfetto(&self, bounds: Option<(u64, u64)>) -> Value {
        let events = self.log();
        let mut tids: BTreeMap<&str, i64> = BTreeMap::new();
        for e in events.iter() {
            let next = tids.len() as i64 + 1;
            tids.entry(e.track.as_str()).or_insert(next);
        }
        // BTreeMap iteration is sorted by track name; re-number so tid
        // order equals name order (stable against recording interleaves).
        for (i, (_, tid)) in tids.iter_mut().enumerate() {
            *tid = i as i64 + 1;
        }

        let mut out: Vec<Value> = Vec::with_capacity(events.len() + tids.len());
        for (track, tid) in &tids {
            out.push(Value::obj([
                ("ph", Value::Str("M".into())),
                ("name", Value::Str("thread_name".into())),
                ("pid", Value::Int(1)),
                ("tid", Value::Int(*tid)),
                ("args", Value::obj([("name", Value::Str((*track).into()))])),
            ]));
        }
        for e in events.iter() {
            let tid = tids[e.track.as_str()];
            let mut fields = vec![
                ("ph", Value::Str(ph_label(e.phase).into())),
                ("name", Value::Str(e.name.clone())),
                ("cat", Value::Str(cat_label(e.phase).into())),
                ("ts", Value::Int(e.ts as i64)),
                ("pid", Value::Int(1)),
                ("tid", Value::Int(tid)),
            ];
            match e.phase {
                Phase::Counter(v) | Phase::Gauge(v) => {
                    fields.push(("args", Value::obj([("value", Value::Int(v as i64))])));
                }
                Phase::Instant => fields.push(("s", Value::Str("t".into()))),
                Phase::Begin | Phase::End => {}
            }
            out.push(Value::obj(fields));
        }

        let mut doc = vec![
            ("traceEvents", Value::Arr(out)),
            ("displayTimeUnit", Value::Str("ns".into())),
        ];
        if let Some((lo, hi)) = bounds {
            doc.push((
                "morph_bounds",
                Value::Arr(vec![Value::Int(lo as i64), Value::Int(hi as i64)]),
            ));
        }
        Value::obj(doc)
    }

    /// Export [`TraceBuffer::to_perfetto`] as deterministic pretty JSON.
    pub fn to_perfetto_string(&self, bounds: Option<(u64, u64)>) -> String {
        self.to_perfetto(bounds).pretty()
    }

    /// Read a document written by [`TraceBuffer::to_perfetto`] back into
    /// a buffer (plus the `morph_bounds` window, when present). Event
    /// order, names, tracks, timestamps and payloads round-trip exactly.
    pub fn from_perfetto(doc: &Value) -> Result<(TraceBuffer, Option<(u64, u64)>), String> {
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .ok_or_else(|| "no \"traceEvents\" array".to_string())?;

        // Pass 1: thread_name metadata maps tids back to track names.
        let mut tracks: BTreeMap<i64, String> = BTreeMap::new();
        for e in events {
            if e.get("ph").and_then(Value::as_str) == Some("M")
                && e.get("name").and_then(Value::as_str) == Some("thread_name")
            {
                let tid = e
                    .get("tid")
                    .and_then(Value::as_i64)
                    .ok_or_else(|| "thread_name metadata without integer tid".to_string())?;
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| "thread_name metadata without args.name".to_string())?;
                tracks.insert(tid, name.to_string());
            }
        }

        // Pass 2: rebuild the event list in document order.
        let mut out = Vec::new();
        for e in events {
            let ph = e
                .get("ph")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event without \"ph\": {e:?}"))?;
            if ph == "M" {
                continue;
            }
            let tid = e
                .get("tid")
                .and_then(Value::as_i64)
                .ok_or_else(|| format!("event without integer tid: {e:?}"))?;
            let track = tracks
                .get(&tid)
                .ok_or_else(|| format!("tid {tid} has no thread_name metadata"))?
                .clone();
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event without name: {e:?}"))?
                .to_string();
            let ts = e
                .get("ts")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event without non-negative integer ts: {e:?}"))?;
            let value = || {
                e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("counter event without args.value: {e:?}"))
            };
            let phase = match (ph, e.get("cat").and_then(Value::as_str)) {
                ("B", _) => Phase::Begin,
                ("E", _) => Phase::End,
                ("C", Some("gauge")) => Phase::Gauge(value()?),
                ("C", _) => Phase::Counter(value()?),
                ("i", _) => Phase::Instant,
                (other, _) => return Err(format!("unsupported event phase {other:?}")),
            };
            out.push(TraceEvent {
                track,
                name,
                ts,
                phase,
            });
        }

        let bounds = match doc.get("morph_bounds").and_then(Value::as_arr) {
            None => None,
            Some(pair) => {
                let (Some(lo), Some(hi)) = (
                    pair.first().and_then(Value::as_u64),
                    pair.get(1).and_then(Value::as_u64),
                ) else {
                    return Err("morph_bounds is not a [lo, hi] integer pair".to_string());
                };
                Some((lo, hi))
            }
        };
        Ok((
            TraceBuffer {
                events: Mutex::new(out),
            },
            bounds,
        ))
    }

    /// Parse a serialized Perfetto document (see
    /// [`TraceBuffer::from_perfetto`]).
    pub fn from_perfetto_str(text: &str) -> Result<(TraceBuffer, Option<(u64, u64)>), String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        Self::from_perfetto(&doc)
    }
}

impl Recorder for TraceBuffer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        self.log().push(event);
    }
}

/// Sort events into the workspace's **canonical trace order**: by
/// timestamp, then track, then phase (span `End` before `Begin`, then
/// counters, gauges, instants), then name, then payload.
///
/// The order is a pure function of the event *set* — any two recordings
/// of the same events, whatever their emission order (an event loop's
/// cascade order, a schedule walked stage by stage), canonicalize to the
/// same sequence, which is what lets the pipeline engine's sidecars be
/// compared byte for byte against its event-loop test oracle. `End`
/// sorts before `Begin` at equal timestamps so abutting spans on one
/// track (a `service` span ending exactly where a `blocked_full` span
/// starts) stay properly nested for the trace audit pass.
pub fn canonical_sort(events: &mut [TraceEvent]) {
    let rank = |p: Phase| -> u8 {
        match p {
            Phase::End => 0,
            Phase::Begin => 1,
            Phase::Counter(_) => 2,
            Phase::Gauge(_) => 3,
            Phase::Instant => 4,
        }
    };
    let payload = |p: Phase| -> u64 {
        match p {
            Phase::Counter(v) | Phase::Gauge(v) => v,
            _ => 0,
        }
    };
    events.sort_by(|a, b| {
        (a.ts, &a.track, rank(a.phase), &a.name, payload(a.phase)).cmp(&(
            b.ts,
            &b.track,
            rank(b.phase),
            &b.name,
            payload(b.phase),
        ))
    });
}

/// A [`Recorder`] adapter that prepends a fixed prefix to every event's
/// track before forwarding to an inner recorder. Layers that run the same
/// instrumented code for several contexts (e.g. one pipeline simulation
/// per (backend, network) pair, all emitting `stage:*` tracks) wrap their
/// shared sink so each context lands on its own track namespace.
pub struct PrefixRecorder {
    inner: std::sync::Arc<dyn Recorder>,
    prefix: String,
}

impl PrefixRecorder {
    /// Wrap `inner`, prefixing every track with `prefix`.
    pub fn new(inner: std::sync::Arc<dyn Recorder>, prefix: impl Into<String>) -> Self {
        Self {
            inner,
            prefix: prefix.into(),
        }
    }
}

impl Recorder for PrefixRecorder {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, mut event: TraceEvent) {
        event.track = format!("{}{}", self.prefix, event.track);
        self.inner.record(event);
    }
}

/// Chrome `trace_event` phase letter for a [`Phase`].
fn ph_label(p: Phase) -> &'static str {
    match p {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Counter(_) | Phase::Gauge(_) => "C",
        Phase::Instant => "i",
    }
}

/// Category distinguishing counters from gauges on re-import (both share
/// phase letter `C`).
fn cat_label(p: Phase) -> &'static str {
    match p {
        Phase::Begin | Phase::End => "span",
        Phase::Counter(_) => "counter",
        Phase::Gauge(_) => "gauge",
        Phase::Instant => "instant",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        let noop = NoopRecorder;
        assert!(!noop.enabled());
        // Convenience methods are no-ops (nothing to observe — this is
        // exactly the point); they must simply not panic.
        noop.span("t", "s", 0, 5);
        noop.counter("t", "c", 1, 2);
        noop.instant("t", "i", 3);
    }

    #[test]
    fn buffer_records_in_call_order() {
        let buf = TraceBuffer::new();
        assert!(buf.is_empty());
        buf.span_begin("a", "s", 0);
        buf.counter("b", "c", 1, 10);
        buf.gauge("b", "g", 2, 3);
        buf.instant("a", "mark", 3);
        buf.span_end("a", "s", 4);
        let evs = buf.events();
        assert_eq!(buf.len(), 5);
        assert_eq!(evs[0].phase, Phase::Begin);
        assert_eq!(evs[1].phase, Phase::Counter(10));
        assert_eq!(evs[2].phase, Phase::Gauge(3));
        assert_eq!(evs[3].phase, Phase::Instant);
        assert_eq!(evs[4].phase, Phase::End);
        assert_eq!(evs[4].ts, 4);
    }

    /// Workers recording into one buffer at once lose no event, and
    /// each worker's track keeps its call order.
    #[test]
    fn concurrent_recording_loses_no_events() {
        const WORKERS: usize = 8;
        const EVENTS: u64 = 2000;
        let buf = TraceBuffer::new();
        let start = std::sync::Barrier::new(WORKERS);
        std::thread::scope(|s| {
            for t in 0..WORKERS {
                let (buf, start) = (&buf, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..EVENTS {
                        buf.instant(&format!("track{t}"), "tick", i);
                    }
                });
            }
        });
        assert_eq!(buf.len(), WORKERS * EVENTS as usize, "an event was lost");
        let events = buf.events();
        for t in 0..WORKERS {
            let track = format!("track{t}");
            let ts: Vec<u64> = events
                .iter()
                .filter(|e| e.track == track)
                .map(|e| e.ts)
                .collect();
            assert_eq!(
                ts,
                (0..EVENTS).collect::<Vec<_>>(),
                "{track} order scrambled"
            );
        }
    }

    #[test]
    fn filter_splits_domains() {
        let buf = TraceBuffer::new();
        buf.span("stage:x", "service", 0, 9);
        buf.span("eval:y", "layer", 100, 200);
        let sim = buf.filter(|e| e.track.starts_with("stage:"));
        assert_eq!(sim.len(), 2);
        assert!(sim.events().iter().all(|e| e.track == "stage:x"));
    }

    #[test]
    fn prefix_recorder_namespaces_tracks() {
        let buf = std::sync::Arc::new(TraceBuffer::new());
        let wrapped = PrefixRecorder::new(buf.clone(), "pipe:Morph/c3d/");
        assert!(wrapped.enabled());
        wrapped.span("stage:0:conv1", "service", 0, 4);
        let evs = buf.events();
        assert!(evs
            .iter()
            .all(|e| e.track == "pipe:Morph/c3d/stage:0:conv1"));
        // A disabled inner recorder disables the wrapper's gates too.
        let off = PrefixRecorder::new(std::sync::Arc::new(NoopRecorder), "x/");
        assert!(!off.enabled());
    }

    #[test]
    fn perfetto_document_shape() {
        let buf = TraceBuffer::new();
        buf.span_begin("stage:conv", "service", 5);
        buf.span_end("stage:conv", "service", 15);
        let doc = buf.to_perfetto(Some((0, 20)));
        let evs = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        // One thread_name metadata record plus the two span edges.
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].get("ph").and_then(Value::as_str), Some("M"));
        assert_eq!(evs[1].get("ph").and_then(Value::as_str), Some("B"));
        assert_eq!(evs[2].get("ph").and_then(Value::as_str), Some("E"));
        assert_eq!(evs[1].get("tid"), evs[2].get("tid"));
        let bounds = doc.get("morph_bounds").and_then(Value::as_arr).unwrap();
        assert_eq!(bounds[0].as_u64(), Some(0));
        assert_eq!(bounds[1].as_u64(), Some(20));
    }

    /// Deterministic xorshift generator for the seeded round-trip test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn seeded_roundtrip_through_morph_json() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let buf = TraceBuffer::new();
        let tracks = ["stage:a", "edge:0->1", "search:x", "eval:Morph#0"];
        // Keep per-track span stacks balanced so the sample is also a
        // valid input for the audit pass downstream.
        let mut open: Vec<Vec<String>> = vec![Vec::new(); tracks.len()];
        let mut clock = 0u64;
        for i in 0..200 {
            let t = (rng.next() % tracks.len() as u64) as usize;
            clock += rng.next() % 17;
            match rng.next() % 5 {
                0 => {
                    let name = format!("span{}", i % 7);
                    buf.span_begin(tracks[t], &name, clock);
                    open[t].push(name);
                }
                1 => {
                    if let Some(name) = open[t].pop() {
                        buf.span_end(tracks[t], &name, clock);
                    }
                }
                2 => buf.counter(tracks[t], "count", clock, i),
                3 => buf.gauge(tracks[t], "level", clock, rng.next() % 9),
                _ => buf.instant(tracks[t], "mark", clock),
            }
        }
        for (t, stack) in open.iter_mut().enumerate() {
            while let Some(name) = stack.pop() {
                clock += 1;
                buf.span_end(tracks[t], &name, clock);
            }
        }

        let text = buf.to_perfetto_string(Some((0, clock)));
        let (back, bounds) = TraceBuffer::from_perfetto_str(&text).unwrap();
        assert_eq!(back.events(), buf.events());
        assert_eq!(bounds, Some((0, clock)));
        // And the export of the re-import is byte-identical.
        assert_eq!(back.to_perfetto_string(bounds), text);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(TraceBuffer::from_perfetto_str("{}").is_err());
        assert!(TraceBuffer::from_perfetto_str("not json").is_err());
        // An event referencing a tid with no thread_name metadata.
        let text = r#"{"traceEvents": [
            {"ph": "B", "name": "s", "cat": "span", "ts": 0, "pid": 1, "tid": 9}
        ]}"#;
        assert!(TraceBuffer::from_perfetto_str(text).is_err());
    }
}
