//! # morph-json
//!
//! A small, dependency-free JSON substrate for the Morph reproduction's
//! serializable reports. The workspace builds fully offline, so instead of
//! serde this crate provides:
//!
//! * [`Value`] — a JSON document tree,
//! * a strict parser ([`Value::parse`]) and a pretty writer
//!   ([`Value::pretty`]),
//! * the [`ToJson`] / [`FromJson`] traits that report types across the
//!   workspace implement.
//!
//! Numbers are kept in two lossless lanes: integers ride [`Value::Int`]
//! (i64, covering every counter the models emit) and floats ride
//! [`Value::Float`], written with Rust's shortest-round-trip formatting so
//! `parse(pretty(v)) == v` holds bit-exactly for every report.
//!
//! ```
//! use morph_json::{Value, ToJson, FromJson};
//!
//! let v = Value::parse(r#"{"cycles": 42, "energy": 1.5, "tags": ["a"]}"#).unwrap();
//! assert_eq!(v.get("cycles").and_then(Value::as_i64), Some(42));
//! let round = Value::parse(&v.pretty()).unwrap();
//! assert_eq!(v, round);
//! ```
//!
//! ## Report schemas
//!
//! The top-level document the workspace persists is `morph-core`'s
//! `RunReport` (`experiments_out/*.json`, merged into `bench.json`). Its
//! `schema` stamp is currently **6**, and the reader rejects every
//! other stamp: nothing writes the older shapes any more. The history:
//!
//! * v1 — `{schema, runs: [{backend, network, objective, cache_hits,
//!   layers: [{name, shape, decision, report}], total}]}`.
//! * v2 — each run additionally carries `pipeline`: `null`, or the
//!   `morph-pipeline` crate's `PipelineReport` with the cross-layer
//!   streaming schedule: `{mode: "analytic" | "rebalanced", frames,
//!   clock_hz, makespan_cycles, fill_cycles, drain_cycles, steady_fps,
//!   serial_fps, bottleneck, stages: [{name, service_cycles,
//!   base_service_cycles, rebalanced, utilization, blocked_cycles,
//!   out_capacity, max_occupancy, mean_occupancy}]}`. Cycle counts and
//!   capacities are `Int`; throughputs, utilization and mean occupancy
//!   are `Float`.
//! * v3 — networks are graph-native. Each run gains `edges`: an array of
//!   `[producer, consumer]` index pairs into `layers` — the conv-level
//!   dependency DAG (a chain serializes as `[[0,1],[1,2],…]`; Inception
//!   modules, residual bypasses and parallel streams carry their real
//!   fork/join structure). The `pipeline` section schedules that DAG:
//!   per-stage channel fields move to a top-level `edges` array
//!   (`[{from, to, capacity, max_occupancy, mean_occupancy}]`, one entry
//!   per dependency edge), and two branch-parallel baseline fields are
//!   added — `chain_fps` / `chain_fill_cycles` (`Float` / `Int`), the
//!   steady throughput and fill latency of the same services scheduled
//!   as a linearized chain (the pre-DAG pipeline model).
//! * v4 — schedules are allocation-aware. Each pipeline stage records
//!   `clusters` (`Int`, the compute-cluster share it is scheduled on);
//!   the pipeline section gains `energy_per_frame_pj` / `peak_power_mw`
//!   (`Float` — one frame's energy across all stages, and the hottest
//!   concurrently-live stage group's power); `mode` additionally accepts
//!   the structured form `{"kind": "pareto", "power_cap_mw": Int}` for a
//!   capped sweep (uncapped modes stay plain strings, including
//!   `"dag_rebalanced"` and `"pareto"`); and Pareto sweeps attach
//!   `pareto`: `{power_cap_mw: Int | null, candidates, points:
//!   [{clusters: [Int], steady_fps, energy_per_frame_pj,
//!   peak_power_mw}]}` — the non-dominated allocation frontier, fastest
//!   point first.
//! * v5 — runs record the mapping search behind their decisions. Each
//!   run gains `search`: `null`, or `{enumerated, bound_pruned, costed}`
//!   (`Int` counters from `morph-optimizer`'s `SearchStats`) — the
//!   candidates the branch-and-bound stream generated, the ones its
//!   admissible bounds skipped, and the ones fully costed, summed over
//!   the run's distinct layer shapes. Fixed-dataflow backends (nothing
//!   searched) write `null`.
//! * v6 — pipeline stall time is broken out by cause. Each pipeline
//!   stage gains `starved_cycles` (`Int` — cycles blocked on an
//!   **empty** input channel) alongside the existing `blocked_cycles`
//!   (blocked on a **full** output channel). Trace timelines are
//!   deliberately **not** part of this schema: `morph-trace` writes them
//!   as standalone Chrome `trace_event`/Perfetto sidecar documents
//!   (`experiments_out/trace_*.json`) because their session domain runs
//!   on a nondeterministic wall clock, while `RunReport` documents stay
//!   bit-reproducible.
//!
//! `crates/bench/baseline.json` (the `bench_diff` perf gate) is a
//! separate, deliberately compact summary: `{baseline_schema: 1,
//! report_schema, entries: [{backend, network, objective, occurrence,
//! cycles, total_pj}]}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (every counter in the models fits i64).
    Int(i64),
    /// A finite double (non-finite values serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are sorted for deterministic output.
    Obj(BTreeMap<String, Value>),
}

/// Error from [`Value::parse`]: byte offset + typed cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The typed cause of a [`ParseError`] — callers (e.g. the report audit)
/// can match on the class of malformation instead of scraping prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// A specific punctuation byte was required (`{`, `:`, …).
    Expected(char),
    /// One of the literal keywords `true` / `false` / `null` was cut off
    /// or misspelled.
    ExpectedKeyword(&'static str),
    /// A byte that cannot start any JSON value.
    UnexpectedCharacter(char),
    /// Input ended where a value was required.
    UnexpectedEnd,
    /// Bytes remain after the single top-level document.
    TrailingCharacters,
    /// Object continuation was neither `,` nor `}`.
    ExpectedObjectSeparator,
    /// Array continuation was neither `,` nor `]`.
    ExpectedArraySeparator,
    /// Input ended inside a string literal.
    UnterminatedString,
    /// Input ended right after a backslash.
    UnterminatedEscape,
    /// A `\u` escape with fewer than four hex digits.
    TruncatedUnicodeEscape,
    /// A `\u` escape whose four characters are not hex.
    InvalidUnicodeEscape,
    /// A `\u` escape naming a non-scalar code point (surrogate).
    InvalidUnicodeScalar,
    /// A backslash escape this dialect does not define.
    UnknownEscape,
    /// The input is not valid UTF-8 inside a string literal.
    InvalidUtf8,
    /// A float literal `f64::from_str` rejects.
    BadFloat,
    /// An integer literal `i64::from_str` rejects (including overflow).
    BadInt,
}

impl std::fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseErrorKind::Expected(c) => write!(f, "expected {c:?}"),
            ParseErrorKind::ExpectedKeyword(w) => write!(f, "expected {w:?}"),
            ParseErrorKind::UnexpectedCharacter(c) => write!(f, "unexpected character {c:?}"),
            ParseErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseErrorKind::TrailingCharacters => {
                write!(f, "trailing characters after document")
            }
            ParseErrorKind::ExpectedObjectSeparator => {
                write!(f, "expected ',' or '}}' in object")
            }
            ParseErrorKind::ExpectedArraySeparator => {
                write!(f, "expected ',' or ']' in array")
            }
            ParseErrorKind::UnterminatedString => write!(f, "unterminated string"),
            ParseErrorKind::UnterminatedEscape => write!(f, "unterminated escape"),
            ParseErrorKind::TruncatedUnicodeEscape => write!(f, "truncated \\u escape"),
            ParseErrorKind::InvalidUnicodeEscape => write!(f, "invalid \\u escape"),
            ParseErrorKind::InvalidUnicodeScalar => write!(f, "invalid unicode scalar"),
            ParseErrorKind::UnknownEscape => write!(f, "unknown escape"),
            ParseErrorKind::InvalidUtf8 => write!(f, "invalid UTF-8"),
            ParseErrorKind::BadFloat => write!(f, "bad float literal"),
            ParseErrorKind::BadInt => write!(f, "bad integer literal"),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.kind)
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Field lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Integer view (also accepts floats with integral value).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(f as i64),
            _ => None,
        }
    }

    /// Unsigned view of [`Value::as_i64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// Float view (accepts integers).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    // Rust's shortest representation round-trips exactly.
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (strict: one value, only trailing whitespace).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err(ParseErrorKind::TrailingCharacters));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError { at: self.pos, kind }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(ParseErrorKind::Expected(b as char)))
        }
    }

    fn keyword(&mut self, word: &'static str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(ParseErrorKind::ExpectedKeyword(word)))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(ParseErrorKind::UnexpectedCharacter(c as char))),
            None => Err(self.err(ParseErrorKind::UnexpectedEnd)),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err(ParseErrorKind::ExpectedObjectSeparator)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err(ParseErrorKind::ExpectedArraySeparator)),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash as one slice. Both are ASCII, so the run ends on a
            // character boundary of the (already valid UTF-8) input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let plain = self
                .text
                .get(self.pos..self.pos + run)
                .ok_or_else(|| self.err(ParseErrorKind::InvalidUtf8))?;
            out.push_str(plain);
            self.pos += run;
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err(ParseErrorKind::UnterminatedString));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            // The run stopped at a backslash: one escape follows.
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err(self.err(ParseErrorKind::UnterminatedEscape));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000C}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| self.err(ParseErrorKind::TruncatedUnicodeEscape))?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| self.err(ParseErrorKind::InvalidUnicodeEscape))?;
                    self.pos += 4;
                    // Reports never emit surrogate pairs; reject them.
                    let ch = char::from_u32(code)
                        .ok_or_else(|| self.err(ParseErrorKind::InvalidUnicodeScalar))?;
                    out.push(ch);
                }
                _ => return Err(self.err(ParseErrorKind::UnknownEscape)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Every byte consumed above is ASCII (digits, sign, dot, e), so
        // the slice is valid UTF-8 by construction; fail typed anyway
        // rather than panic.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err(ParseErrorKind::InvalidUtf8))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(ParseErrorKind::BadFloat))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(ParseErrorKind::BadInt))
        }
    }
}

/// Serialize a report type into a [`Value`].
pub trait ToJson {
    /// Convert to a JSON tree.
    fn to_json(&self) -> Value;
}

/// Deserialize a report type from a [`Value`].
pub trait FromJson: Sized {
    /// Reconstruct from a JSON tree; errors describe the missing/ill-typed
    /// field path.
    fn from_json(v: &Value) -> Result<Self, String>;
}

/// Helper: fetch a field or report its absence.
pub fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Helper: fetch a u64 field.
pub fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a u64"))
}

/// Helper: fetch a usize field.
pub fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    Ok(field_u64(v, key)? as usize)
}

/// Helper: fetch an f64 field.
pub fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

/// Helper: fetch a string field.
pub fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

/// Helper: fetch an array field.
pub fn field_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

impl ToJson for u64 {
    fn to_json(&self) -> Value {
        Value::Int(*self as i64)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::Int(*self as i64)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_document() {
        let v = Value::parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": -2.5}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(-2.5));
        let arr = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
    }

    #[test]
    fn pretty_round_trips() {
        let v = Value::obj([
            ("name", Value::Str("Morph".into())),
            ("pi", Value::Float(std::f64::consts::PI)),
            ("tiny", Value::Float(1.0e-300)),
            ("count", Value::Int(i64::MAX)),
            (
                "nested",
                Value::Arr(vec![
                    Value::obj([("k", Value::Int(-7))]),
                    Value::Bool(false),
                ]),
            ),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::Obj(BTreeMap::default())),
        ]);
        let round = Value::parse(&v.pretty()).unwrap();
        assert_eq!(v, round);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [0.1, 1.0 / 3.0, 6.02214076e23, f64::MIN_POSITIVE, -0.0] {
            let v = Value::Float(f);
            let Value::Float(g) = Value::parse(v.pretty().trim()).unwrap() else {
                panic!("float did not parse back as float");
            };
            assert_eq!(f.to_bits(), g.to_bits(), "{f}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\":}",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t unicode\u{00e9}\u{0007}";
        let v = Value::Str(s.to_string());
        assert_eq!(Value::parse(v.pretty().trim()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn error_reports_offset() {
        let e = Value::parse("{\"a\": @}").unwrap_err();
        assert_eq!(e.at, 6);
        assert!(e.to_string().contains("byte 6"));
    }

    #[test]
    fn errors_carry_typed_kinds() {
        for (text, kind) in [
            ("tru", ParseErrorKind::ExpectedKeyword("true")),
            ("{\"a\": @}", ParseErrorKind::UnexpectedCharacter('@')),
            ("", ParseErrorKind::UnexpectedEnd),
            ("1 2", ParseErrorKind::TrailingCharacters),
            ("\"unterminated", ParseErrorKind::UnterminatedString),
            ("\"\\q\"", ParseErrorKind::UnknownEscape),
            ("\"\\u12\"", ParseErrorKind::TruncatedUnicodeEscape),
            ("\"\\uzzzz\"", ParseErrorKind::InvalidUnicodeEscape),
            ("\"\\ud800\"", ParseErrorKind::InvalidUnicodeScalar),
            ("{\"a\" 1}", ParseErrorKind::Expected(':')),
            ("[1 2]", ParseErrorKind::ExpectedArraySeparator),
            (
                "{\"a\": 1 \"b\": 2}",
                ParseErrorKind::ExpectedObjectSeparator,
            ),
            ("99999999999999999999", ParseErrorKind::BadInt),
            ("1e999e9", ParseErrorKind::BadFloat),
        ] {
            assert_eq!(Value::parse(text).unwrap_err().kind, kind, "input {text:?}");
        }
    }

    #[test]
    fn deterministic_key_order() {
        let a = Value::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let b = Value::parse(r#"{"a": 2, "z": 1}"#).unwrap();
        assert_eq!(a.pretty(), b.pretty());
    }
}
