//! Canonical digests of session output, so a run's results can be
//! compared with the ones recorded in `perfbench/expected.json`.
//!
//! A run's digest covers its layer decisions, cycle/energy totals, search
//! stats and pipeline section. `cache_hits` is left out: which pair of a
//! session hits the decision store first depends on the order backends
//! and networks were added in, which the workload seed permutes.

use morph_core::NetworkRun;
use morph_json::{ToJson, Value};
use std::fmt::Write as _;

/// The field of a serialized run that depends on session order, not
/// results.
const ORDER_DEPENDENT: &str = "cache_hits";

/// Canonical compact text of a JSON value: object keys sorted (the
/// `morph-json` object map keeps them sorted), floats in Rust's shortest
/// round-trip form, no whitespace.
pub fn canonical(v: &Value) -> String {
    let mut out = String::new();
    write_canonical(v, &mut out);
    out
}

fn write_canonical(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        // `-0.0` and `0.0` compare equal and must digest equal too.
        Value::Float(f) if *f == 0.0 => out.push_str("0.0"),
        Value::Float(f) => {
            let _ = write!(out, "{f:?}");
        }
        Value::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k:?}:");
                write_canonical(item, out);
            }
            out.push('}');
        }
    }
}

/// 64-bit FNV-1a hash of `text`, as 16 hex digits.
pub fn fnv1a_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a run's serialized form with the order-dependent fields
/// removed.
pub fn digest_value(run: &Value) -> String {
    let mut v = run.clone();
    if let Value::Obj(map) = &mut v {
        map.remove(ORDER_DEPENDENT);
    }
    fnv1a_hex(&canonical(&v))
}

/// Digest of one (backend, network) run.
pub fn digest(run: &NetworkRun) -> String {
    digest_value(&run.to_json())
}

/// The key a run's expected digest is recorded under.
pub fn run_key(run: &NetworkRun) -> String {
    format!("{}/{}", run.backend, run.network)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cache_hits: i64, energy: f64) -> Value {
        Value::obj([
            ("backend", Value::Str("Morph".into())),
            ("cache_hits", Value::Int(cache_hits)),
            (
                "total",
                Value::obj([("dram_pj", Value::Float(energy)), ("cycles", Value::Int(7))]),
            ),
            ("pipeline", Value::Null),
        ])
    }

    #[test]
    fn canonical_text_is_compact_and_sorted() {
        let v = Value::obj([
            ("b", Value::Arr(vec![Value::Int(1), Value::Bool(false)])),
            ("a", Value::Float(0.1)),
            ("c", Value::Str("x\"y".into())),
        ]);
        assert_eq!(canonical(&v), r#"{"a":0.1,"b":[1,false],"c":"x\"y"}"#);
    }

    #[test]
    fn key_insertion_order_does_not_matter() {
        let forward = Value::obj([("x", Value::Int(1)), ("y", Value::Int(2))]);
        let backward = Value::obj([("y", Value::Int(2)), ("x", Value::Int(1))]);
        assert_eq!(digest_value(&forward), digest_value(&backward));
    }

    #[test]
    fn cache_hits_are_excluded() {
        assert_eq!(digest_value(&run(0, 1.5)), digest_value(&run(33, 1.5)));
    }

    #[test]
    fn any_result_change_moves_the_digest() {
        let base = digest_value(&run(0, 1.5));
        assert_ne!(base, digest_value(&run(0, 1.5000000000000002)));
        assert_ne!(base, digest_value(&run(0, 2.5)));
        assert_eq!(digest_value(&run(0, 0.0)), digest_value(&run(0, -0.0)));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
    }
}
