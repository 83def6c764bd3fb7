//! Property tests on the parser, over seeded pseudo-random documents:
//! `pretty` then `parse` returns the tree bit for bit, and no prefix of a
//! valid document parses or panics.

use morph_json::Value;
use std::collections::BTreeMap;

/// xorshift64*: this crate sits below the workspace's shared generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A string mixing ASCII, multi-byte characters (2, 3 and 4 bytes), the
/// characters the writer escapes, and other control characters.
fn arb_string(rng: &mut Rng) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', ' ', '/', '{', ']', ',', ':', 'é', 'ß', '€', '中', '𝄞', '😀', '"', '\\',
        '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
    ];
    (0..rng.below(12))
        .map(|_| POOL[rng.below(POOL.len())])
        .collect()
}

/// A finite float: an extreme, a subnormal, a signed zero or random bits.
fn arb_float(rng: &mut Rng) -> f64 {
    const EXTREMES: [f64; 9] = [
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        -0.0,
        0.0,
        1.0,
        0.1,
        -1.0e-300,
    ];
    if rng.below(2) == 0 {
        return EXTREMES[rng.below(EXTREMES.len())];
    }
    loop {
        let f = f64::from_bits(rng.next());
        if f.is_finite() {
            return f;
        }
    }
}

fn arb_value(rng: &mut Rng, depth: usize) -> Value {
    let leaf = depth == 0 || rng.below(3) == 0;
    match rng.below(if leaf { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(match rng.below(4) {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => rng.next() as i64,
        }),
        3 => Value::Float(arb_float(rng)),
        4 => Value::Str(arb_string(rng)),
        5 => Value::Arr(
            (0..rng.below(5))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.below(5))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A chain of `depth` nested single-entry arrays and objects around `leaf`.
fn nest(rng: &mut Rng, depth: usize, leaf: Value) -> Value {
    (0..depth).fold(leaf, |inner, _| {
        if rng.below(2) == 0 {
            Value::Arr(vec![inner])
        } else {
            Value::Obj(BTreeMap::from([(arb_string(rng), inner)]))
        }
    })
}

/// Tree equality with floats compared bit for bit (so `-0.0 != 0.0`).
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Arr(x), Value::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Value::Obj(x), Value::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, a), (kb, b))| ka == kb && same(a, b))
        }
        _ => a == b,
    }
}

/// Random trees, and deeply nested chains, round-trip through `pretty`
/// and `parse` bit for bit.
#[test]
fn pretty_then_parse_round_trips() {
    let mut rng = Rng(0x0150_4E5E_ED00_0001);
    for i in 0..400 {
        let v = if i % 8 == 0 {
            let leaf = arb_value(&mut rng, 2);
            let depth = 1 + rng.below(128);
            nest(&mut rng, depth, leaf)
        } else {
            arb_value(&mut rng, 5)
        };
        let text = v.pretty();
        let back = Value::parse(&text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
        assert!(same(&v, &back), "{text}");
    }
}

/// Every proper prefix of a valid document (cut at each character
/// boundary) returns a typed error at an offset within the prefix, and
/// never panics.
#[test]
fn truncated_documents_return_typed_errors() {
    let mut rng = Rng(0x7E0C_A7ED_0000_0002);
    for _ in 0..24 {
        let v = match rng.below(2) {
            0 => Value::Arr((0..4).map(|_| arb_value(&mut rng, 3)).collect()),
            _ => Value::Obj(
                (0..4)
                    .map(|_| (arb_string(&mut rng), arb_value(&mut rng, 3)))
                    .collect(),
            ),
        };
        let pretty = v.pretty();
        let text = pretty.trim_end();
        for (cut, _) in text.char_indices() {
            let prefix = &text[..cut];
            match Value::parse(prefix) {
                Ok(parsed) => panic!("prefix {prefix:?} parsed as {parsed:?}"),
                Err(e) => assert!(e.at <= prefix.len(), "{e} past the end of {prefix:?}"),
            }
        }
        assert!(same(&Value::parse(text).expect("whole document"), &v));
    }
}
