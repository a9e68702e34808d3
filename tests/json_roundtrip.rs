//! Round-trip property of the vendored JSON layer every checkpoint,
//! outcome file and journal line goes through: for arbitrary value trees
//! with arbitrary Unicode strings, `parse(to_string(v)) == v` and
//! `parse(to_string_pretty(v)) == v`, and re-rendering the parsed value
//! reproduces the text byte for byte.
//!
//! Seeded per test name with a fixed case count (vendored proptest), so
//! every run sees the same trees.

use proptest::prelude::*;
use proptest::TestRng;
use serde_json::{Map, Number, Value};

/// One string character, drawn from classes that stress the escaper and
/// the parser's plain-run scan: control characters, `"` and `\`, ASCII,
/// and 2-, 3- and 4-byte UTF-8 (non-BMP included).
fn arbitrary_char(rng: &mut TestRng) -> char {
    let code = match rng.below(0, 8) {
        0 => rng.below(0, 0x20) as u32,
        1 => [0x22, 0x5c, 0x2f, 0x7f][rng.below(0, 4) as usize],
        2 | 3 => rng.below(0x20, 0x7f) as u32,
        4 => rng.below(0x80, 0x800) as u32,
        5 => rng.below(0x800, 0x1_0000) as u32,
        _ => rng.below(0x1_0000, 0x11_0000) as u32,
    };
    // Surrogate code points are not chars; stand in the replacement char.
    char::from_u32(code).unwrap_or('\u{fffd}')
}

fn arbitrary_string(rng: &mut TestRng) -> String {
    let len = rng.below(0, 12);
    (0..len).map(|_| arbitrary_char(rng)).collect()
}

struct ArbitraryString;

impl Strategy for ArbitraryString {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        arbitrary_string(rng)
    }
}

/// Finite numbers only: JSON has no Inf/NaN (they render as `null`).
fn arbitrary_number(rng: &mut TestRng) -> Number {
    match rng.below(0, 4) {
        0 => Number::PosInt(rng.next_u64()),
        1 => Number::NegInt(i64::MIN + rng.below(0, i64::MAX as u64) as i64),
        2 => Number::Float((rng.unit() - 0.5) * 1e6),
        _ => {
            let f = f64::from_bits(rng.next_u64());
            Number::Float(if f.is_finite() { f } else { 0.0 })
        }
    }
}

/// An arbitrary JSON value tree at most `depth` containers deep.
struct ArbitraryValue {
    depth: u32,
}

impl Strategy for ArbitraryValue {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        match rng.below(0, kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(0, 2) == 1),
            2 => Value::Number(arbitrary_number(rng)),
            3 => Value::String(arbitrary_string(rng)),
            kind => {
                let inner = ArbitraryValue {
                    depth: self.depth - 1,
                };
                let n = rng.below(0, 5);
                if kind == 4 {
                    Value::Array((0..n).map(|_| inner.sample(rng)).collect())
                } else {
                    let map: Map = (0..n)
                        .map(|_| (arbitrary_string(rng), inner.sample(rng)))
                        .collect();
                    Value::Object(map)
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn compact_text_round_trips(v in ArbitraryValue { depth: 4 }) {
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).map_err(|e| format!("{e}: {text}"))?;
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn pretty_text_round_trips(v in ArbitraryValue { depth: 4 }) {
        let text = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&text).map_err(|e| format!("{e}: {text}"))?;
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);
    }

    #[test]
    fn strings_round_trip_inside_long_runs(s in ArbitraryString, pad in 0usize..300) {
        // A string next to long plain runs on both sides, as in a
        // checkpoint's journal-prefix fields.
        let long = format!("{}{s}{}", "x".repeat(pad), "é".repeat(pad));
        let v = Value::Array(vec![Value::String(long), Value::String(s)]);
        let back: Value = serde_json::from_str(&serde_json::to_string(&v).unwrap())
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(back, v);
    }
}
