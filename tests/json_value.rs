//! Property tests of the vendored JSON layer: render → parse → render is
//! a byte-level fixpoint over the full [`Value`] space — nested arrays and
//! objects, strings spanning ASCII controls, escapes, and every Unicode
//! plane, and floats across the finite `f64` range.
//!
//! Two subtleties make the *render-level* fixpoint the right property:
//!
//! * An integral float renders without `.` or `e` (`3.0` → `"3"`), so a
//!   re-parse yields `Value::Int` — value-level equality is only required
//!   of float-free documents, and is asserted for exactly those.
//! * Rust's `{}` float formatting is shortest-round-trip, so the second
//!   render of any parsed number reproduces the first exactly.

use proptest::prelude::*;

use regpipe::exec::json::{parse, Value};

/// Characters chosen to stress the escape and Unicode paths: the
/// mandatory JSON escapes, ASCII controls (escaped as `\u00xx`), the BMP
/// edges around the surrogate range, and supplementary-plane characters
/// (which a `\u` escape can only express as surrogate pairs).
const PALETTE: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{1}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '中',
    '\u{2028}',
    '\u{d7ff}',
    '\u{e000}',
    '\u{fffd}',
    '😀',
    '\u{10000}',
    '\u{10ffff}',
];

/// A tiny deterministic generator (xorshift) so a whole nested document
/// derives from one proptest-supplied seed.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn string_from(state: &mut u64) -> String {
    let len = (next(state) % 12) as usize;
    (0..len).map(|_| PALETTE[(next(state) as usize) % PALETTE.len()]).collect()
}

fn float_from(state: &mut u64) -> f64 {
    match next(state) % 4 {
        // Integral floats: the render-as-"3" aliasing case.
        0 => (next(state) % 1000) as f64 - 500.0,
        // Small fractions with exact binary representations and not.
        1 => (next(state) % 1000) as f64 / 8.0,
        2 => (next(state) % 1_000_000) as f64 / 7.0,
        // The whole finite range via raw bits.
        _ => {
            let x = f64::from_bits(next(state));
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }
    }
}

/// One arbitrary value of bounded depth; `floats` gates `Value::Num`.
fn value_from(state: &mut u64, depth: u32, floats: bool) -> Value {
    let scalar_kinds = if floats { 5 } else { 4 };
    let kinds = if depth == 0 { scalar_kinds } else { scalar_kinds + 2 };
    let r = next(state) % kinds;
    // Kind slots: 0..4 scalars, 4 float, 5 array, 6 object; without
    // floats the draw skips the float slot.
    let kind = if !floats && r >= 4 { r + 1 } else { r };
    match kind {
        0 => Value::Null,
        1 => Value::Bool(next(state).is_multiple_of(2)),
        2 => Value::Int(next(state) as i64 >> (next(state) % 48)),
        3 => Value::Str(string_from(state)),
        4 => Value::Num(float_from(state)),
        5 => {
            let n = (next(state) % 4) as usize;
            Value::Array((0..n).map(|_| value_from(state, depth - 1, floats)).collect())
        }
        _ => {
            let n = (next(state) % 4) as usize;
            Value::Object(
                (0..n)
                    .map(|_| (string_from(state), value_from(state, depth - 1, floats)))
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline property: render → parse → render is byte-stable for
    /// *any* value, floats included.
    #[test]
    fn render_parse_render_is_a_byte_fixpoint(seed in any::<u64>()) {
        let mut state = seed | 1;
        let v = value_from(&mut state, 3, true);
        let first = v.render();
        let reparsed = parse(&first)
            .unwrap_or_else(|e| panic!("rendered JSON must parse: {e}\n{first}"));
        let second = reparsed.render();
        prop_assert_eq!(&first, &second, "render/parse/render drifted");
    }

    /// Without floats there is no `Int`/`Num` aliasing, so the round trip
    /// is exact at the value level, not just the byte level.
    #[test]
    fn parse_inverts_render_for_float_free_documents(seed in any::<u64>()) {
        let mut state = seed | 1;
        let v = value_from(&mut state, 3, false);
        let text = v.render();
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("rendered JSON must parse: {e}\n{text}"));
        prop_assert_eq!(reparsed, v);
    }

    /// Strings round-trip exactly — including quotes, backslashes,
    /// controls, and supplementary-plane characters.
    #[test]
    fn strings_round_trip_exactly(seed in any::<u64>()) {
        let mut state = seed | 1;
        let s = string_from(&mut state);
        let v = Value::Str(s.clone());
        let text = v.render();
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("rendered string must parse: {e}\n{text}"));
        prop_assert_eq!(reparsed.as_str(), Some(s.as_str()));
    }

    /// Finite floats survive a full round trip with their exact bit
    /// pattern (shortest-round-trip rendering), possibly re-typed as Int.
    #[test]
    fn finite_floats_keep_their_value(seed in any::<u64>()) {
        let mut state = seed | 1;
        let x = float_from(&mut state);
        let text = Value::Num(x).render();
        let back = parse(&text).unwrap().as_f64().expect("number parses as a number");
        prop_assert!(back == x || (back == 0.0 && x == 0.0), "{} -> {} -> {}", x, text, back);
    }
}

/// Every palette character survives being written as explicit `\uXXXX`
/// escapes (UTF-16, so supplementary characters become surrogate pairs)
/// and being rendered natively.
#[test]
fn escaped_and_native_spellings_agree_for_the_whole_palette() {
    for &c in PALETTE {
        let mut escaped = String::from('"');
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            escaped.push_str(&format!("\\u{:04x}", unit));
        }
        escaped.push('"');
        let via_escape =
            parse(&escaped).unwrap_or_else(|e| panic!("U+{:04X} as {escaped}: {e}", c as u32));
        assert_eq!(via_escape.as_str(), Some(c.to_string().as_str()), "escaped {escaped}");

        let native = Value::Str(c.to_string()).render();
        let via_native = parse(&native).unwrap();
        assert_eq!(via_native, via_escape, "U+{:04X}: native {native} vs {escaped}", c as u32);
    }
}
