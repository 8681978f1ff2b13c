//! Round-trip property of the one JSON path: whatever the writer renders,
//! the strict parser reads back to the same value, in both layouts.

use chc_telemetry::Json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Characters that stress the string escaper: quotes, backslashes, every
/// control character class, a slash, non-ASCII and an astral code point.
const TRICKY: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{8}', '/', 'a', 'é', '😀',
];

fn string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..8usize))
        .map(|_| TRICKY[rng.gen_range(0..TRICKY.len())])
        .collect()
}

fn number(rng: &mut StdRng) -> Json {
    match rng.gen_range(0..6u32) {
        0 => Json::from(u64::MAX),
        1 => Json::from(i64::MIN),
        2 => Json::from(rng.gen::<u64>() as i64),
        // Negative, exponent-sized and tiny floats.
        3 => Json::from(-(rng.gen::<u64>() as f64) / 7.0),
        4 => Json::from(rng.gen::<u64>() as f64 * 1e280),
        _ => Json::from(rng.gen::<u64>() as f64 * 1e-300),
    }
}

fn value(rng: &mut StdRng, depth: u32) -> Json {
    let leaf = depth >= 4 || rng.gen_range(0..3u32) == 0;
    match rng.gen_range(0..if leaf { 4u32 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen::<u64>() & 1 == 1),
        2 => number(rng),
        3 => Json::Str(string(rng)),
        4 => Json::Array(
            (0..rng.gen_range(0..5usize))
                .map(|_| value(rng, depth + 1))
                .collect(),
        ),
        // Keys are unique per object: the parser rejects duplicates.
        _ => Json::Object(
            (0..rng.gen_range(0..5usize))
                .map(|i| (format!("{i}{}", string(rng)), value(rng, depth + 1)))
                .collect(),
        ),
    }
}

proptest! {
    #[test]
    fn parse_inverts_render_on_nested_values(seed in any::<u64>()) {
        let v = value(&mut StdRng::seed_from_u64(seed), 0);
        prop_assert_eq!(Json::parse(&v.render()), Ok(v.clone()));
        prop_assert_eq!(Json::parse(&v.render_lines()), Ok(v.clone()));
        prop_assert!(!v.render().contains('\n'), "compact render is one line");
    }
}
