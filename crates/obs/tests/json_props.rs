//! Property-based tests for the JSON layer every front end reads
//! untrusted text with: `Json::parse` returns — a value or an error —
//! on any input, and reads back exactly what the writer emits.

use proptest::prelude::*;
use proptest::TestRng;
use snap_obs::json::{Json, MAX_DEPTH};

/// Strategy for a value tree of at most this many container levels.
/// Numbers are integers and halves (both written and re-read exactly);
/// strings mix ASCII, escapes, control characters and multi-byte
/// characters.
#[derive(Clone, Copy)]
struct Value(u32);

fn text(rng: &mut TestRng) -> String {
    const ALPHABET: [char; 10] = ['a', 'Z', ' ', '"', '\\', '\n', '\u{1}', 'é', '→', '𝄞'];
    let picks = prop::collection::vec(0usize..ALPHABET.len(), 0usize..12).generate(rng);
    picks.into_iter().map(|i| ALPHABET[i]).collect()
}

impl Strategy for Value {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        let leaf_only = self.0 == 0;
        match (0u32..if leaf_only { 4 } else { 6 }).generate(rng) {
            0 => Json::Null,
            1 => Json::Bool((0u32..2).generate(rng) == 1),
            2 => Json::Num((-2_000_000i64..2_000_000).generate(rng) as f64 / 2.0),
            3 => Json::Str(text(rng)),
            4 => Json::Arr(prop::collection::vec(Value(self.0 - 1), 0usize..4).generate(rng)),
            _ => {
                let members = prop::collection::vec(Value(self.0 - 1), 0usize..4).generate(rng);
                Json::Obj(members.into_iter().map(|v| (text(rng), v)).collect())
            }
        }
    }
}

proptest! {
    /// Arbitrary bytes, read the way a front end would hand them over
    /// (lossily decoded), parse to a value or an error — never a panic.
    #[test]
    fn parse_returns_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..255, 0usize..256)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// The same with bytes drawn from JSON's own alphabet, which reaches
    /// far deeper into the parser than uniform noise does.
    #[test]
    fn parse_returns_on_json_shaped_noise(picks in prop::collection::vec(0usize..16, 0usize..96)) {
        const TOKENS: [&str; 16] = [
            "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d83d", "1", "-", "e", ".", "null", "é",
        ];
        let doc: String = picks.into_iter().map(|i| TOKENS[i]).collect();
        let _ = Json::parse(&doc);
    }

    /// A prefix of `depth` opening brackets is an error for every depth —
    /// unclosed below the cap, too deep above it — and never a stack
    /// overflow.
    #[test]
    fn deep_prefixes_are_errors(depth in 1usize..200_000, brace in 0u32..2) {
        let open = if brace == 1 { "{\"k\":" } else { "[" };
        let err = Json::parse(&open.repeat(depth)).unwrap_err();
        prop_assert_eq!(err.message == "nesting too deep", depth > MAX_DEPTH);
    }

    /// What the writer emits, the parser reads back unchanged.
    #[test]
    fn parse_inverts_to_string_compact(x in Value(4)) {
        let written = x.to_string_compact();
        prop_assert_eq!(Json::parse(&written), Ok(x), "{}", written);
    }
}
