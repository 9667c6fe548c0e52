//! Property tests for the hand-rolled JSON emitter/parser: everything the
//! emitter produces parses back to the same value, string escaping is
//! lossless for arbitrary Unicode (including control characters), the
//! NaN/Infinity policy degrades to `null`, and the parser never panics on
//! arbitrary input.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::let_underscore_must_use)]

use minispark::Json;
use proptest::prelude::*;

/// Arbitrary JSON values: scalars at the leaves, arrays/objects recursively.
/// Floats are filtered to finite values — non-finite ones are deliberately
/// not representable in the output (they render as `null`).
fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<f64>().prop_filter_map("finite floats only", |f| {
            f.is_finite().then_some(Json::Num(f))
        }),
        any::<String>().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Arr),
            proptest::collection::vec((any::<String>(), inner), 0..6).prop_map(Json::Obj),
        ]
    })
}

proptest! {
    #[test]
    fn emitted_documents_parse_back_to_the_same_value(value in json_strategy()) {
        let text = value.render();
        let parsed = Json::parse(&text).expect("emitted JSON must parse");
        prop_assert_eq!(parsed, value);
    }

    #[test]
    fn strings_round_trip_losslessly(s in any::<String>()) {
        // Arbitrary Unicode, including control characters, quotes and
        // backslashes — everything must survive escape + unescape.
        let text = Json::Str(s.clone()).render();
        let parsed = Json::parse(&text).expect("escaped string must parse");
        prop_assert_eq!(parsed, Json::Str(s));
    }

    #[test]
    fn finite_floats_round_trip_exactly(f in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
        let text = Json::Num(f).render();
        let parsed = Json::parse(&text).expect("rendered float must parse");
        prop_assert_eq!(parsed, Json::Num(f));
    }

    #[test]
    fn non_finite_floats_render_null(bits in any::<u64>()) {
        let f = f64::from_bits(bits);
        if !f.is_finite() {
            prop_assert_eq!(Json::Num(f).render(), "null");
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in any::<String>()) {
        // The result does not matter — only that it is a Result.
        let _ = Json::parse(&s);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_bytes_shaped_as_json(
        s in "[\\[\\]{}\",:0-9eE+\\-. \\\\unlrtf]{0,64}"
    ) {
        // Inputs drawn from JSON's own alphabet hit the deeper parser paths
        // (escapes, numbers, nesting) more often than fully random strings.
        let _ = Json::parse(&s);
    }
}
