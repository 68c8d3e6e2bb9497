//! Fuzz-shaped property tests for the `uwb_obs::json` error paths.
//!
//! The strict parser backs the telemetry schema gates, so its failure mode
//! matters as much as its success mode: malformed, truncated, and
//! duplicate-key inputs must **return `Err`** (or a well-formed value for
//! benign mutations) — never panic, never hang, never index out of bounds.

use proptest::prelude::*;
use uwb_obs::json::{escape, parse, Json};

/// ASCII-only seed corpus shaped like the documents the workspace actually
/// renders (telemetry reports, bench baselines, Chrome trace exports), so
/// truncation and mutation hit realistic parser states.
const SEEDS: &[&str] = &[
    r#"{"schema":"uwb-telemetry-v3","trials":100,"telemetry":{"stages":[{"name":"tx","calls":8,"ns":12345}],"events":[{"name":"crc_fail","count":2}],"quantiles":[{"name":"e","count":3,"sum":5,"p50":2,"p95":3,"p99":3,"max":3}]}}"#,
    r#"{"traceEvents":[{"name":"tx","cat":"uwb","ph":"X","ts":1.234,"dur":0.567,"pid":1,"tid":0,"args":{"trial":7}}]}"#,
    r#"{"kernels_us":{"a":10.0,"b":2.5e1},"throughput":{"tps":-1.5e-3}}"#,
    r#"[null,true,false,0,-0.5,1e9,"s",[],{},{"k":[1,2,3]}]"#,
    r#""just a string with \"escapes\" and \\ slashes\n""#,
];

/// The byte alphabet mutations draw from: JSON structure characters plus a
/// few innocuous and a few hostile bytes.
const ALPHABET: &[u8] = b"{}[]\",:0129ee+-.ntf\\ \x00\x7f\x01x";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup never panics the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let s = String::from_utf8_lossy(&bytes);
        let _ = parse(&s);
    }

    /// Truncating a valid document at any byte never panics, and a strict
    /// prefix of a seed document never parses as complete (every seed ends
    /// inside a string, object, or array that the cut leaves open, or the
    /// remainder becomes trailing garbage).
    #[test]
    fn truncation_never_panics(seed in 0usize..SEEDS.len(), cut in 0usize..512) {
        let doc = SEEDS[seed];
        let cut = cut.min(doc.len());
        let prefix = &doc[..cut]; // seeds are ASCII: any cut is a char boundary
        let res = parse(prefix);
        if cut < doc.len() {
            prop_assert!(res.is_err(), "truncated doc parsed: {prefix:?}");
        } else {
            prop_assert!(res.is_ok());
        }
    }

    /// Single-byte substitutions never panic; when they parse, the result is
    /// a plain value (the parser stayed in-bounds and terminated).
    #[test]
    fn mutation_never_panics(
        seed in 0usize..SEEDS.len(),
        at in 0usize..512,
        with in 0usize..ALPHABET.len(),
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] = ALPHABET[with];
        let s = String::from_utf8_lossy(&bytes);
        let _ = parse(&s);
    }

    /// Objects with a repeated key are rejected with `Err` wherever the
    /// duplicate sits, while the same keys at different depths stay legal.
    #[test]
    fn duplicate_keys_always_rejected(
        key in prop::collection::vec(97u8..=122, 1..8),
        v1 in -1000i64..1000,
        v2 in -1000i64..1000,
        nested in 0usize..3,
    ) {
        let key = String::from_utf8(key).unwrap();
        let k = escape(&key);
        let dup = format!("{{{k}:{v1},{k}:{v2}}}");
        let doc = match nested {
            0 => dup.clone(),
            1 => format!("{{\"outer\":{dup}}}"),
            _ => format!("[1,{dup},2]"),
        };
        prop_assert!(parse(&doc).is_err(), "duplicate key accepted: {doc}");
        // Control: the same shape with distinct keys parses.
        let ok = format!("{{{k}:{v1},{}:{v2}}}", escape(&format!("{key}_2")));
        prop_assert!(parse(&ok).is_ok(), "distinct keys rejected: {ok}");
        // Same key at different nesting depths is not a duplicate.
        let deep = format!("{{{k}:{{{k}:{v1}}}}}");
        prop_assert!(parse(&deep).is_ok(), "nested reuse rejected: {deep}");
    }

    /// Escaped strings round-trip through `escape` -> `parse` for arbitrary
    /// ASCII content (the renderer/parser pair stays closed).
    #[test]
    fn escape_roundtrip(bytes in prop::collection::vec(0u8..=127, 0..64)) {
        let s: String = bytes.iter().map(|&b| b as char).collect();
        let doc = escape(&s);
        let v = parse(&doc).unwrap();
        prop_assert_eq!(v, Json::Str(s));
    }
}
