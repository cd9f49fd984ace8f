//! The JSON codec every reader in the tree goes through (`serde_json`,
//! the offline stand-in in `shims/`): request and reply lines,
//! `MANIFEST.json`, the watch state, scenario JSON and RIB spill images.
//! Text round-trips exactly, no input panics the parser, the old error
//! cases still fail with the old messages, and a parse costs time linear
//! in its input: a half-megabyte string and a 256-event `Append` line
//! each parse in well under a second.

use iri_serve::{Command, Reply, Request, Response, ServeCore, ServeOptions, WireEvent};
use iri_store::{LiveOptions, LiveStore};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::Value;
use std::time::{Duration, Instant};

/// The parse budget for the size checks. A linear parse of either input
/// takes about a millisecond in a release build; a parser that re-validates
/// the rest of the input for every string character takes ~14 s on the
/// 512 KiB string.
const PARSE_BUDGET: Duration = Duration::from_secs(1);

/// Characters that stress the string codec: the two delimiters, every
/// escape the writer emits, control characters written as `\u00XX`, and
/// two-, three- and four-byte UTF-8.
const SPECIAL: &str =
    "\"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}éß€中\u{2028}\u{fffd}😀\u{10ffff}";

fn pick_char(n: u32) -> char {
    // Half plain ASCII (the runs between delimiters), half special.
    if n.is_multiple_of(2) {
        char::from(b' ' + (n / 2 % 95) as u8)
    } else {
        let special = SPECIAL.chars().count();
        SPECIAL.chars().nth((n / 2) as usize % special).unwrap()
    }
}

fn text(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..max_len)
        .prop_map(|picks| picks.into_iter().map(pick_char).collect())
}

/// Writes `s` as a JSON string literal, escaping each basic-plane
/// character as `\uXXXX` where its `escape` flag is set: the parser's
/// `\u` path, which the writer itself uses only for control characters.
fn u_escaped(s: &str, escape: &[bool]) -> String {
    let mut out = String::from("\"");
    for (c, &esc) in s.chars().zip(escape.iter().cycle()) {
        if (esc && (c as u32) < 0x1_0000) || (c as u32) < 0x20 || c == '"' || c == '\\' {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// Random `Value` trees up to a fixed depth. Every leaf is one that
/// survives a text round trip as the same variant: `I64` only for
/// negatives (a non-negative integer reads back as `U64`) and `F64` only
/// for finite non-integral values.
struct Tree {
    depth: u32,
}

impl Tree {
    fn string(rng: &mut TestRng) -> String {
        let len = rng.below(12) as usize;
        (0..len).map(|_| pick_char(rng.next_u64() as u32)).collect()
    }

    fn leaf(rng: &mut TestRng) -> Value {
        match rng.below(6) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::U64(rng.next_u64() >> rng.below(64)),
            3 => Value::I64(-1 - (rng.next_u64() >> (1 + rng.below(63))) as i64),
            4 => {
                let f = (rng.unit_f64() - 0.5) * 1e6;
                Value::F64(if f.fract() == 0.0 { f + 0.5 } else { f })
            }
            _ => Value::Str(Tree::string(rng)),
        }
    }

    fn value(rng: &mut TestRng, depth: u32) -> Value {
        if depth == 0 || rng.below(3) == 0 {
            return Tree::leaf(rng);
        }
        let len = rng.below(5) as usize;
        if rng.below(2) == 0 {
            Value::Array((0..len).map(|_| Tree::value(rng, depth - 1)).collect())
        } else {
            Value::Map(
                (0..len)
                    .map(|_| (Tree::string(rng), Tree::value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

impl Strategy for Tree {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        Tree::value(rng, self.depth)
    }
}

/// Text that looks like JSON often enough to reach every parser branch.
const JSONISH: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u00", "\\ud800", "0", "-", "1.5", "e",
    "E+", "true", "fals", "null", " ", "\n", "a", "é", "😀",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_string_round_trips(s in text(96)) {
        let json = serde_json::to_string(&s).unwrap();
        let back: String = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn u_escapes_decode_to_the_characters_they_name(
        s in text(48),
        escape in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let back: String = serde_json::from_str(&u_escaped(&s, &escape)).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn value_trees_round_trip_compact_and_pretty(v in Tree { depth: 4 }) {
        let compact = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(serde_json::value_from_str(&compact).unwrap(), v.clone());
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(serde_json::value_from_str(&pretty).unwrap(), v);
    }

    #[test]
    fn arbitrary_text_never_panics_the_parser(
        pieces in prop::collection::vec(0usize..JSONISH.len(), 0..40),
        noise in text(24),
    ) {
        let doc: String = pieces.iter().map(|&i| JSONISH[i]).collect();
        for input in [doc.as_str(), noise.as_str(), &format!("\"{noise}"), &format!("[{doc}{noise}")] {
            let _ = serde_json::value_from_str(input);
        }
    }

    #[test]
    fn every_prefix_of_a_document_parses_or_fails_cleanly(v in Tree { depth: 3 }) {
        let json = serde_json::to_string_pretty(&v).unwrap();
        for (cut, _) in json.char_indices() {
            let _ = serde_json::value_from_str(&json[..cut]);
        }
    }
}

fn parse_error(input: &str) -> String {
    serde_json::value_from_str(input)
        .expect_err(input)
        .to_string()
}

#[test]
fn malformed_strings_fail_with_their_messages() {
    assert_eq!(parse_error(r#""abc"#), "unterminated string");
    assert_eq!(parse_error(r#"{"key": "value"#), "unterminated string");
    assert_eq!(parse_error(r#"["a\"#), "bad escape None");
    assert_eq!(parse_error(r#""bad \q escape""#), "bad escape Some('q')");
    assert_eq!(parse_error(r#""\u12""#), "truncated \\u escape");
    assert_eq!(parse_error(r#""\u12"#), "truncated \\u escape");
    assert_eq!(parse_error(r#""\u12zz""#), "bad \\u escape");
    assert_eq!(parse_error(r#""\ud800""#), "bad \\u code point");
    assert_eq!(parse_error(r#""ok" x"#), "trailing characters at byte 5");
}

#[test]
fn pretty_output_is_byte_stable() {
    let v = Value::Map(vec![
        ("n".into(), Value::U64(18_446_744_073_709_551_615)),
        ("neg".into(), Value::I64(-9_223_372_036_854_775_808)),
        ("f".into(), Value::F64(2.0)),
        ("g".into(), Value::F64(0.1)),
        (
            "nested".into(),
            Value::Array(vec![
                Value::Map(vec![("ctl".into(), Value::Str("\u{1}\t".into()))]),
                Value::Array(vec![]),
            ]),
        ),
    ]);
    let expected = "{\n  \"n\": 18446744073709551615,\n  \"neg\": -9223372036854775808,\n  \
                    \"f\": 2.0,\n  \"g\": 0.1,\n  \"nested\": [\n    {\n      \
                    \"ctl\": \"\\u0001\\t\"\n    },\n    []\n  ]\n}";
    assert_eq!(serde_json::to_string_pretty(&v).unwrap(), expected);
    assert_eq!(
        serde_json::to_string(&v).unwrap(),
        "{\"n\":18446744073709551615,\"neg\":-9223372036854775808,\"f\":2.0,\"g\":0.1,\
         \"nested\":[{\"ctl\":\"\\u0001\\t\"},[]]}"
    );
}

#[test]
fn a_512_kib_string_parses_in_linear_time() {
    // Mostly ASCII runs, with an escape and a multi-byte character every
    // few hundred bytes, so the parse crosses thousands of run boundaries.
    let mut s = String::with_capacity(512 * 1024);
    let mut i = 0u32;
    while s.len() < 512 * 1024 {
        s.push(pick_char(i % 512 * 2));
        if i.is_multiple_of(300) {
            s.push_str("\"\\\n€😀");
        }
        i += 1;
    }
    let json = serde_json::to_string(&s).unwrap();
    let started = Instant::now();
    let back: String = serde_json::from_str(&json).unwrap();
    let took = started.elapsed();
    assert_eq!(back, s);
    assert!(
        took < PARSE_BUDGET,
        "a {} byte string took {took:?} to parse",
        json.len()
    );
}

#[test]
fn a_256_event_append_line_parses_in_linear_time() {
    let dir = std::env::temp_dir().join(format!("iri-json-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = LiveStore::open_with(
        &dir,
        &LiveOptions {
            create_segment_rows: Some(64),
            ..LiveOptions::default()
        },
    )
    .expect("open live store");
    let core = ServeCore::new(live, &ServeOptions::default());
    let events: Vec<WireEvent> = (0..256u32)
        .map(|i| {
            let prefix = format!("10.{}.{}.0/24", i / 256, i % 256);
            let peer = format!("192.41.177.{}", 1 + i % 8);
            let t = 833_000_000_000 + u64::from(i) * 1_000;
            if i % 5 == 4 {
                WireEvent::withdraw(t, 701 + i % 8, &peer, &prefix)
            } else {
                WireEvent::announce(t, 701 + i % 8, &peer, &prefix).with_path(&[701, 1239, i])
            }
        })
        .collect();
    let line = serde_json::to_string(&Request {
        id: 1,
        cmd: Command::Append { events },
    })
    .unwrap();

    let reply: Reply = serde_json::from_str(&core.handle_line(&line)).unwrap();
    assert!(
        matches!(reply.resp, Response::Appended { events: 256, .. }),
        "{:?}",
        reply.resp
    );
    let parse = core
        .metrics()
        .histograms
        .into_iter()
        .find(|h| h.name == "serve.parse_us")
        .expect("serve.parse_us registered");
    assert_eq!(parse.count, 1, "one line, one parse observation");
    assert!(
        parse.max < PARSE_BUDGET.as_micros() as u64,
        "handle_line spent {} us parsing a {} byte line",
        parse.max,
        line.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
