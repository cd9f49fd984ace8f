//! Property tests for the wire protocol: whatever arrives on a request
//! line — arbitrary bytes, a valid request with a byte flipped or cut
//! short, or a `Series` of any width — the service answers exactly one
//! line that parses as a `Reply`, and every `Request` round-trips
//! through JSON.

use iri_serve::{Command, Filter, Reply, Request, Response, ServeCore, ServeOptions, WireEvent};
use iri_store::{LiveOptions, LiveStore};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// One store per property per test run: later cases see the rows
/// earlier ones appended.
fn store_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iri-proto-props-{}-{tag}", std::process::id()))
}

/// A property's store, removed when its test ends, passed or failed. It
/// starts with two rows 833 G ms apart, so a `Series` of small bins over
/// it is one the service must refuse rather than allocate.
struct PropStore(PathBuf);

impl PropStore {
    fn new(tag: &str) -> Self {
        let dir = store_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let events = [1, 833_000_000_000]
            .map(|t| WireEvent::announce(t, 701, "192.41.177.1", "10.0.0.0/8"))
            .to_vec();
        let cmd = Command::Append { events };
        let reply = open_core(&dir).handle(Request { id: 1, cmd });
        assert!(
            matches!(reply.resp, Response::Appended { events: 2, .. }),
            "{:?}",
            reply.resp
        );
        PropStore(dir)
    }
}

impl Drop for PropStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh core over the property's store: a `Shutdown` one case sends
/// must not drain the service the next case talks to.
fn open_core(dir: &Path) -> ServeCore {
    let opts = LiveOptions {
        create_segment_rows: Some(64),
        ..LiveOptions::default()
    };
    let live = LiveStore::open_with(dir, &opts).expect("open live store");
    ServeCore::new(live, &ServeOptions::default())
}

/// Times, bin widths and limits: tiny, in the paper's epoch, or anywhere.
fn num() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, 833_000_000_000u64..833_000_100_000, any::<u64>()]
}

fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("WWDup".to_owned()),
        Just("aadiff".to_owned()),
        Just("CsuDrift".to_owned()),
        Just("nope".to_owned()),
    ]
}

fn filter() -> impl Strategy<Value = Filter> {
    (
        proptest::option::of(num()),
        proptest::option::of(num()),
        proptest::option::of(any::<u32>()),
        proptest::option::of((any::<u8>(), 0u8..=40).prop_map(|(a, l)| format!("{a}.0.0.0/{l}"))),
        proptest::option::of(label()),
        proptest::option::of(label()),
    )
        .prop_map(|(from_ms, to_ms, peer_asn, prefix, class, cause)| Filter {
            from_ms,
            to_ms,
            peer_asn,
            prefix,
            class,
            cause,
        })
}

fn wire_event() -> impl Strategy<Value = WireEvent> {
    (
        num(),
        any::<u32>(),
        0u8..=255,
        0u8..=40,
        any::<bool>(),
        prop::collection::vec(any::<u32>(), 0..4),
        proptest::option::of(Just("192.41.177.9".to_owned())),
    )
        .prop_map(
            |(time_ms, peer_asn, host, len, announce, as_path, next_hop)| WireEvent {
                time_ms,
                peer_asn,
                peer_addr: format!("192.41.177.{host}"),
                prefix: format!("10.{host}.0.0/{len}"),
                announce,
                as_path,
                next_hop,
            },
        )
}

/// One of every [`Command`] variant.
fn command() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Ping),
        Just(Command::Info),
        Just(Command::Stats),
        Just(Command::Metrics),
        Just(Command::Health),
        filter().prop_map(|filter| Command::CountByClass { filter }),
        filter().prop_map(|filter| Command::CountByCause { filter }),
        (filter(), num()).prop_map(|(filter, limit)| Command::TopPeers { filter, limit }),
        (filter(), num()).prop_map(|(filter, limit)| Command::TopPrefixes { filter, limit }),
        filter().prop_map(|filter| Command::Bytes { filter }),
        (filter(), num()).prop_map(|(filter, bin_ms)| Command::Series { filter, bin_ms }),
        prop::collection::vec(wire_event(), 0..4).prop_map(|events| Command::Append { events }),
        proptest::option::of(0u32..512).prop_map(|target_rows| Command::Compact { target_rows }),
        Just(Command::Shutdown),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    (any::<u64>(), command()).prop_map(|(id, cmd)| Request { id, cmd })
}

/// The service's answer to `line` must be one line holding one `Reply`.
fn answers_one_reply(core: &ServeCore, line: &str) {
    let out = core.handle_line(line);
    assert!(
        !out.contains('\n'),
        "{line:?} answered more than a line: {out}"
    );
    if let Err(e) = serde_json::from_str::<Reply>(&out) {
        panic!("{line:?} answered {out:?}, not a Reply: {e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_through_json(req in request()) {
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        prop_assert_eq!(back, req);
    }

    /// The cases of [`arbitrary_bytes_answer_one_reply`].
    fn arbitrary_bytes_cases(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let dir = store_dir("bytes");
        answers_one_reply(&open_core(&dir), &String::from_utf8_lossy(&bytes));
    }

    /// The cases of [`damaged_request_lines_answer_one_reply`].
    fn damaged_request_cases(
        req in request(),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
        cut in any::<bool>(),
    ) {
        let dir = store_dir("damaged");
        let core = open_core(&dir);
        let mut bytes = serde_json::to_string(&req).unwrap().into_bytes();
        answers_one_reply(&core, &String::from_utf8_lossy(&bytes));
        let i = at.index(bytes.len());
        if cut {
            bytes.truncate(i);
        } else {
            bytes[i] ^= flip;
        }
        answers_one_reply(&core, &String::from_utf8_lossy(&bytes));
    }

    /// The cases of [`series_requests_answer_one_reply`].
    fn series_cases(id in any::<u64>(), filter in filter(), bin_ms in num()) {
        let core = open_core(&store_dir("series"));
        let req = Request { id, cmd: Command::Series { filter, bin_ms } };
        answers_one_reply(&core, &serde_json::to_string(&req).unwrap());
    }
}

#[test]
fn arbitrary_bytes_answer_one_reply() {
    let _store = PropStore::new("bytes");
    arbitrary_bytes_cases();
}

#[test]
fn damaged_request_lines_answer_one_reply() {
    let _store = PropStore::new("damaged");
    damaged_request_cases();
}

#[test]
fn series_requests_answer_one_reply() {
    let _store = PropStore::new("series");
    series_cases();
}
