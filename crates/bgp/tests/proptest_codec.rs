//! Property-based tests for the BGP wire codec: arbitrary well-formed
//! messages must survive encode→decode unchanged, and the decoder must never
//! panic on arbitrary bytes.

use iri_bgp::attrs::{Aggregator, Origin, PathAttributes};
use iri_bgp::codec::{
    decode_message, decode_stream_message, encode_message, fits_one_message, split_update,
    HEADER_LEN,
};
use iri_bgp::message::{Message, Notification, NotificationCode, Open, Update};
use iri_bgp::path::{AsPath, PathSegment};
use iri_bgp::types::{Asn, Prefix};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_asn() -> impl Strategy<Value = Asn> {
    (1u32..=65_535).prop_map(Asn)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::from_raw(bits, len))
}

fn arb_segment() -> impl Strategy<Value = PathSegment> {
    prop_oneof![
        prop::collection::vec(arb_asn(), 1..8).prop_map(PathSegment::Sequence),
        prop::collection::vec(arb_asn(), 1..8).prop_map(PathSegment::Set),
    ]
}

fn arb_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(arb_segment(), 0..4).prop_map(AsPath::from_segments)
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ],
        arb_path(),
        any::<u32>().prop_map(Ipv4Addr::from),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
        proptest::option::of((arb_asn(), any::<u32>().prop_map(Ipv4Addr::from))),
        prop::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(
            |(origin, as_path, next_hop, med, local_pref, atomic, agg, communities)| {
                let mut a = PathAttributes::new(origin, as_path, next_hop);
                a.med = med;
                a.local_pref = local_pref;
                a.atomic_aggregate = atomic;
                a.aggregator = agg.map(|(asn, router_id)| Aggregator { asn, router_id });
                a.communities = communities;
                a
            },
        )
}

fn arb_update() -> impl Strategy<Value = Update> {
    (
        prop::collection::vec(arb_prefix(), 0..40),
        proptest::option::of((arb_attrs(), prop::collection::vec(arb_prefix(), 1..40))),
    )
        .prop_map(|(withdrawn, announce)| match announce {
            Some((attrs, nlri)) => Update {
                withdrawn,
                attrs: Some(attrs),
                nlri,
            },
            None => Update {
                withdrawn,
                attrs: None,
                nlri: vec![],
            },
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Keepalive),
        (
            arb_asn(),
            any::<u32>().prop_map(Ipv4Addr::from),
            prop_oneof![Just(0u16), 3u16..=u16::MAX]
        )
            .prop_map(|(asn, router_id, hold_time)| Message::Open(Open {
                version: 4,
                asn,
                hold_time,
                router_id
            })),
        arb_update().prop_map(Message::Update),
        (
            prop_oneof![
                Just(NotificationCode::MessageHeaderError),
                Just(NotificationCode::OpenMessageError),
                Just(NotificationCode::UpdateMessageError),
                Just(NotificationCode::HoldTimerExpired),
                Just(NotificationCode::FiniteStateMachineError),
                Just(NotificationCode::Cease),
            ],
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..32)
        )
            .prop_map(|(code, subcode, data)| Message::Notification(Notification {
                code,
                subcode,
                data
            })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip_arbitrary_messages(msg in arb_message()) {
        let wire = encode_message(&msg);
        let back = decode_message(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn an_update_that_fits_one_message_splits_into_itself(
        withdrawn in prop::collection::vec(arb_prefix(), 0..700),
        announce in proptest::option::of((arb_attrs(), prop::collection::vec(arb_prefix(), 0..700))),
    ) {
        let u = match announce {
            Some((attrs, nlri)) => Update { withdrawn, attrs: Some(attrs), nlri },
            None => Update { withdrawn, attrs: None, nlri: vec![] },
        };
        let parts = split_update(&u);
        prop_assert_eq!(fits_one_message(&u), parts == vec![u.clone()]);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_message(&bytes);
        let _ = decode_stream_message(&bytes);
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_messages(
        msg in arb_message(),
        idx in any::<prop::sample::Index>(),
        val in any::<u8>(),
    ) {
        let mut wire = encode_message(&msg).to_vec();
        let i = idx.index(wire.len());
        wire[i] = val;
        let _ = decode_message(&wire);
    }

    #[test]
    fn stream_decoding_splits_concatenations(
        msgs in prop::collection::vec(arb_message(), 1..8)
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_message(m));
        }
        let mut rest = stream.as_slice();
        let mut decoded = Vec::new();
        while !rest.is_empty() {
            let (m, used) = decode_stream_message(rest).unwrap();
            prop_assert!(used >= HEADER_LEN);
            decoded.push(m);
            rest = &rest[used..];
        }
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn prefix_parse_display_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Prefix = s.parse().unwrap();
        prop_assert_eq!(back, p);
    }

    #[test]
    fn prefix_parent_contains_child(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.contains(p));
            if let Some(sib) = p.sibling() {
                prop_assert!(parent.contains(sib));
                prop_assert_eq!(sib.parent().unwrap(), parent);
            }
        }
    }

    #[test]
    fn path_prepend_preserves_suffix_and_adds_head(path in arb_path(), asn in arb_asn()) {
        let mut prepended = path.clone();
        prepended.prepend(asn);
        prop_assert_eq!(prepended.first(), Some(asn));
        let orig: Vec<Asn> = path.iter().collect();
        let new: Vec<Asn> = prepended.iter().collect();
        prop_assert_eq!(&new[1..], orig.as_slice());
        prop_assert!(prepended.contains(asn));
    }

    #[test]
    fn aggregate_is_commutative_in_membership(a in arb_path(), b in arb_path()) {
        let ab = a.aggregate_with(&b);
        let ba = b.aggregate_with(&a);
        for asn in a.iter().chain(b.iter()) {
            prop_assert!(ab.contains(asn));
            prop_assert!(ba.contains(asn));
        }
    }
}
