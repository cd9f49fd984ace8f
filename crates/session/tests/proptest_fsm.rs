//! Property tests for the session FSM: no event sequence panics, state
//! invariants hold, and Established is only reachable through a complete
//! handshake.

use iri_bgp::message::{Message, Notification, NotificationCode, Open, Update};
use iri_bgp::types::Asn;
use iri_session::fsm::{Action, Event, SessionConfig, SessionFsm, State};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::Start),
        Just(Event::Stop),
        Just(Event::TcpEstablished),
        Just(Event::TcpClosed),
        Just(Event::HoldTimerExpired),
        Just(Event::KeepaliveTimerFired),
        Just(Event::ConnectRetryExpired),
        Just(Event::MessageReceived(Message::Keepalive)),
        (1u32..5, prop_oneof![Just(0u16), 3u16..400]).prop_map(|(asn, hold)| {
            Event::MessageReceived(Message::Open(Open {
                version: 4,
                asn: Asn(asn),
                hold_time: hold,
                router_id: Ipv4Addr::new(1, 1, 1, 1),
            }))
        }),
        Just(Event::MessageReceived(Message::Update(
            Update::withdraw([])
        ))),
        Just(Event::MessageReceived(Message::Notification(
            Notification::new(NotificationCode::Cease)
        ))),
    ]
}

fn config() -> SessionConfig {
    SessionConfig::new(Asn(237), Ipv4Addr::new(9, 9, 9, 9), Asn(2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fsm_never_panics_and_invariants_hold(events in prop::collection::vec(arb_event(), 0..200)) {
        let mut fsm = SessionFsm::new(config());
        let mut was_established = false;
        let mut flaps_seen = 0u64;
        for ev in events {
            let pre_state = fsm.state();
            let mut actions = Vec::new();
            fsm.handle(ev, &mut actions);
            let post_state = fsm.state();

            // SessionUp exactly on entering Established.
            let up = actions.iter().filter(|a| matches!(a, Action::SessionUp)).count();
            if post_state == State::Established && pre_state != State::Established {
                prop_assert_eq!(up, 1, "entering Established must emit SessionUp");
            } else {
                prop_assert_eq!(up, 0);
            }
            // SessionDown exactly on leaving Established.
            let down = actions
                .iter()
                .filter(|a| matches!(a, Action::SessionDown(_)))
                .count();
            if pre_state == State::Established && post_state != State::Established {
                prop_assert_eq!(down, 1, "leaving Established must emit SessionDown");
                flaps_seen += 1;
            } else {
                prop_assert_eq!(down, 0);
            }
            if post_state == State::Established {
                was_established = true;
                // Hold time in Established is either 0 or ≥ 3s.
                let h = fsm.negotiated_hold();
                prop_assert!(h == 0 || h >= 3_000, "{h}");
            }
            // Timer arms are positive.
            for a in &actions {
                match a {
                    Action::ArmHoldTimer(d) | Action::ArmKeepaliveTimer(d) => {
                        prop_assert!(*d > 0);
                    }
                    Action::ArmConnectRetry(d) => prop_assert!(*d > 0),
                    _ => {}
                }
            }
        }
        prop_assert_eq!(fsm.flap_count(), flaps_seen);
        let _ = was_established;
    }

    #[test]
    fn established_requires_full_handshake(events in prop::collection::vec(arb_event(), 0..100)) {
        // Track the minimal handshake: Established can only be entered
        // from OpenConfirm on a Keepalive.
        let mut fsm = SessionFsm::new(config());
        for ev in events {
            let pre = fsm.state();
            let ev_is_keepalive = matches!(ev, Event::MessageReceived(Message::Keepalive));
            fsm.handle(ev, &mut Vec::new());
            if fsm.state() == State::Established && pre != State::Established {
                prop_assert_eq!(pre, State::OpenConfirm);
                prop_assert!(ev_is_keepalive);
            }
        }
    }

    #[test]
    fn stop_always_returns_to_idle(events in prop::collection::vec(arb_event(), 0..60)) {
        let mut fsm = SessionFsm::new(config());
        for ev in events {
            fsm.handle(ev, &mut Vec::new());
        }
        fsm.handle(Event::Stop, &mut Vec::new());
        prop_assert_eq!(fsm.state(), State::Idle);
    }
}
