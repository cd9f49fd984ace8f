//! The RFC 4271 session finite state machine, virtual-clock driven.
//!
//! The FSM is a pure function of (state, event) → (state, actions): the
//! caller owns transport and scheduling. This keeps it deterministic and
//! unit-testable, and lets `iri-netsim` run thousands of sessions under the
//! simulated clock — including the overload scenario at the heart of route-
//! flap storms: a CPU-starved router stops servicing its keepalive timer,
//! its peers' hold timers expire, sessions drop, "all of the peer's routes
//! are withdrawn", and the resulting state dumps overload the next router.

use iri_bgp::message::{Message, Notification, NotificationCode, Open};
use iri_bgp::types::Asn;
use std::net::Ipv4Addr;

/// Milliseconds of virtual time.
pub type Millis = u64;

/// FSM states (RFC 4271 §8.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum State {
    /// Not trying to connect.
    Idle,
    /// TCP connection attempt in progress.
    Connect,
    /// Waiting to retry after a failed connection.
    Active,
    /// OPEN sent, awaiting the peer's OPEN.
    OpenSent,
    /// OPEN accepted, awaiting first KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATEs flow.
    Established,
}

impl State {
    /// RFC state name, for trace events and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            State::Idle => "Idle",
            State::Connect => "Connect",
            State::Active => "Active",
            State::OpenSent => "OpenSent",
            State::OpenConfirm => "OpenConfirm",
            State::Established => "Established",
        }
    }
}

/// Inputs to the FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Operator/automatic start: begin connecting.
    Start,
    /// Operator stop or local teardown.
    Stop,
    /// The underlying transport came up.
    TcpEstablished,
    /// The underlying transport failed or closed.
    TcpClosed,
    /// A BGP message arrived.
    MessageReceived(Message),
    /// The hold timer expired (no KEEPALIVE/UPDATE within hold time).
    HoldTimerExpired,
    /// Our keepalive timer says it is time to send a KEEPALIVE.
    KeepaliveTimerFired,
    /// Connect-retry timer expired.
    ConnectRetryExpired,
}

/// Outputs: what the caller must do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Open a transport connection to the peer.
    OpenConnection,
    /// Close the transport.
    CloseConnection,
    /// Transmit a message.
    Send(Message),
    /// (Re)arm the hold timer for `Millis` from now.
    ArmHoldTimer(Millis),
    /// (Re)arm the keepalive timer for `Millis` from now.
    ArmKeepaliveTimer(Millis),
    /// Arm the connect-retry timer.
    ArmConnectRetry(Millis),
    /// The session reached Established: the caller should send its initial
    /// table dump ("generating large state dump transmissions").
    SessionUp,
    /// The session left Established: the caller must withdraw everything
    /// learned from this peer. Carries the notification that caused it, if
    /// one was sent or received.
    SessionDown(Option<Notification>),
}

/// Static session parameters.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Our AS.
    pub local_asn: Asn,
    /// Our router ID.
    pub local_router_id: Ipv4Addr,
    /// Expected remote AS.
    pub remote_asn: Asn,
    /// Proposed hold time (seconds, per the OPEN wire field).
    pub hold_time_secs: u16,
    /// Connect-retry interval.
    pub connect_retry: Millis,
}

impl SessionConfig {
    /// Era-typical defaults: 180 s hold, 120 s connect-retry.
    #[must_use]
    pub fn new(local_asn: Asn, local_router_id: Ipv4Addr, remote_asn: Asn) -> Self {
        SessionConfig {
            local_asn,
            local_router_id,
            remote_asn,
            hold_time_secs: 180,
            connect_retry: 120_000,
        }
    }

    fn hold_millis(&self) -> Millis {
        Millis::from(self.hold_time_secs) * 1000
    }

    /// Keepalive interval: one third of hold time (RFC 4271 §4.4 convention).
    #[must_use]
    pub fn keepalive_millis(&self) -> Millis {
        self.hold_millis() / 3
    }
}

/// The session state machine.
#[derive(Debug)]
pub struct SessionFsm {
    config: SessionConfig,
    state: State,
    /// Hold time actually negotiated (min of both OPENs), millis.
    negotiated_hold: Millis,
    /// Count of Established→down transitions, for storm accounting.
    flap_count: u64,
}

impl SessionFsm {
    /// New FSM in Idle.
    #[must_use]
    pub fn new(config: SessionConfig) -> Self {
        let negotiated_hold = config.hold_millis();
        SessionFsm {
            config,
            state: State::Idle,
            negotiated_hold,
            flap_count: 0,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> State {
        self.state
    }

    /// Negotiated hold time in milliseconds (0 = keepalives disabled).
    #[must_use]
    pub fn negotiated_hold(&self) -> Millis {
        self.negotiated_hold
    }

    /// Times the session has fallen out of Established.
    #[must_use]
    pub fn flap_count(&self) -> u64 {
        self.flap_count
    }

    /// Whether the session is up.
    #[must_use]
    pub fn is_established(&self) -> bool {
        self.state == State::Established
    }

    fn our_open(&self) -> Message {
        Message::Open(Open {
            version: 4,
            asn: self.config.local_asn,
            hold_time: self.config.hold_time_secs,
            router_id: self.config.local_router_id,
        })
    }

    fn drop_session(&mut self, notif: Option<Notification>, actions: &mut Vec<Action>) {
        if self.state == State::Established {
            self.flap_count += 1;
            actions.push(Action::SessionDown(notif));
        }
        actions.push(Action::CloseConnection);
        actions.push(Action::ArmConnectRetry(self.config.connect_retry));
        self.state = State::Active;
    }

    /// Feeds one event, appending the required actions to `actions` (a
    /// buffer the caller owns and drains, so the hot path never allocates
    /// one per event).
    pub fn handle(&mut self, event: Event, actions: &mut Vec<Action>) {
        match (self.state, event) {
            // ----- Idle -----
            (State::Idle, Event::Start) => {
                actions.push(Action::OpenConnection);
                actions.push(Action::ArmConnectRetry(self.config.connect_retry));
                self.state = State::Connect;
            }
            (State::Idle, _) => {}

            // ----- Stop from anywhere -----
            (_, Event::Stop) => {
                let notif = Notification::new(NotificationCode::Cease);
                if self.state == State::Established || self.state == State::OpenConfirm {
                    actions.push(Action::Send(Message::Notification(notif.clone())));
                }
                if self.state == State::Established {
                    self.flap_count += 1;
                    actions.push(Action::SessionDown(Some(notif)));
                }
                actions.push(Action::CloseConnection);
                self.state = State::Idle;
            }

            // ----- Connect / Active -----
            (State::Connect, Event::TcpEstablished) | (State::Active, Event::TcpEstablished) => {
                actions.push(Action::Send(self.our_open()));
                actions.push(Action::ArmHoldTimer(self.config.hold_millis()));
                self.state = State::OpenSent;
            }
            (State::Connect, Event::TcpClosed) => {
                actions.push(Action::ArmConnectRetry(self.config.connect_retry));
                self.state = State::Active;
            }
            (State::Active, Event::ConnectRetryExpired)
            | (State::Connect, Event::ConnectRetryExpired) => {
                actions.push(Action::OpenConnection);
                actions.push(Action::ArmConnectRetry(self.config.connect_retry));
                self.state = State::Connect;
            }
            (State::Connect, _) | (State::Active, _) => {}

            // ----- OpenSent -----
            (State::OpenSent, Event::MessageReceived(Message::Open(open))) => {
                if open.asn != self.config.remote_asn {
                    let notif = Notification::new(NotificationCode::OpenMessageError);
                    actions.push(Action::Send(Message::Notification(notif)));
                    self.drop_session(None, actions);
                } else {
                    // Negotiate hold time: minimum of proposals; 0 disables.
                    let theirs = Millis::from(open.hold_time) * 1000;
                    self.negotiated_hold = if open.hold_time == 0 || self.config.hold_time_secs == 0
                    {
                        0
                    } else {
                        theirs.min(self.config.hold_millis())
                    };
                    actions.push(Action::Send(Message::Keepalive));
                    if self.negotiated_hold > 0 {
                        actions.push(Action::ArmHoldTimer(self.negotiated_hold));
                        actions.push(Action::ArmKeepaliveTimer(self.negotiated_hold / 3));
                    }
                    self.state = State::OpenConfirm;
                }
            }
            (State::OpenSent, Event::TcpClosed) => {
                actions.push(Action::ArmConnectRetry(self.config.connect_retry));
                self.state = State::Active;
            }
            (State::OpenSent, Event::HoldTimerExpired) => {
                let notif = Notification::new(NotificationCode::HoldTimerExpired);
                actions.push(Action::Send(Message::Notification(notif)));
                self.drop_session(None, actions);
            }
            (State::OpenSent, Event::MessageReceived(Message::Notification(_))) => {
                self.drop_session(None, actions);
            }
            (State::OpenSent, _) => {}

            // ----- OpenConfirm -----
            (State::OpenConfirm, Event::MessageReceived(Message::Keepalive)) => {
                if self.negotiated_hold > 0 {
                    actions.push(Action::ArmHoldTimer(self.negotiated_hold));
                }
                actions.push(Action::SessionUp);
                self.state = State::Established;
            }
            (State::OpenConfirm, Event::KeepaliveTimerFired) => {
                actions.push(Action::Send(Message::Keepalive));
                if self.negotiated_hold > 0 {
                    actions.push(Action::ArmKeepaliveTimer(self.negotiated_hold / 3));
                }
            }
            (State::OpenConfirm, Event::HoldTimerExpired) => {
                let notif = Notification::new(NotificationCode::HoldTimerExpired);
                actions.push(Action::Send(Message::Notification(notif)));
                self.drop_session(None, actions);
            }
            (State::OpenConfirm, Event::TcpClosed)
            | (State::OpenConfirm, Event::MessageReceived(Message::Notification(_))) => {
                self.drop_session(None, actions);
            }
            (State::OpenConfirm, _) => {}

            // ----- Established -----
            (State::Established, Event::MessageReceived(msg)) => match msg {
                Message::Keepalive => {
                    if self.negotiated_hold > 0 {
                        actions.push(Action::ArmHoldTimer(self.negotiated_hold));
                    }
                }
                Message::Update(_) => {
                    // The caller processes the update body; the FSM only
                    // restarts the hold timer (UPDATE counts as liveness).
                    if self.negotiated_hold > 0 {
                        actions.push(Action::ArmHoldTimer(self.negotiated_hold));
                    }
                }
                Message::Notification(n) => {
                    self.drop_session(Some(n), actions);
                }
                Message::Open(_) => {
                    // Protocol error: OPEN in Established.
                    let notif = Notification::new(NotificationCode::FiniteStateMachineError);
                    actions.push(Action::Send(Message::Notification(notif.clone())));
                    self.drop_session(Some(notif), actions);
                }
            },
            (State::Established, Event::KeepaliveTimerFired) => {
                actions.push(Action::Send(Message::Keepalive));
                if self.negotiated_hold > 0 {
                    actions.push(Action::ArmKeepaliveTimer(self.negotiated_hold / 3));
                }
            }
            (State::Established, Event::HoldTimerExpired) => {
                // The storm trigger: peer went quiet (usually because its
                // CPU is pinned processing updates).
                let notif = Notification::new(NotificationCode::HoldTimerExpired);
                actions.push(Action::Send(Message::Notification(notif.clone())));
                self.drop_session(Some(notif), actions);
            }
            (State::Established, Event::TcpClosed) => {
                self.drop_session(None, actions);
            }
            (State::Established, _) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SessionConfig {
        SessionConfig::new(Asn(237), Ipv4Addr::new(192, 41, 177, 249), Asn(701))
    }

    /// Feeds one event into a fresh buffer and returns what it appended.
    fn step(fsm: &mut SessionFsm, event: Event) -> Vec<Action> {
        let mut actions = Vec::new();
        fsm.handle(event, &mut actions);
        actions
    }

    fn peer_open(asn: u32, hold: u16) -> Event {
        Event::MessageReceived(Message::Open(Open {
            version: 4,
            asn: Asn(asn),
            hold_time: hold,
            router_id: Ipv4Addr::new(137, 39, 1, 1),
        }))
    }

    /// Drives a fresh FSM to Established, asserting the happy path.
    fn establish(fsm: &mut SessionFsm) {
        assert_eq!(fsm.state(), State::Idle);
        let a = step(fsm, Event::Start);
        assert!(a.contains(&Action::OpenConnection));
        assert_eq!(fsm.state(), State::Connect);
        let a = step(fsm, Event::TcpEstablished);
        assert!(matches!(a[0], Action::Send(Message::Open(_))));
        assert_eq!(fsm.state(), State::OpenSent);
        let a = step(fsm, peer_open(701, 180));
        assert!(a.contains(&Action::Send(Message::Keepalive)));
        assert_eq!(fsm.state(), State::OpenConfirm);
        let a = step(fsm, Event::MessageReceived(Message::Keepalive));
        assert!(a.contains(&Action::SessionUp));
        assert_eq!(fsm.state(), State::Established);
    }

    #[test]
    fn happy_path_establishes() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        assert!(fsm.is_established());
        assert_eq!(fsm.flap_count(), 0);
        assert_eq!(fsm.negotiated_hold(), 180_000);
    }

    #[test]
    fn hold_time_negotiates_to_minimum() {
        let mut fsm = SessionFsm::new(config());
        step(&mut fsm, Event::Start);
        step(&mut fsm, Event::TcpEstablished);
        step(&mut fsm, peer_open(701, 90));
        assert_eq!(fsm.negotiated_hold(), 90_000);
    }

    #[test]
    fn zero_hold_time_disables_keepalives() {
        let mut fsm = SessionFsm::new(config());
        step(&mut fsm, Event::Start);
        step(&mut fsm, Event::TcpEstablished);
        let a = step(&mut fsm, peer_open(701, 0));
        assert!(!a.iter().any(|x| matches!(x, Action::ArmHoldTimer(_))));
        assert_eq!(fsm.negotiated_hold(), 0);
    }

    #[test]
    fn wrong_asn_in_open_rejected() {
        let mut fsm = SessionFsm::new(config());
        step(&mut fsm, Event::Start);
        step(&mut fsm, Event::TcpEstablished);
        let a = step(&mut fsm, peer_open(999, 180));
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(Notification {
                code: NotificationCode::OpenMessageError,
                ..
            }))
        ));
        assert_eq!(fsm.state(), State::Active);
        assert_eq!(fsm.flap_count(), 0, "never established, no flap");
    }

    #[test]
    fn hold_timer_expiry_in_established_is_a_flap() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        let a = step(&mut fsm, Event::HoldTimerExpired);
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(Notification {
                code: NotificationCode::HoldTimerExpired,
                ..
            }))
        ));
        assert!(a
            .iter()
            .any(|x| matches!(x, Action::SessionDown(Some(n)) if n.code == NotificationCode::HoldTimerExpired)));
        assert_eq!(fsm.state(), State::Active);
        assert_eq!(fsm.flap_count(), 1);
    }

    #[test]
    fn updates_and_keepalives_refresh_hold_timer() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        let a = step(&mut fsm, Event::MessageReceived(Message::Keepalive));
        assert_eq!(a, vec![Action::ArmHoldTimer(180_000)]);
        let a = step(
            &mut fsm,
            Event::MessageReceived(Message::Update(iri_bgp::message::Update::withdraw([]))),
        );
        assert_eq!(a, vec![Action::ArmHoldTimer(180_000)]);
    }

    #[test]
    fn keepalive_timer_sends_keepalive() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        let a = step(&mut fsm, Event::KeepaliveTimerFired);
        assert_eq!(a[0], Action::Send(Message::Keepalive));
        assert!(matches!(a[1], Action::ArmKeepaliveTimer(60_000)));
    }

    #[test]
    fn notification_tears_down() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        let notif = Notification::new(NotificationCode::Cease);
        let a = step(
            &mut fsm,
            Event::MessageReceived(Message::Notification(notif.clone())),
        );
        assert!(a.contains(&Action::SessionDown(Some(notif))));
        assert_eq!(fsm.flap_count(), 1);
    }

    #[test]
    fn open_in_established_is_fsm_error() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        let a = step(&mut fsm, peer_open(701, 180));
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(Notification {
                code: NotificationCode::FiniteStateMachineError,
                ..
            }))
        ));
        assert_eq!(fsm.flap_count(), 1);
    }

    #[test]
    fn tcp_loss_in_established_flaps_and_retries() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        let a = step(&mut fsm, Event::TcpClosed);
        assert!(a.contains(&Action::SessionDown(None)));
        assert!(a.iter().any(|x| matches!(x, Action::ArmConnectRetry(_))));
        assert_eq!(fsm.state(), State::Active);
        // Retry re-connects; a full re-establishment is possible.
        let a = step(&mut fsm, Event::ConnectRetryExpired);
        assert!(a.contains(&Action::OpenConnection));
        assert_eq!(fsm.state(), State::Connect);
        step(&mut fsm, Event::TcpEstablished);
        step(&mut fsm, peer_open(701, 180));
        let a = step(&mut fsm, Event::MessageReceived(Message::Keepalive));
        assert!(a.contains(&Action::SessionUp));
        assert_eq!(fsm.flap_count(), 1);
    }

    #[test]
    fn stop_from_established_sends_cease() {
        let mut fsm = SessionFsm::new(config());
        establish(&mut fsm);
        let a = step(&mut fsm, Event::Stop);
        assert!(matches!(
            a[0],
            Action::Send(Message::Notification(Notification {
                code: NotificationCode::Cease,
                ..
            }))
        ));
        assert_eq!(fsm.state(), State::Idle);
        assert_eq!(fsm.flap_count(), 1);
    }

    #[test]
    fn repeated_flaps_counted() {
        let mut fsm = SessionFsm::new(config());
        for i in 1..=3 {
            establish(&mut fsm);
            step(&mut fsm, Event::HoldTimerExpired);
            assert_eq!(fsm.flap_count(), i);
            // drop_session leaves us in Active; go back around.
            step(&mut fsm, Event::ConnectRetryExpired);
            assert_eq!(fsm.state(), State::Connect);
            // Reset to Idle path for establish(): feed Stop then Start.
            step(&mut fsm, Event::Stop);
        }
    }

    #[test]
    fn idle_ignores_everything_but_start() {
        let mut fsm = SessionFsm::new(config());
        for ev in [
            Event::TcpEstablished,
            Event::TcpClosed,
            Event::HoldTimerExpired,
            Event::KeepaliveTimerFired,
            Event::MessageReceived(Message::Keepalive),
        ] {
            assert!(step(&mut fsm, ev).is_empty());
            assert_eq!(fsm.state(), State::Idle);
        }
    }

    #[test]
    fn connect_failure_goes_active_then_retries() {
        let mut fsm = SessionFsm::new(config());
        step(&mut fsm, Event::Start);
        let a = step(&mut fsm, Event::TcpClosed);
        assert!(a.iter().any(|x| matches!(x, Action::ArmConnectRetry(_))));
        assert_eq!(fsm.state(), State::Active);
        let a = step(&mut fsm, Event::ConnectRetryExpired);
        assert!(a.contains(&Action::OpenConnection));
    }
}
