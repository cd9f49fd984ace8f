//! Semantic validation of BGP messages beyond what the wire codec enforces.
//!
//! The codec rejects syntactically malformed input; this module checks
//! *protocol* rules a receiving border router applies before accepting an
//! update — most importantly the AS-path loop check the paper describes:
//! "upon receipt of an update every BGP router performs loop verification by
//! testing if its own autonomous system number already exists in the ASPATH
//! of an incoming update."

use crate::message::{Message, Open, Update};
use crate::types::Asn;
use std::fmt;
use std::net::Ipv4Addr;

/// Semantic violations found by [`validate_inbound`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Our own ASN appears in the AS_PATH (routing-loop suppression).
    AsPathLoop(Asn),
    /// EBGP peer's leftmost AS does not match its configured ASN.
    FirstAsMismatch {
        /// The configured remote AS.
        expected: Asn,
        /// The leftmost AS actually present (None for an empty path).
        got: Option<Asn>,
    },
    /// NEXT_HOP is unspecified (0.0.0.0) or a martian on an announcing update.
    BadNextHop(Ipv4Addr),
    /// OPEN carried an ASN different from the configured remote ASN.
    OpenAsnMismatch {
        /// The configured remote AS.
        expected: Asn,
        /// The AS the OPEN carried.
        got: Asn,
    },
    /// OPEN carried a zero router ID.
    ZeroRouterId,
    /// The same prefix is both announced and withdrawn in one message;
    /// RFC 4271 says the announcement wins, but we surface it as a warning-
    /// grade error because the paper treats it as update pathology.
    AnnounceWithdrawOverlap,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::AsPathLoop(asn) => write!(f, "AS path loop: {asn} already in path"),
            ValidationError::FirstAsMismatch { expected, got } => {
                write!(f, "first AS mismatch: expected {expected}, got {got:?}")
            }
            ValidationError::BadNextHop(h) => write!(f, "bad next hop {h}"),
            ValidationError::OpenAsnMismatch { expected, got } => {
                write!(f, "OPEN ASN mismatch: expected {expected}, got {got}")
            }
            ValidationError::ZeroRouterId => f.write_str("OPEN router id is zero"),
            ValidationError::AnnounceWithdrawOverlap => {
                f.write_str("prefix both announced and withdrawn in one UPDATE")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Peering-session context used when validating inbound messages.
#[derive(Debug, Clone, Copy)]
pub struct PeerContext {
    /// Our own AS number.
    pub local_asn: Asn,
    /// The configured remote AS number.
    pub remote_asn: Asn,
    /// Whether the session is external (EBGP). First-AS and loop checks only
    /// apply to EBGP.
    pub ebgp: bool,
}

/// Validates an inbound message against session context.
///
/// Returns all violations found (empty means acceptable). The simulator's
/// routers drop updates with any violation; the analysis pipeline calls this
/// to count protocol-invalid messages separately.
#[must_use]
pub fn validate_inbound(ctx: &PeerContext, msg: &Message) -> Vec<ValidationError> {
    match msg {
        Message::Open(o) => validate_open(ctx, o),
        Message::Update(u) => {
            let mut errs = Vec::new();
            validate_update(ctx, u, &mut errs);
            errs
        }
        Message::Notification(_) | Message::Keepalive => Vec::new(),
    }
}

fn validate_open(ctx: &PeerContext, o: &Open) -> Vec<ValidationError> {
    let mut errs = Vec::new();
    if o.asn != ctx.remote_asn {
        errs.push(ValidationError::OpenAsnMismatch {
            expected: ctx.remote_asn,
            got: o.asn,
        });
    }
    if o.router_id == Ipv4Addr::UNSPECIFIED {
        errs.push(ValidationError::ZeroRouterId);
    }
    errs
}

/// The UPDATE half of [`validate_inbound`], for callers that hold the
/// UPDATE itself rather than a [`Message`] around it: appends each
/// violation to `errs`, a buffer the caller owns.
pub fn validate_update(ctx: &PeerContext, u: &Update, errs: &mut Vec<ValidationError>) {
    if let Some(attrs) = &u.attrs {
        if !u.nlri.is_empty() {
            if ctx.ebgp {
                if attrs.as_path.contains(ctx.local_asn) {
                    errs.push(ValidationError::AsPathLoop(ctx.local_asn));
                }
                let first = attrs.as_path.first();
                if first != Some(ctx.remote_asn) {
                    errs.push(ValidationError::FirstAsMismatch {
                        expected: ctx.remote_asn,
                        got: first,
                    });
                }
            }
            if attrs.next_hop == Ipv4Addr::UNSPECIFIED
                || attrs.next_hop.is_loopback()
                || attrs.next_hop.is_broadcast()
            {
                errs.push(ValidationError::BadNextHop(attrs.next_hop));
            }
        }
    }
    if u.nlri.iter().any(|p| u.withdrawn.contains(p)) {
        errs.push(ValidationError::AnnounceWithdrawOverlap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Origin;
    use crate::message::UpdateBuilder;
    use crate::path::AsPath;
    use crate::types::Prefix;

    fn ctx() -> PeerContext {
        PeerContext {
            local_asn: Asn(237), // Merit
            remote_asn: Asn(701),
            ebgp: true,
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn announce(path: &[u32]) -> Message {
        Message::Update(
            UpdateBuilder::new()
                .announce(p("10.0.0.0/8"))
                .next_hop(Ipv4Addr::new(192, 41, 177, 1))
                .as_path(AsPath::from_sequence(path.iter().map(|&a| Asn(a))))
                .origin(Origin::Igp)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn clean_update_passes() {
        assert!(validate_inbound(&ctx(), &announce(&[701, 1239])).is_empty());
    }

    #[test]
    fn loop_detected() {
        let errs = validate_inbound(&ctx(), &announce(&[701, 237, 1239]));
        assert!(errs.contains(&ValidationError::AsPathLoop(Asn(237))));
    }

    #[test]
    fn first_as_mismatch_detected() {
        let errs = validate_inbound(&ctx(), &announce(&[1239, 701]));
        assert!(matches!(
            errs[0],
            ValidationError::FirstAsMismatch {
                expected: Asn(701),
                ..
            }
        ));
    }

    #[test]
    fn ibgp_skips_path_checks() {
        let mut c = ctx();
        c.ebgp = false;
        // Path starting with a foreign AS and even containing our ASN is
        // fine over IBGP (route reflection scenarios).
        assert!(validate_inbound(&c, &announce(&[1239, 237])).is_empty());
    }

    #[test]
    fn bad_next_hop_detected() {
        let msg = Message::Update(
            UpdateBuilder::new()
                .announce(p("10.0.0.0/8"))
                .next_hop(Ipv4Addr::UNSPECIFIED)
                .as_path(AsPath::from_sequence([Asn(701)]))
                .build()
                .unwrap(),
        );
        let errs = validate_inbound(&ctx(), &msg);
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidationError::BadNextHop(_))));
    }

    #[test]
    fn withdrawals_are_not_path_checked() {
        let msg = Message::Update(Update::withdraw([p("10.0.0.0/8")]));
        assert!(validate_inbound(&ctx(), &msg).is_empty());
    }

    #[test]
    fn announce_withdraw_overlap_detected() {
        let msg = Message::Update(
            UpdateBuilder::new()
                .announce(p("10.0.0.0/8"))
                .withdraw(p("10.0.0.0/8"))
                .next_hop(Ipv4Addr::new(1, 1, 1, 1))
                .as_path(AsPath::from_sequence([Asn(701)]))
                .build()
                .unwrap(),
        );
        let errs = validate_inbound(&ctx(), &msg);
        assert!(errs.contains(&ValidationError::AnnounceWithdrawOverlap));
    }

    #[test]
    fn open_mismatch_and_zero_id() {
        let o = Open::new(Asn(702), Ipv4Addr::UNSPECIFIED);
        let errs = validate_inbound(&ctx(), &Message::Open(o));
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn keepalive_and_notification_always_valid() {
        use crate::message::{Notification, NotificationCode};
        assert!(validate_inbound(&ctx(), &Message::Keepalive).is_empty());
        assert!(validate_inbound(
            &ctx(),
            &Message::Notification(Notification::new(NotificationCode::Cease))
        )
        .is_empty());
    }
}
