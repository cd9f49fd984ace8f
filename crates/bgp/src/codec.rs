//! RFC 4271 binary wire codec for BGP messages.
//!
//! This plays the role of the decoder stages of the paper's "XYZ toolkit"
//! (the Multithreaded Routing Toolkit): turning raw BGP packet logs into
//! typed messages. Encoding is used by the simulator's monitor taps to write
//! MRT files, and decoding by the analysis pipeline to read them back.
//!
//! The codec implements the classic 2-byte-ASN BGP-4 of the paper's era.
//! Attribute order on encode is canonical (ascending type code) so that
//! encode∘decode∘encode is a fixed point, a property the round-trip
//! property tests rely on.

use crate::attrs::{Aggregator, Origin, PathAttributes};
use crate::message::{Message, Notification, NotificationCode, Open, Update};
use crate::path::{AsPath, PathSegment};
use crate::types::{Asn, Prefix};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;

/// Fixed 19-byte BGP header: 16-byte marker + 2-byte length + 1-byte type.
pub const HEADER_LEN: usize = 19;
/// Maximum BGP message size (RFC 4271 §4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;

/// Attribute type codes.
mod attr_type {
    pub const ORIGIN: u8 = 1;
    pub const AS_PATH: u8 = 2;
    pub const NEXT_HOP: u8 = 3;
    pub const MED: u8 = 4;
    pub const LOCAL_PREF: u8 = 5;
    pub const ATOMIC_AGGREGATE: u8 = 6;
    pub const AGGREGATOR: u8 = 7;
    pub const COMMUNITIES: u8 = 8;
}

/// Attribute flag bits.
mod attr_flag {
    pub const OPTIONAL: u8 = 0x80;
    pub const TRANSITIVE: u8 = 0x40;
    pub const EXTENDED_LENGTH: u8 = 0x10;
}

/// Decoding errors. Each maps onto an RFC 4271 NOTIFICATION subcode family;
/// [`DecodeError::notification`] performs that mapping for FSM use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a header, or body shorter than the header claims.
    Truncated,
    /// Marker bytes were not all ones.
    BadMarker,
    /// Header length field outside `[19, 4096]` or inconsistent with type.
    BadLength(u16),
    /// Unknown message type code.
    BadType(u8),
    /// OPEN with an unsupported version.
    UnsupportedVersion(u8),
    /// OPEN hold time 1 or 2 (RFC 4271 forbids 0 < ht < 3).
    BadHoldTime(u16),
    /// Prefix length byte greater than 32.
    BadPrefixLength(u8),
    /// Malformed path attribute (bad flags, length, or value).
    BadAttribute(&'static str),
    /// A mandatory attribute was missing from an announcing UPDATE.
    MissingMandatoryAttribute(&'static str),
    /// NOTIFICATION carried an unknown error code.
    BadNotificationCode(u8),
    /// AS_PATH segment with an unknown segment type.
    BadSegmentType(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("message truncated"),
            DecodeError::BadMarker => f.write_str("header marker not all-ones"),
            DecodeError::BadLength(l) => write!(f, "bad message length {l}"),
            DecodeError::BadType(t) => write!(f, "unknown message type {t}"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported BGP version {v}"),
            DecodeError::BadHoldTime(h) => write!(f, "illegal hold time {h}"),
            DecodeError::BadPrefixLength(l) => write!(f, "prefix length {l} > 32"),
            DecodeError::BadAttribute(which) => write!(f, "malformed attribute: {which}"),
            DecodeError::MissingMandatoryAttribute(which) => {
                write!(f, "missing mandatory attribute {which}")
            }
            DecodeError::BadNotificationCode(c) => write!(f, "unknown notification code {c}"),
            DecodeError::BadSegmentType(t) => write!(f, "unknown AS_PATH segment type {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// The NOTIFICATION a receiver should send for this error.
    #[must_use]
    pub fn notification(&self) -> Notification {
        use DecodeError::*;
        let code = match self {
            Truncated | BadMarker | BadLength(_) | BadType(_) => {
                NotificationCode::MessageHeaderError
            }
            UnsupportedVersion(_) | BadHoldTime(_) => NotificationCode::OpenMessageError,
            _ => NotificationCode::UpdateMessageError,
        };
        Notification::new(code)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes a message, header included.
///
/// # Panics
/// Panics if the encoded message would exceed [`MAX_MESSAGE_LEN`]; callers
/// producing large UPDATEs should split NLRI with [`split_update`] first.
#[must_use]
pub fn encode_message(msg: &Message) -> Bytes {
    let mut body = BytesMut::with_capacity(64);
    match msg {
        Message::Open(o) => encode_open(o, &mut body),
        Message::Update(u) => encode_update(u, &mut body),
        Message::Notification(n) => encode_notification(n, &mut body),
        Message::Keepalive => {}
    }
    let total = HEADER_LEN + body.len();
    assert!(
        total <= MAX_MESSAGE_LEN,
        "encoded BGP message {total} bytes exceeds {MAX_MESSAGE_LEN}"
    );
    let mut out = BytesMut::with_capacity(total);
    out.put_bytes(0xff, 16);
    out.put_u16(total as u16);
    out.put_u8(msg.type_code());
    out.extend_from_slice(&body);
    out.freeze()
}

fn encode_open(o: &Open, out: &mut BytesMut) {
    out.put_u8(o.version);
    out.put_u16(o.asn.0 as u16);
    out.put_u16(o.hold_time);
    out.put_u32(u32::from(o.router_id));
    out.put_u8(0); // no optional parameters
}

fn encode_prefix(p: Prefix, out: &mut BytesMut) {
    out.put_u8(p.len());
    let nbytes = usize::from(p.len().div_ceil(8));
    let be = p.bits().to_be_bytes();
    out.extend_from_slice(&be[..nbytes]);
}

fn encoded_prefix_len(p: Prefix) -> usize {
    1 + usize::from(p.len().div_ceil(8))
}

fn encode_update(u: &Update, out: &mut BytesMut) {
    let mut withdrawn = BytesMut::new();
    for p in &u.withdrawn {
        encode_prefix(*p, &mut withdrawn);
    }
    out.put_u16(withdrawn.len() as u16);
    out.extend_from_slice(&withdrawn);

    let mut attrs = BytesMut::new();
    if let Some(a) = &u.attrs {
        encode_attrs(a, &mut attrs);
    }
    out.put_u16(attrs.len() as u16);
    out.extend_from_slice(&attrs);

    for p in &u.nlri {
        encode_prefix(*p, out);
    }
}

fn put_attr(out: &mut BytesMut, flags: u8, type_code: u8, value: &[u8]) {
    if value.len() > 255 {
        out.put_u8(flags | attr_flag::EXTENDED_LENGTH);
        out.put_u8(type_code);
        out.put_u16(value.len() as u16);
    } else {
        out.put_u8(flags);
        out.put_u8(type_code);
        out.put_u8(value.len() as u8);
    }
    out.extend_from_slice(value);
}

fn encode_attrs(a: &PathAttributes, out: &mut BytesMut) {
    use attr_flag::{OPTIONAL, TRANSITIVE};
    put_attr(out, TRANSITIVE, attr_type::ORIGIN, &[a.origin.code()]);

    let mut path = BytesMut::new();
    for seg in a.as_path.segments() {
        path.put_u8(seg.type_code());
        path.put_u8(seg.asns().len() as u8);
        for asn in seg.asns() {
            path.put_u16(asn.0 as u16);
        }
    }
    put_attr(out, TRANSITIVE, attr_type::AS_PATH, &path);

    put_attr(
        out,
        TRANSITIVE,
        attr_type::NEXT_HOP,
        &u32::from(a.next_hop).to_be_bytes(),
    );
    if let Some(med) = a.med {
        put_attr(out, OPTIONAL, attr_type::MED, &med.to_be_bytes());
    }
    if let Some(lp) = a.local_pref {
        put_attr(out, TRANSITIVE, attr_type::LOCAL_PREF, &lp.to_be_bytes());
    }
    if a.atomic_aggregate {
        put_attr(out, TRANSITIVE, attr_type::ATOMIC_AGGREGATE, &[]);
    }
    if let Some(agg) = &a.aggregator {
        let mut v = BytesMut::with_capacity(6);
        v.put_u16(agg.asn.0 as u16);
        v.put_u32(u32::from(agg.router_id));
        put_attr(out, OPTIONAL | TRANSITIVE, attr_type::AGGREGATOR, &v);
    }
    if !a.communities.is_empty() {
        let mut v = BytesMut::with_capacity(4 * a.communities.len());
        for c in &a.communities {
            v.put_u32(*c);
        }
        put_attr(out, OPTIONAL | TRANSITIVE, attr_type::COMMUNITIES, &v);
    }
}

fn encode_notification(n: &Notification, out: &mut BytesMut) {
    out.put_u8(n.code.code());
    out.put_u8(n.subcode);
    out.extend_from_slice(&n.data);
}

/// Conservative per-message budget for prefix bytes, leaving generous room
/// for header and attributes (attribute block is ≤ ~1 KiB for sane paths;
/// we budget 2 KiB of prefixes per message).
const PREFIX_BUDGET: usize = 2048;

/// Whether [`split_update`] would return `u` itself as its only part: a
/// pure withdrawal or a pure announcement whose prefixes fit one
/// message's budget. Senders check this first and skip the rebuild.
#[must_use]
pub fn fits_one_message(u: &Update) -> bool {
    let fits = |prefixes: &[Prefix]| {
        prefixes.len() <= 1
            || prefixes
                .iter()
                .map(|&p| encoded_prefix_len(p))
                .sum::<usize>()
                <= PREFIX_BUDGET
    };
    match &u.attrs {
        None => u.nlri.is_empty() && fits(&u.withdrawn),
        Some(_) => u.withdrawn.is_empty() && !u.nlri.is_empty() && fits(&u.nlri),
    }
}

/// Splits an UPDATE whose encoding would exceed [`MAX_MESSAGE_LEN`] into
/// several wire-legal UPDATEs carrying the same information, preserving
/// withdrawal-before-announcement order within the batch.
#[must_use]
pub fn split_update(u: &Update) -> Vec<Update> {
    let mut out = Vec::new();
    let mut w_iter = u.withdrawn.iter().copied().peekable();
    while w_iter.peek().is_some() {
        let mut used = 0;
        let mut chunk = Vec::new();
        while let Some(&p) = w_iter.peek() {
            let l = encoded_prefix_len(p);
            if used + l > PREFIX_BUDGET && !chunk.is_empty() {
                break;
            }
            used += l;
            chunk.push(p);
            w_iter.next();
        }
        out.push(Update::withdraw(chunk));
    }
    if let Some(attrs) = &u.attrs {
        let mut n_iter = u.nlri.iter().copied().peekable();
        while n_iter.peek().is_some() {
            let mut used = 0;
            let mut chunk = Vec::new();
            while let Some(&p) = n_iter.peek() {
                let l = encoded_prefix_len(p);
                if used + l > PREFIX_BUDGET && !chunk.is_empty() {
                    break;
                }
                used += l;
                chunk.push(p);
                n_iter.next();
            }
            out.push(Update::announce(attrs.clone(), chunk));
        }
    }
    if out.is_empty() {
        out.push(Update::withdraw([]));
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes one complete message from `buf` (which must contain exactly one
/// message; see [`decode_stream_message`] for framing).
pub fn decode_message(buf: &[u8]) -> Result<Message, DecodeError> {
    let (msg, used) = decode_stream_message(buf)?;
    if used != buf.len() {
        return Err(DecodeError::BadLength(
            buf.len().min(u16::MAX as usize) as u16
        ));
    }
    Ok(msg)
}

/// Decodes the first message from a byte stream, returning it and the number
/// of bytes consumed. Useful when reading concatenated messages from a log.
pub fn decode_stream_message(buf: &[u8]) -> Result<(Message, usize), DecodeError> {
    if buf.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    if buf[..16].iter().any(|&b| b != 0xff) {
        return Err(DecodeError::BadMarker);
    }
    let mut hdr = &buf[16..];
    let len = hdr.get_u16();
    let type_code = hdr.get_u8();
    let len_usize = usize::from(len);
    if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&len_usize) {
        return Err(DecodeError::BadLength(len));
    }
    if buf.len() < len_usize {
        return Err(DecodeError::Truncated);
    }
    let body = &buf[HEADER_LEN..len_usize];
    let msg = match type_code {
        1 => Message::Open(decode_open(body)?),
        2 => Message::Update(decode_update(body)?),
        3 => Message::Notification(decode_notification(body)?),
        4 => {
            if !body.is_empty() {
                return Err(DecodeError::BadLength(len));
            }
            Message::Keepalive
        }
        t => return Err(DecodeError::BadType(t)),
    };
    Ok((msg, len_usize))
}

fn need(buf: &[u8], n: usize) -> Result<(), DecodeError> {
    if buf.len() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

fn decode_open(mut body: &[u8]) -> Result<Open, DecodeError> {
    need(body, 10)?;
    let version = body.get_u8();
    if version != 4 {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let asn = Asn(u32::from(body.get_u16()));
    let hold_time = body.get_u16();
    if hold_time == 1 || hold_time == 2 {
        return Err(DecodeError::BadHoldTime(hold_time));
    }
    let router_id = Ipv4Addr::from(body.get_u32());
    let opt_len = body.get_u8();
    need(body, usize::from(opt_len))?;
    // Optional parameters (capabilities) are tolerated and skipped; the
    // 1996-era protocol model carries none.
    Ok(Open {
        version,
        asn,
        hold_time,
        router_id,
    })
}

fn decode_prefix(body: &mut &[u8]) -> Result<Prefix, DecodeError> {
    need(body, 1)?;
    let len = body.get_u8();
    if len > 32 {
        return Err(DecodeError::BadPrefixLength(len));
    }
    let nbytes = usize::from(len.div_ceil(8));
    need(body, nbytes)?;
    let mut be = [0u8; 4];
    be[..nbytes].copy_from_slice(&body[..nbytes]);
    body.advance(nbytes);
    Ok(Prefix::from_raw(u32::from_be_bytes(be), len))
}

fn decode_prefix_list(mut body: &[u8]) -> Result<Vec<Prefix>, DecodeError> {
    let mut out = Vec::new();
    while !body.is_empty() {
        out.push(decode_prefix(&mut body)?);
    }
    Ok(out)
}

fn decode_update(mut body: &[u8]) -> Result<Update, DecodeError> {
    need(body, 2)?;
    let wlen = usize::from(body.get_u16());
    need(body, wlen)?;
    let withdrawn = decode_prefix_list(&body[..wlen])?;
    body.advance(wlen);

    need(body, 2)?;
    let alen = usize::from(body.get_u16());
    need(body, alen)?;
    let attrs_raw = &body[..alen];
    body.advance(alen);
    let nlri = decode_prefix_list(body)?;

    let attrs = if alen == 0 {
        None
    } else {
        Some(decode_attrs(attrs_raw)?)
    };
    if !nlri.is_empty() {
        match &attrs {
            None => return Err(DecodeError::MissingMandatoryAttribute("ORIGIN")),
            Some(a) => {
                if a.next_hop == Ipv4Addr::UNSPECIFIED && a.as_path.is_empty() {
                    // Tolerated: locally-originated route before export.
                }
            }
        }
    }
    Ok(Update {
        withdrawn,
        attrs,
        nlri,
    })
}

fn decode_attrs(mut body: &[u8]) -> Result<PathAttributes, DecodeError> {
    let mut origin: Option<Origin> = None;
    let mut as_path: Option<AsPath> = None;
    let mut next_hop: Option<Ipv4Addr> = None;
    let mut med = None;
    let mut local_pref = None;
    let mut atomic_aggregate = false;
    let mut aggregator = None;
    let mut communities = Vec::new();

    while !body.is_empty() {
        need(body, 2)?;
        let flags = body.get_u8();
        let type_code = body.get_u8();
        let vlen = if flags & attr_flag::EXTENDED_LENGTH != 0 {
            need(body, 2)?;
            usize::from(body.get_u16())
        } else {
            need(body, 1)?;
            usize::from(body.get_u8())
        };
        need(body, vlen)?;
        let mut value = &body[..vlen];
        body.advance(vlen);

        match type_code {
            attr_type::ORIGIN => {
                if vlen != 1 {
                    return Err(DecodeError::BadAttribute("ORIGIN length"));
                }
                origin = Some(
                    Origin::from_code(value.get_u8())
                        .ok_or(DecodeError::BadAttribute("ORIGIN value"))?,
                );
            }
            attr_type::AS_PATH => {
                let mut segments = Vec::new();
                while !value.is_empty() {
                    need(value, 2)?;
                    let seg_type = value.get_u8();
                    let count = usize::from(value.get_u8());
                    need(value, 2 * count)?;
                    let mut asns = Vec::with_capacity(count);
                    for _ in 0..count {
                        asns.push(Asn(u32::from(value.get_u16())));
                    }
                    segments.push(match seg_type {
                        1 => PathSegment::Set(asns),
                        2 => PathSegment::Sequence(asns),
                        t => return Err(DecodeError::BadSegmentType(t)),
                    });
                }
                as_path = Some(AsPath::from_segments(segments));
            }
            attr_type::NEXT_HOP => {
                if vlen != 4 {
                    return Err(DecodeError::BadAttribute("NEXT_HOP length"));
                }
                next_hop = Some(Ipv4Addr::from(value.get_u32()));
            }
            attr_type::MED => {
                if vlen != 4 {
                    return Err(DecodeError::BadAttribute("MED length"));
                }
                med = Some(value.get_u32());
            }
            attr_type::LOCAL_PREF => {
                if vlen != 4 {
                    return Err(DecodeError::BadAttribute("LOCAL_PREF length"));
                }
                local_pref = Some(value.get_u32());
            }
            attr_type::ATOMIC_AGGREGATE => {
                if vlen != 0 {
                    return Err(DecodeError::BadAttribute("ATOMIC_AGGREGATE length"));
                }
                atomic_aggregate = true;
            }
            attr_type::AGGREGATOR => {
                if vlen != 6 {
                    return Err(DecodeError::BadAttribute("AGGREGATOR length"));
                }
                aggregator = Some(Aggregator {
                    asn: Asn(u32::from(value.get_u16())),
                    router_id: Ipv4Addr::from(value.get_u32()),
                });
            }
            attr_type::COMMUNITIES => {
                if vlen % 4 != 0 {
                    return Err(DecodeError::BadAttribute("COMMUNITIES length"));
                }
                while !value.is_empty() {
                    communities.push(value.get_u32());
                }
            }
            _ => {
                // Unknown optional attributes are skipped (partial bit
                // handling elided); unknown well-known attributes are an
                // error per RFC 4271.
                if flags & attr_flag::OPTIONAL == 0 {
                    return Err(DecodeError::BadAttribute("unknown well-known attribute"));
                }
            }
        }
    }

    let origin = origin.ok_or(DecodeError::MissingMandatoryAttribute("ORIGIN"))?;
    let as_path = as_path.ok_or(DecodeError::MissingMandatoryAttribute("AS_PATH"))?;
    let next_hop = next_hop.ok_or(DecodeError::MissingMandatoryAttribute("NEXT_HOP"))?;
    let mut a = PathAttributes::new(origin, as_path, next_hop);
    a.med = med;
    a.local_pref = local_pref;
    a.atomic_aggregate = atomic_aggregate;
    a.aggregator = aggregator;
    a.communities = communities;
    Ok(a)
}

fn decode_notification(mut body: &[u8]) -> Result<Notification, DecodeError> {
    need(body, 2)?;
    let code_raw = body.get_u8();
    let code =
        NotificationCode::from_code(code_raw).ok_or(DecodeError::BadNotificationCode(code_raw))?;
    let subcode = body.get_u8();
    Ok(Notification {
        code,
        subcode,
        data: body.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::UpdateBuilder;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn sample_update() -> Update {
        UpdateBuilder::new()
            .withdraw(p("192.42.113.0/24"))
            .announce(p("10.0.0.0/8"))
            .announce(p("198.32.0.0/16"))
            .next_hop(Ipv4Addr::new(192, 41, 177, 1))
            .as_path(AsPath::from_sequence([Asn(3561), Asn(701), Asn(1239)]))
            .origin(Origin::Igp)
            .med(100)
            .community(0x02bd_022a)
            .build()
            .unwrap()
    }

    #[test]
    fn keepalive_is_19_bytes() {
        let wire = encode_message(&Message::Keepalive);
        assert_eq!(wire.len(), HEADER_LEN);
        assert_eq!(decode_message(&wire).unwrap(), Message::Keepalive);
    }

    #[test]
    fn open_roundtrip() {
        let open = Open::new(Asn(701), Ipv4Addr::new(137, 39, 1, 1));
        let wire = encode_message(&Message::Open(open.clone()));
        assert_eq!(decode_message(&wire).unwrap(), Message::Open(open));
    }

    #[test]
    fn update_roundtrip() {
        let u = sample_update();
        let wire = encode_message(&Message::Update(u.clone()));
        assert_eq!(decode_message(&wire).unwrap(), Message::Update(u));
    }

    #[test]
    fn notification_roundtrip() {
        let n = Notification {
            code: NotificationCode::HoldTimerExpired,
            subcode: 0,
            data: vec![1, 2, 3],
        };
        let wire = encode_message(&Message::Notification(n.clone()));
        assert_eq!(decode_message(&wire).unwrap(), Message::Notification(n));
    }

    #[test]
    fn empty_withdrawal_roundtrip() {
        let u = Update::withdraw([]);
        let wire = encode_message(&Message::Update(u.clone()));
        assert_eq!(decode_message(&wire).unwrap(), Message::Update(u));
        // Header + two zero u16 length fields.
        assert_eq!(wire.len(), HEADER_LEN + 4);
    }

    #[test]
    fn default_route_roundtrip() {
        let u = UpdateBuilder::new()
            .announce(Prefix::DEFAULT)
            .next_hop(Ipv4Addr::new(1, 2, 3, 4))
            .as_path(AsPath::from_sequence([Asn(1)]))
            .build()
            .unwrap();
        let wire = encode_message(&Message::Update(u.clone()));
        assert_eq!(decode_message(&wire).unwrap(), Message::Update(u));
    }

    #[test]
    fn as_set_roundtrip() {
        let path = AsPath::from_segments([
            PathSegment::Sequence(vec![Asn(701)]),
            PathSegment::Set(vec![Asn(1239), Asn(1800)]),
        ]);
        let u = UpdateBuilder::new()
            .announce(p("198.32.0.0/16"))
            .next_hop(Ipv4Addr::new(1, 2, 3, 4))
            .as_path(path)
            .build()
            .unwrap();
        let wire = encode_message(&Message::Update(u.clone()));
        assert_eq!(decode_message(&wire).unwrap(), Message::Update(u));
    }

    #[test]
    fn bad_marker_rejected() {
        let mut wire = encode_message(&Message::Keepalive).to_vec();
        wire[3] = 0;
        assert_eq!(decode_message(&wire).unwrap_err(), DecodeError::BadMarker);
    }

    #[test]
    fn truncation_rejected() {
        let wire = encode_message(&Message::Update(sample_update()));
        for cut in [0, 5, HEADER_LEN - 1, HEADER_LEN + 1, wire.len() - 1] {
            assert_eq!(
                decode_message(&wire[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_type_rejected() {
        let mut wire = encode_message(&Message::Keepalive).to_vec();
        wire[18] = 9;
        assert_eq!(decode_message(&wire).unwrap_err(), DecodeError::BadType(9));
    }

    #[test]
    fn bad_length_rejected() {
        let mut wire = encode_message(&Message::Keepalive).to_vec();
        wire[16] = 0;
        wire[17] = 5; // length 5 < 19
        assert_eq!(
            decode_message(&wire).unwrap_err(),
            DecodeError::BadLength(5)
        );
    }

    #[test]
    fn keepalive_with_body_rejected() {
        let mut wire = encode_message(&Message::Keepalive).to_vec();
        wire.push(0);
        wire[17] = 20;
        assert!(matches!(
            decode_message(&wire).unwrap_err(),
            DecodeError::BadLength(20)
        ));
    }

    #[test]
    fn bad_prefix_length_rejected() {
        // Hand-build an UPDATE with a withdrawn prefix of length 33.
        let mut body = BytesMut::new();
        body.put_u16(2); // withdrawn len
        body.put_u8(33);
        body.put_u8(0);
        body.put_u16(0); // attr len
        let mut wire = BytesMut::new();
        wire.put_bytes(0xff, 16);
        wire.put_u16((HEADER_LEN + body.len()) as u16);
        wire.put_u8(2);
        wire.extend_from_slice(&body);
        assert_eq!(
            decode_message(&wire).unwrap_err(),
            DecodeError::BadPrefixLength(33)
        );
    }

    #[test]
    fn nlri_without_attrs_rejected() {
        let mut body = BytesMut::new();
        body.put_u16(0); // withdrawn
        body.put_u16(0); // attrs
        body.put_u8(8); // NLRI 10/8
        body.put_u8(10);
        let mut wire = BytesMut::new();
        wire.put_bytes(0xff, 16);
        wire.put_u16((HEADER_LEN + body.len()) as u16);
        wire.put_u8(2);
        wire.extend_from_slice(&body);
        assert!(matches!(
            decode_message(&wire).unwrap_err(),
            DecodeError::MissingMandatoryAttribute(_)
        ));
    }

    #[test]
    fn open_bad_version_and_holdtime() {
        let open = Open::new(Asn(1), Ipv4Addr::LOCALHOST);
        let mut wire = encode_message(&Message::Open(open)).to_vec();
        wire[HEADER_LEN] = 3; // version 3
        assert_eq!(
            decode_message(&wire).unwrap_err(),
            DecodeError::UnsupportedVersion(3)
        );
        let mut wire2 = encode_message(&Message::Open(Open {
            version: 4,
            asn: Asn(1),
            hold_time: 180,
            router_id: Ipv4Addr::LOCALHOST,
        }))
        .to_vec();
        wire2[HEADER_LEN + 3] = 0;
        wire2[HEADER_LEN + 4] = 2; // hold time 2
        assert_eq!(
            decode_message(&wire2).unwrap_err(),
            DecodeError::BadHoldTime(2)
        );
    }

    #[test]
    fn stream_decoding_consumes_exact_lengths() {
        let m1 = Message::Keepalive;
        let m2 = Message::Update(sample_update());
        let mut stream = encode_message(&m1).to_vec();
        stream.extend_from_slice(&encode_message(&m2));
        let (d1, used1) = decode_stream_message(&stream).unwrap();
        assert_eq!(d1, m1);
        let (d2, used2) = decode_stream_message(&stream[used1..]).unwrap();
        assert_eq!(d2, m2);
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn trailing_garbage_rejected_by_decode_message() {
        let mut wire = encode_message(&Message::Keepalive).to_vec();
        wire.push(0xab);
        assert!(decode_message(&wire).is_err());
    }

    #[test]
    fn split_update_respects_budget_and_preserves_content() {
        let withdrawn: Vec<Prefix> = (0..2000u32)
            .map(|i| Prefix::from_raw(0x0a00_0000 | (i << 8), 24))
            .collect();
        let attrs = PathAttributes::new(
            Origin::Igp,
            AsPath::from_sequence([Asn(701)]),
            Ipv4Addr::new(1, 1, 1, 1),
        );
        let nlri: Vec<Prefix> = (0..2000u32)
            .map(|i| Prefix::from_raw(0xc000_0000 | (i << 8), 24))
            .collect();
        let big = Update {
            withdrawn: withdrawn.clone(),
            attrs: Some(attrs),
            nlri: nlri.clone(),
        };
        let parts = split_update(&big);
        assert!(parts.len() > 2);
        let mut got_w = Vec::new();
        let mut got_n = Vec::new();
        for part in &parts {
            // Every part must be encodable within the size limit.
            let wire = encode_message(&Message::Update(part.clone()));
            assert!(wire.len() <= MAX_MESSAGE_LEN);
            got_w.extend_from_slice(&part.withdrawn);
            got_n.extend_from_slice(&part.nlri);
        }
        assert_eq!(got_w, withdrawn);
        assert_eq!(got_n, nlri);
    }

    #[test]
    fn unknown_optional_attribute_skipped() {
        // Append an unknown optional attribute (type 200) after a valid set.
        let u = UpdateBuilder::new()
            .announce(p("10.0.0.0/8"))
            .next_hop(Ipv4Addr::new(1, 1, 1, 1))
            .as_path(AsPath::from_sequence([Asn(1)]))
            .build()
            .unwrap();
        let mut attrs = BytesMut::new();
        encode_attrs(u.attrs.as_ref().unwrap(), &mut attrs);
        attrs.put_u8(attr_flag::OPTIONAL | attr_flag::TRANSITIVE);
        attrs.put_u8(200);
        attrs.put_u8(2);
        attrs.put_u16(0xbeef);
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(attrs.len() as u16);
        body.extend_from_slice(&attrs);
        body.put_u8(8);
        body.put_u8(10);
        let mut wire = BytesMut::new();
        wire.put_bytes(0xff, 16);
        wire.put_u16((HEADER_LEN + body.len()) as u16);
        wire.put_u8(2);
        wire.extend_from_slice(&body);
        let decoded = decode_message(&wire).unwrap();
        assert_eq!(decoded, Message::Update(u));
    }

    #[test]
    fn unknown_wellknown_attribute_rejected() {
        let mut attrs = BytesMut::new();
        attrs.put_u8(attr_flag::TRANSITIVE); // well-known
        attrs.put_u8(99);
        attrs.put_u8(0);
        let mut body = BytesMut::new();
        body.put_u16(0);
        body.put_u16(attrs.len() as u16);
        body.extend_from_slice(&attrs);
        let mut wire = BytesMut::new();
        wire.put_bytes(0xff, 16);
        wire.put_u16((HEADER_LEN + body.len()) as u16);
        wire.put_u8(2);
        wire.extend_from_slice(&body);
        assert!(matches!(
            decode_message(&wire).unwrap_err(),
            DecodeError::BadAttribute(_)
        ));
    }

    #[test]
    fn decode_error_notification_mapping() {
        assert_eq!(
            DecodeError::BadMarker.notification().code,
            NotificationCode::MessageHeaderError
        );
        assert_eq!(
            DecodeError::UnsupportedVersion(3).notification().code,
            NotificationCode::OpenMessageError
        );
        assert_eq!(
            DecodeError::BadPrefixLength(40).notification().code,
            NotificationCode::UpdateMessageError
        );
    }
}
