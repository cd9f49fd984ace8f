//! Chain entries: the entry kinds and the hash link.

use iri_core::fxhash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// The type tag of one chain entry. The tag (one short word) is part of
/// the hashed bytes, so renaming a tag is a format break; the
/// discriminant is the kind byte of the entry's frame in `CHAIN.log`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EntryKind {
    /// Run identity: format version, pack fingerprint, effective
    /// duration — written once at sequence 0.
    Genesis = 1,
    /// A simulated day is starting.
    DayStart = 2,
    /// The day's scheduled fault draws, as a count + digest of every
    /// world injection the seeded fault RNGs produced.
    Faults = 3,
    /// One classified monitor event crossing into the store.
    Event = 4,
    /// End-of-day checkpoint: cumulative event count, census, spill
    /// totals — everything resume needs for days it will skip.
    Checkpoint = 5,
}

impl EntryKind {
    /// The hashed tag.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            EntryKind::Genesis => "genesis",
            EntryKind::DayStart => "day",
            EntryKind::Faults => "faults",
            EntryKind::Event => "event",
            EntryKind::Checkpoint => "ckpt",
        }
    }

    /// Inverse of `kind as u8`: the kind a frame's kind byte names.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<EntryKind> {
        use EntryKind::*;
        [Genesis, DayStart, Faults, Event, Checkpoint]
            .into_iter()
            .find(|k| *k as u8 == byte)
    }
}

impl fmt::Display for EntryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One hash-linked entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainEntry {
    /// Zero-based position in the chain.
    pub seq: u64,
    /// Type tag.
    pub kind: EntryKind,
    /// Payload bytes (a compact integer encoding).
    pub payload: String,
    /// The previous entry's hash; 0 for the genesis entry.
    pub prev: u64,
    /// `entry_hash(seq, kind, payload, prev)`.
    pub hash: u64,
}

/// The FxHash link: digest of `(seq, kind tag, payload bytes, prev)`.
#[must_use]
pub fn entry_hash(seq: u64, kind: EntryKind, payload: &str, prev: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(seq);
    h.write(kind.tag().as_bytes());
    h.write(payload.as_bytes());
    h.write_u64(prev);
    h.finish()
}

impl ChainEntry {
    /// Builds and hashes an entry linked to `prev`.
    #[must_use]
    pub fn link(seq: u64, kind: EntryKind, payload: String, prev: u64) -> Self {
        let hash = entry_hash(seq, kind, &payload, prev);
        ChainEntry {
            seq,
            kind,
            payload,
            prev,
            hash,
        }
    }

    /// Appends the entry's frame — kind byte and payload — to `buf`.
    /// `seq`, `prev` and `hash` are implicit: a load recomputes them
    /// from the frame's position and the entries before it.
    pub(crate) fn put_frame(&self, buf: &mut Vec<u8>) {
        iri_store::frame::put_frame(buf, self.kind as u8, self.payload.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_field_change_changes_the_hash() {
        let e = ChainEntry::link(7, EntryKind::Faults, "0 12 00ff".to_owned(), 99);
        for other in [
            ChainEntry::link(7, EntryKind::Faults, "0 13 00ff".to_owned(), 99),
            ChainEntry::link(7, EntryKind::DayStart, "0 12 00ff".to_owned(), 99),
            ChainEntry::link(8, EntryKind::Faults, "0 12 00ff".to_owned(), 99),
        ] {
            assert_ne!(other.hash, e.hash, "{other:?}");
        }
    }

    #[test]
    fn hash_links_chain_entries_together() {
        let a = ChainEntry::link(0, EntryKind::Genesis, "v1".to_owned(), 0);
        let b = ChainEntry::link(1, EntryKind::Event, "x".to_owned(), a.hash);
        let b2 = ChainEntry::link(1, EntryKind::Event, "x".to_owned(), a.hash ^ 1);
        assert_ne!(b.hash, b2.hash, "hash must commit to the link");
    }

    #[test]
    fn kind_bytes_round_trip() {
        for kind in [
            EntryKind::Genesis,
            EntryKind::DayStart,
            EntryKind::Faults,
            EntryKind::Event,
            EntryKind::Checkpoint,
        ] {
            assert_eq!(EntryKind::from_byte(kind as u8), Some(kind));
        }
        assert_eq!(EntryKind::from_byte(0), None);
        assert_eq!(EntryKind::from_byte(6), None);
    }
}
