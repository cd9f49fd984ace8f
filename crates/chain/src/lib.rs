//! # iri-chain — the hash-linked boundary chain
//!
//! The simulation core (world, classifier, store layout) is a pure
//! function of its inputs. This crate records those inputs **once**, at
//! the moment they cross into the core, as an append-only chain of
//! hash-linked entries — the determinism contract that makes a week-long
//! run crash-resumable and any published figure replayable bit-for-bit.
//!
//! The chain is a record of *what the world looked like*, never of what
//! the core computed: classified monitor events, per-day fault-draw
//! digests, day boundaries, and end-of-day checkpoints. Derived state
//! (segment bytes, manifests, incident lists) is reproduced by rerunning
//! the core over the chain, which is exactly what `--resume` and
//! `--replay` do.
//!
//! ## Entry format
//!
//! `CHAIN.log` holds one [`iri_store::frame`] frame per entry: the
//! [`EntryKind`] byte and the payload (a compact integer encoding, never
//! JSON — the chain is the one file whose content must be stable
//! forever). Each entry's `seq` (its zero-based index) and `hash` (the
//! [`iri_core::fxhash::FxHasher`] digest of `(seq, kind tag, payload,
//! prev)`, `prev` being the previous entry's hash, 0 for genesis) are not
//! stored: a load recomputes them with [`entry_hash`]. The head hash
//! therefore commits to the entire recorded history, and `BENCH_*.json`
//! stamps it so every published number names the exact input stream
//! that produced it. The text-line chains of older builds are refused
//! with [`ChainError::Corrupt`] and left untouched.
//!
//! ## Durability
//!
//! All writes go through [`iri_faults::StoreFs`] — the same trait the
//! segment store's manifest-journal protocol uses — so the fault
//! injector's crash matrix covers chain appends exactly like segment
//! commits. Each flush is one `append` + `sync`; recovery keeps the
//! valid prefix of whole frames and replaces a torn file by that prefix
//! through [`iri_store::durable::write_atomic`] (the all-or-prefix
//! discipline for a single append-only file, the moral twin of the
//! store's all-or-previous commit protocol). The writer
//! flushes the chain **before** every store commit, so on any crash the
//! durable chain covers at least every committed event.
//!
//! ## Divergence as a test
//!
//! In verify mode the tape compares each crossing against the recorded
//! entry at its cursor and fails with [`ChainError::Divergence`] naming
//! the first divergent sequence number — nondeterminism bugs become a
//! first-class differential test instead of a mystery diff.

pub mod codec;
pub mod entry;
pub mod tape;

pub use codec::{decode_event, encode_event, Genesis, Mark};
pub use entry::{entry_hash, ChainEntry, EntryKind};
pub use tape::{ChainSummary, ChainTape, CHAIN_FILE};

use std::fmt;
use std::io;
use std::path::PathBuf;

/// A chain failure.
#[derive(Debug)]
pub enum ChainError {
    /// The underlying filesystem failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// The I/O error.
        source: io::Error,
    },
    /// An entry failed structural validation (bad hash link, bad field,
    /// out-of-order seq) at a point recovery cannot repair by
    /// truncation.
    Corrupt {
        /// Sequence number of the offending entry.
        seq: u64,
        /// What was wrong.
        reason: String,
    },
    /// The chain belongs to a different run configuration (pack,
    /// seed, duration, …) than the one asking to use it.
    Mismatch {
        /// Human-readable description of the disagreement.
        what: String,
    },
    /// Replay produced a crossing that differs from the recording: the
    /// first divergent sequence number, with both sides.
    Divergence {
        /// Sequence number of the first divergent entry.
        seq: u64,
        /// What the recording holds there.
        expected: String,
        /// What the replay produced.
        got: String,
    },
    /// Replay produced more crossings than the recording holds (the
    /// recorded run ended at `len` entries).
    PastEnd {
        /// Sequence number the replay tried to cross at.
        seq: u64,
    },
    /// Replay ended with recorded entries still unconsumed — the
    /// recorded run saw more inputs than the replay produced.
    Unconsumed {
        /// First entry the replay never reached.
        seq: u64,
        /// Entries remaining.
        remaining: u64,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Io { path, source } => {
                write!(f, "chain I/O error at {}: {source}", path.display())
            }
            ChainError::Corrupt { seq, reason } => {
                write!(f, "chain corrupt at seq {seq}: {reason}")
            }
            ChainError::Mismatch { what } => {
                write!(f, "chain does not match this run: {what}")
            }
            ChainError::Divergence { seq, expected, got } => write!(
                f,
                "replay diverged at seq {seq}: recorded [{expected}], produced [{got}]"
            ),
            ChainError::PastEnd { seq } => write!(
                f,
                "replay produced a crossing at seq {seq} past the end of the recording"
            ),
            ChainError::Unconsumed { seq, remaining } => write!(
                f,
                "replay ended with {remaining} recorded entr(y/ies) unconsumed from seq {seq}"
            ),
        }
    }
}

impl std::error::Error for ChainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChainError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ChainError {
    pub(crate) fn io(path: &std::path::Path, source: io::Error) -> Self {
        ChainError::Io {
            path: path.to_path_buf(),
            source,
        }
    }
}
