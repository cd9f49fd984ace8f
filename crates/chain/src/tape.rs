//! The chain tape: the durable, cursor-verified chain file.
//!
//! A [`ChainTape`] is one `CHAIN.log` plus an in-memory cursor. Fresh
//! recordings append; resume and replay verify each crossing against the
//! recorded entry at the cursor before (re-)appending past the end. The
//! tape never buffers more than one flush interval of entries, and every
//! flush is a single `append` + `sync` through [`iri_faults::StoreFs`], so the crash
//! matrix drives chain durability with the same machinery that drives
//! segment commits.
//!
//! The file is a record log in the store's frame codec
//! ([`iri_store::frame`]), one frame per entry, so a load reads back
//! exactly the valid prefix the store's journal recovery reads.

use crate::codec::Genesis;
use crate::entry::{ChainEntry, EntryKind};
use crate::ChainError;
use iri_faults::{RetryPolicy, SharedFs};
use iri_store::durable::write_atomic;
use iri_store::frame::read_valid_prefix;
use std::path::{Path, PathBuf};

/// The chain file name inside the chain directory.
pub const CHAIN_FILE: &str = "CHAIN.log";

/// What the tape may do when a crossing reaches the cursor past the last
/// recorded entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// Append new entries (record and resume).
    Append,
    /// Fail with [`ChainError::PastEnd`] — the recording is closed
    /// (replay).
    Sealed,
}

/// Summary of a loaded chain, for reports and CLI output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSummary {
    /// Total entries.
    pub entries: u64,
    /// Event entries among them.
    pub events: u64,
    /// Head hash (the last entry's hash).
    pub head: u64,
    /// Bytes of torn tail dropped during recovery.
    pub truncated: u64,
}

/// The hash-linked chain file plus the verify cursor.
///
/// Only the **recorded prefix** (what [`ChainTape::load`] read from
/// disk, or the genesis entry of a fresh recording) stays resident —
/// resume and replay need it for cursor verification and planning.
/// Appended entries are dropped once flushed, so a week-long recording
/// holds one flush interval of entries in memory, never the whole run:
/// the runner's bounded-memory contract extends to the chain.
#[derive(Debug)]
pub struct ChainTape {
    fs: SharedFs,
    path: PathBuf,
    /// The recorded prefix: genesis plus everything loaded from disk.
    recorded: Vec<ChainEntry>,
    /// Appended entries not yet flushed (dropped by [`ChainTape::flush`]).
    pending: Vec<ChainEntry>,
    /// Appended entries already flushed and dropped from memory.
    flushed_appends: u64,
    /// Next entry index a crossing is checked against (total crossings
    /// consumed or appended so far).
    cursor: usize,
    /// The last entry's hash — the head, maintained across drops.
    head: u64,
    /// Event entries among the recorded prefix plus appends.
    events: u64,
    tail: Tail,
    /// Bytes dropped by torn-tail truncation at load.
    truncated: u64,
}

impl ChainTape {
    /// Starts a fresh recording: creates `dir`, writes the genesis
    /// entry durably, and leaves the tape in append mode.
    ///
    /// # Errors
    /// [`ChainError::Io`] if the directory or file cannot be written, or
    /// if a chain file already exists there (refuses to clobber a
    /// recording).
    pub fn create(fs: SharedFs, dir: &Path, genesis: &Genesis) -> Result<ChainTape, ChainError> {
        let path = dir.join(CHAIN_FILE);
        if fs.exists(&path) {
            return Err(ChainError::io(
                &path,
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "chain file already exists; use resume or pick a fresh directory",
                ),
            ));
        }
        fs.create_dir_all(dir).map_err(|e| ChainError::io(dir, e))?;
        let first = ChainEntry::link(0, EntryKind::Genesis, genesis.encode(), 0);
        let mut frame = Vec::new();
        first.put_frame(&mut frame);
        fs.write(&path, &frame)
            .map_err(|e| ChainError::io(&path, e))?;
        fs.sync(&path).map_err(|e| ChainError::io(&path, e))?;
        fs.sync_dir(dir).map_err(|e| ChainError::io(dir, e))?;
        let head = first.hash;
        Ok(ChainTape {
            fs,
            path,
            recorded: vec![first],
            pending: Vec::new(),
            flushed_appends: 0,
            cursor: 1,
            head,
            events: 0,
            tail: Tail::Append,
            truncated: 0,
        })
    }

    /// Loads an existing chain for resume (append mode) or replay
    /// (sealed mode; see [`ChainTape::seal`]).
    ///
    /// Recovery keeps the file's valid prefix of whole frames (the
    /// torn-tail rule of [`iri_store::frame`]) and recomputes the hash
    /// links from it. A torn tail is cut off by atomically replacing the
    /// file with that prefix. A chain without a genesis entry at its
    /// start is unrecoverable and left as found.
    ///
    /// # Errors
    /// [`ChainError::Io`] on filesystem failures, [`ChainError::Corrupt`]
    /// if no genesis-rooted prefix exists (naming the text-line format
    /// of older builds when it finds that), or a checksum-valid frame is
    /// not an entry.
    pub fn load(fs: SharedFs, dir: &Path) -> Result<ChainTape, ChainError> {
        let path = dir.join(CHAIN_FILE);
        let bytes = fs.read(&path).map_err(|e| ChainError::io(&path, e))?;
        let (frames, torn_at) = read_valid_prefix(&bytes);
        let mut entries: Vec<ChainEntry> = Vec::with_capacity(frames.len());
        for (seq, frame) in (0u64..).zip(frames) {
            let kind = EntryKind::from_byte(frame.kind)
                .filter(|k| (seq == 0) == (*k == EntryKind::Genesis));
            let (Some(kind), Ok(payload)) = (kind, std::str::from_utf8(frame.body)) else {
                let reason = "checksum-valid frame is not a chain entry".to_owned();
                return Err(ChainError::Corrupt { seq, reason });
            };
            let prev = entries.last().map_or(0, |p| p.hash);
            entries.push(ChainEntry::link(seq, kind, payload.to_owned(), prev));
        }
        if entries.is_empty() {
            let reason = if bytes.starts_with(b"0 genesis ") {
                "text-line chain of an older build; this build reads only framed chains"
            } else {
                "no valid genesis entry; chain is unrecoverable"
            };
            let reason = reason.to_owned();
            return Err(ChainError::Corrupt { seq: 0, reason });
        }
        if torn_at < bytes.len() {
            // Replace the file with its valid prefix so later appends
            // extend a clean log.
            write_atomic(&*fs, &RetryPolicy::none(), &path, &bytes[..torn_at], true)
                .map_err(|e| ChainError::io(&path, std::io::Error::other(e)))?;
            fs.sync_dir(dir).map_err(|e| ChainError::io(dir, e))?;
        }
        let head = entries.last().map_or(0, |e| e.hash);
        let events = entries
            .iter()
            .filter(|e| e.kind == EntryKind::Event)
            .count() as u64;
        Ok(ChainTape {
            fs,
            path,
            recorded: entries,
            pending: Vec::new(),
            flushed_appends: 0,
            cursor: 1,
            head,
            events,
            tail: Tail::Append,
            truncated: (bytes.len() - torn_at) as u64,
        })
    }

    /// Seals the tape: crossings past the recorded end fail with
    /// [`ChainError::PastEnd`] instead of appending. Replay mode.
    pub fn seal(&mut self) {
        self.tail = Tail::Sealed;
    }

    /// Decodes and verifies the genesis entry against `current`.
    ///
    /// # Errors
    /// [`ChainError::Mismatch`] naming the first differing field.
    pub fn verify_genesis(&self, current: &Genesis) -> Result<Genesis, ChainError> {
        let recorded = Genesis::decode(&self.recorded[0].payload)?;
        recorded.ensure_matches(current)?;
        Ok(recorded)
    }

    /// Records one boundary crossing.
    ///
    /// While the cursor sits inside the recorded prefix the crossing is
    /// **verified** against the entry there; past the end it is appended
    /// (or rejected, if sealed). Returns the entry's sequence number.
    ///
    /// # Errors
    /// [`ChainError::Divergence`] with the first divergent sequence
    /// number, or [`ChainError::PastEnd`] on a sealed tape.
    pub fn cross(&mut self, kind: EntryKind, payload: String) -> Result<u64, ChainError> {
        let seq = self.cursor as u64;
        if let Some(recorded) = self.recorded.get(self.cursor) {
            if recorded.kind != kind || recorded.payload != payload {
                return Err(ChainError::Divergence {
                    seq,
                    expected: format!("{} {}", recorded.kind, recorded.payload),
                    got: format!("{kind} {payload}"),
                });
            }
            self.cursor += 1;
            return Ok(seq);
        }
        if self.tail == Tail::Sealed {
            return Err(ChainError::PastEnd { seq });
        }
        let entry = ChainEntry::link(seq, kind, payload, self.head);
        self.head = entry.hash;
        if kind == EntryKind::Event {
            self.events += 1;
        }
        self.pending.push(entry);
        self.cursor += 1;
        Ok(seq)
    }

    /// Flushes pending entries: one `append` + `sync`. A no-op when
    /// nothing is pending, so callers flush unconditionally before every
    /// store commit.
    ///
    /// # Errors
    /// [`ChainError::Io`] on filesystem failure.
    pub fn flush(&mut self) -> Result<(), ChainError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for e in &self.pending {
            e.put_frame(&mut buf);
        }
        self.fs
            .append(&self.path, &buf)
            .map_err(|e| ChainError::io(&self.path, e))?;
        self.fs
            .sync(&self.path)
            .map_err(|e| ChainError::io(&self.path, e))?;
        // Durable entries leave memory: recordings stay O(flush interval).
        self.flushed_appends += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Fails if recorded entries remain past the cursor: the recording
    /// saw more inputs than this run produced.
    ///
    /// # Errors
    /// [`ChainError::Unconsumed`] with the first unreached entry.
    pub fn expect_consumed(&self) -> Result<(), ChainError> {
        let remaining = self.recorded.len().saturating_sub(self.cursor);
        if remaining > 0 {
            return Err(ChainError::Unconsumed {
                seq: self.cursor as u64,
                remaining: remaining as u64,
            });
        }
        Ok(())
    }

    /// Positions the verify cursor. Resume uses this to start verifying
    /// at the first re-simulated day's `DayStart` entry.
    pub fn set_cursor(&mut self, index: usize) {
        self.cursor = index.min(self.recorded.len());
    }

    /// The recorded prefix: what load read from disk (plus genesis on a
    /// fresh recording). Appended entries are flushed and dropped, so
    /// they never appear here.
    #[must_use]
    pub fn entries(&self) -> &[ChainEntry] {
        &self.recorded
    }

    /// Total entries: the recorded prefix plus everything appended.
    #[must_use]
    pub fn len(&self) -> usize {
        self.recorded.len() + self.pending.len() + self.flushed_appends as usize
    }

    /// Whether the tape holds no entries (never true after
    /// create/load — genesis is always present).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The head hash: the last entry's hash, committing to the whole
    /// recorded history.
    #[must_use]
    pub fn head_hash(&self) -> u64 {
        self.head
    }

    /// Event entries in the chain (recorded plus appended).
    #[must_use]
    pub fn events_len(&self) -> u64 {
        self.events
    }

    /// Entry index of the `n`-th event entry (0-based) in the recorded
    /// prefix, if recorded.
    #[must_use]
    pub fn entry_of_event(&self, n: u64) -> Option<usize> {
        let mut seen = 0u64;
        for (i, e) in self.recorded.iter().enumerate() {
            if e.kind == EntryKind::Event {
                if seen == n {
                    return Some(i);
                }
                seen += 1;
            }
        }
        None
    }

    /// Entry index of the `DayStart` entry for `run_day` in the recorded
    /// prefix, if recorded.
    #[must_use]
    pub fn day_start_index(&self, run_day: u32) -> Option<usize> {
        let want = format!("{run_day} ");
        self.recorded.iter().position(|e| {
            e.kind == EntryKind::DayStart
                && (e.payload.starts_with(&want) || e.payload == format!("{run_day}"))
        })
    }

    /// Summarizes the loaded chain.
    #[must_use]
    pub fn summary(&self) -> ChainSummary {
        ChainSummary {
            entries: self.len() as u64,
            events: self.events_len(),
            head: self.head_hash(),
            truncated: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Mark;
    use iri_faults::{real_fs, FaultKind, FaultPlan, FaultyFs};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("iri-chain-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn genesis() -> Genesis {
        Genesis {
            fingerprint: 0x1234,
            seed: 42,
            days: 2,
            hours: 24,
            batch_events: 64,
            segment_rows: 256,
            name: "tape test".to_owned(),
            start_day: 0,
        }
    }

    fn record_sample(dir: &Path) -> ChainTape {
        let mut tape = ChainTape::create(real_fs(), dir, &genesis()).expect("create");
        let day = Mark::DayStart {
            run_day: 0,
            sim_day: 0,
        };
        tape.cross(day.kind(), day.encode()).expect("day");
        for i in 0..5u64 {
            tape.cross(EntryKind::Event, format!("{i} 1 2 3 8 0 0 0 4"))
                .expect("event");
        }
        let ckpt = Mark::Checkpoint {
            run_day: 0,
            events: 5,
            census_prefixes: 3,
            spills: 0,
            restores: 0,
            spill_bytes_written: 0,
            spill_bytes_read: 0,
        };
        tape.cross(ckpt.kind(), ckpt.encode()).expect("ckpt");
        tape.flush().expect("flush");
        tape
    }

    #[test]
    fn record_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let recorded = record_sample(&dir);
        let loaded = ChainTape::load(real_fs(), &dir).expect("load");
        assert_eq!(loaded.len(), recorded.len());
        assert_eq!(loaded.entries().len(), recorded.len());
        assert_eq!(loaded.head_hash(), recorded.head_hash());
        assert_eq!(loaded.events_len(), 5);
        assert_eq!(loaded.summary().truncated, 0);
        loaded.verify_genesis(&genesis()).expect("genesis matches");
        let mut other = genesis();
        other.seed = 43;
        assert!(matches!(
            loaded.verify_genesis(&other),
            Err(ChainError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recordings_do_not_retain_flushed_entries() {
        let dir = temp_dir("bounded");
        let mut tape = ChainTape::create(real_fs(), &dir, &genesis()).expect("create");
        for i in 0..100u64 {
            tape.cross(EntryKind::Event, format!("{i} 1 2 3 8 0 0 0 4"))
                .expect("event");
            if i.is_multiple_of(10) {
                tape.flush().expect("flush");
            }
        }
        tape.flush().expect("flush");
        // Only the genesis entry stays resident; counters and the head
        // still describe the whole chain.
        assert_eq!(tape.entries().len(), 1);
        assert_eq!(tape.len(), 101);
        assert_eq!(tape.events_len(), 100);
        let loaded = ChainTape::load(real_fs(), &dir).expect("load");
        assert_eq!(loaded.len(), 101);
        assert_eq!(loaded.events_len(), 100);
        assert_eq!(loaded.head_hash(), tape.head_hash());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = temp_dir("clobber");
        record_sample(&dir);
        assert!(matches!(
            ChainTape::create(real_fs(), &dir, &genesis()),
            Err(ChainError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_rewritten() {
        let dir = temp_dir("torn");
        let recorded = record_sample(&dir);
        let path = dir.join(CHAIN_FILE);
        // Simulate a crash mid-append: a torn final frame.
        let mut bytes = std::fs::read(&path).expect("read");
        let keep = bytes.len() - 10;
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).expect("tear");
        let loaded = ChainTape::load(real_fs(), &dir).expect("load");
        assert_eq!(loaded.len(), recorded.len() - 1);
        let repaired = std::fs::metadata(&path).expect("stat").len();
        assert_eq!(loaded.summary().truncated, keep as u64 - repaired);
        // The rewrite leaves a clean file: a second load sees no tears.
        let again = ChainTape::load(real_fs(), &dir).expect("reload");
        assert_eq!(again.summary().truncated, 0);
        assert_eq!(again.entries(), loaded.entries());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_crash_during_repair_leaves_the_recording_whole() {
        let dir = temp_dir("repair-crash");
        record_sample(&dir);
        let path = dir.join(CHAIN_FILE);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).expect("tear");
        // Op 0 reads the chain, op 1 writes the repaired prefix: tear
        // that write before a single byte lands.
        let plan = FaultPlan::new().fault_at(1, FaultKind::TornWrite { keep: 0 });
        let faulty: SharedFs = Arc::new(FaultyFs::new(plan));
        assert!(matches!(
            ChainTape::load(faulty, &dir),
            Err(ChainError::Io { .. })
        ));
        assert_eq!(std::fs::read(&path).expect("reread"), bytes);
        let first = ChainTape::load(real_fs(), &dir).expect("load after the crash");
        let second = ChainTape::load(real_fs(), &dir).expect("load after the repair");
        assert_eq!(second.head_hash(), first.head_hash());
        assert_eq!(second.len(), first.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unreadable_or_empty_chain_is_an_error() {
        let dir = temp_dir("empty");
        assert!(matches!(
            ChainTape::load(real_fs(), &dir),
            Err(ChainError::Io { .. })
        ));
        std::fs::write(dir.join(CHAIN_FILE), b"garbage\n").expect("write");
        assert!(matches!(
            ChainTape::load(real_fs(), &dir),
            Err(ChainError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_cursor_detects_divergence_with_the_exact_seq() {
        let dir = temp_dir("diverge");
        record_sample(&dir);
        let mut tape = ChainTape::load(real_fs(), &dir).expect("load");
        let day = Mark::DayStart {
            run_day: 0,
            sim_day: 0,
        };
        tape.cross(day.kind(), day.encode()).expect("verify day");
        tape.cross(EntryKind::Event, "0 1 2 3 8 0 0 0 4".to_owned())
            .expect("verify event 0");
        let err = tape
            .cross(EntryKind::Event, "1 1 2 3 8 0 0 0 9".to_owned())
            .unwrap_err();
        match err {
            ChainError::Divergence { seq, expected, got } => {
                assert_eq!(seq, 3);
                assert!(expected.contains("1 1 2 3 8 0 0 0 4"), "{expected}");
                assert!(got.contains("1 1 2 3 8 0 0 0 9"), "{got}");
            }
            other => panic!("expected Divergence, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealed_tapes_reject_crossings_past_the_end() {
        let dir = temp_dir("sealed");
        record_sample(&dir);
        let mut tape = ChainTape::load(real_fs(), &dir).expect("load");
        tape.seal();
        let last = tape.len();
        tape.set_cursor(last);
        assert!(matches!(
            tape.cross(EntryKind::Event, "x".to_owned()),
            Err(ChainError::PastEnd { seq }) if seq == last as u64
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_tapes_append_past_the_end_and_flush_extends_the_file() {
        let dir = temp_dir("extend");
        let before = record_sample(&dir).head_hash();
        let mut tape = ChainTape::load(real_fs(), &dir).expect("load");
        tape.set_cursor(tape.len());
        tape.cross(EntryKind::Event, "5 1 2 3 8 0 0 0 4".to_owned())
            .expect("append");
        tape.flush().expect("flush");
        let reloaded = ChainTape::load(real_fs(), &dir).expect("reload");
        assert_eq!(reloaded.events_len(), 6);
        assert_ne!(reloaded.head_hash(), before);
        assert_eq!(reloaded.head_hash(), tape.head_hash());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expect_consumed_names_the_first_unreached_entry() {
        let dir = temp_dir("consumed");
        record_sample(&dir);
        let mut tape = ChainTape::load(real_fs(), &dir).expect("load");
        let day = Mark::DayStart {
            run_day: 0,
            sim_day: 0,
        };
        tape.cross(day.kind(), day.encode()).expect("day");
        let err = tape.expect_consumed().unwrap_err();
        assert!(matches!(
            err,
            ChainError::Unconsumed {
                seq: 2,
                remaining: 6
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seek_helpers_find_events_and_day_starts() {
        let dir = temp_dir("seek");
        record_sample(&dir);
        // The seek helpers serve resume planning, which always starts
        // from a loaded tape — a fresh recording retains only genesis.
        let tape = ChainTape::load(real_fs(), &dir).expect("load");
        assert_eq!(tape.entry_of_event(0), Some(2));
        assert_eq!(tape.entry_of_event(4), Some(6));
        assert_eq!(tape.entry_of_event(5), None);
        assert_eq!(tape.day_start_index(0), Some(1));
        assert_eq!(tape.day_start_index(1), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
