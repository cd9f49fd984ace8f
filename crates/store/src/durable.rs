//! Durability: the store transaction, the manifest journal, and crash
//! recovery.
//!
//! ## The transaction
//!
//! Every mutation of a store directory — `StoreWriter::create` +
//! `commit`, `ingest_mrt`, `LiveStore::append_events`, compaction — is
//! one `Txn`, which walks the same five steps, each marked by a
//! [`CommitStep`] checkpoint the fault injector can kill at:
//!
//! 1. **Begin** — `Txn::begin` writes a `begin` record naming the new
//!    generation to a fresh `MANIFEST.journal` and fsyncs it *before*
//!    any store file is touched.
//! 2. **SegmentsDurable** — every new segment went through
//!    `Txn::write_segment` (`*.seg.tmp`, rename to `*.seg`, fsync
//!    deferred to `Txn::sync`, the seal's at the latest), every file
//!    the commit replaces was moved by `Txn::displace` to
//!    `retired/g<gen>/`, and the directory was fsynced.
//! 3. **JournalSealed** — a `commit` record carrying the full manifest
//!    is appended to the journal and fsynced. *This is the commit
//!    point*: recovery from any later crash reproduces the committed
//!    store.
//! 4. **ManifestPublished** — `MANIFEST.json` is written to a temp
//!    file, fsynced, and renamed into place. It is never touched before
//!    this step, so a crash earlier leaves the previous manifest whole.
//! 5. **JournalRetired** — the journal is removed.
//!
//! Displaced files are never deleted before the commit point: a crash
//! there needs them back, and a pinned [`crate::LiveStore`] snapshot may
//! read them long after. The live store reclaims `retired/g<gen>/` as
//! pins drop; an offline caller has no pins, so its transaction drops
//! its own `retired/g<gen>/` between steps 4 and 5 — while the journal
//! still marks the directory as mid-commit.
//!
//! Renaming a segment into place before its fsync is safe even where
//! compaction reuses a canonical file name: the old version already sits
//! in the retired tree, so after a crash recovery finds a torn file at
//! the main path, quarantines it, and restores the retired copy.
//!
//! ## The journal
//!
//! `MANIFEST.journal` is a [`crate::frame`] record log: a `begin` frame
//! (varint generation and segment rows), then, at the commit point, a
//! `commit` frame holding the manifest's compact JSON. Recovery reads
//! the journal's valid prefix, so a torn tail is no record. The
//! JSON-lines journal of older builds fails every open with a typed
//! error and is left as found: it may hold that build's sealed commit.
//!
//! ## Recovery
//!
//! Recovery (run by every `Store::open`) never rescans the directory
//! for truth — truth is the newest of (valid `MANIFEST.json`, valid
//! journal `commit` record), by generation. Every segment the chosen
//! manifest references is parsed and held against its entry by the same
//! verifier every later load runs; failures are moved to `quarantine/`
//! and dropped from the manifest (default) or returned as errors
//! (strict), unless the retired tree still holds the version the
//! manifest means. Files the chosen manifest does *not* reference — torn
//! `*.tmp` leftovers, orphan segments from a dead commit — are
//! quarantined too. A `begin` record with no `commit` means the crash
//! predates the commit point: the previous store (or the empty store,
//! for a first ingest) is the recovered state — all-or-previous
//! atomicity. A journal also means the commit that wrote it is dead, so
//! recovery ends by emptying that commit's `retired/g<gen>/`: after a
//! rollback whatever was not restored (a copy that failed verification,
//! a stale temp file) goes to `quarantine/`, after a roll-forward the
//! superseded files are dropped. Retired directories of other
//! generations are left to [`crate::LiveStore`].

use crate::frame::{put_frame, put_varint, read_valid_prefix, read_varint};
use crate::query::{build_manifest, parse_manifest, Manifest, SegmentMeta};
use crate::segment::SegmentFile;
use crate::{StoreError, DEFAULT_SEGMENT_ROWS, MANIFEST_FILE, RETIRED_DIR};
use iri_faults::{RetryPolicy, SharedFs, StoreFs};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use iri_faults::CommitStep;

/// Journal file name inside a store directory.
pub const JOURNAL_FILE: &str = "MANIFEST.journal";

/// Quarantine subdirectory name inside a store directory.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Frame kinds of the journal's `begin` and `commit` records.
const BEGIN: u8 = 1;
const COMMIT: u8 = 2;

/// How every record of the JSON-lines journal older builds wrote begins;
/// a framed journal starts with a `begin` frame's small length instead.
const JSON_LINES_JOURNAL: &[u8] = b"{\"version\":";

/// One file moved aside by recovery, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// File name relative to the store directory (its original name).
    pub file: String,
    /// Why recovery refused to serve it.
    pub reason: String,
}

/// What recovery did while opening a store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Files moved to `quarantine/` (or recorded as missing), in
    /// discovery order.
    pub quarantined: Vec<QuarantinedFile>,
    /// Files brought back from the retired tree: a rolled-back commit
    /// had already displaced them when the crash hit.
    pub restored: Vec<String>,
    /// Whether `MANIFEST.json` was rewritten (journal replay, dropped
    /// segments, or damage repair).
    pub repaired_manifest: bool,
}

impl Recovery {
    /// Whether recovery changed anything at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.restored.is_empty() && !self.repaired_manifest
    }
}

fn io_at(path: &Path, e: io::Error) -> StoreError {
    StoreError::io(path, e)
}

/// Writes (truncating any stale journal) and fsyncs the `begin` record.
fn journal_begin(
    fs: &dyn StoreFs,
    dir: &Path,
    generation: u64,
    segment_rows: u32,
) -> Result<(), StoreError> {
    let path = dir.join(JOURNAL_FILE);
    let mut body = Vec::new();
    put_varint(&mut body, generation);
    put_varint(&mut body, u64::from(segment_rows));
    let mut bytes = Vec::new();
    put_frame(&mut bytes, BEGIN, &body);
    fs.write(&path, &bytes).map_err(|e| io_at(&path, e))?;
    fs.sync(&path).map_err(|e| io_at(&path, e))?;
    fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
    Ok(())
}

/// Appends and fsyncs the `commit` record — the commit point.
fn journal_seal(fs: &dyn StoreFs, dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let path = dir.join(JOURNAL_FILE);
    let text = serde_json::to_string(manifest).map_err(|e| StoreError::Json(e.to_string()))?;
    let mut bytes = Vec::new();
    put_frame(&mut bytes, COMMIT, text.as_bytes());
    fs.append(&path, &bytes).map_err(|e| io_at(&path, e))?;
    fs.sync(&path).map_err(|e| io_at(&path, e))?;
    Ok(())
}

/// Runs one I/O operation under `retry`, adding the retries it spent to
/// `spent` and mapping the final error to [`StoreError::Io`] at `path`.
fn retried<T>(
    retry: &RetryPolicy,
    spent: &mut u64,
    path: &Path,
    op: impl FnMut() -> io::Result<T>,
) -> Result<T, StoreError> {
    let (res, used) = retry.run(op);
    *spent += used;
    res.map_err(|e| io_at(path, e))
}

/// The tree's one atomic file replacement: `bytes` go to `<dest>.tmp`,
/// which is renamed over `dest`. With `sync_first` the temp file is
/// fsynced before the rename, so `dest` never names unflushed bytes —
/// what the manifest, the watch state and a repaired chain need, having
/// nothing to fall back on. Without it the caller owes `dest` an fsync
/// before anything relies on it (segments: `Txn::sync`). Returns the
/// retries spent on transient errors.
pub fn write_atomic(
    fs: &dyn StoreFs,
    retry: &RetryPolicy,
    dest: &Path,
    bytes: &[u8],
    sync_first: bool,
) -> Result<u64, StoreError> {
    let mut tmp = dest.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut spent = 0;
    retried(retry, &mut spent, &tmp, || fs.write(&tmp, bytes))?;
    if sync_first {
        retried(retry, &mut spent, &tmp, || fs.sync(&tmp))?;
    }
    retried(retry, &mut spent, dest, || fs.rename(&tmp, dest))?;
    Ok(spent)
}

/// Atomically publishes `MANIFEST.json` and fsyncs the directory.
fn publish_manifest(fs: &dyn StoreFs, dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    let text =
        serde_json::to_string_pretty(manifest).map_err(|e| StoreError::Json(e.to_string()))?;
    let dest = dir.join(MANIFEST_FILE);
    write_atomic(fs, &RetryPolicy::none(), &dest, text.as_bytes(), true)?;
    fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
    Ok(())
}

/// Removes the journal once the manifest is published.
fn retire_journal(fs: &dyn StoreFs, dir: &Path) -> Result<(), StoreError> {
    let path = dir.join(JOURNAL_FILE);
    fs.remove(&path).map_err(|e| io_at(&path, e))?;
    fs.sync_dir(dir).map_err(|e| io_at(dir, e))
}

/// The directory a commit of generation `gen` parks displaced segments
/// in: `retired/g<gen>`, zero-padded so lexicographic order is
/// generation order.
pub(crate) fn retired_dir_for(dir: &Path, gen: u64) -> PathBuf {
    dir.join(RETIRED_DIR).join(format!("g{gen:010}"))
}

/// Removes `retired/g<gen>/` — callable only where no pin can need it —
/// and the retired root with it once nothing else is parked there.
fn drop_retired(fs: &dyn StoreFs, dir: &Path, gen: u64) -> Result<(), StoreError> {
    let gen_dir = retired_dir_for(dir, gen);
    fs.remove_dir(&gen_dir).map_err(|e| io_at(&gen_dir, e))?;
    let root = dir.join(RETIRED_DIR);
    if fs.list(&root).is_ok_and(|names| names.is_empty()) {
        fs.remove_dir(&root).map_err(|e| io_at(&root, e))?;
    }
    Ok(())
}

/// The retired tree's generation directories, oldest first.
pub(crate) fn retired_generations(fs: &dyn StoreFs, dir: &Path) -> Vec<(u64, PathBuf)> {
    let root = dir.join(RETIRED_DIR);
    let names = fs.list(&root).unwrap_or_default();
    let mut gens: Vec<(u64, PathBuf)> = names
        .iter()
        .filter_map(|n| Some((n.strip_prefix('g')?.parse().ok()?, root.join(n))))
        .collect();
    gens.sort();
    gens
}

/// One commit of the protocol in the [module docs](self), from the
/// journal `begin` record to the retired journal. Shared by reference:
/// ingest workers write their segments through the one transaction
/// their ingest began.
#[derive(Debug)]
pub(crate) struct Txn {
    fs: SharedFs,
    dir: PathBuf,
    retry: RetryPolicy,
    generation: u64,
    /// Whether snapshots pinned on older generations may still read
    /// what this commit displaces: the live store keeps
    /// `retired/g<gen>/` and reclaims it as pins drop, an offline
    /// caller drops it once the commit is sealed.
    keep_retired: bool,
    /// Segments renamed into place and still owed their fsync.
    unsynced: Mutex<VecDeque<PathBuf>>,
    /// Transient I/O errors absorbed by retry so far.
    retries: AtomicU64,
}

impl Txn {
    /// Step 1: makes the `begin` record of `generation` — one past the
    /// caller's manifest — durable before anything in `dir` is touched.
    pub(crate) fn begin(
        fs: SharedFs,
        dir: &Path,
        retry: RetryPolicy,
        generation: u64,
        segment_rows: u32,
        keep_retired: bool,
    ) -> Result<Txn, StoreError> {
        journal_begin(&*fs, dir, generation, segment_rows.max(1))?;
        fs.checkpoint(CommitStep::Begin)
            .map_err(|e| io_at(dir, e))?;
        Ok(Txn {
            fs,
            dir: dir.to_path_buf(),
            retry,
            generation,
            keep_retired,
            unsynced: Mutex::default(),
            retries: AtomicU64::new(0),
        })
    }

    /// Begins a commit that replaces whatever `dir` (created if absent)
    /// holds, as one generation past anything the directory names, and
    /// displaces what it leaves behind: every segment, and any temp file
    /// an earlier crash left in the root.
    pub(crate) fn replacing(
        fs: SharedFs,
        dir: &Path,
        retry: RetryPolicy,
        segment_rows: u32,
        keep_retired: bool,
    ) -> Result<Txn, StoreError> {
        fs.create_dir_all(dir).map_err(|e| io_at(dir, e))?;
        let generation = next_generation(&*fs, dir);
        let txn = Txn::begin(fs, dir, retry, generation, segment_rows, keep_retired)?;
        let names = txn.fs.list(dir).map_err(|e| io_at(dir, e))?;
        names
            .iter()
            .filter(|name| name.ends_with(".seg") || name.ends_with(".tmp"))
            .try_for_each(|name| txn.displace(name))?;
        Ok(txn)
    }

    /// Transient I/O errors absorbed by retry so far. Relaxed throughout:
    /// the count is a statistic and publishes no other data.
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Writes one segment file under its final name, each step retried
    /// on transient errors. Its fsync is deferred to the next
    /// `Txn::sync`, the seal's at the latest.
    pub(crate) fn write_segment(&self, file: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let dest = self.dir.join(file);
        let spent = write_atomic(&*self.fs, &self.retry, &dest, bytes, false)?;
        self.retries.fetch_add(spent, Ordering::Relaxed);
        self.unsynced.lock().expect("txn poisoned").push_back(dest);
        Ok(())
    }

    /// Fsyncs segments written and not yet synced, one at a time off the
    /// shared queue until it is empty. Ingest workers each call it as
    /// they finish, on their own thread, so their passes overlap and
    /// whoever is free takes the next file.
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        loop {
            let next = self.unsynced.lock().expect("txn poisoned").pop_front();
            let Some(dest) = next else { return Ok(()) };
            let mut spent = 0;
            let synced = retried(&self.retry, &mut spent, &dest, || self.fs.sync(&dest));
            self.retries.fetch_add(spent, Ordering::Relaxed);
            synced?;
        }
    }

    /// Moves a file this commit replaces out of the store root into
    /// `retired/g<gen>/`, where pinned snapshots and a rollback find it.
    pub(crate) fn displace(&self, file: &str) -> Result<(), StoreError> {
        let rdir = retired_dir_for(&self.dir, self.generation);
        self.fs.create_dir_all(&rdir).map_err(|e| io_at(&rdir, e))?;
        let path = self.dir.join(file);
        self.fs
            .rename(&path, &rdir.join(file))
            .map_err(|e| io_at(&path, e))
    }

    /// Steps 2–5: makes every written segment durable, seals the
    /// manifest of `segments` into the journal, publishes it and retires
    /// the journal. Returns the manifest it published.
    pub(crate) fn seal(
        &self,
        segments: Vec<SegmentMeta>,
        segment_rows: u32,
        records_read: u64,
    ) -> Result<Manifest, StoreError> {
        let manifest = build_manifest(segments, segment_rows, records_read, self.generation);
        let (fs, dir) = (&*self.fs, self.dir.as_path());
        let step = |s: CommitStep| fs.checkpoint(s).map_err(|e| io_at(dir, e));
        self.sync()?;
        fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
        step(CommitStep::SegmentsDurable)?;
        journal_seal(fs, dir, &manifest)?;
        step(CommitStep::JournalSealed)?;
        publish_manifest(fs, dir, &manifest)?;
        step(CommitStep::ManifestPublished)?;
        if !self.keep_retired {
            // Still under the journal: a crash from here on is one
            // recovery finishes, this directory included.
            drop_retired(fs, dir, self.generation)?;
        }
        retire_journal(fs, dir)?;
        step(CommitStep::JournalRetired)?;
        Ok(manifest)
    }
}

/// What the journal's valid prefix holds: the `begin` intent and, if
/// the commit point was reached, the committed manifest.
#[derive(Debug, Default)]
struct JournalView {
    begin: Option<(u64, u32)>,
    committed: Option<Manifest>,
}

/// Reads the journal, if there is one; a JSON-lines journal is a
/// [`StoreError::Corrupt`] at its path.
fn read_journal(fs: &dyn StoreFs, dir: &Path) -> Result<JournalView, StoreError> {
    let mut view = JournalView::default();
    let path = dir.join(JOURNAL_FILE);
    let Ok(bytes) = fs.read(&path) else {
        return Ok(view);
    };
    if bytes.starts_with(JSON_LINES_JOURNAL) {
        return Err(StoreError::corrupt(
            &path,
            "JSON-lines journal from an older build; this build reads only framed \
             journals, so finish that commit with the build that began it",
        ));
    }
    for frame in read_valid_prefix(&bytes).0 {
        match frame.kind {
            BEGIN => {
                let mut at = 0;
                let generation = read_varint(frame.body, &mut at);
                let rows = read_varint(frame.body, &mut at).and_then(|r| u32::try_from(r).ok());
                view.begin = generation.zip(rows).or(view.begin);
            }
            COMMIT => view.committed = parse_manifest(frame.body).ok().or(view.committed),
            _ => {}
        }
    }
    Ok(view)
}

/// The generation a new commit into `dir` should carry: one past the
/// newest generation any surviving manifest or journal record names.
/// Best-effort by design — unreadable state counts as generation 0.
fn next_generation(fs: &dyn StoreFs, dir: &Path) -> u64 {
    let mut newest = 0u64;
    if let Ok(bytes) = fs.read(&dir.join(MANIFEST_FILE)) {
        if let Ok(m) = parse_manifest(&bytes) {
            newest = newest.max(m.generation);
        }
    }
    let journal = read_journal(fs, dir).unwrap_or_default();
    if let Some((g, _)) = journal.begin {
        newest = newest.max(g);
    }
    if let Some(m) = &journal.committed {
        newest = newest.max(m.generation);
    }
    newest + 1
}

/// Moves the file at `src` (somewhere under the store directory) into
/// `quarantine/` under its own name (keeping a numbered suffix free)
/// and records why. Missing files are recorded without a move.
fn quarantine_file(
    fs: &dyn StoreFs,
    dir: &Path,
    src: &Path,
    reason: &str,
    recovery: &mut Recovery,
) -> Result<(), StoreError> {
    let name = src.file_name().unwrap_or_default().to_string_lossy();
    if fs.exists(src) {
        let qdir = dir.join(QUARANTINE_DIR);
        fs.create_dir_all(&qdir).map_err(|e| io_at(&qdir, e))?;
        let mut dest = qdir.join(&*name);
        let mut n = 1u32;
        while fs.exists(&dest) {
            dest = qdir.join(format!("{name}.{n}"));
            n += 1;
        }
        fs.rename(src, &dest).map_err(|e| io_at(src, e))?;
    }
    let file = src.strip_prefix(dir).unwrap_or(src);
    recovery.quarantined.push(QuarantinedFile {
        file: file.to_string_lossy().into_owned(),
        reason: reason.to_string(),
    });
    Ok(())
}

/// Holds a segment image against the manifest entry that references
/// it, with the verifier every later load of the file runs: checksum
/// and structure, then size, shard, row and page counts and every zone
/// map the manifest replicates.
fn verify(bytes: Vec<u8>, meta: &SegmentMeta) -> Result<(), String> {
    SegmentFile::parse(bytes)
        .and_then(|seg| seg.check_meta(meta))
        .map_err(|e| match e {
            StoreError::Corrupt { what, .. } => what,
            other => other.to_string(),
        })
}

/// Looks for a displaced copy of `meta`'s file in the retired tree and
/// moves it back into the store root. A commit displaces the files it
/// replaces *before* its commit point; a crash in that window rolls back
/// to a manifest whose segments now sit under `retired/g<gen>/`.
/// Newest retired generation wins; only a copy that validates against
/// the manifest entry is restored.
fn restore_from_retired(
    fs: &dyn StoreFs,
    dir: &Path,
    meta: &SegmentMeta,
) -> Result<bool, StoreError> {
    for (_, gen_dir) in retired_generations(fs, dir).iter().rev() {
        let candidate = gen_dir.join(&meta.file);
        if !fs.exists(&candidate) {
            continue;
        }
        let bytes = fs.read(&candidate).map_err(|e| io_at(&candidate, e))?;
        if verify(bytes, meta).is_err() {
            continue;
        }
        let dest = dir.join(&meta.file);
        fs.rename(&candidate, &dest)
            .map_err(|e| io_at(&candidate, e))?;
        fs.sync_dir(dir).map_err(|e| io_at(dir, e))?;
        return Ok(true);
    }
    Ok(false)
}

/// Opens a store directory, recovering from any crash point of the
/// commit protocol. Returns the manifest to serve and what recovery had
/// to do. With `strict`, any condition that would quarantine a file or
/// rewrite the manifest is an error instead.
pub(crate) fn recover(
    fs: &dyn StoreFs,
    dir: &Path,
    strict: bool,
) -> Result<(Manifest, Recovery), StoreError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let journal_path = dir.join(JOURNAL_FILE);
    let journal_present = fs.exists(&journal_path);
    if strict && journal_present {
        // A journal this build cannot read says so before anything else.
        read_journal(fs, dir)?;
        return Err(StoreError::quarantined(
            &journal_path,
            "unretired manifest journal: crash recovery required (open without strict to repair)",
        ));
    }

    // The disk manifest, if it parses; damage is remembered, not fatal,
    // because the journal may hold a newer (or identical) copy.
    let mut manifest_damage: Option<StoreError> = None;
    let disk = if fs.exists(&manifest_path) {
        match fs.read(&manifest_path) {
            Err(e) => return Err(io_at(&manifest_path, e)),
            Ok(bytes) => match parse_manifest(&bytes) {
                Ok(m) => Some(m),
                Err(e) => {
                    if strict {
                        return Err(e.with_path(&manifest_path));
                    }
                    manifest_damage = Some(e);
                    None
                }
            },
        }
    } else {
        None
    };

    let journal = read_journal(fs, dir)?;
    let begun = journal.begin.map(|(generation, _)| generation);
    // Newest generation wins; on a tie the journal does — its commit
    // record is written before (and survives) the manifest publish.
    let (chosen, from_journal) = match (disk, journal.committed) {
        (Some(d), Some(j)) if j.generation < d.generation => (d, false),
        (_, Some(j)) => (j, true),
        (Some(d), None) => (d, false),
        (None, None) => {
            if let Some((generation, rows)) = journal.begin {
                // Crashed after `begin`, before the commit point: the
                // recovered state is the empty store of that intent.
                let rows = if rows == 0 {
                    DEFAULT_SEGMENT_ROWS
                } else {
                    rows
                };
                (build_manifest(Vec::new(), rows, 0, generation), true)
            } else if let Some(e) = manifest_damage {
                return Err(e.with_path(&manifest_path));
            } else {
                return Err(io_at(
                    &manifest_path,
                    io::Error::new(
                        io::ErrorKind::NotFound,
                        "no manifest or journal in store directory",
                    ),
                ));
            }
        }
    };
    let (generation, segment_rows, records_read) =
        (chosen.generation, chosen.segment_rows, chosen.records_read);

    // Validate every referenced segment before serving queries from it:
    // file present, image sound, footer agreeing with the manifest.
    let mut recovery = Recovery::default();
    let mut kept = Vec::with_capacity(chosen.segments.len());
    let mut dropped = false;
    for meta in chosen.segments {
        let path = dir.join(&meta.file);
        let verdict: Result<(), String> = match fs.read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err("segment file missing".into()),
            Err(e) => return Err(io_at(&path, e)),
            Ok(bytes) => verify(bytes, &meta),
        };
        match verdict {
            Ok(()) => kept.push(meta),
            Err(reason) => {
                if strict {
                    return Err(StoreError::corrupt(&path, reason));
                }
                // A damaged copy at the main path must move aside before
                // a retired copy can be renamed back over it.
                let damaged = fs.exists(&path);
                if damaged {
                    quarantine_file(fs, dir, &path, &reason, &mut recovery)?;
                }
                if restore_from_retired(fs, dir, &meta)? {
                    recovery.restored.push(meta.file.clone());
                    kept.push(meta);
                } else {
                    if !damaged {
                        quarantine_file(fs, dir, &path, &reason, &mut recovery)?;
                    }
                    dropped = true;
                }
            }
        }
    }

    // Quarantine what the chosen manifest does not account for: torn
    // temp files and orphan segments from a commit that never sealed.
    let known: std::collections::BTreeSet<&str> = kept.iter().map(|m| m.file.as_str()).collect();
    for name in fs.list(dir).map_err(|e| io_at(dir, e))? {
        let is_tmp = name.ends_with(".tmp");
        let is_orphan_seg = name.ends_with(".seg") && !known.contains(name.as_str());
        if !(is_tmp || is_orphan_seg) {
            continue;
        }
        let reason = if is_tmp {
            "temporary file from an interrupted commit"
        } else {
            "segment not referenced by the recovered manifest"
        };
        if strict {
            return Err(StoreError::quarantined(dir.join(&name), reason));
        }
        quarantine_file(fs, dir, &dir.join(&name), reason, &mut recovery)?;
    }

    let manifest = build_manifest(kept, segment_rows, records_read, generation);
    let needs_republish = dropped || from_journal || manifest_damage.is_some();
    if needs_republish {
        publish_manifest(fs, dir, &manifest)?;
    }
    if journal_present {
        if let Some(dead) = begun {
            // The commit that wrote the journal is dead. Rolled back,
            // what it displaced and recovery did not take back is what
            // recovery refuses anywhere: a copy that failed verification,
            // a stale temp file. Rolled forward, it is superseded.
            let rdir = retired_dir_for(dir, dead);
            if generation < dead {
                for name in fs.list(&rdir).unwrap_or_default() {
                    let reason = "displaced by an interrupted commit and not restored";
                    quarantine_file(fs, dir, &rdir.join(name), reason, &mut recovery)?;
                }
            }
            drop_retired(fs, dir, dead)?;
        }
        retire_journal(fs, dir)?;
    }
    recovery.repaired_manifest = needs_republish;
    Ok((manifest, recovery))
}
