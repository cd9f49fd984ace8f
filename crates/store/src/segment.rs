//! Columnar segment encoding.
//!
//! One segment holds up to `segment_rows` events of one logical shard, in
//! stream order — or, as a tail (shard [`crate::TAIL_SHARD`]), one live
//! append's whole batch in arrival order, every shard mixed, until
//! compaction folds it into the chains. The file is self-contained
//! (dictionaries travel with the segment) and immutable once written:
//!
//! ```text
//! "IRSG" | version u16 | shard u16 | rows u32
//! peer dictionary    : count u32, then (asn u32, addr u32) per entry
//! prefix dictionary  : count u32, then (bits u32, len u8) per entry
//! column table       : 6 × u32 byte lengths
//! columns            : time Δ-zigzag-varint | peer id varint | prefix id
//!                      varint | (cause<<3|class) u8 | policy bitmap |
//!                      size varint
//! footer (zone maps) : min/max time u64, class counts 7×u64, cause
//!                      counts 9×u64, policy count u64, peer bloom 4×u64,
//!                      prefix bloom 4×u64
//! page directory     : page_rows u32, n_pages u32, then per
//!                      page: start_row u32, rows u32, prev_time u64,
//!                      min/max time u64, size sum u64, 6 × column byte
//!                      offset u32, class counts 7×u64, cause counts
//!                      9×u64, peer bloom 4×u64, prefix bloom 4×u64
//! checksum u64       : FxHash of every preceding byte
//! ```
//!
//! All integers little-endian. Dictionary ids are assigned in first-seen
//! order, so the encoding is a pure function of the row sequence — the
//! determinism contract ingest and compaction rely on.
//!
//! ## Versioning
//!
//! The **page directory** after the footer holds sub-segment zone maps
//! every [`DEFAULT_PAGE_ROWS`] rows (per-page min/max time, class/cause
//! counts, membership bitmaps, byte offsets into every column, and the
//! delta-decode restart state `prev_time`). It arrived with version 2,
//! the only version read or written: the pageless version 1 fails typed
//! as `unsupported segment version 1`. The eager [`SegmentData::decode`]
//! reads columns sequentially and never consumes the footer or the
//! directory; the lazy [`SegmentFile`] reader prunes and decodes by page.

use crate::frame::{checksum, put_varint, read_varint};
use crate::{splitmix64, StoreError, StoredEvent};
use iri_bgp::types::Prefix;
use iri_core::fxhash::FxHashMap;
use iri_core::input::PeerKey;
use iri_core::taxonomy::UpdateClass;
use iri_obs::cause::Cause;
use std::net::Ipv4Addr;

/// A [`StoreError::Corrupt`] with no path: segment code sees byte
/// images, not files; callers attach the path via
/// [`StoreError::with_path`].
fn bad(what: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: std::path::PathBuf::new(),
        what: what.into(),
    }
}

/// Segment file magic.
pub const MAGIC: [u8; 4] = *b"IRSG";

/// The segment format version (2: paged zone maps).
pub const SEGMENT_VERSION: u16 = 2;

/// Default rows per zone-map page. Must be a multiple of 8 so every page
/// starts on a policy-bitmap byte boundary; [`SegmentBuilder::with_page_rows`]
/// rounds odd values up.
pub const DEFAULT_PAGE_ROWS: u32 = 2_048;

/// Number of 64-bit words in a zone-map membership bitmap (256 bits).
pub const BLOOM_WORDS: usize = 4;

/// Sets/tests bit `hash & 255` of a 256-bit membership bitmap.
#[must_use]
fn bloom_slot(hash: u64) -> (usize, u64) {
    let bit = (hash & 255) as usize;
    (bit / 64, 1u64 << (bit % 64))
}

/// Hash used for the peer membership bitmap. Keyed off the AS number
/// alone so a query by peer AS can consult it.
#[must_use]
pub fn peer_bloom_hash(asn: iri_bgp::types::Asn) -> u64 {
    splitmix64(0x7065_6572 ^ u64::from(asn.0))
}

/// Hash used for the prefix membership bitmap.
#[must_use]
pub fn prefix_bloom_hash(prefix: Prefix) -> u64 {
    splitmix64((u64::from(prefix.bits()) << 8) | u64::from(prefix.len()))
}

/// Whether a membership bitmap may contain the hashed key.
#[must_use]
pub fn bloom_contains(bloom: &[u64; BLOOM_WORDS], hash: u64) -> bool {
    let (word, mask) = bloom_slot(hash);
    bloom[word] & mask != 0
}

fn bloom_insert(bloom: &mut [u64; BLOOM_WORDS], hash: u64) {
    let (word, mask) = bloom_slot(hash);
    bloom[word] |= mask;
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Zigzag-folds a signed delta into the unsigned varint space.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bounds-checked little-endian reader over a byte slice.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(bad(format!(
                "segment truncated reading {what} at offset {}",
                self.pos
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, StoreError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, StoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn varint(&mut self, what: &str) -> Result<u64, StoreError> {
        let at = self.pos;
        read_varint(self.buf, &mut self.pos).ok_or_else(|| {
            bad(format!(
                "truncated or overlong varint in {what} at offset {at}"
            ))
        })
    }
}

/// Encoded size of one peer dictionary entry (asn u32, addr u32).
const PEER_ENTRY: usize = 8;

/// Encoded size of one prefix dictionary entry (bits u32, len u8).
const PREFIX_ENTRY: usize = 5;

/// The little-endian u32 at the front of `b`.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// The checks both readers start with — length, the trailing checksum
/// over every preceding byte, magic, version — and the rest of the
/// header: a cursor over the checksummed body just past it, the shard,
/// and the row count.
fn open_image(bytes: &[u8]) -> Result<(Cur<'_>, u16, u32), StoreError> {
    if bytes.len() < 12 + 8 {
        return Err(bad("segment shorter than header"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut sum_bytes = [0u8; 8];
    sum_bytes.copy_from_slice(tail);
    if checksum(body) != u64::from_le_bytes(sum_bytes) {
        return Err(bad("segment checksum mismatch"));
    }
    let mut cur = Cur::new(body);
    if cur.take(4, "magic")? != MAGIC {
        return Err(bad("bad segment magic"));
    }
    let version = cur.u16("version")?;
    if version != SEGMENT_VERSION {
        return Err(bad(format!("unsupported segment version {version}")));
    }
    let shard = cur.u16("shard")?;
    let rows = cur.u32("row count")?;
    Ok((cur, shard, rows))
}

/// One zone-map page: the sub-segment pruning unit. Everything a scan
/// needs to decide a page's fate — and to start decoding mid-segment —
/// without touching the rows before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMeta {
    /// First row this page covers (always a multiple of 8).
    pub start_row: u32,
    /// Rows in the page.
    pub rows: u32,
    /// Absolute time of the row before `start_row` (0 for the first
    /// page): the delta-decode restart state for the time column.
    pub prev_time: u64,
    /// Smallest event time in the page (ms).
    pub min_time: u64,
    /// Largest event time in the page (ms).
    pub max_time: u64,
    /// Sum of the size column over the page.
    pub size_sum: u64,
    /// Byte offset of this page's first value in each of the six columns.
    pub col_off: [u32; 6],
    /// Rows per taxonomy class, indexed by [`UpdateClass::index`].
    pub class_counts: [u64; UpdateClass::COUNT],
    /// Rows per cause, indexed by [`Cause::index`].
    pub cause_counts: [u64; Cause::COUNT],
    /// 256-bit membership bitmap over peer AS numbers in the page.
    pub peer_bloom: [u64; BLOOM_WORDS],
    /// 256-bit membership bitmap over prefixes in the page.
    pub prefix_bloom: [u64; BLOOM_WORDS],
}

/// In-flight page accumulator inside [`SegmentBuilder`].
#[derive(Debug)]
struct PageAcc {
    start_row: u32,
    prev_time: u64,
    col_off: [u32; 6],
    min_time: u64,
    max_time: u64,
    size_sum: u64,
    class_counts: [u64; UpdateClass::COUNT],
    cause_counts: [u64; Cause::COUNT],
    peer_bloom: [u64; BLOOM_WORDS],
    prefix_bloom: [u64; BLOOM_WORDS],
}

/// Accumulates one segment's rows, columns, dictionaries, and zone maps,
/// then [`SegmentBuilder::encode`]s them into an immutable file image.
#[derive(Debug)]
pub struct SegmentBuilder {
    shard: u16,
    rows: u32,
    prev_time: u64,
    col_time: Vec<u8>,
    col_peer: Vec<u8>,
    col_prefix: Vec<u8>,
    col_cc: Vec<u8>,
    col_policy: Vec<u8>,
    col_size: Vec<u8>,
    peer_dict: Vec<PeerKey>,
    peer_ids: FxHashMap<PeerKey, u32>,
    prefix_dict: Vec<Prefix>,
    prefix_ids: FxHashMap<Prefix, u32>,
    min_time: u64,
    max_time: u64,
    class_counts: [u64; UpdateClass::COUNT],
    cause_counts: [u64; Cause::COUNT],
    policy_changes: u64,
    peer_bloom: [u64; BLOOM_WORDS],
    prefix_bloom: [u64; BLOOM_WORDS],
    size_sum: u64,
    page_rows: u32,
    pages: Vec<PageMeta>,
    page: Option<Box<PageAcc>>,
}

impl SegmentBuilder {
    /// A fresh builder for one logical shard.
    #[must_use]
    pub fn new(shard: u16) -> Self {
        SegmentBuilder {
            shard,
            rows: 0,
            prev_time: 0,
            col_time: Vec::new(),
            col_peer: Vec::new(),
            col_prefix: Vec::new(),
            col_cc: Vec::new(),
            col_policy: Vec::new(),
            col_size: Vec::new(),
            peer_dict: Vec::new(),
            peer_ids: FxHashMap::default(),
            prefix_dict: Vec::new(),
            prefix_ids: FxHashMap::default(),
            min_time: u64::MAX,
            max_time: 0,
            class_counts: [0; UpdateClass::COUNT],
            cause_counts: [0; Cause::COUNT],
            policy_changes: 0,
            peer_bloom: [0; BLOOM_WORDS],
            prefix_bloom: [0; BLOOM_WORDS],
            size_sum: 0,
            page_rows: DEFAULT_PAGE_ROWS,
            pages: Vec::new(),
            page: None,
        }
    }

    /// Overrides the zone-map page size. Rounded up to a multiple of 8
    /// (the policy-bitmap byte width) so pages start on byte boundaries.
    /// Must be called before the first [`SegmentBuilder::push`].
    #[must_use]
    pub fn with_page_rows(mut self, rows: u32) -> Self {
        debug_assert_eq!(self.rows, 0, "page size must be set before rows");
        self.page_rows = rows.max(1).div_ceil(8) * 8;
        self
    }

    /// Rows pushed so far.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Whether nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Seals the in-flight page into the directory.
    fn seal_page(&mut self) {
        if let Some(p) = self.page.take() {
            let rows = self.rows - p.start_row;
            if rows == 0 {
                return;
            }
            self.pages.push(PageMeta {
                start_row: p.start_row,
                rows,
                prev_time: p.prev_time,
                min_time: p.min_time,
                max_time: p.max_time,
                size_sum: p.size_sum,
                col_off: p.col_off,
                class_counts: p.class_counts,
                cause_counts: p.cause_counts,
                peer_bloom: p.peer_bloom,
                prefix_bloom: p.prefix_bloom,
            });
        }
    }

    /// Appends one event to every column.
    pub fn push(&mut self, ev: &StoredEvent) {
        if self.rows.is_multiple_of(self.page_rows) {
            // Page boundary: seal the previous page and open the next,
            // capturing every column's write position and the time-delta
            // restart state *before* this row's bytes land.
            self.seal_page();
            self.page = Some(Box::new(PageAcc {
                start_row: self.rows,
                prev_time: self.prev_time,
                col_off: [
                    self.col_time.len() as u32,
                    self.col_peer.len() as u32,
                    self.col_prefix.len() as u32,
                    self.col_cc.len() as u32,
                    self.col_policy.len() as u32,
                    self.col_size.len() as u32,
                ],
                min_time: u64::MAX,
                max_time: 0,
                size_sum: 0,
                class_counts: [0; UpdateClass::COUNT],
                cause_counts: [0; Cause::COUNT],
                peer_bloom: [0; BLOOM_WORDS],
                prefix_bloom: [0; BLOOM_WORDS],
            }));
        }

        let delta = ev.time_ms as i64 - self.prev_time as i64;
        put_varint(&mut self.col_time, zigzag(delta));
        self.prev_time = ev.time_ms;

        let peer_hash = peer_bloom_hash(ev.peer.asn);
        let next_peer = self.peer_dict.len() as u32;
        let peer_id = *self.peer_ids.entry(ev.peer).or_insert(next_peer);
        if peer_id == next_peer {
            self.peer_dict.push(ev.peer);
            bloom_insert(&mut self.peer_bloom, peer_hash);
        }
        put_varint(&mut self.col_peer, u64::from(peer_id));

        let prefix_hash = prefix_bloom_hash(ev.prefix);
        let next_prefix = self.prefix_dict.len() as u32;
        let prefix_id = *self.prefix_ids.entry(ev.prefix).or_insert(next_prefix);
        if prefix_id == next_prefix {
            self.prefix_dict.push(ev.prefix);
            bloom_insert(&mut self.prefix_bloom, prefix_hash);
        }
        put_varint(&mut self.col_prefix, u64::from(prefix_id));

        self.col_cc
            .push(((ev.cause.index() as u8) << 3) | ev.class.index() as u8);

        if self.rows.is_multiple_of(8) {
            self.col_policy.push(0);
        }
        if let (true, Some(last)) = (ev.policy_change, self.col_policy.last_mut()) {
            *last |= 1 << (self.rows % 8);
            self.policy_changes += 1;
        }

        put_varint(&mut self.col_size, u64::from(ev.size));

        self.min_time = self.min_time.min(ev.time_ms);
        self.max_time = self.max_time.max(ev.time_ms);
        self.class_counts[ev.class.index()] += 1;
        self.cause_counts[ev.cause.index()] += 1;
        self.size_sum += u64::from(ev.size);

        // Page-local zone maps. Unlike the segment blooms, page blooms
        // take every row: a dictionary entry introduced pages ago can
        // recur here, and this page must claim it.
        let page = self.page.as_mut().expect("page opened above");
        page.min_time = page.min_time.min(ev.time_ms);
        page.max_time = page.max_time.max(ev.time_ms);
        page.size_sum += u64::from(ev.size);
        page.class_counts[ev.class.index()] += 1;
        page.cause_counts[ev.cause.index()] += 1;
        bloom_insert(&mut page.peer_bloom, peer_hash);
        bloom_insert(&mut page.prefix_bloom, prefix_hash);

        self.rows += 1;
    }

    /// Encodes the segment file image and its manifest entry. Consumes the
    /// builder: segments are immutable once encoded.
    #[must_use]
    pub fn encode(mut self, file: String, seq: u32) -> (Vec<u8>, crate::query::SegmentMeta) {
        self.seal_page();
        let mut buf = Vec::with_capacity(
            64 + self.col_time.len()
                + self.col_peer.len()
                + self.col_prefix.len()
                + self.col_cc.len()
                + self.col_policy.len()
                + self.col_size.len()
                + self.peer_dict.len() * 8
                + self.prefix_dict.len() * 5,
        );
        buf.extend_from_slice(&MAGIC);
        put_u16(&mut buf, SEGMENT_VERSION);
        put_u16(&mut buf, self.shard);
        put_u32(&mut buf, self.rows);

        put_u32(&mut buf, self.peer_dict.len() as u32);
        for p in &self.peer_dict {
            put_u32(&mut buf, p.asn.0);
            put_u32(&mut buf, u32::from(p.addr));
        }
        put_u32(&mut buf, self.prefix_dict.len() as u32);
        for p in &self.prefix_dict {
            put_u32(&mut buf, p.bits());
            buf.push(p.len());
        }

        let cols = [
            &self.col_time,
            &self.col_peer,
            &self.col_prefix,
            &self.col_cc,
            &self.col_policy,
            &self.col_size,
        ];
        for col in cols {
            put_u32(&mut buf, col.len() as u32);
        }
        for col in cols {
            buf.extend_from_slice(col);
        }

        let min_time = if self.rows == 0 { 0 } else { self.min_time };
        put_u64(&mut buf, min_time);
        put_u64(&mut buf, self.max_time);
        for c in self.class_counts {
            put_u64(&mut buf, c);
        }
        for c in self.cause_counts {
            put_u64(&mut buf, c);
        }
        put_u64(&mut buf, self.policy_changes);
        for w in self.peer_bloom {
            put_u64(&mut buf, w);
        }
        for w in self.prefix_bloom {
            put_u64(&mut buf, w);
        }
        put_u32(&mut buf, self.page_rows);
        put_u32(&mut buf, self.pages.len() as u32);
        for p in &self.pages {
            put_u32(&mut buf, p.start_row);
            put_u32(&mut buf, p.rows);
            put_u64(&mut buf, p.prev_time);
            put_u64(&mut buf, p.min_time);
            put_u64(&mut buf, p.max_time);
            put_u64(&mut buf, p.size_sum);
            for off in p.col_off {
                put_u32(&mut buf, off);
            }
            for c in p.class_counts {
                put_u64(&mut buf, c);
            }
            for c in p.cause_counts {
                put_u64(&mut buf, c);
            }
            for w in p.peer_bloom {
                put_u64(&mut buf, w);
            }
            for w in p.prefix_bloom {
                put_u64(&mut buf, w);
            }
        }
        let sum = checksum(&buf);
        put_u64(&mut buf, sum);

        let meta = crate::query::SegmentMeta {
            file,
            shard: u32::from(self.shard),
            seq,
            rows: u64::from(self.rows),
            bytes: buf.len() as u64,
            min_time_ms: min_time,
            max_time_ms: self.max_time,
            class_counts: self.class_counts,
            cause_counts: self.cause_counts,
            policy_changes: self.policy_changes,
            peer_bloom: self.peer_bloom,
            prefix_bloom: self.prefix_bloom,
            pages: self.pages.len() as u64,
            size_sum: self.size_sum,
        };
        (buf, meta)
    }
}

/// A decoded segment: dictionaries plus fully materialised column vectors.
/// Rows are reconstructed on demand by [`SegmentData::event`] so scans can
/// filter on columns without building every [`StoredEvent`].
#[derive(Debug)]
pub struct SegmentData {
    /// Logical shard this segment belongs to.
    pub shard: u16,
    /// Peer dictionary in first-seen order.
    pub peer_dict: Vec<PeerKey>,
    /// Prefix dictionary in first-seen order.
    pub prefix_dict: Vec<Prefix>,
    /// Absolute event times, ms.
    pub times: Vec<u64>,
    /// Per-row peer dictionary ids.
    pub peer_ids: Vec<u32>,
    /// Per-row prefix dictionary ids.
    pub prefix_ids: Vec<u32>,
    /// Per-row taxonomy class.
    pub classes: Vec<UpdateClass>,
    /// Per-row causal provenance.
    pub causes: Vec<Cause>,
    /// Per-row policy-change flag.
    pub policy: Vec<bool>,
    /// Per-row NLRI wire bytes.
    pub sizes: Vec<u32>,
}

impl SegmentData {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the segment holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Materialises row `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn event(&self, i: usize) -> StoredEvent {
        StoredEvent {
            time_ms: self.times[i],
            peer: self.peer_dict[self.peer_ids[i] as usize],
            prefix: self.prefix_dict[self.prefix_ids[i] as usize],
            class: self.classes[i],
            cause: self.causes[i],
            policy_change: self.policy[i],
            size: self.sizes[i],
        }
    }

    /// Decodes and validates a segment file image.
    pub fn decode(bytes: &[u8]) -> Result<SegmentData, StoreError> {
        let (mut cur, shard, rows) = open_image(bytes)?;
        let (body, rows) = (cur.buf, rows as usize);

        let n_peers = cur.u32("peer dict size")? as usize;
        if (n_peers > rows && rows > 0) || n_peers > body.len() {
            return Err(bad("peer dictionary larger than rows"));
        }
        let mut peer_dict = Vec::with_capacity(n_peers);
        for _ in 0..n_peers {
            let asn = iri_bgp::types::Asn(cur.u32("peer asn")?);
            let addr = Ipv4Addr::from(cur.u32("peer addr")?);
            peer_dict.push(PeerKey { asn, addr });
        }
        let n_prefixes = cur.u32("prefix dict size")? as usize;
        if (n_prefixes > rows && rows > 0) || n_prefixes > body.len() {
            return Err(bad("prefix dictionary larger than rows"));
        }
        let mut prefix_dict = Vec::with_capacity(n_prefixes);
        for _ in 0..n_prefixes {
            let bits = cur.u32("prefix bits")?;
            let len = cur.u8("prefix len")?;
            if len > 32 {
                return Err(bad(format!("prefix length {len} > 32")));
            }
            prefix_dict.push(Prefix::from_raw(bits, len));
        }

        let mut col_lens = [0usize; 6];
        for l in &mut col_lens {
            *l = cur.u32("column length")? as usize;
        }
        let mut c_time = Cur::new(cur.take(col_lens[0], "time column bytes")?);
        let mut c_peer = Cur::new(cur.take(col_lens[1], "peer column bytes")?);
        let mut c_prefix = Cur::new(cur.take(col_lens[2], "prefix column bytes")?);
        let mut c_cc = Cur::new(cur.take(col_lens[3], "class/cause column bytes")?);
        let mut c_policy = Cur::new(cur.take(col_lens[4], "policy column bytes")?);
        let mut c_size = Cur::new(cur.take(col_lens[5], "size column bytes")?);

        let mut times = Vec::with_capacity(rows);
        let mut peer_ids = Vec::with_capacity(rows);
        let mut prefix_ids = Vec::with_capacity(rows);
        let mut classes = Vec::with_capacity(rows);
        let mut causes = Vec::with_capacity(rows);
        let mut policy = Vec::with_capacity(rows);
        let mut sizes = Vec::with_capacity(rows);

        let mut prev_time = 0i64;
        for i in 0..rows {
            let delta = unzigzag(c_time.varint("time column")?);
            prev_time = prev_time
                .checked_add(delta)
                .ok_or_else(|| bad("time column overflows"))?;
            if prev_time < 0 {
                return Err(bad("negative time in time column"));
            }
            times.push(prev_time as u64);

            let pid = c_peer.varint("peer column")?;
            if pid >= n_peers as u64 {
                return Err(bad(format!("peer id {pid} out of dictionary range")));
            }
            peer_ids.push(pid as u32);

            let xid = c_prefix.varint("prefix column")?;
            if xid >= n_prefixes as u64 {
                return Err(bad(format!("prefix id {xid} out of dictionary range")));
            }
            prefix_ids.push(xid as u32);

            let cc = c_cc.u8("class/cause column")?;
            let class = UpdateClass::from_index((cc & 0x07) as usize)
                .ok_or_else(|| bad(format!("invalid class index {}", cc & 0x07)))?;
            let cause_idx = (cc >> 3) as usize;
            let cause = Cause::ALL
                .get(cause_idx)
                .copied()
                .ok_or_else(|| bad(format!("invalid cause index {cause_idx}")))?;
            classes.push(class);
            causes.push(cause);

            if i.is_multiple_of(8) {
                c_policy.u8("policy bitmap")?;
            }
            let byte = c_policy.buf[c_policy.pos - 1];
            policy.push(byte & (1 << (i % 8)) != 0);

            sizes.push(c_size.varint("size column")? as u32);
        }

        Ok(SegmentData {
            shard,
            peer_dict,
            prefix_dict,
            times,
            peer_ids,
            prefix_ids,
            classes,
            causes,
            policy,
            sizes,
        })
    }
}

/// A subset of a segment's six columns: what a scan asks
/// [`SegmentFile::decode_page`] to decode. Derived per query from the
/// [`crate::PlanKind`] and the predicates ([`crate::PlanKind::columns`]).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnSet(u8);

impl ColumnSet {
    /// No column.
    pub const NONE: ColumnSet = ColumnSet(0);
    /// Event times.
    pub const TIME: ColumnSet = ColumnSet(1);
    /// Peer dictionary codes.
    pub const PEER: ColumnSet = ColumnSet(1 << 1);
    /// Prefix dictionary codes.
    pub const PREFIX: ColumnSet = ColumnSet(1 << 2);
    /// Packed `(cause<<3)|class` bytes.
    pub const CC: ColumnSet = ColumnSet(1 << 3);
    /// Policy-change bitmap.
    pub const POLICY: ColumnSet = ColumnSet(1 << 4);
    /// NLRI wire sizes.
    pub const SIZE: ColumnSet = ColumnSet(1 << 5);
    /// Every column: what materialising a [`StoredEvent`] needs.
    pub const ALL: ColumnSet = ColumnSet(0x3f);

    /// The union of both sets.
    #[must_use]
    pub const fn with(self, other: ColumnSet) -> ColumnSet {
        ColumnSet(self.0 | other.0)
    }

    /// Whether every column of `other` is in this set.
    #[must_use]
    pub const fn has(self, other: ColumnSet) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::fmt::Debug for ColumnSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::fmt::Display for ColumnSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const NAMES: [(ColumnSet, &str); 6] = [
            (ColumnSet::TIME, "time"),
            (ColumnSet::PEER, "peer"),
            (ColumnSet::PREFIX, "prefix"),
            (ColumnSet::CC, "class/cause"),
            (ColumnSet::POLICY, "policy"),
            (ColumnSet::SIZE, "size"),
        ];
        let mut first = true;
        for (col, name) in NAMES {
            if self.has(col) {
                if !first {
                    f.write_str(" ")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// Reused row buffers for one decoded page — the late-materialization
/// scratch space. [`SegmentFile::decode_page`] fills the columns it is
/// asked for; rows stay as packed dictionary codes (`peer_ids`,
/// `prefix_ids`, the raw `(cause<<3)|class` byte) until
/// [`SegmentFile::event`] materialises a survivor. Every varint lands
/// straight in its typed column, so reusing one `PageBuf` across pages
/// and segments keeps the scan loop allocation-free once the vectors
/// have grown to a page.
#[derive(Debug, Default)]
pub struct PageBuf {
    /// Absolute event times, ms.
    pub times: Vec<u64>,
    /// Per-row peer dictionary codes.
    pub peer_ids: Vec<u32>,
    /// Per-row prefix dictionary codes.
    pub prefix_ids: Vec<u32>,
    /// Per-row packed `(cause<<3)|class` bytes, validated at decode.
    pub cc: Vec<u8>,
    /// Policy bitmap bytes: row `j` of the page is bit `j%8` of byte
    /// `j/8` (pages start on byte boundaries).
    pub policy: Vec<u8>,
    /// Per-row NLRI wire bytes.
    pub sizes: Vec<u32>,
    /// Selection vector: page-local indices of the rows still standing,
    /// ascending. [`SegmentFile::decode_page`] selects every row; scans
    /// narrow it one predicate at a time and fold what is left.
    pub sel: Vec<u32>,
    rows: usize,
    have: ColumnSet,
}

impl PageBuf {
    /// A fresh, empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows in the page currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no page has been decoded into the buffer.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The columns decoded for the page currently held; the others hold
    /// leftovers of earlier pages.
    #[must_use]
    pub fn columns(&self) -> ColumnSet {
        self.have
    }
}

/// Batched LEB128 decode of `n` varints from `col` starting at `pos`,
/// each passed through `map` (range check, delta restart) straight into
/// its typed slot of `out`, which is resized to `n` without being
/// cleared: every slot is overwritten, so a warm buffer is never
/// re-zeroed. The hot loop takes the one-byte fast path (the
/// overwhelmingly common case for dictionary codes and sizes) before
/// falling back to the shared [`read_varint`].
#[inline]
fn decode_varints<T: Copy + Default>(
    col: &[u8],
    mut pos: usize,
    n: usize,
    out: &mut Vec<T>,
    what: &str,
    mut map: impl FnMut(u64) -> Result<T, StoreError>,
) -> Result<(), StoreError> {
    out.resize(n, T::default());
    for slot in out.iter_mut() {
        let v = match col.get(pos) {
            Some(&b) if b < 0x80 => {
                pos += 1;
                u64::from(b)
            }
            _ => read_varint(col, &mut pos)
                .ok_or_else(|| bad(format!("truncated or overlong varint in {what}")))?,
        };
        *slot = map(v)?;
    }
    Ok(())
}

/// The segment-level zone maps as the file's footer records them: what
/// [`SegmentFile::check_meta`] holds against the manifest entry.
#[derive(Debug)]
struct Footer {
    min_time: u64,
    max_time: u64,
    class_counts: [u64; UpdateClass::COUNT],
    cause_counts: [u64; Cause::COUNT],
    policy_changes: u64,
    peer_bloom: [u64; BLOOM_WORDS],
    prefix_bloom: [u64; BLOOM_WORDS],
}

/// A parsed-but-not-decoded segment: header, column byte ranges, and
/// the page directory — everything short of the row data. The
/// dictionaries are validated at parse and then read in place from the
/// image ([`SegmentFile::peer`], [`SegmentFile::prefix`]), so a resident
/// segment costs its file bytes plus the page directory. Scans consult
/// [`SegmentFile::pages`] to prune or zone-answer pages, then
/// [`SegmentFile::decode_page`] only the survivors.
#[derive(Debug)]
pub struct SegmentFile {
    bytes: Vec<u8>,
    /// Logical shard this segment belongs to.
    pub shard: u16,
    /// Total rows in the segment.
    pub rows: u32,
    n_peers: u32,
    peer_off: usize,
    n_prefixes: u32,
    prefix_off: usize,
    col_start: [usize; 6],
    col_len: [usize; 6],
    footer: Footer,
    pages: Vec<PageMeta>,
}

impl SegmentFile {
    /// Parses and checksums a segment file image without decoding any
    /// column. Cost is one hash pass plus a validating walk over the
    /// dictionaries and the page directory.
    pub fn parse(bytes: Vec<u8>) -> Result<SegmentFile, StoreError> {
        let (mut cur, shard, rows) = open_image(&bytes)?;
        let body = cur.buf;

        let n_peers = cur.u32("peer dict size")?;
        if (n_peers > rows && rows > 0) || n_peers as usize > body.len() {
            return Err(bad("peer dictionary larger than rows"));
        }
        let peer_off = cur.pos;
        cur.take(n_peers as usize * PEER_ENTRY, "peer dictionary")?;
        let n_prefixes = cur.u32("prefix dict size")?;
        if (n_prefixes > rows && rows > 0) || n_prefixes as usize > body.len() {
            return Err(bad("prefix dictionary larger than rows"));
        }
        let prefix_off = cur.pos;
        let prefixes = cur.take(n_prefixes as usize * PREFIX_ENTRY, "prefix dictionary")?;
        if let Some(e) = prefixes.chunks_exact(PREFIX_ENTRY).find(|e| e[4] > 32) {
            return Err(bad(format!("prefix length {} > 32", e[4])));
        }

        let mut col_len = [0usize; 6];
        for l in &mut col_len {
            *l = cur.u32("column length")? as usize;
        }
        let mut col_start = [0usize; 6];
        for (i, len) in col_len.iter().enumerate() {
            col_start[i] = cur.pos;
            cur.take(*len, "column bytes")?;
        }

        let mut footer = Footer {
            min_time: cur.u64("footer min time")?,
            max_time: cur.u64("footer max time")?,
            class_counts: [0; UpdateClass::COUNT],
            cause_counts: [0; Cause::COUNT],
            policy_changes: 0,
            peer_bloom: [0; BLOOM_WORDS],
            prefix_bloom: [0; BLOOM_WORDS],
        };
        for c in &mut footer.class_counts {
            *c = cur.u64("footer class count")?;
        }
        for c in &mut footer.cause_counts {
            *c = cur.u64("footer cause count")?;
        }
        footer.policy_changes = cur.u64("footer policy count")?;
        for w in &mut footer.peer_bloom {
            *w = cur.u64("footer peer bloom")?;
        }
        for w in &mut footer.prefix_bloom {
            *w = cur.u64("footer prefix bloom")?;
        }

        let _page_rows = cur.u32("page size")?;
        let n_pages = cur.u32("page count")? as usize;
        if n_pages > rows as usize || n_pages > body.len() {
            return Err(bad("page directory larger than rows"));
        }
        if rows > 0 && n_pages == 0 {
            return Err(bad("non-empty segment without pages"));
        }
        let mut pages = Vec::with_capacity(n_pages);
        let mut expect_start = 0u32;
        for _ in 0..n_pages {
            let start_row = cur.u32("page start row")?;
            let page_rows = cur.u32("page rows")?;
            if start_row != expect_start || page_rows == 0 {
                return Err(bad("page directory rows not contiguous"));
            }
            if !start_row.is_multiple_of(8) {
                return Err(bad("page start not on a bitmap byte boundary"));
            }
            expect_start = expect_start
                .checked_add(page_rows)
                .ok_or_else(|| bad("page row count overflows"))?;
            let prev_time = cur.u64("page prev time")?;
            let min_time = cur.u64("page min time")?;
            let max_time = cur.u64("page max time")?;
            let size_sum = cur.u64("page size sum")?;
            let mut col_off = [0u32; 6];
            for (i, off) in col_off.iter_mut().enumerate() {
                *off = cur.u32("page column offset")?;
                if *off as usize > col_len[i] {
                    return Err(bad("page column offset past column end"));
                }
            }
            let mut p_class = [0u64; UpdateClass::COUNT];
            for c in &mut p_class {
                *c = cur.u64("page class count")?;
            }
            let mut p_cause = [0u64; Cause::COUNT];
            for c in &mut p_cause {
                *c = cur.u64("page cause count")?;
            }
            let mut p_peer = [0u64; BLOOM_WORDS];
            for w in &mut p_peer {
                *w = cur.u64("page peer bloom")?;
            }
            let mut p_prefix = [0u64; BLOOM_WORDS];
            for w in &mut p_prefix {
                *w = cur.u64("page prefix bloom")?;
            }
            pages.push(PageMeta {
                start_row,
                rows: page_rows,
                prev_time,
                min_time,
                max_time,
                size_sum,
                col_off,
                class_counts: p_class,
                cause_counts: p_cause,
                peer_bloom: p_peer,
                prefix_bloom: p_prefix,
            });
        }
        if expect_start != rows {
            return Err(bad("page directory does not cover every row"));
        }
        if cur.pos != body.len() {
            return Err(bad("trailing bytes after segment payload"));
        }

        Ok(SegmentFile {
            bytes,
            shard,
            rows,
            n_peers,
            peer_off,
            n_prefixes,
            prefix_off,
            col_start,
            col_len,
            footer,
            pages,
        })
    }

    /// Holds the file against the manifest entry that names it: size,
    /// shard, row and page counts, and every zone map the footer
    /// replicates. A [`crate::SegmentMeta`] is a segment's identity (the
    /// segment cache keys on it), so a file that passes is the version
    /// the manifest means, not merely one of the same name and length.
    /// Errors carry no path.
    pub fn check_meta(&self, meta: &crate::query::SegmentMeta) -> Result<(), StoreError> {
        let f = &self.footer;
        let differs = if self.bytes.len() as u64 != meta.bytes {
            format!(
                "is {} bytes, manifest says {}",
                self.bytes.len(),
                meta.bytes
            )
        } else if u64::from(self.rows) != meta.rows {
            format!("holds {} rows, manifest says {}", self.rows, meta.rows)
        } else if u32::from(self.shard) != meta.shard {
            format!(
                "belongs to shard {}, manifest says {}",
                self.shard, meta.shard
            )
        } else if self.pages.len() as u64 != meta.pages {
            format!(
                "has {} pages, manifest says {}",
                self.pages.len(),
                meta.pages
            )
        } else if (f.min_time, f.max_time) != (meta.min_time_ms, meta.max_time_ms)
            || f.class_counts != meta.class_counts
            || f.cause_counts != meta.cause_counts
            || f.policy_changes != meta.policy_changes
            || f.peer_bloom != meta.peer_bloom
            || f.prefix_bloom != meta.prefix_bloom
            || meta.size_sum != self.pages.iter().map(|p| p.size_sum).sum::<u64>()
        {
            "zone maps differ from the manifest's".to_owned()
        } else {
            return Ok(());
        };
        Err(bad(format!("segment {differs}")))
    }

    /// The page directory.
    #[must_use]
    pub fn pages(&self) -> &[PageMeta] {
        &self.pages
    }

    /// Encoded file size in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The raw file image, for handing to the eager
    /// [`SegmentData::decode`] path.
    pub(crate) fn image(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytes this segment keeps resident: the image plus the parsed
    /// page directory.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<SegmentFile>()
            + self.bytes.capacity()
            + self.pages.capacity() * std::mem::size_of::<PageMeta>()
    }

    /// Entries in the peer dictionary.
    #[must_use]
    pub fn peer_count(&self) -> u32 {
        self.n_peers
    }

    /// Entries in the prefix dictionary.
    #[must_use]
    pub fn prefix_count(&self) -> u32 {
        self.n_prefixes
    }

    /// Peer dictionary entry `id` (first-seen order), read from the image.
    ///
    /// # Panics
    /// Panics if `id >= self.peer_count()`.
    #[must_use]
    pub fn peer(&self, id: u32) -> PeerKey {
        assert!(id < self.n_peers, "peer id {id} out of dictionary range");
        let at = self.peer_off + id as usize * PEER_ENTRY;
        PeerKey {
            asn: iri_bgp::types::Asn(le_u32(&self.bytes[at..])),
            addr: Ipv4Addr::from(le_u32(&self.bytes[at + 4..])),
        }
    }

    /// Prefix dictionary entry `id` (first-seen order), read from the
    /// image; lengths were validated at parse.
    ///
    /// # Panics
    /// Panics if `id >= self.prefix_count()`.
    #[must_use]
    pub fn prefix(&self, id: u32) -> Prefix {
        assert!(
            id < self.n_prefixes,
            "prefix id {id} out of dictionary range"
        );
        let at = self.prefix_off + id as usize * PREFIX_ENTRY;
        Prefix::from_raw(le_u32(&self.bytes[at..]), self.bytes[at + 4])
    }

    fn col(&self, i: usize) -> &[u8] {
        &self.bytes[self.col_start[i]..self.col_start[i] + self.col_len[i]]
    }

    /// Starts `buf` on `page` — every row selected, no column held —
    /// and decodes the columns in `cols`. Dictionary codes and the
    /// packed class/cause byte are validated as they are decoded, so
    /// [`SegmentFile::event`] cannot panic on a survivor.
    pub fn decode_page(
        &self,
        page: &PageMeta,
        cols: ColumnSet,
        buf: &mut PageBuf,
    ) -> Result<(), StoreError> {
        buf.rows = page.rows as usize;
        buf.have = ColumnSet::NONE;
        buf.sel.clear();
        buf.sel.extend(0..page.rows);
        self.decode_columns(page, cols, buf)
    }

    /// Decodes the columns of `cols` that `buf` does not hold yet for
    /// the page [`SegmentFile::decode_page`] started it on. Scans call
    /// this between predicates, so a page whose selection empties early
    /// never pays for the columns behind it.
    pub fn decode_columns(
        &self,
        page: &PageMeta,
        cols: ColumnSet,
        buf: &mut PageBuf,
    ) -> Result<(), StoreError> {
        let n = page.rows as usize;
        debug_assert_eq!(n, buf.rows, "decode_page starts the page");
        let want = |col: ColumnSet| cols.has(col) && !buf.have.has(col);

        if want(ColumnSet::CC) {
            let start = page.col_off[3] as usize;
            let bytes = self
                .col(3)
                .get(start..start + n)
                .ok_or_else(|| bad("segment truncated reading class/cause column"))?;
            if let Some(cc) = bytes.iter().find(|&&cc| {
                (cc & 0x07) as usize >= UpdateClass::COUNT || (cc >> 3) as usize >= Cause::COUNT
            }) {
                return Err(bad(format!("invalid class/cause byte {cc:#04x}")));
            }
            buf.cc.clear();
            buf.cc.extend_from_slice(bytes);
        }
        if want(ColumnSet::TIME) {
            // Delta-zigzag restart from the page's prev_time.
            let mut prev =
                i64::try_from(page.prev_time).map_err(|_| bad("page prev time out of range"))?;
            decode_varints(
                self.col(0),
                page.col_off[0] as usize,
                n,
                &mut buf.times,
                "time column",
                |v| {
                    prev = prev
                        .checked_add(unzigzag(v))
                        .ok_or_else(|| bad("time column overflows"))?;
                    u64::try_from(prev).map_err(|_| bad("negative time in time column"))
                },
            )?;
        }
        if want(ColumnSet::PEER) {
            let n_peers = u64::from(self.n_peers);
            decode_varints(
                self.col(1),
                page.col_off[1] as usize,
                n,
                &mut buf.peer_ids,
                "peer column",
                |v| {
                    if v >= n_peers {
                        return Err(bad(format!("peer id {v} out of dictionary range")));
                    }
                    Ok(v as u32)
                },
            )?;
        }
        if want(ColumnSet::PREFIX) {
            let n_prefixes = u64::from(self.n_prefixes);
            decode_varints(
                self.col(2),
                page.col_off[2] as usize,
                n,
                &mut buf.prefix_ids,
                "prefix column",
                |v| {
                    if v >= n_prefixes {
                        return Err(bad(format!("prefix id {v} out of dictionary range")));
                    }
                    Ok(v as u32)
                },
            )?;
        }
        if want(ColumnSet::POLICY) {
            let start = page.col_off[4] as usize;
            let bytes = self
                .col(4)
                .get(start..start + n.div_ceil(8))
                .ok_or_else(|| bad("segment truncated reading policy column"))?;
            buf.policy.clear();
            buf.policy.extend_from_slice(bytes);
        }
        if want(ColumnSet::SIZE) {
            decode_varints(
                self.col(5),
                page.col_off[5] as usize,
                n,
                &mut buf.sizes,
                "size column",
                |v| u32::try_from(v).map_err(|_| bad("size column value overflows")),
            )?;
        }
        buf.have = buf.have.with(cols);
        Ok(())
    }

    /// Materialises row `j` of the page held in `buf`, which must hold
    /// [`ColumnSet::ALL`].
    ///
    /// # Panics
    /// Panics if `j >= buf.len()`.
    #[must_use]
    pub fn event(&self, buf: &PageBuf, j: usize) -> StoredEvent {
        debug_assert!(buf.have.has(ColumnSet::ALL), "event needs every column");
        let cc = buf.cc[j];
        StoredEvent {
            time_ms: buf.times[j],
            peer: self.peer(buf.peer_ids[j]),
            prefix: self.prefix(buf.prefix_ids[j]),
            class: UpdateClass::from_index((cc & 0x07) as usize)
                .expect("class validated at decode"),
            cause: Cause::ALL[(cc >> 3) as usize],
            policy_change: buf.policy[j / 8] & (1 << (j % 8)) != 0,
            size: buf.sizes[j],
        }
    }
}

/// Canonical segment file name: `s{shard:02}-{seq:06}.seg`.
#[must_use]
pub fn segment_file_name(shard: usize, seq: u32) -> String {
    format!("s{shard:02}-{seq:06}.seg")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iri_bgp::types::Asn;

    fn ev(t: u64, asn: u32, bits: u32, len: u8, class: UpdateClass, cause: Cause) -> StoredEvent {
        let prefix = Prefix::from_raw(bits, len);
        StoredEvent {
            time_ms: t,
            peer: PeerKey {
                asn: Asn(asn),
                addr: Ipv4Addr::new(192, 41, 177, (asn % 250) as u8 + 1),
            },
            prefix,
            class,
            cause,
            policy_change: class == UpdateClass::AaDup && t.is_multiple_of(3),
            size: crate::nlri_wire_bytes(prefix),
        }
    }

    fn sample_rows() -> Vec<StoredEvent> {
        let mut rows = Vec::new();
        for i in 0..500u64 {
            rows.push(ev(
                1_000 + i * 37 % 9_000,
                701 + (i % 5) as u32,
                (0xc000_0000u32).wrapping_add((i as u32 % 17) << 16),
                if i % 3 == 0 { 16 } else { 24 },
                UpdateClass::from_index((i % 7) as usize).unwrap(),
                Cause::ALL[(i % 9) as usize],
            ));
        }
        rows
    }

    #[test]
    fn encode_decode_round_trips_every_column() {
        let rows = sample_rows();
        let mut b = SegmentBuilder::new(7);
        for r in &rows {
            b.push(r);
        }
        let (bytes, meta) = b.encode(segment_file_name(7, 0), 0);
        assert_eq!(meta.rows, rows.len() as u64);
        assert_eq!(meta.bytes, bytes.len() as u64);
        let seg = SegmentData::decode(&bytes).unwrap();
        assert_eq!(seg.shard, 7);
        assert_eq!(seg.len(), rows.len());
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(seg.event(i), *r, "row {i}");
        }
    }

    #[test]
    fn zone_maps_summarise_contents() {
        let rows = sample_rows();
        let mut b = SegmentBuilder::new(0);
        for r in &rows {
            b.push(r);
        }
        let (_, meta) = b.encode(segment_file_name(0, 3), 3);
        let min = rows.iter().map(|r| r.time_ms).min().unwrap();
        let max = rows.iter().map(|r| r.time_ms).max().unwrap();
        assert_eq!((meta.min_time_ms, meta.max_time_ms), (min, max));
        for c in UpdateClass::ALL {
            let n = rows.iter().filter(|r| r.class == c).count() as u64;
            assert_eq!(meta.class_counts[c.index()], n, "{c}");
        }
        for c in Cause::ALL {
            let n = rows.iter().filter(|r| r.cause == c).count() as u64;
            assert_eq!(meta.cause_counts[c.index()], n, "{c}");
        }
        assert_eq!(
            meta.policy_changes,
            rows.iter().filter(|r| r.policy_change).count() as u64
        );
        for r in &rows {
            assert!(bloom_contains(
                &meta.peer_bloom,
                peer_bloom_hash(r.peer.asn)
            ));
            assert!(bloom_contains(
                &meta.prefix_bloom,
                prefix_bloom_hash(r.prefix)
            ));
        }
        // An AS that never appears should (with these values) miss the bloom.
        assert!(!bloom_contains(
            &meta.peer_bloom,
            peer_bloom_hash(Asn(64_499))
        ));
    }

    #[test]
    fn encoding_is_a_pure_function_of_the_row_stream() {
        let rows = sample_rows();
        let build = || {
            let mut b = SegmentBuilder::new(2);
            for r in &rows {
                b.push(r);
            }
            b.encode(segment_file_name(2, 0), 0).0
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn corruption_is_detected_not_panicked_on() {
        let rows = sample_rows();
        let mut b = SegmentBuilder::new(1);
        for r in &rows {
            b.push(r);
        }
        let (bytes, _) = b.encode(segment_file_name(1, 0), 0);
        // Flip one byte anywhere: checksum catches it.
        for pos in [0, 5, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(SegmentData::decode(&bad).is_err(), "flip at {pos}");
        }
        // Truncations at every length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(SegmentData::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let (bytes, meta) = SegmentBuilder::new(4).encode(segment_file_name(4, 0), 0);
        assert_eq!(meta.rows, 0);
        assert_eq!(meta.pages, 0);
        let seg = SegmentData::decode(&bytes).unwrap();
        assert!(seg.is_empty());
        let file = SegmentFile::parse(bytes).unwrap();
        assert!(file.pages().is_empty());
    }

    fn decode_all_pages(file: &SegmentFile) -> Vec<StoredEvent> {
        let mut buf = PageBuf::new();
        let mut out = Vec::new();
        for page in file.pages() {
            file.decode_page(page, ColumnSet::ALL, &mut buf).unwrap();
            assert_eq!(buf.len(), page.rows as usize);
            for j in 0..buf.len() {
                out.push(file.event(&buf, j));
            }
        }
        out
    }

    #[test]
    fn paged_reader_round_trips_and_v1_fails_typed() {
        let rows = sample_rows();
        let mut b = SegmentBuilder::new(3).with_page_rows(64);
        for r in &rows {
            b.push(r);
        }
        let (bytes, meta) = b.encode(segment_file_name(3, 0), 0);
        assert_eq!(meta.pages, 500u64.div_ceil(64));
        assert_eq!(
            meta.size_sum,
            rows.iter().map(|r| u64::from(r.size)).sum::<u64>()
        );
        // Eager decoder ignores the page directory entirely.
        let eager = SegmentData::decode(&bytes).unwrap();
        assert_eq!(eager.len(), rows.len());
        // Lazy reader decodes page by page to the same rows.
        let file = SegmentFile::parse(bytes.clone()).unwrap();
        assert_eq!(file.pages().len(), meta.pages as usize);
        assert_eq!(decode_all_pages(&file), rows);

        // Version 1 (pageless) is no longer read: a typed error from
        // both readers.
        let mut v1 = bytes;
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let body = v1.len() - 8;
        let sum = checksum(&v1[..body]);
        v1[body..].copy_from_slice(&sum.to_le_bytes());
        for err in [
            SegmentData::decode(&v1).unwrap_err(),
            SegmentFile::parse(v1).unwrap_err(),
        ] {
            assert!(
                err.to_string().contains("unsupported segment version 1"),
                "{err}"
            );
        }
    }

    #[test]
    fn page_zone_maps_summarise_each_page() {
        let rows = sample_rows();
        let mut b = SegmentBuilder::new(0).with_page_rows(128);
        for r in &rows {
            b.push(r);
        }
        let (bytes, _) = b.encode(segment_file_name(0, 0), 0);
        let file = SegmentFile::parse(bytes).unwrap();
        for page in file.pages() {
            let slice = &rows[page.start_row as usize..(page.start_row + page.rows) as usize];
            let min = slice.iter().map(|r| r.time_ms).min().unwrap();
            let max = slice.iter().map(|r| r.time_ms).max().unwrap();
            assert_eq!((page.min_time, page.max_time), (min, max));
            assert_eq!(
                page.size_sum,
                slice.iter().map(|r| u64::from(r.size)).sum::<u64>()
            );
            for c in UpdateClass::ALL {
                let n = slice.iter().filter(|r| r.class == c).count() as u64;
                assert_eq!(page.class_counts[c.index()], n);
            }
            for c in Cause::ALL {
                let n = slice.iter().filter(|r| r.cause == c).count() as u64;
                assert_eq!(page.cause_counts[c.index()], n);
            }
            for r in slice {
                assert!(bloom_contains(
                    &page.peer_bloom,
                    peer_bloom_hash(r.peer.asn)
                ));
                assert!(bloom_contains(
                    &page.prefix_bloom,
                    prefix_bloom_hash(r.prefix)
                ));
            }
        }
        // Per-page blooms are sharper than the segment bloom: a peer
        // present in the segment misses pages it never appears in. With
        // 5 rotating peers and 128-row pages every page sees every peer,
        // so probe with a prefix that only occurs early on instead.
        assert!(file.pages().len() > 1);
    }

    #[test]
    fn segment_file_parse_detects_corruption_without_panic() {
        let rows = sample_rows();
        let mut b = SegmentBuilder::new(1).with_page_rows(64);
        for r in &rows {
            b.push(r);
        }
        let (bytes, _) = b.encode(segment_file_name(1, 0), 0);
        for pos in [0, 5, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(SegmentFile::parse(bad).is_err(), "flip at {pos}");
        }
        for cut in 0..bytes.len() {
            assert!(
                SegmentFile::parse(bytes[..cut].to_vec()).is_err(),
                "cut at {cut}"
            );
        }
    }
}
