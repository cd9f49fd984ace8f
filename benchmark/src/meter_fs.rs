//! `MeterFs`: the benchmark's own `StoreFs`.
//!
//! It wraps the real filesystem and counts every call the fault
//! injector also counts — read, write, append, sync, sync_dir, rename,
//! remove — with the bytes they move. With timing switched on (the
//! traced pass) it also clocks each call.
//!
//! **Flush policy.** The program decides when to flush, exactly as it
//! does in production, and `MeterFs` counts each `sync`/`sync_dir`. The
//! traced pass forwards them to the device, so `fs.sync_ms` and the
//! commit and flush stages carry what a flush costs on this disk. The
//! timed pass does not: the benchmark's scratch directory has to live
//! inside its checkout, on whatever disk that is, and this sandbox's
//! disk answers an fsync in 1–7 ms with a tail the reference kernel
//! cannot calibrate. The gated timings therefore leave device latency
//! out; flush *counts* are in `fs_ops_per_kwork` either way.

use iri_faults::{RealFs, SharedFs, StoreFs};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The counted operation kinds, in `StoreFs` declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsOp {
    /// Whole-file read.
    Read,
    /// Create-or-truncate write.
    Write,
    /// Append.
    Append,
    /// File flush.
    Sync,
    /// Directory flush.
    SyncDir,
    /// Rename.
    Rename,
    /// File removal.
    Remove,
}

const OPS: usize = 7;

/// A snapshot of the counters; subtract two to get an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    calls: [u64; OPS],
    bytes: [u64; OPS],
    nanos: [u64; OPS],
}

impl FsCounts {
    /// Calls of one kind.
    #[must_use]
    pub fn calls(&self, op: FsOp) -> u64 {
        self.calls[op as usize]
    }

    /// Bytes moved by one kind (zero for kinds that move none).
    #[must_use]
    pub fn bytes(&self, op: FsOp) -> u64 {
        self.bytes[op as usize]
    }

    /// Milliseconds spent inside one kind (zero with timing off).
    #[must_use]
    pub fn ms(&self, op: FsOp) -> f64 {
        self.nanos[op as usize] as f64 / 1e6
    }

    /// Every counted call.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Bytes read.
    #[must_use]
    pub fn read_bytes(&self) -> u64 {
        self.bytes(FsOp::Read)
    }

    /// Bytes written or appended.
    #[must_use]
    pub fn write_bytes(&self) -> u64 {
        self.bytes(FsOp::Write) + self.bytes(FsOp::Append)
    }

    /// Bytes read plus bytes written.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes() + self.write_bytes()
    }

    /// Milliseconds spent inside any call (zero with timing off).
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e6
    }

    /// The interval since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        let mut d = FsCounts::default();
        for i in 0..OPS {
            d.calls[i] = self.calls[i] - earlier.calls[i];
            d.bytes[i] = self.bytes[i] - earlier.bytes[i];
            d.nanos[i] = self.nanos[i] - earlier.nanos[i];
        }
        d
    }
}

/// See the [module docs](self).
#[derive(Debug, Default)]
pub struct MeterFs {
    inner: RealFs,
    forward_syncs: bool,
    timing: AtomicBool,
    calls: [AtomicU64; OPS],
    bytes: [AtomicU64; OPS],
    nanos: [AtomicU64; OPS],
}

impl MeterFs {
    /// A meter with timing off, ready to hand to the program; flushes
    /// reach the device only with `forward_syncs`.
    #[must_use]
    pub fn shared(forward_syncs: bool) -> Arc<MeterFs> {
        Arc::new(MeterFs {
            forward_syncs,
            ..MeterFs::default()
        })
    }

    /// Switches per-call clocks on (traced pass) or off (timed pass).
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    /// The counters now.
    #[must_use]
    pub fn counts(&self) -> FsCounts {
        let load = |a: &[AtomicU64; OPS]| std::array::from_fn(|i| a[i].load(Ordering::Relaxed));
        FsCounts {
            calls: load(&self.calls),
            bytes: load(&self.bytes),
            nanos: load(&self.nanos),
        }
    }

    // Relaxed throughout: the counters are statistics and publish no
    // other data.
    fn metered<T>(
        &self,
        op: FsOp,
        bytes_of: impl Fn(&T) -> u64,
        call: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let i = op as usize;
        let started = self.timing.load(Ordering::Relaxed).then(Instant::now);
        let out = call();
        if let Some(t) = started {
            self.nanos[i].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        if let Ok(v) = &out {
            self.bytes[i].fetch_add(bytes_of(v), Ordering::Relaxed);
        }
        out
    }
}

/// An `Arc<MeterFs>` as the `SharedFs` the program's options take.
#[must_use]
pub fn as_shared(meter: &Arc<MeterFs>) -> SharedFs {
    Arc::clone(meter) as SharedFs
}

impl StoreFs for MeterFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.metered(
            FsOp::Read,
            |v: &Vec<u8>| v.len() as u64,
            || self.inner.read(path),
        )
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let n = bytes.len() as u64;
        self.metered(FsOp::Write, |()| n, || self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let n = bytes.len() as u64;
        self.metered(FsOp::Append, |()| n, || self.inner.append(path, bytes))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        self.metered(
            FsOp::Sync,
            |()| 0,
            || {
                if self.forward_syncs {
                    self.inner.sync(path)
                } else {
                    Ok(())
                }
            },
        )
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.metered(
            FsOp::SyncDir,
            |()| 0,
            || {
                if self.forward_syncs {
                    self.inner.sync_dir(dir)
                } else {
                    Ok(())
                }
            },
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.metered(FsOp::Rename, |()| 0, || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.metered(FsOp::Remove, |()| 0, || self.inner.remove(path))
    }

    fn remove_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.remove_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scripted_sequence_is_counted_call_by_call() {
        let dir = crate::paths::out_dir().join(format!("test-meterfs-{}", std::process::id()));
        let fs = MeterFs::shared(false);
        fs.create_dir_all(&dir).unwrap();
        let a = dir.join("a.tmp");
        let b = dir.join("a.seg");
        let before = fs.counts();

        fs.write(&a, &[7u8; 100]).unwrap();
        fs.append(&a, &[8u8; 20]).unwrap();
        fs.sync(&a).unwrap();
        fs.rename(&a, &b).unwrap();
        fs.sync_dir(&dir).unwrap();
        assert_eq!(fs.read(&b).unwrap().len(), 120);
        assert!(fs.read(&a).is_err(), "renamed away");
        assert!(fs.exists(&b));
        assert_eq!(fs.list(&dir).unwrap(), vec!["a.seg".to_owned()]);
        fs.remove(&b).unwrap();

        let d = fs.counts().since(&before);
        assert_eq!(d.calls(FsOp::Write), 1);
        assert_eq!(d.calls(FsOp::Append), 1);
        assert_eq!(d.calls(FsOp::Sync), 1);
        assert_eq!(d.calls(FsOp::SyncDir), 1);
        assert_eq!(d.calls(FsOp::Rename), 1);
        assert_eq!(d.calls(FsOp::Read), 2, "failed reads are calls too");
        assert_eq!(d.calls(FsOp::Remove), 1);
        assert_eq!(d.total_calls(), 8, "list/exists/create_dir_all are free");
        assert_eq!(d.read_bytes(), 120);
        assert_eq!(d.write_bytes(), 120);
        assert_eq!(d.total_bytes(), 240);
        assert_eq!(d.total_ms(), 0.0, "timing is off by default");

        // A flush of a file that is not there: absorbed by a timed
        // pass's meter, an error from a traced pass's, counted by both.
        let missing = dir.join("missing");
        assert!(fs.sync(&missing).is_ok());
        let forwarding = MeterFs::shared(true);
        assert!(forwarding.sync(&missing).is_err());
        assert_eq!(forwarding.counts().calls(FsOp::Sync), 1);

        fs.set_timing(true);
        let before = fs.counts();
        fs.write(&a, &[1u8; 10]).unwrap();
        let d = fs.counts().since(&before);
        assert!(d.ms(FsOp::Write) > 0.0);
        fs.remove_dir(&dir).unwrap();
    }
}
