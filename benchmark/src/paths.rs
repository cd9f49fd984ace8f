//! Where the benchmark keeps its files: everything under `benchmark/`,
//! scratch under `benchmark/out/scratch/<pid>` and gone on exit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The `benchmark/` directory: under the current directory when the
/// command runs from a checkout's root (how the driver runs it), else
/// where the crate was built.
#[must_use]
pub fn bench_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// `benchmark/out`, where traces and scratch go.
#[must_use]
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A scratch directory removed when the guard drops — on a normal
/// return, on `?`, and on a panic's unwind alike.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates this process's scratch directory and sweeps directories
    /// left by processes that no longer exist (a run killed by a signal
    /// cannot clean up after itself).
    ///
    /// # Errors
    /// When the directory cannot be created.
    pub fn create() -> std::io::Result<Scratch> {
        let root = out_dir().join("scratch");
        std::fs::create_dir_all(&root)?;
        for entry in std::fs::read_dir(&root)?.flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .and_then(|s| s.split('-').next()?.parse::<u32>().ok())
                .is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        // `<pid>`, and `<pid>-<n>` for further guards in one process
        // (unit tests run side by side in one).
        static GUARDS: AtomicU64 = AtomicU64::new(0);
        let pid = std::process::id();
        let dir = match GUARDS.fetch_add(1, Ordering::Relaxed) {
            0 => root.join(pid.to_string()),
            n => root.join(format!("{pid}-{n}")),
        };
        // A recycled pid may have left a directory behind.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    #[must_use]
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Errors cannot be reported from here; a leftover is swept by
        // the next run.
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(root) = self.dir.parent() {
            // Succeeds only when no other run holds scratch there.
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Bytes of every regular file under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The checked-out revision, read from `.git` in the current directory
/// without starting a process; `unknown` in an exported tree.
#[must_use]
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let full = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default(),
        None => head,
    };
    if full.len() >= 12 && full.bytes().all(|b| b.is_ascii_hexdigit()) {
        full[..12].to_owned()
    } else {
        "unknown".to_owned()
    }
}

/// The filesystem type `path` is on, from `/proc/mounts` (longest
/// mount-point prefix wins); `unknown` where that cannot be read.
#[must_use]
pub fn fs_kind(path: &Path) -> String {
    let Ok(abs) = path.canonicalize() else {
        return "unknown".to_owned();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, at, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(at).then(|| (at.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_and_on_unwind() {
        let kept;
        {
            let s = Scratch::create().unwrap();
            kept = s.path("x");
            std::fs::write(&kept, b"abc").unwrap();
            assert_eq!(dir_bytes(kept.parent().unwrap()), 3);
        }
        assert!(!kept.exists());

        let unwound_dir = std::sync::Mutex::new(None);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let s = Scratch::create().unwrap();
            std::fs::write(s.path("y"), b"z").unwrap();
            *unwound_dir.lock().unwrap() = Some(s.path("y"));
            panic!("a failing workload");
        }));
        assert!(unwound.is_err());
        let left = unwound_dir
            .lock()
            .unwrap()
            .take()
            .expect("the guard was made");
        assert!(!left.exists() && !left.parent().unwrap().exists());
    }
}
