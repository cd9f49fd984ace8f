//! Calibrated time: the rule every timing in this benchmark obeys.
//!
//! The box this runs on drifts in speed by a quarter over minutes, and
//! CPU time drifts with wall time, so neither repeats. A fixed reference
//! kernel interleaved with the work drifts the same way, and the ratio
//! work ÷ kernel does repeat. Every timed interval is therefore bracketed
//! by a [`RefKernel`] run immediately before and after it (neighbouring
//! intervals share one), and reported as
//!
//! ```text
//! calibrated = wall × REF_NOMINAL_MS ÷ mean(kernel before, kernel after)
//! ```
//!
//! — seconds "on a machine that runs the kernel in 100 ms".

use crate::stats::median;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

/// The kernel time calibrated values are expressed against.
pub const REF_NOMINAL_MS: f64 = 100.0;

/// What [`RefKernel::run`] must return; anything else means the kernel (and
/// so every calibrated number) changed.
pub const REF_CHECKSUM: u64 = 0x3078_5807_d084_4c72;

const REF_STEPS: u64 = 3_000_000;
const REF_KEYS: u64 = 1 << 14;
const REF_ROWS: usize = 1 << 17;
const REF_BYTES: usize = 1 << 20;

/// A multiply-xor hasher owned by the kernel, so the kernel's speed
/// depends on no code of the measured program and on no random state.
#[derive(Default)]
struct KernelHasher(u64);

impl Hasher for KernelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// The reference kernel: single-threaded, fixed input, the same mix of
/// work the measured program does — hash-map upserts, vector pushes,
/// varint bytes, a little formatting, sorts.
///
/// It owns its buffers and reuses them from run to run. A kernel that
/// allocated afresh would take page faults in proportion to whatever the
/// measured program had just done to the heap (the first draft ran in
/// 71 ms in a fresh process and 120 ms after one simulator run), and a
/// change to the program's allocation pattern would then move every
/// calibrated number.
pub struct RefKernel {
    map: HashMap<u64, u64, BuildHasherDefault<KernelHasher>>,
    rows: Vec<u64>,
    bytes: Vec<u8>,
}

impl Default for RefKernel {
    fn default() -> Self {
        let mut k = RefKernel {
            map: HashMap::default(),
            rows: Vec::with_capacity(REF_ROWS),
            bytes: Vec::with_capacity(REF_BYTES + 16),
        };
        // One run up front so every buffer has its final capacity and
        // its pages before anything is timed against it.
        k.run();
        k
    }
}

impl RefKernel {
    /// One run; always returns [`REF_CHECKSUM`].
    #[inline(never)]
    pub fn run(&mut self) -> u64 {
        self.map.clear();
        self.rows.clear();
        self.bytes.clear();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut sum = 0u64;
        for step in 0..REF_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % REF_KEYS;
            *self.map.entry(key).or_insert(0) += x & 0xff;
            self.rows.push(x);
            let mut v = x >> 24;
            while v >= 0x80 {
                self.bytes.push((v as u8) | 0x80);
                v >>= 7;
            }
            self.bytes.push(v as u8);
            if step % 4096 == 0 {
                sum += format!("{key}:{x:016x}").len() as u64;
            }
            if self.rows.len() == REF_ROWS {
                self.rows.sort_unstable();
                sum ^= self.rows[REF_ROWS / 3];
                self.rows.clear();
            }
            if self.bytes.len() >= REF_BYTES {
                sum = self
                    .bytes
                    .iter()
                    .step_by(1009)
                    .fold(sum, |s, b| s.rotate_left(7) ^ u64::from(*b));
                self.bytes.clear();
            }
        }
        for (k, v) in &self.map {
            sum = sum.wrapping_add(k.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ v);
        }
        std::hint::black_box(sum)
    }
}

/// The factor a raw interval is multiplied by, from the kernel times
/// (ms) measured just before and just after it.
#[must_use]
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    REF_NOMINAL_MS / ((before_ms + after_ms) / 2.0)
}

/// One timed interval: its raw wall time and the factor of its bracket.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds as measured.
    pub raw_s: f64,
    /// Calibration factor of the bracketing kernel runs.
    pub factor: f64,
}

impl Timed {
    /// Calibrated seconds.
    #[must_use]
    pub fn cal_s(&self) -> f64 {
        self.raw_s * self.factor
    }
}

/// A kernel run older than this no longer counts as "immediately
/// before" the next interval and is repeated.
const SHARE_WINDOW: Duration = Duration::from_millis(50);

/// Runs the reference kernel around timed intervals and remembers every
/// kernel time, so a run can say how loaded the box was.
#[derive(Default)]
pub struct Calibrator {
    kernel: RefKernel,
    refs_ms: Vec<f64>,
    last: Option<(Instant, f64)>,
}

impl Calibrator {
    /// A calibrator that has not run the kernel yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn kernel(&mut self) -> f64 {
        let started = Instant::now();
        let sum = self.kernel.run();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sum, REF_CHECKSUM, "reference kernel checksum changed");
        self.refs_ms.push(ms);
        self.last = Some((Instant::now(), ms));
        ms
    }

    /// Times `work` between two kernel runs. The kernel that closed the
    /// previous interval opens this one when nothing else ran since.
    pub fn timed<T>(&mut self, work: impl FnOnce() -> T) -> (T, Timed) {
        let before = match self.last {
            Some((at, ms)) if at.elapsed() < SHARE_WINDOW => ms,
            _ => self.kernel(),
        };
        let started = Instant::now();
        let out = work();
        let raw_s = started.elapsed().as_secs_f64();
        let after = self.kernel();
        (
            out,
            Timed {
                raw_s,
                factor: factor(before, after),
            },
        )
    }

    /// Median kernel time of this run (ms): the box's speed.
    #[must_use]
    pub fn ref_ms_p50(&self) -> f64 {
        median(&self.refs_ms)
    }

    /// Slowest ÷ fastest kernel time of this run: 1.0 on a steady box.
    #[must_use]
    pub fn ref_spread(&self) -> f64 {
        let min = self.refs_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.refs_ms.iter().copied().fold(0.0, f64::max);
        if self.refs_ms.is_empty() || min <= 0.0 {
            1.0
        } else {
            max / min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_kernel_checksum_is_pinned() {
        let mut k = RefKernel::default();
        assert_eq!(k.run(), REF_CHECKSUM);
        assert_eq!(k.run(), REF_CHECKSUM);
        assert_eq!(RefKernel::default().run(), REF_CHECKSUM);
    }

    #[test]
    fn a_uniform_slowdown_leaves_the_metric_unchanged() {
        // Work of 2.0 s between kernels of 100 ms and 110 ms ...
        let base = Timed {
            raw_s: 2.0,
            factor: factor(100.0, 110.0),
        };
        // ... and the same on a box 1.3× slower, work and kernel alike.
        let slow = Timed {
            raw_s: 2.0 * 1.3,
            factor: factor(100.0 * 1.3, 110.0 * 1.3),
        };
        assert!((base.cal_s() - slow.cal_s()).abs() < 1e-12);
        // On the nominal box the calibrated value is the raw value.
        let nominal = Timed {
            raw_s: 0.5,
            factor: factor(REF_NOMINAL_MS, REF_NOMINAL_MS),
        };
        assert!((nominal.cal_s() - 0.5).abs() < 1e-12);
        // A slowdown of the work alone does show.
        let regressed = Timed {
            raw_s: 2.0 * 1.3,
            factor: factor(100.0, 110.0),
        };
        assert!((regressed.cal_s() / base.cal_s() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn neighbouring_intervals_share_a_kernel_run() {
        let mut cal = Calibrator::new();
        let ((), a) = cal.timed(|| ());
        assert_eq!(cal.refs_ms.len(), 2);
        let ((), b) = cal.timed(|| ());
        assert_eq!(cal.refs_ms.len(), 3, "the closing kernel opens the next");
        assert!(a.factor > 0.0 && b.factor > 0.0);
        assert!(cal.ref_spread() >= 1.0);
        assert!(cal.ref_ms_p50() > 0.0);
    }
}
