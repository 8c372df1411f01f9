//! Core-speed calibration.
//!
//! On a small shared VM a virtual core's speed flips by up to about
//! 1.7× for seconds to minutes at a time, as other tenants load the
//! physical core behind it, and each virtual core flips on its own. A
//! run that happens to spend more of its time on a slow core then
//! reports latencies up to 70% higher, which no run length averages
//! away.
//!
//! The benchmark therefore pins itself, and every thread it and the
//! server start, to one core ([`pin_to_one_cpu`]), and times a fixed
//! calibration kernel on that core before every statement it sends
//! ([`Gauge::sample`]). The kernel is timed in thread CPU time, so a
//! kernel that shares the core with a busy server thread still measures
//! the core's speed, not its share of it. [`Gauge::scale`] then scales
//! each latency by the kernel's time on a fixed reference core over its
//! time around the statement: the latency the statement would have had
//! on the reference core. A fixed reference, rather than the fastest
//! samples of the run, also corrects runs whose core is slow
//! throughout. The kernel is the benchmark's own code, so a change to
//! the program moves the scaled times as it moves the raw ones.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;

/// Keys per calibration kernel run (about a millisecond of hashing,
/// allocation and sorting, the mix the engine's evaluation does).
const KERNEL_KEYS: usize = 16_384;

/// Calibration samples on each side of a statement whose trimmed mean
/// gives the core's speed while it ran. Under contention that changes
/// within a second, a wide mean follows the core's speed better than the
/// two samples beside the statement.
const WINDOW: usize = 4;

/// The kernel's CPU time on the reference core, ms: its time on an
/// uncontended core of the 2-vCPU Xeon VM the benchmark was tuned on.
/// Scaled times are times on a core this fast.
pub const REFERENCE_MS: f64 = 1.25;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used, ms.
pub fn thread_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Restricts the calling thread, and so every thread it starts from now
/// on, to the lowest-numbered core it may run on. Returns that core, or
/// `None` when the affinity calls are refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set = CpuSet { bits: [0; 16] };
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a valid, writable cpu_set_t of `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return None;
    }
    let cpu = (0..16 * 64).find(|&c| set.bits[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of `size` bytes.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

/// The calibration kernel: a fixed amount of hashing, allocation and
/// sorting.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..KERNEL_KEYS)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        })
        .collect();
    let mut map = HashMap::with_capacity(KERNEL_KEYS);
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i as u64);
    }
    keys.sort_unstable();
    keys.iter().map(|k| map[k]).fold(0, u64::wrapping_add)
}

/// Calibration samples of one closed loop: the kernel's CPU time
/// before each statement, and once after the last.
#[derive(Debug, Default, Clone)]
pub struct Gauge {
    /// Kernel CPU time per sample, ms.
    pub samples: Vec<f64>,
}

impl Gauge {
    /// Times one kernel run on the calling thread.
    pub fn sample(&mut self) {
        let start = thread_cpu_ms();
        black_box(kernel());
        self.samples.push(thread_cpu_ms() - start);
    }

    /// The core's kernel time around statement `i`: the mean of the
    /// samples from [`WINDOW`] before it to [`WINDOW`] after it, without
    /// the fastest and the slowest of them.
    fn local(&self, i: usize) -> f64 {
        let lo = (i + 1).saturating_sub(WINDOW);
        let hi = (i + WINDOW).min(self.samples.len() - 1);
        let mut window = self.samples[lo..=hi].to_vec();
        window.sort_by(f64::total_cmp);
        let kept = if window.len() > 2 {
            &window[1..window.len() - 1]
        } else {
            &window[..]
        };
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// Scales time `ms[i]` of statement `i` by [`REFERENCE_MS`] ÷ the
    /// core's local kernel time, giving its time on the reference core.
    /// Needs one more sample than times.
    pub fn scale(&self, ms: &[f64]) -> Vec<f64> {
        assert_eq!(
            self.samples.len(),
            ms.len() + 1,
            "one sample per statement, plus one"
        );
        ms.iter()
            .enumerate()
            .map(|(i, &m)| m * REFERENCE_MS / self.local(i))
            .collect()
    }

    /// The median local kernel time ÷ [`REFERENCE_MS`]: how much slower
    /// than the reference core the run's core was.
    pub fn slowdown(&self) -> f64 {
        let locals: Vec<f64> = (0..self.samples.len().saturating_sub(1))
            .map(|i| self.local(i))
            .collect();
        median(&locals) / REFERENCE_MS
    }
}
