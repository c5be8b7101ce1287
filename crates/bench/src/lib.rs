//! Minimal self-contained micro-benchmark harness for the ASAP
//! reproduction.
//!
//! The build environment carries no registry mirror, so this crate
//! implements the small slice of a benchmarking harness the `benches/`
//! targets need — an untimed warmup, a fixed sample count, and a
//! median/mean/min report — with zero external dependencies. Run with
//! `cargo bench` as usual; each bench target prints one line per
//! benchmark:
//!
//! ```text
//! fig08                        median 12.31ms  mean 12.40ms  min 12.11ms  (10 samples)
//! ```

// The counting global allocator (alloc-count feature) is the one place
// in the workspace that needs `unsafe`: a `GlobalAlloc` impl. Everything
// else in this crate stays forbidden.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-count", deny(unsafe_code))]
#![deny(missing_docs)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Allocation counting for the perf benches, enabled with
/// `--features alloc-count`: wraps the system allocator and counts every
/// allocation and allocated byte process-wide. The counters let
/// `sweep_bench` attribute heap traffic to each phase (workload
/// generation vs simulation vs reduction) and prove the steady-state
/// zero-allocation claim of the snapshot pool from outside the
/// simulator.
#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// System-allocator wrapper that counts allocations and bytes.
    pub struct CountingAlloc;

    // SAFETY: every method delegates directly to `System`, which
    // upholds the `GlobalAlloc` contract; the counter updates are
    // side-effect-free atomics.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// `(allocations, bytes)` counted since process start.
    pub fn counters() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }
}

/// A tiny benchmark runner with a configurable sample count.
pub struct Bench {
    samples: usize,
}

impl Default for Bench {
    fn default() -> Bench {
        Bench::new()
    }
}

impl Bench {
    /// Create a harness with the default sample count (10).
    pub fn new() -> Bench {
        Bench { samples: 10 }
    }

    /// Override the number of measured samples.
    pub fn sample_size(mut self, n: usize) -> Bench {
        self.samples = n.max(1);
        self
    }

    /// Measure `f`, printing a one-line summary. The closure's return
    /// value is passed through [`black_box`] so the work cannot be
    /// optimized away.
    pub fn run<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        // One untimed warmup iteration (page in code and data).
        black_box(f());
        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed());
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        let min = times[0];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{name:<32} median {}  mean {}  min {}  ({} samples)",
            fmt_dur(median),
            fmt_dur(mean),
            fmt_dur(min),
            times.len()
        );
    }
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        // Smoke: must not panic, must run the closure samples + warmup times.
        let mut count = 0u32;
        Bench::new().sample_size(3).run("noop", || {
            count += 1;
            count
        });
        assert_eq!(count, 4);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_dur(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.00s");
    }
}
