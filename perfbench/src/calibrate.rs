//! Machine-speed calibration.
//!
//! Shared hosts change speed by tens of percent for seconds to minutes at a
//! time (co-tenant load), which no amount of averaging inside one run
//! removes: on the 2-vCPU guest this was tuned on, 15-second windows of
//! identical requests spread 24–30% (quartile distance over median), flipping
//! between a fast and a 1.6–1.9× slower state. A run therefore times a fixed
//! reference kernel — this module's own code, never the repository's — after
//! every request, and scales each request's wall time by
//! `NOMINAL_REFERENCE_MS` over the median reference time around it. On the
//! same windows, scaling by the reference cut the spread to 3–12% for every
//! workload. Reported timings are then milliseconds at nominal machine speed;
//! the raw wall times stay on the detail line.
//!
//! The kernel shares the process with the program under test, so it is
//! isolated from it as far as one process allows: its buffers are allocated
//! and touched once, when the [`Calibrator`] is made, and reused on every
//! call, so no request's heap state can make it page-fault or allocate. It
//! still runs on caches the request just used; whether a program change moved
//! the reference shows in `reference_ms_median` on the detail line, which the
//! stability mode checks across runs.

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the machine the bounds were tuned on, in
/// its fast state (a 2-vCPU Xeon guest), so normalized timings read close to
/// wall time there. Only ratios matter: a run and its comparison share it.
pub const NOMINAL_REFERENCE_MS: f64 = 0.3;

/// Complex amplitudes the kernel rotates (64 KiB, cache-resident like the
/// engine's statevectors).
const AMPLITUDES: usize = 1 << 12;
/// Rotation passes over the amplitudes.
const PASSES: usize = 24;
/// Entries of the integer table the kernel walks (like the SA core's
/// adjacency lookups: dependent, data-driven indexing).
const TABLE: usize = 1 << 14;
/// Dependent table steps.
const STEPS: usize = 60_000;

/// The reference kernel and its buffers, allocated and touched once.
#[derive(Debug)]
struct Kernel {
    re: Vec<f64>,
    im: Vec<f64>,
    table: Vec<u32>,
}

impl Kernel {
    fn new() -> Self {
        let mut kernel = Self {
            re: vec![0.0; AMPLITUDES],
            im: vec![0.0; AMPLITUDES],
            table: (0..TABLE as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) >> 18)
                .collect(),
        };
        // Touch every page before the first timed call.
        black_box(kernel.run());
        kernel
    }

    /// One pass of the kernel; the same result on every call.
    fn run(&mut self) -> f64 {
        let (re, im) = (&mut self.re, &mut self.im);
        re.fill(0.5);
        im.fill(0.25);
        let (c, s) = (black_box(0.8_f64), black_box(0.6_f64));
        for pass in 0..PASSES {
            let stride = 1 << (pass % 12);
            let mut base = 0;
            while base < AMPLITUDES {
                for i in base..base + stride {
                    let j = i + stride;
                    let (ar, ai, br, bi) = (re[i], im[i], re[j], im[j]);
                    re[i] = c * ar + s * bi;
                    im[i] = c * ai - s * br;
                    re[j] = c * br + s * ai;
                    im[j] = c * bi - s * ar;
                }
                base += 2 * stride;
            }
        }
        let mut at = black_box(1_usize);
        let mut acc = 0_u64;
        for _ in 0..STEPS {
            let v = self.table[at];
            acc = acc.wrapping_add(u64::from(v));
            at = (v as usize ^ (acc as usize)) & (TABLE - 1);
            if v & 1 == 0 {
                acc ^= acc >> 7;
            }
        }
        re[7] + im[AMPLITUDES - 1] + acc as f64
    }

    /// Runs the kernel once and returns its wall time in ms.
    fn time_ms(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.run());
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Reference samples taken between requests, one after each.
#[derive(Debug)]
pub struct Calibrator {
    kernel: Kernel,
    samples_ms: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self {
            kernel: Kernel::new(),
            samples_ms: Vec::new(),
        }
    }
}

/// Neighbouring samples on each side that set a request's local speed.
const WINDOW: usize = 2;

impl Calibrator {
    /// Times the reference kernel once. Call it right after each timed
    /// request, outside the timed window.
    pub fn sample(&mut self) {
        let ms = self.kernel.time_ms();
        self.samples_ms.push(ms);
    }

    /// Times the reference kernel `n` times in a row.
    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// Median of all samples, in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    /// Factor that turns the raw duration timed just before sample `i` into
    /// one at nominal speed: the nominal reference time over the median of
    /// the samples within [`WINDOW`] of `i`. Local, so a run whose host
    /// changes speed halfway scales each request by the speed it ran at.
    pub fn scale_at(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(WINDOW);
        let hi = (i + WINDOW + 1).min(self.samples_ms.len());
        self.scale_over(lo..hi)
    }

    /// The nominal reference time over the median of the samples in
    /// `range`, for a duration those samples bracket.
    pub fn scale_over(&self, range: std::ops::Range<usize>) -> f64 {
        NOMINAL_REFERENCE_MS / crate::stats::median(&self.samples_ms[range])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_takes_measurable_time() {
        let mut kernel = Kernel::new();
        assert_eq!(kernel.run().to_bits(), kernel.run().to_bits());
        assert!(kernel.time_ms() > 0.0);
        let mut calibrator = Calibrator::default();
        for _ in 0..3 {
            calibrator.sample();
        }
        assert_eq!(calibrator.samples(), 3);
        calibrator.sample_n(2);
        assert_eq!(calibrator.samples(), 5);
        for i in 0..5 {
            let scale = calibrator.scale_at(i);
            assert!(scale.is_finite() && scale > 0.0);
        }
        assert_eq!(calibrator.scale_over(0..5), calibrator.scale_at(2));
    }
}
