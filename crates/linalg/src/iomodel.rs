//! The Hong–Kung I/O model: a second communication meter.
//!
//! The paper meters bits moved *between parties*; Ballard–Demmel–Holtz–
//! Schwartz (arXiv:0905.2485) meter words moved *between memory levels*:
//! a kernel owns a fast memory of `M` words and pays one word of I/O for
//! every word it moves to or from slow memory. Classical Gaussian
//! elimination must move Ω(n³/√M) words (the Hong–Kung pebbling bound);
//! a cache-blocked elimination with √(M/3)-sized tiles attains it up to
//! a constant.
//!
//! This module holds the knob and the meter:
//!
//! * [`fast_mem_words`] — the modelled fast-memory capacity `M`, from
//!   the `CCMX_FAST_MEM_WORDS` environment variable (default
//!   [`DEFAULT_FAST_MEM_WORDS`]), read once per process;
//! * [`panel_width`] — the tile/panel width `b` the blocked kernels in
//!   [`crate::montgomery`] derive from `M`: the largest multiple of 4
//!   with `3·b² ≤ M` (three `b × b` tiles resident: one each of the
//!   factor block, the pivot block and the update block), clamped to
//!   `[4, 16]`;
//! * [`IoMeter`] — a per-call word counter the kernels accumulate into
//!   locally (one `u64` add per block operation, nothing shared), flushed
//!   once per kernel call into the `ccmx_iomodel_*` registry families.
//!
//! Exported series, scraped live like every other family
//! (`ccmx client <addr> stats`):
//!
//! * `ccmx_iomodel_fast_mem_words` — gauge, the active `M`;
//! * `ccmx_iomodel_words_moved_total{kernel,path}` — modelled words
//!   moved, `kernel ∈ {det, rank, rref}`, `path ∈ {blocked, scalar}`;
//! * `ccmx_iomodel_kernel_calls_total{kernel,path}` — kernel-scale calls
//!   (shapes below [`METER_MIN_DIM`] skip the meter entirely so the
//!   enumeration hot loops never touch the registry).

use std::sync::OnceLock;

/// Default modelled fast-memory capacity in words. Sized for the
/// register file plus the L1-resident working tile: `3·8² = 192 ≤ 256`,
/// so the default panel width is 8 — the sweet spot measured for the
/// grouped-REDC kernels on small CRT matrices.
pub const DEFAULT_FAST_MEM_WORDS: usize = 256;

/// Kernels at or above this min-dimension meter their I/O (and are
/// candidates for the blocked path); smaller shapes skip both.
pub const METER_MIN_DIM: usize = 16;

/// The modelled fast-memory capacity `M` in words: `CCMX_FAST_MEM_WORDS`
/// when set to a positive integer, otherwise
/// [`DEFAULT_FAST_MEM_WORDS`]. Cached after the first read; the
/// `ccmx_iomodel_fast_mem_words` gauge is set as a side effect.
pub fn fast_mem_words() -> usize {
    static M: OnceLock<usize> = OnceLock::new();
    *M.get_or_init(|| {
        let m = std::env::var("CCMX_FAST_MEM_WORDS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&m| m > 0)
            .unwrap_or(DEFAULT_FAST_MEM_WORDS);
        ccmx_obs::gauge!("ccmx_iomodel_fast_mem_words").set(m as i64);
        m
    })
}

/// Panel width for a fast memory of `m_words`: the largest multiple of 4
/// whose three square tiles fit (`3·b² ≤ m_words`), clamped to `[4, 16]`.
/// The upper clamp keeps the panel-factorization fraction of the total
/// work (~`3b/4n`) small at the CRT matrix sizes this lab runs.
pub fn panel_width_for(m_words: usize) -> usize {
    let mut b = 4usize;
    while b + 4 <= 16 && 3 * (b + 4) * (b + 4) <= m_words {
        b += 4;
    }
    b
}

/// The active panel width: [`panel_width_for`] of [`fast_mem_words`].
pub fn panel_width() -> usize {
    static B: OnceLock<usize> = OnceLock::new();
    *B.get_or_init(|| panel_width_for(fast_mem_words()))
}

/// Which elimination kernel a meter belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Forward elimination for the determinant.
    Det,
    /// Forward elimination for the rank.
    Rank,
    /// Full reduced-row-echelon elimination.
    Rref,
}

/// A per-call Hong–Kung word counter: accumulate locally, flush once.
pub struct IoMeter {
    kernel: Kernel,
    words: u64,
}

impl IoMeter {
    /// Fresh meter for one kernel invocation.
    pub fn new(kernel: Kernel) -> Self {
        IoMeter { kernel, words: 0 }
    }

    /// Count `words` moved between fast and slow memory.
    #[inline(always)]
    pub fn add(&mut self, words: u64) {
        self.words += words;
    }

    /// Words counted so far.
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Flush into the registry under the given path label and consume
    /// the meter. One registry touch per kernel call.
    pub fn flush(self, blocked: bool) {
        let (words, calls) = series(self.kernel, blocked);
        words.add(self.words);
        calls.inc();
        #[cfg(test)]
        FLUSHED.with(|f| {
            let mut tally = f.get();
            let slot = &mut tally[self.kernel as usize * 2 + usize::from(blocked)];
            slot.0 += self.words;
            slot.1 += 1;
            f.set(tally);
        });
    }
}

#[cfg(test)]
thread_local! {
    /// `(words, calls)` this thread's meters flushed, per kernel/path.
    /// The registry series are process-wide and move under every test
    /// thread's kernel calls; this tally moves only under this thread's.
    static FLUSHED: std::cell::Cell<[(u64, u64); 6]> = const { std::cell::Cell::new([(0, 0); 6]) };
}

/// This thread's share of [`kernel_stats`]: what only its own kernel
/// calls flushed.
#[cfg(test)]
pub(crate) fn thread_kernel_stats(kernel: Kernel, blocked: bool) -> (u64, u64) {
    FLUSHED.with(|f| f.get()[kernel as usize * 2 + usize::from(blocked)])
}

/// The `(words_moved, kernel_calls)` counters for a kernel/path pair.
/// Six match arms so every combination keeps the `counter!` macro's
/// per-call-site handle cache (labels must be `'static`).
fn series(
    kernel: Kernel,
    blocked: bool,
) -> (&'static ccmx_obs::Counter, &'static ccmx_obs::Counter) {
    use ccmx_obs::counter;
    match (kernel, blocked) {
        (Kernel::Det, true) => (
            counter!("ccmx_iomodel_words_moved_total", "kernel" => "det", "path" => "blocked"),
            counter!("ccmx_iomodel_kernel_calls_total", "kernel" => "det", "path" => "blocked"),
        ),
        (Kernel::Det, false) => (
            counter!("ccmx_iomodel_words_moved_total", "kernel" => "det", "path" => "scalar"),
            counter!("ccmx_iomodel_kernel_calls_total", "kernel" => "det", "path" => "scalar"),
        ),
        (Kernel::Rank, true) => (
            counter!("ccmx_iomodel_words_moved_total", "kernel" => "rank", "path" => "blocked"),
            counter!("ccmx_iomodel_kernel_calls_total", "kernel" => "rank", "path" => "blocked"),
        ),
        (Kernel::Rank, false) => (
            counter!("ccmx_iomodel_words_moved_total", "kernel" => "rank", "path" => "scalar"),
            counter!("ccmx_iomodel_kernel_calls_total", "kernel" => "rank", "path" => "scalar"),
        ),
        (Kernel::Rref, true) => (
            counter!("ccmx_iomodel_words_moved_total", "kernel" => "rref", "path" => "blocked"),
            counter!("ccmx_iomodel_kernel_calls_total", "kernel" => "rref", "path" => "blocked"),
        ),
        (Kernel::Rref, false) => (
            counter!("ccmx_iomodel_words_moved_total", "kernel" => "rref", "path" => "scalar"),
            counter!("ccmx_iomodel_kernel_calls_total", "kernel" => "rref", "path" => "scalar"),
        ),
    }
}

/// Current `(words_moved, calls)` for a kernel/path pair — the bench and
/// gate read-back.
pub fn kernel_stats(kernel: Kernel, blocked: bool) -> (u64, u64) {
    let (words, calls) = series(kernel, blocked);
    (words.get(), calls.get())
}

/// The Hong–Kung lower-bound scale `n³/√M` for an `n × n` elimination
/// against the active fast-memory size (as a float; the bench reports
/// measured words as a multiple of this).
pub fn hong_kung_bound(n: usize) -> f64 {
    let m = fast_mem_words() as f64;
    (n as f64).powi(3) / m.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_width_derivation() {
        assert_eq!(panel_width_for(0), 4);
        assert_eq!(panel_width_for(191), 4);
        assert_eq!(panel_width_for(192), 8); // 3·64
        assert_eq!(panel_width_for(256), 8);
        assert_eq!(panel_width_for(431), 8);
        assert_eq!(panel_width_for(432), 12); // 3·144
        assert_eq!(panel_width_for(768), 16); // 3·256
        assert_eq!(panel_width_for(1 << 20), 16, "clamped");
    }

    #[test]
    fn meter_accumulates_and_flushes() {
        let (w0, c0) = kernel_stats(Kernel::Det, true);
        let mut m = IoMeter::new(Kernel::Det);
        m.add(100);
        m.add(23);
        assert_eq!(m.words(), 123);
        m.flush(true);
        let (w1, c1) = kernel_stats(Kernel::Det, true);
        assert!(w1 >= w0 + 123);
        assert!(c1 > c0);
    }

    #[test]
    fn bound_scales_with_n() {
        let b32 = hong_kung_bound(32);
        let b64 = hong_kung_bound(64);
        assert!(b64 > 7.9 * b32 && b64 < 8.1 * b32, "n³ scaling");
    }
}
