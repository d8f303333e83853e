//! Host-time measurements scaled to a reference host speed.
//!
//! On a shared host the speed of the last-level cache drifts by up to
//! 2× over minutes, and by tens of percent within a second, with the
//! neighbours' load; the simulator's session times drift with it, and
//! CPU-time counters do not see it. The benchmark therefore walks a
//! fixed [`Reference`] at least every [`TICK_S`] between the calls it
//! times, and scales every measured interval by [`REF_NOMINAL_S`] over
//! the mean of the two walks around it. Host-time metrics so read as
//! seconds at the reference speed. The walk is the benchmark's own
//! code, so no change to the program moves it: a slower program still
//! reads slower.

use std::time::{Duration, Instant};

/// The reference walk's duration on an unloaded 2-vCPU Xeon host: the
/// speed every scaled host time is quoted at.
pub const REF_NOMINAL_S: f64 = 0.0035;

/// Longest host time between two reference walks, where the benchmark
/// has a boundary to walk at.
pub const TICK_S: f64 = 0.05;

/// The host-speed reference: a fixed random read-modify-write walk over
/// a 4 MiB buffer. The buffer is larger than a core's L2, so the walk
/// runs from the shared last-level cache, as the simulator's node state
/// does.
pub struct Reference {
    buf: Vec<u64>,
    x: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    const WORDS: usize = 1 << 19;
    const STEPS: u32 = 500_000;

    /// Allocates the buffer.
    #[must_use]
    pub fn new() -> Self {
        Reference {
            buf: vec![1; Self::WORDS],
            x: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Walks the buffer once and returns the host seconds it took.
    pub fn sample(&mut self) -> f64 {
        let mask = Self::WORDS - 1;
        let mut acc = 0u64;
        let t = Instant::now();
        for _ in 0..std::hint::black_box(Self::STEPS) {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            #[allow(clippy::cast_possible_truncation)]
            let j = (self.x as usize) & mask;
            acc = acc.wrapping_add(self.buf[j]);
            self.buf[j] = acc;
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// A host-time interval: its length and when it ended.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    /// Host seconds.
    pub secs: f64,
    /// End of the interval.
    pub end: Instant,
}

impl Stamp {
    /// The interval from `start` to now.
    #[must_use]
    pub fn since(start: Instant) -> Self {
        let end = Instant::now();
        Stamp {
            secs: (end - start).as_secs_f64(),
            end,
        }
    }

    /// Times `f`.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Self) {
        let start = Instant::now();
        let r = f();
        (r, Stamp::since(start))
    }
}

/// The reference walks of a run, by when they ended.
pub struct RefClock {
    reference: Reference,
    walks: Vec<(Instant, f64)>,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    /// Allocates the reference and walks it once.
    #[must_use]
    pub fn new() -> Self {
        let mut clock = RefClock {
            reference: Reference::new(),
            walks: Vec::new(),
        };
        clock.tick();
        clock
    }

    /// Walks the reference.
    pub fn tick(&mut self) {
        let s = self.reference.sample();
        self.walks.push((Instant::now(), s));
    }

    /// Walks the reference if [`TICK_S`] passed since the last walk.
    pub fn maybe_tick(&mut self) {
        let last = self.walks.last().map_or(Duration::MAX, |w| w.0.elapsed());
        if last.as_secs_f64() >= TICK_S {
            self.tick();
        }
    }

    /// The scale of work that ended at `at`: [`REF_NOMINAL_S`] over the
    /// mean of the last walk before it and the first walk after it.
    #[must_use]
    pub fn scale_at(&self, at: Instant) -> f64 {
        let i = self.walks.partition_point(|w| w.0 <= at);
        let before = self.walks[i.saturating_sub(1)].1;
        let after = self.walks.get(i).map_or(before, |w| w.1);
        REF_NOMINAL_S / ((before + after) / 2.0)
    }

    /// `stamp`'s seconds at the reference speed.
    #[must_use]
    pub fn scaled(&self, stamp: Stamp) -> f64 {
        stamp.secs * self.scale_at(stamp.end)
    }

    /// A note on the run's host speed.
    #[must_use]
    pub fn note(&self) -> String {
        let mut walks: Vec<f64> = self.walks.iter().map(|w| w.1).collect();
        walks.sort_by(f64::total_cmp);
        let median = walks[walks.len() / 2];
        format!(
            "host speed: {} reference walks, median {:.3} ms against {:.3} ms nominal \
             (median scale {:.4}); host times are scaled to the nominal speed",
            walks.len(),
            median * 1e3,
            REF_NOMINAL_S * 1e3,
            REF_NOMINAL_S / median
        )
    }
}
