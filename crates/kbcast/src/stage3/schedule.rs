//! Round arithmetic for the collection stage.
//!
//! Every node derives the identical phase/procedure layout from the
//! shared [`Config`], which is what keeps the distributed execution in
//! lock-step without any coordination messages.

use crate::config::Config;

/// One `OSPG`/`MSPG` procedure inside a grabbing epoch.
///
/// Layout within the procedure (procedure-local rounds, following the
/// paper §2.3.1 exactly):
///
/// * rounds `1 ..= 6y`: randomly chosen launch slots;
/// * upward relaying continues until round `6y + D` (`send_end`);
/// * the root emits acknowledgements from `send_end + 1`, spaced
///   [`crate::config::ACK_SPACING`] apart; they drain within the remaining
///   `3·(6y + D) + D` rounds;
/// * total length `24y + 5D`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcDesc {
    /// Slot-range parameter: launches are drawn from `[1, 6y]`.
    pub y: usize,
    /// Copies per packet (1 for `OSPG`, `z = c·log n` for `MSPG`).
    pub copies: usize,
    /// Phase-local start round.
    pub start: u64,
    /// End (exclusive) of the upward send window, procedure-local:
    /// `6y + d_bound`.
    pub send_end: u64,
    /// Total procedure length: `24y + 5·d_bound`.
    pub len: u64,
}

impl ProcDesc {
    fn new(y: usize, copies: usize, start: u64, d_bound: usize) -> Self {
        ProcDesc {
            y,
            copies,
            start,
            send_end: (6 * y + d_bound) as u64,
            len: (24 * y + 5 * d_bound) as u64,
        }
    }

    /// Phase-local end (exclusive).
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// The `OSPG` halving sequence `x, x/2, …` down to (and including) the
/// floor `c·log n`.
fn ospg_sizes(x: usize, floor: usize) -> Vec<usize> {
    let floor = floor.max(1);
    let mut sizes = Vec::new();
    let mut y = x.max(floor);
    loop {
        sizes.push(y);
        if y <= floor {
            return sizes;
        }
        y = (y / 2).max(floor);
    }
}

/// The full `GRAB(x)` procedure sequence for estimate `x`: the `OSPG`
/// halvings followed by the final `MSPG((c·log n)², c·log n)`.
#[must_use]
pub fn grab_schedule(x: usize, cfg: &Config) -> Vec<ProcDesc> {
    let floor = cfg.grab_floor();
    let mut procs = Vec::new();
    let mut start = 0u64;
    for y in ospg_sizes(x, floor) {
        let p = ProcDesc::new(y, 1, start, cfg.d_bound);
        start = p.end();
        procs.push(p);
    }
    let mspg = ProcDesc::new(floor * floor, floor, start, cfg.d_bound);
    procs.push(mspg);
    procs
}

/// Total rounds of `GRAB(x)`.
#[must_use]
pub fn grab_rounds(x: usize, cfg: &Config) -> u64 {
    grab_schedule(x, cfg).last().map_or(0, ProcDesc::end)
}

/// Rounds of one full collection phase for estimate `x`: grabbing epoch
/// plus the alarm window.
#[must_use]
pub fn phase_rounds(x: usize, cfg: &Config) -> u64 {
    grab_rounds(x, cfg) + cfg.epidemic_window_rounds()
}

/// Estimate used in phase `p` (0-based): `x₀ · 2^p`, saturating.
#[must_use]
pub fn estimate_for_phase(p: u32, cfg: &Config) -> usize {
    cfg.initial_estimate()
        .saturating_mul(1usize.checked_shl(p).unwrap_or(usize::MAX))
}

/// Stage-local start round of phase `p` (the sum of all earlier phases'
/// lengths).
#[must_use]
pub fn phase_start(p: u32, cfg: &Config) -> u64 {
    (0..p)
        .map(|i| phase_rounds(estimate_for_phase(i, cfg), cfg))
        .sum()
}

/// Locates the phase containing stage-local round `local`:
/// `(phase, phase_start)`.
#[must_use]
pub fn phase_at(local: u64, cfg: &Config) -> (u32, u64) {
    let mut p = 0u32;
    let mut start = 0u64;
    loop {
        let len = phase_rounds(estimate_for_phase(p, cfg), cfg);
        if local < start + len {
            return (p, start);
        }
        start += len;
        p += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::for_network(256, 10, 8)
    }

    #[test]
    fn ospg_sizes_halve_to_floor() {
        assert_eq!(ospg_sizes(100, 10), vec![100, 50, 25, 12, 10]);
        assert_eq!(ospg_sizes(16, 16), vec![16]);
        assert_eq!(ospg_sizes(8, 16), vec![16]);
        assert_eq!(ospg_sizes(0, 0), vec![1]);
    }

    #[test]
    fn proc_lengths_match_the_paper() {
        // OSPG(y) = 24y + 5D.
        let p = ProcDesc::new(100, 1, 0, 10);
        assert_eq!(p.len, 24 * 100 + 50);
        assert_eq!(p.send_end, 600 + 10);
    }

    #[test]
    fn grab_schedule_is_contiguous_and_ends_with_mspg() {
        let cfg = cfg();
        let procs = grab_schedule(500, &cfg);
        let mut expect_start = 0;
        for p in &procs {
            assert_eq!(p.start, expect_start);
            expect_start = p.end();
        }
        let floor = cfg.grab_floor();
        let last = procs.last().unwrap();
        assert_eq!(last.y, floor * floor);
        assert_eq!(last.copies, floor);
        // All but the last are single-copy OSPGs, halving down to the floor.
        for w in procs.windows(2) {
            if w[1].copies == 1 {
                assert!(w[1].y <= w[0].y);
            }
        }
        assert_eq!(procs[procs.len() - 2].y, floor);
    }

    #[test]
    fn grab_rounds_is_linear_plus_logs() {
        let cfg = cfg();
        // GRAB(x) = O(x + D log x + log² n): doubling x roughly doubles it.
        let g1 = grab_rounds(1_000, &cfg);
        let g2 = grab_rounds(2_000, &cfg);
        assert!(g2 > g1);
        assert!(g2 < 3 * g1);
    }

    #[test]
    fn phase_start_accumulates() {
        let cfg = cfg();
        let x0 = cfg.initial_estimate();
        assert_eq!(phase_start(0, &cfg), 0);
        assert_eq!(phase_start(1, &cfg), phase_rounds(x0, &cfg));
        assert_eq!(
            phase_start(2, &cfg),
            phase_rounds(x0, &cfg) + phase_rounds(2 * x0, &cfg)
        );
    }

    #[test]
    fn phase_at_inverts_phase_start() {
        let cfg = cfg();
        for p in 0..4u32 {
            let s = phase_start(p, &cfg);
            assert_eq!(phase_at(s, &cfg), (p, s));
            assert_eq!(phase_at(s + 1, &cfg), (p, s));
            let len = phase_rounds(estimate_for_phase(p, &cfg), &cfg);
            assert_eq!(phase_at(s + len - 1, &cfg), (p, s));
        }
    }

    #[test]
    fn estimates_double() {
        let cfg = cfg();
        let x0 = cfg.initial_estimate();
        assert_eq!(estimate_for_phase(0, &cfg), x0);
        assert_eq!(estimate_for_phase(1, &cfg), 2 * x0);
        assert_eq!(estimate_for_phase(5, &cfg), 32 * x0);
    }
}
