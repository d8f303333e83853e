//! Channel-usage accounting collected by the engine.

/// Aggregate statistics over a simulation run.
///
/// All counters are cumulative since engine construction. "Collisions" are
/// counted from the *listener's* perspective: a listening node whose
/// neighborhood contained two or more simultaneous transmitters lost a
/// potential reception in that round (it cannot itself detect this — the
/// model has no collision detection — but the omniscient harness can).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of rounds executed.
    pub rounds: u64,
    /// Total transmissions (one per transmitting node per round).
    pub transmissions: u64,
    /// Total successful receptions (unique transmitting neighbor).
    pub receptions: u64,
    /// Listener-rounds in which two or more neighbors transmitted.
    pub collisions: u64,
    /// Total bits put on the air (sum of message sizes over transmissions).
    pub bits_transmitted: u64,
    /// Number of wake-up events (sleeping node receiving its first message).
    pub wakeups: u64,
    /// Receptions dropped by injected channel noise — a fault model's
    /// `drop_delivery` hook; 0 in the paper's clean model.
    pub dropped: u64,
    /// Listener-rounds silenced by jamming (see
    /// [`crate::faults::FaultModel::jam`]).
    pub jammed: u64,
    /// Would-be receptions lost because the listener was crashed.
    pub crashed_rx: u64,
    /// First receptions that failed to wake a sleeping node (see
    /// [`crate::faults::FaultModel::corrupt_wakeup`]).
    pub wakeups_suppressed: u64,
    /// Nodes crashed by the fault model's timeline.
    pub crash_events: u64,
    /// Nodes recovered by the fault model's timeline.
    pub recover_events: u64,
}

impl SimStats {
    /// Creates a zeroed statistics record.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Exact nearest-rank percentile of a *sorted* sample: the smallest
/// element such that at least `p`% of the sample is ≤ it
/// (rank `⌈p/100 · n⌉`, clamped to at least 1). No interpolation, so
/// the result is always an observed value — the right estimator for
/// small latency samples where an interpolated midpoint is a round
/// count nobody experienced. `None` on an empty sample.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or `sorted` is not ascending.
#[must_use]
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0,100]");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample not sorted");
    if sorted.is_empty() {
        return None;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Arithmetic mean of a sample (0 on an empty one).
#[must_use]
pub fn mean(sample: &[u64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        sample.iter().sum::<u64>() as f64 / sample.len() as f64
    }
}

/// Per-round outcome returned by [`crate::engine::Engine::step`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundOutcome {
    /// The round that was just executed.
    pub round: u64,
    /// Number of nodes that transmitted this round.
    pub transmissions: usize,
    /// Number of successful receptions this round.
    pub receptions: usize,
    /// Number of listeners that lost a reception to a collision this round.
    pub collisions: usize,
    /// Fault occurrences this round (all zero in the clean model).
    pub faults: crate::faults::FaultEvents,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_singleton_is_that_element() {
        // n = 1: every percentile is the one observation.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(nearest_rank(&[7], p), Some(7));
        }
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn nearest_rank_two_elements_split_at_the_median() {
        // n = 2: rank ⌈p/50⌉ — p ≤ 50 picks the first, p > 50 the second.
        assert_eq!(nearest_rank(&[3, 9], 50.0), Some(3));
        assert_eq!(nearest_rank(&[3, 9], 50.1), Some(9));
        assert_eq!(nearest_rank(&[3, 9], 0.0), Some(3));
        assert_eq!(nearest_rank(&[3, 9], 100.0), Some(9));
    }

    #[test]
    fn nearest_rank_odd_sample() {
        let s = [10, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&s, 50.0), Some(30));
        assert_eq!(nearest_rank(&s, 95.0), Some(50));
        assert_eq!(nearest_rank(&s, 20.0), Some(10));
        assert_eq!(nearest_rank(&s, 20.1), Some(20));
    }

    #[test]
    fn nearest_rank_even_sample() {
        let s = [1, 2, 3, 4];
        // p50 on even n is the lower middle under nearest-rank.
        assert_eq!(nearest_rank(&s, 50.0), Some(2));
        assert_eq!(nearest_rank(&s, 75.0), Some(3));
        assert_eq!(nearest_rank(&s, 76.0), Some(4));
        assert_eq!(nearest_rank(&s, 99.0), Some(4));
    }
}
