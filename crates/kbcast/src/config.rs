//! Protocol configuration: the paper's big-O constants made explicit.
//!
//! The paper proves its bounds for "sufficiently large" constants; an
//! implementation has to pick numbers. Every tunable constant is a
//! field of [`Config`] so experiments can sweep them (and E13 documents
//! the success probability of the defaults); the two spacings the
//! collision-freeness proofs fix are the constants [`ACK_SPACING`] and
//! [`GROUP_SPACING`]. All schedule lengths are
//! deterministic functions of the *shared* estimates (`n_bound`,
//! `d_bound`, `delta_bound`) plus these constants, which is what lets
//! nodes agree on stage and phase boundaries without communication.

use protocols::timing::{ceil_log2, epoch_len, log_n};

/// Spacing (in rounds) between consecutive acknowledgements leaving the
/// root: 3 makes them collision-free on the BFS tree (paper §2.3.1); a
/// smaller value breaks that proof.
pub const ACK_SPACING: u64 = 3;

/// Spacing (in phases) between consecutive dissemination groups: 3
/// keeps concurrently active rings non-adjacent (paper §2.4); a smaller
/// value breaks that proof.
pub const GROUP_SPACING: u64 = 3;

/// Shared configuration of one k-broadcast execution.
///
/// `n_bound`, `d_bound` and `delta_bound` model the paper's assumption
/// that nodes know a polynomial upper bound on `n` and `Δ` and a linear
/// upper bound on `D`; they may exceed the true values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Upper bound on the number of nodes `n`.
    pub n_bound: usize,
    /// Upper bound on the diameter `D` (at least the true diameter).
    pub d_bound: usize,
    /// Upper bound on the maximum degree `Δ`.
    pub delta_bound: usize,
    /// Bits of the id space (node ids are `< 2^id_bits`).
    pub id_bits: u32,
    /// Epidemic-window constant: windows of `c_or · (D + log n)` Decay
    /// epochs for leader-election probes and `ALARM` epochs.
    pub c_or: usize,
    /// BFS phase constant: phases of `c_bfs · log n` Decay epochs.
    pub c_bfs: usize,
    /// The paper's `c` in `GRAB`: the `OSPG` halving sequence stops at
    /// `c_grab · log n`, and `MSPG` uses `(c_grab · log n)²` slots with
    /// `c_grab · log n` copies per packet.
    pub c_grab: usize,
    /// `FORWARD` phase length: `c_fwd · (log n + 4)` Decay epochs per
    /// dissemination phase (enough receptions for Lemma 3's threshold).
    pub c_fwd: usize,
    /// Dissemination group size override. `None` = the paper's
    /// `⌈log n⌉`; `Some(1)` is the *uncoded* ablation (one packet per
    /// group, no mixing gain), used by experiment E12.
    pub group_size_override: Option<usize>,
    /// Bounded-retry cap on Stage 3 collection phases: a node stops
    /// *initiating* alarms (though it still relays others') once this
    /// many phases have elapsed, so a network where alarms can never
    /// reach the root — every reception faulted away, the root crashed —
    /// degrades to a truthful failed run instead of doubling the
    /// `k`-estimate forever until the phase schedule overflows. The
    /// default (40) is astronomically beyond any clean run (the estimate
    /// doubles per phase, so ~2^40 packets) and is unreachable without
    /// fault injection.
    pub max_collect_phases: u32,
}

impl Config {
    /// A configuration for a network with the given *true* parameters,
    /// using the calibrated default constants (see EXPERIMENTS.md, E13).
    #[must_use]
    pub fn for_network(n: usize, diameter: usize, max_degree: usize) -> Self {
        Config {
            n_bound: n.max(2),
            d_bound: diameter.max(1),
            delta_bound: max_degree.max(1),
            id_bits: u32::try_from(ceil_log2(n.max(2)).max(1)).expect("id bits fit u32"),
            c_or: 3,
            c_bfs: 3,
            c_grab: 2,
            c_fwd: 4,
            group_size_override: None,
            max_collect_phases: 40,
        }
    }

    /// `⌈log2 n_bound⌉`, at least 1 (the paper's `log n`).
    #[must_use]
    pub fn log_n(&self) -> usize {
        log_n(self.n_bound)
    }

    /// Rounds per Decay epoch: `⌈log2 Δ⌉`, at least 1.
    #[must_use]
    pub fn epoch_len(&self) -> usize {
        epoch_len(self.delta_bound)
    }

    /// Rounds of one epidemic (OR / alarm) window:
    /// `c_or · (d_bound + log n)` epochs.
    #[must_use]
    pub fn epidemic_window_rounds(&self) -> u64 {
        (self.c_or * (self.d_bound + self.log_n()) * self.epoch_len()) as u64
    }

    /// Stage 1 length: one OR window per id bit.
    #[must_use]
    pub fn stage1_rounds(&self) -> u64 {
        u64::from(self.id_bits) * self.epidemic_window_rounds()
    }

    /// Rounds of one BFS phase: `c_bfs · log n` epochs.
    #[must_use]
    pub fn bfs_phase_rounds(&self) -> u64 {
        (self.c_bfs * self.log_n() * self.epoch_len()) as u64
    }

    /// Stage 2 length: `d_bound` BFS phases.
    #[must_use]
    pub fn stage2_rounds(&self) -> u64 {
        self.bfs_phase_rounds() * self.d_bound as u64
    }

    /// First round of Stage 3.
    #[must_use]
    pub fn stage3_start(&self) -> u64 {
        self.stage1_rounds() + self.stage2_rounds()
    }

    /// The initial packet-count estimate `x₀ = (d_bound + log n)·log n`.
    #[must_use]
    pub fn initial_estimate(&self) -> usize {
        (self.d_bound + self.log_n()) * self.log_n()
    }

    /// The `OSPG` halving floor `c_grab · log n`.
    #[must_use]
    pub fn grab_floor(&self) -> usize {
        (self.c_grab * self.log_n()).max(1)
    }

    /// Group size for Stage 4 (the paper's `⌈log n⌉` unless overridden).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size_override
            .unwrap_or_else(|| self.log_n())
            .max(1)
    }

    /// Rounds of one Stage 4 (`FORWARD`) phase:
    /// `c_fwd · (group size + 4)` Decay epochs — scaled to the group size
    /// so that Lemma 3's `2(w+2) + Θ(log n)` reception threshold is met
    /// w.h.p., and never shorter than one raw transmission per group
    /// member.
    ///
    /// For phase sizing the epoch length is floored at 2 rounds: with
    /// Δ ≤ 2 a Decay epoch is a single round, and `c_fwd·(m+4)` raw
    /// rounds sit too close to the decoder's rank threshold once the
    /// per-ring failure probability is unioned over all `n·g`
    /// ring × group cells (observed as rare wave break-offs on long
    /// paths; see EXPERIMENTS.md E13).
    #[must_use]
    pub fn forward_phase_rounds(&self) -> u64 {
        let epochs = self.c_fwd * (self.group_size() + 4);
        (epochs * self.epoch_len().max(2)).max(self.group_size()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = Config::for_network(256, 10, 8);
        assert_eq!(c.log_n(), 8);
        assert_eq!(c.epoch_len(), 3);
        assert_eq!(c.id_bits, 8);
        assert_eq!(c.group_size(), 8);
        assert_eq!(c.initial_estimate(), (10 + 8) * 8);
        assert_eq!(c.grab_floor(), 16);
        assert_eq!(c.stage3_start(), c.stage1_rounds() + c.stage2_rounds());
    }

    #[test]
    fn stage_lengths_match_their_formulas() {
        let c = Config::for_network(256, 10, 8);
        assert_eq!(c.epidemic_window_rounds(), (3 * 18 * 3) as u64);
        assert_eq!(c.stage1_rounds(), 8 * c.epidemic_window_rounds());
        assert_eq!(c.bfs_phase_rounds(), (3 * 8 * 3) as u64);
        assert_eq!(c.stage2_rounds(), 10 * c.bfs_phase_rounds());
    }

    #[test]
    fn tiny_networks_have_nonzero_schedules() {
        let c = Config::for_network(2, 1, 1);
        assert!(c.epoch_len() >= 1);
        assert!(c.log_n() >= 1);
        assert!(c.epidemic_window_rounds() > 0);
        assert!(c.forward_phase_rounds() > 0);
        assert!(c.group_size() >= 1);
    }

    #[test]
    fn uncoded_override_changes_group_size_only() {
        let mut c = Config::for_network(256, 10, 8);
        let coded_phase = c.forward_phase_rounds();
        c.group_size_override = Some(1);
        assert_eq!(c.group_size(), 1);
        assert!(c.forward_phase_rounds() < coded_phase);
        assert_eq!(
            c.stage3_start(),
            Config::for_network(256, 10, 8).stage3_start()
        );
    }

    #[test]
    fn forward_phase_fits_raw_group_transmission() {
        for n in [2, 16, 1024, 1 << 14] {
            let c = Config::for_network(n, 5, 6);
            assert!(c.forward_phase_rounds() >= c.group_size() as u64);
        }
    }
}
