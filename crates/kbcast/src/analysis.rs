//! Monte-Carlo checks of the paper's probabilistic lemmas (§1.1).
//!
//! The paper's analysis rests on three tools: a Chernoff-type bound for
//! Bernoulli sums (Lemma 1), one for sums of geometric random variables
//! (Lemma 2), and the full-rank probability of random binary matrices
//! (Lemma 3, which experiment E6 checks on the Stage 4
//! [`gf2::decoder::Decoder`] against
//! [`gf2::decoder::lemma3_row_threshold`]). Experiment E11
//! reproduces Lemmas 1 and 2 empirically via this module: each function
//! returns the *empirical* tail probability, to be compared against the
//! analytic bound.

use rand::Rng;

/// Lemma 1's trial count: `r = ⌊(3d + 2τ)/p⌋`.
///
/// With `r` independent Bernoulli(p) trials,
/// `Pr[Σ < d] ≤ e^(-τ)`.
///
/// # Panics
///
/// Panics unless `0 < p ≤ 1`, `d ≥ 1` and `τ ≥ 0`.
#[must_use]
pub fn lemma1_trials(p: f64, d: f64, tau: f64) -> usize {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    assert!(d >= 1.0, "d must be >= 1");
    assert!(tau >= 0.0, "tau must be >= 0");
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    {
        ((3.0 * d + 2.0 * tau) / p).floor() as usize
    }
}

/// Empirical `Pr[Σ_{q=1..r} Bernoulli(p) < d]` over `samples` repetitions.
#[must_use]
pub fn bernoulli_tail_empirical(
    p: f64,
    d: f64,
    r: usize,
    samples: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut below = 0usize;
    for _ in 0..samples {
        let mut sum = 0usize;
        for _ in 0..r {
            if rng.gen_bool(p) {
                sum += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        if (sum as f64) < d {
            below += 1;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        below as f64 / samples as f64
    }
}

/// Lemma 2's threshold: `t = 2μ + 4·ln(1/ε)/p_min` for independent
/// geometric variables with parameters `ps`; `Pr[Σ X_i ≥ t] ≤ ε`.
///
/// # Panics
///
/// Panics if `ps` is empty, any `p ∉ (0, 1]`, or `ε ∉ (0, 1]`.
#[must_use]
pub fn lemma2_threshold(ps: &[f64], epsilon: f64) -> f64 {
    assert!(!ps.is_empty(), "need at least one geometric variable");
    assert!(
        ps.iter().all(|&p| p > 0.0 && p <= 1.0),
        "parameters must be in (0, 1]"
    );
    assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
    let mu: f64 = ps.iter().map(|&p| 1.0 / p).sum();
    let p_min = ps.iter().copied().fold(f64::INFINITY, f64::min);
    2.0 * mu + 4.0 * (1.0 / epsilon).ln() / p_min
}

/// One sample of `Σ Geometric(p_i)` (support `{1, 2, …}` per the paper).
fn geometric_sum(ps: &[f64], rng: &mut impl Rng) -> f64 {
    let mut sum = 0.0;
    for &p in ps {
        let mut x = 1.0;
        while !rng.gen_bool(p) {
            x += 1.0;
        }
        sum += x;
    }
    sum
}

/// Empirical `Pr[Σ Geometric(p_i) ≥ t]` over `samples` repetitions.
#[must_use]
pub fn geometric_tail_empirical(ps: &[f64], t: f64, samples: usize, rng: &mut impl Rng) -> f64 {
    let mut above = 0usize;
    for _ in 0..samples {
        if geometric_sum(ps, rng) >= t {
            above += 1;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    {
        above as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_net::rng;

    #[test]
    fn lemma1_trials_formula() {
        // (3·5 + 2·2)/0.5 = 38
        assert_eq!(lemma1_trials(0.5, 5.0, 2.0), 38);
    }

    #[test]
    #[should_panic(expected = "p must be")]
    fn lemma1_rejects_bad_p() {
        let _ = lemma1_trials(0.0, 1.0, 1.0);
    }

    #[test]
    fn lemma1_holds_empirically() {
        let mut r = rng::stream(1, rng::salts::ANALYSIS);
        for (p, d, tau) in [(0.5, 4.0, 1.0), (0.2, 2.0, 2.0), (0.8, 10.0, 0.5)] {
            let trials = lemma1_trials(p, d, tau);
            let tail = bernoulli_tail_empirical(p, d, trials, 2_000, &mut r);
            let bound = (-tau).exp();
            assert!(
                tail <= bound + 0.03,
                "p={p} d={d} tau={tau}: tail {tail} > bound {bound}"
            );
        }
    }

    #[test]
    fn lemma2_threshold_formula() {
        let ps = [0.5, 0.25];
        // mu = 6, p_min = 0.25, eps = e^-1: t = 12 + 16 = 28.
        let t = lemma2_threshold(&ps, (-1.0f64).exp());
        assert!((t - 28.0).abs() < 1e-9);
    }

    #[test]
    fn lemma2_holds_empirically() {
        let mut r = rng::stream(2, rng::salts::ANALYSIS);
        let ps: Vec<f64> = (1..=8).map(|i| 1.0 - (i as f64) / 16.0).collect();
        let eps = 0.05;
        let t = lemma2_threshold(&ps, eps);
        let tail = geometric_tail_empirical(&ps, t, 2_000, &mut r);
        assert!(tail <= eps + 0.02, "tail {tail} > eps {eps}");
    }

    #[test]
    fn geometric_sum_at_least_count() {
        let mut r = rng::stream(3, rng::salts::ANALYSIS);
        let ps = [0.9, 0.9, 0.9];
        for _ in 0..50 {
            assert!(geometric_sum(&ps, &mut r) >= 3.0);
        }
    }
}
