//! The nearest-rank percentile helper and its ≥10-beyond refusal rule.

use kbcast_perfbench::stats::{mean, percentile, TooFewSamples, MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    // Reversed, so the helper must sort.
    #[allow(clippy::cast_precision_loss)]
    (1..=n).rev().map(|v| v as f64).collect()
}

#[test]
fn nearest_rank_values() {
    // Rank ⌈p/100 · n⌉ of 1..=n is the value itself.
    assert_eq!(percentile(&ramp(20), 50), Ok(10.0));
    assert_eq!(percentile(&ramp(21), 50), Ok(11.0));
    assert_eq!(percentile(&ramp(1000), 99), Ok(990.0));
    assert_eq!(percentile(&ramp(2000), 99), Ok(1980.0));
    assert_eq!(percentile(&ramp(1001), 99), Ok(991.0));
}

#[test]
fn refuses_fewer_than_ten_beyond() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(
        percentile(&ramp(19), 50),
        Err(TooFewSamples {
            p: 50,
            samples: 19,
            beyond: 9
        })
    );
    assert_eq!(
        percentile(&ramp(999), 99),
        Err(TooFewSamples {
            p: 99,
            samples: 999,
            beyond: 9
        })
    );
    assert!(percentile(&[], 50).is_err());
    assert!(percentile(&ramp(5000), 100).is_err());
}

#[test]
fn duplicates_and_mean() {
    let mut v = vec![3.0; 15];
    v.extend([1.0; 15]);
    assert_eq!(percentile(&v, 50), Ok(1.0));
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    assert_eq!(mean(&[]), 0.0);
}
