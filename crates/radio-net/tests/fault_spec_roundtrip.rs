//! Parse↔display round-trip law for [`FaultSpec`]: any spec's
//! `Display` form must re-parse to the same spec, so fault specs echoed
//! by result files and `kbcast-serve` responses can be fed back in
//! verbatim (`set_faults` with a string previously returned by `query`).
//!
//! The generator draws one optional value per fault family, so it
//! covers the empty spec, every single family and every stack of two
//! to five families.

use proptest::prelude::*;
use radio_net::faults::{CrashSpec, FaultSpec, GilbertSpec};

/// Raw integer material: a presence bit per family (uniform, ge, crash,
/// jam, wakeup in bit order) plus the parameters the families draw
/// from. Probabilities are exact 1/1024 fractions (f64 `Display` uses
/// the shortest representation that round-trips, so any f64 works —
/// the fractions just keep the printed specs short). `z`'s parity
/// doubles as the has-downtime flag.
type Raw = (
    u32,
    (u32, u32, u32, u32, u32, u32, u32),
    (u64, u64, u64, u64),
);

fn frac(num: u32) -> f64 {
    f64::from(num % 1024) / 1024.0
}

fn spec((mask, (a, b, c, d, e, f, g), (x, y, z, w)): Raw) -> FaultSpec {
    let on = |bit: u32| mask & (1 << bit) != 0;
    FaultSpec {
        uniform: on(0).then(|| frac(a)),
        ge: on(1).then(|| GilbertSpec {
            p_bad: frac(b),
            p_good: frac(c),
            loss_good: frac(d),
            loss_bad: frac(e),
        }),
        crash: on(2).then(|| CrashSpec {
            fraction: frac(f),
            from: x,
            until: x.saturating_add(y.max(1)),
            downtime: (z % 2 == 1).then_some(z / 2),
        }),
        jam: on(3).then_some(w),
        wakeup: on(4).then(|| frac(g)),
    }
}

proptest! {
    #[test]
    fn display_reparses_to_the_same_spec(
        raw in (
            0u32..32,
            (0u32..2048, 0u32..2048, 0u32..2048, 0u32..2048, 0u32..2048, 0u32..2048, 0u32..2048),
            (0u64..100_000, 0u64..100_000, 0u64..100_000, 0u64..100_000),
        ),
    ) {
        let spec = spec(raw);
        let text = spec.to_string();
        let reparsed: FaultSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("{text:?} failed to re-parse: {e}"));
        prop_assert_eq!(reparsed, spec);
    }
}

/// Extremes the randomized fractions never hit: u64::MAX windows,
/// rate-zero loss, never-recovering crashes, non-dyadic floats.
#[test]
fn display_reparses_edge_specs() {
    let specs = [
        FaultSpec {
            uniform: Some(0.1),
            ..FaultSpec::default()
        },
        FaultSpec {
            wakeup: Some(1.0),
            ..FaultSpec::default()
        },
        FaultSpec {
            crash: Some(CrashSpec {
                fraction: 0.25,
                from: 0,
                until: u64::MAX,
                downtime: None,
            }),
            ..FaultSpec::default()
        },
        FaultSpec {
            jam: Some(u64::MAX),
            ..FaultSpec::default()
        },
        FaultSpec {
            ge: Some(GilbertSpec {
                p_bad: 0.01,
                p_good: 0.1,
                loss_good: 0.0,
                loss_bad: 0.9,
            }),
            ..FaultSpec::default()
        },
    ];
    for spec in specs {
        let text = spec.to_string();
        let reparsed: FaultSpec = text
            .parse()
            .unwrap_or_else(|e| panic!("{text:?} failed to re-parse: {e}"));
        assert_eq!(reparsed, spec, "{text:?}");
    }
    // A stack of `none`s is the empty spec.
    let none: FaultSpec = "none+none".parse().expect("none+none parses");
    assert!(none.is_none());
    assert_eq!(none.to_string(), "none");
}
