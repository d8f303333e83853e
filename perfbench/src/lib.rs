//! The repository's benchmark: four workloads, each run in its own
//! process, reporting end-to-end metrics (`--trace 0`) or per-layer
//! metrics from a separately traced run (`--trace 1`). See `NOTES.md`.
//!
//! Every workload repeats a unit — one session — with seeds derived
//! from the run seed: one warm-up unit is discarded, then units run
//! until at least [`MIN_UNITS`] are done and the run's time budget is
//! spent. Simulated metrics come from the first [`MIN_UNITS`] units
//! only, so they repeat exactly for a given seed; host-time metrics are
//! medians over every unit, scaled to a reference host speed (see
//! [`clock`]).

pub mod bii;
pub mod clock;
pub mod oneshot;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod timed;

use std::time::Instant;

use gf2::bitvec::BitVec;
use gf2::coded::encode_random;
use gf2::decoder::Decoder;
use kbcast::runner::Workload;
use radio_net::rng;
use radio_net::stats::SimStats;

use clock::{RefClock, Stamp};
use report::Report;

/// Units every run completes, whatever its time budget: a median needs
/// 20 samples to leave 10 beyond it.
pub(crate) const MIN_UNITS: usize = 20;

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name (one of [`report::WORKLOADS`]).
    pub workload: String,
    /// Seed from which every input is derived.
    pub seed: u64,
    /// Time budget of the measured units.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of unit `unit` of a run seeded `seed`; `None` is the warm-up.
#[must_use]
pub(crate) fn unit_seed(seed: u64, unit: Option<usize>) -> u64 {
    let salt = unit.map_or(u64::MAX, |u| u as u64);
    splitmix64(seed ^ splitmix64(salt))
}

/// A run's measured units.
pub(crate) struct Run<T> {
    /// The units, in run order.
    pub units: Vec<T>,
    /// Peak resident set in MB when the warm-up unit ended: what one
    /// session needs, before the allocator's history over many sessions
    /// blurs the figure by ±10 %.
    pub warmup_rss_mb: f64,
}

/// Runs one discarded warm-up unit, then units `0, 1, …` until at
/// least [`MIN_UNITS`] are done and `seconds` have passed since the
/// first one started. The clock walks its reference between units (and
/// once more at the end, so every unit's times are bracketed); units
/// may walk it at their own boundaries too.
///
/// # Errors
///
/// The first unit error, or an unreadable peak resident set.
pub(crate) fn run_units<T>(
    seed: u64,
    seconds: f64,
    clock: &mut RefClock,
    mut unit: impl FnMut(Option<usize>, u64, &mut RefClock) -> Result<T, String>,
) -> Result<Run<T>, String> {
    drop(unit(None, unit_seed(seed, None), clock)?);
    let warmup_rss_mb = report::peak_rss_mb()?;
    clock.tick();
    let start = Instant::now();
    let mut units = Vec::new();
    while units.len() < MIN_UNITS || start.elapsed().as_secs_f64() < seconds {
        let i = units.len();
        units.push(unit(Some(i), unit_seed(seed, Some(i)), clock)?);
        clock.maybe_tick();
    }
    clock.tick();
    Ok(Run {
        units,
        warmup_rss_mb,
    })
}

/// `f` over `units`, as a vector of samples.
pub(crate) fn col<T>(units: &[T], f: impl Fn(&T) -> f64) -> Vec<f64> {
    units.iter().map(f).collect()
}

/// The median, under the ≥10-beyond rule.
///
/// # Errors
///
/// Fewer than 20 samples.
pub(crate) fn p50(samples: &[f64]) -> Result<f64, String> {
    stats::percentile(samples, 50).map_err(|e| e.to_string())
}

/// The 99th percentile, under the ≥10-beyond rule.
///
/// # Errors
///
/// Fewer than 1000 samples.
pub(crate) fn p99(samples: &[f64]) -> Result<f64, String> {
    stats::percentile(samples, 99).map_err(|e| e.to_string())
}

/// Micro-probe of the GF(2) decoder at group size `w` and payload
/// length `payload_len`: fills fresh decoders with random coded packets
/// until full rank, timing the `Decoder::insert` calls of each fill and
/// one `Decoder::decode` per fill. Records `gf2.insert_ns` (median
/// mean-insert time per fill) and `gf2.decode_us` (median decode time),
/// scaled by `clock`.
///
/// # Errors
///
/// A fill that does not decode back to the group.
pub(crate) fn gf2_probe(
    report: &mut Report,
    clock: &mut RefClock,
    w: usize,
    payload_len: usize,
    seed: u64,
) -> Result<(), String> {
    const FILLS: usize = 2000;
    let mut rng = rng::stream(seed, 0x6F2_u64);
    let group: Vec<Vec<u8>> = (0..w)
        .map(|i| {
            (0..payload_len)
                .map(|j| u8::try_from((i * 31 + j * 7) % 251).expect("byte"))
                .collect()
        })
        .collect();
    let mut inserts = Vec::with_capacity(FILLS);
    let mut decodes = Vec::with_capacity(FILLS);
    for _ in 0..FILLS {
        // Pre-draw enough rows for full rank (a random ½-density w×w
        // matrix needs w + O(1) rows), outside the timed region.
        let rows: Vec<(BitVec, Vec<u8>)> = (0..4 * w + 16)
            .map(|_| {
                let p = encode_random(&group, &mut rng);
                (p.coefficients, p.payload)
            })
            .collect();
        let mut dec = Decoder::new(w, payload_len);
        let (inserted, stamp) = Stamp::measure(|| {
            let mut inserted = 0u32;
            for (coeffs, payload) in rows {
                std::hint::black_box(dec.insert(coeffs, payload));
                inserted += 1;
                if dec.is_complete() {
                    break;
                }
            }
            inserted
        });
        inserts.push((stamp, inserted));
        let (decoded, stamp) = Stamp::measure(|| std::hint::black_box(dec.decode()));
        decodes.push(stamp);
        if decoded.as_deref() != Some(&group[..]) {
            return Err(format!("gf2 probe: w={w} fill did not decode to its group"));
        }
        clock.maybe_tick();
    }
    clock.tick();
    let insert_ns = col(&inserts, |&(s, n)| clock.scaled(s) * 1e9 / f64::from(n));
    report.set("gf2.insert_ns", p50(&insert_ns)?);
    report.set(
        "gf2.decode_us",
        p50(&col(&decodes, |&s| clock.scaled(s) * 1e6))?,
    );
    Ok(())
}

/// The longest payload of a one-shot workload, in bytes.
#[must_use]
pub(crate) fn payload_len(workload: &Workload) -> usize {
    (0..workload.len())
        .flat_map(|i| workload.payloads_of(i).iter().map(Vec::len))
        .max()
        .unwrap_or(0)
}

/// `⌈log₂ n⌉`, at least 1 — the coded protocol's group size.
#[must_use]
pub(crate) fn log2_ceil(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as usize
}

/// Records the medians of the setup-layer spans (`topology.build`,
/// `graph.probe`, `protocol.build`, `engine.new`).
///
/// # Errors
///
/// Fewer than 20 spans of a layer.
pub(crate) fn setup_layers(
    report: &mut Report,
    tracer: &spans::Tracer,
    clock: &RefClock,
) -> Result<(), String> {
    for (span, metric) in [
        ("topology.build", "topology.build_s"),
        ("graph.probe", "graph.probe_s"),
        ("protocol.build", "protocol.build_s"),
        ("engine.new", "engine.new_s"),
    ] {
        report.set(metric, p50(&tracer.secs(span, clock))?);
    }
    Ok(())
}

/// Writes the traced run's spans to
/// `perfbench/out/spans-<workload>-<seed>.jsonl` under the working
/// directory; a write failure becomes a note, not a failed run.
pub(crate) fn write_spans(tracer: &spans::Tracer, args: &Args, report: &mut Report) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("could not write {}: {e}", path.display())),
    }
}

/// One timed session, as the engine-layer metrics need it.
pub(crate) struct EngineRecord<'a> {
    /// Per-round step times.
    pub log: &'a timed::StepLog,
    /// Node-callback counts and times.
    pub counters: &'a timed::NodeCounters,
    /// The session's channel statistics.
    pub stats: SimStats,
    /// The unit's host-speed scale.
    pub scale: f64,
}

/// Records the engine and node metrics of timed sessions over `n`
/// nodes — host times as medians over every session, less the timing
/// wrapper's cost `ov`; counts over the first [`MIN_UNITS`] — and
/// returns the attribution of step time as a note.
///
/// # Errors
///
/// Fewer than 20 sessions or 1000 steps.
pub(crate) fn engine_layers(
    report: &mut Report,
    sessions: &[EngineRecord<'_>],
    n: usize,
    ov: &timed::Overhead,
) -> Result<String, String> {
    let steps_us: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.log.steps(ov).into_iter().map(|ns| ns * s.scale / 1e3))
        .collect();
    report.set("engine.step_us_p50", p50(&steps_us)?);
    report.set("engine.step_us_p99", p99(&steps_us)?);
    #[allow(clippy::cast_precision_loss)]
    report.set("engine.step_samples", steps_us.len() as f64);
    let med = |f: &dyn Fn(&EngineRecord<'_>) -> f64| {
        p50(&sessions.iter().map(|s| f(s) * s.scale).collect::<Vec<_>>())
    };
    let steps = med(&|s| s.log.secs(ov))?;
    let poll = med(&|s| s.counters.poll.secs(ov))?;
    let receive = med(&|s| s.counters.receive.secs(ov))?;
    let engine_self = med(&|s| {
        (s.log.secs(ov) - s.counters.poll.secs(ov) - s.counters.receive.secs(ov)).max(0.0)
    })?;
    report.set("engine.self_s", engine_self);
    report.set("node.poll_s", poll);
    report.set("node.receive_s", receive);

    let prefix = &sessions[..MIN_UNITS.min(sessions.len())];
    #[allow(clippy::cast_precision_loss)]
    {
        let sum = |f: &dyn Fn(&EngineRecord<'_>) -> u64| prefix.iter().map(f).sum::<u64>() as f64;
        let rounds = sum(&|s| s.stats.rounds).max(1.0);
        let awake = sum(&|s| s.log.awake.iter().map(|&a| u64::from(a)).sum());
        let units = prefix.len() as f64;
        report.set(
            "engine.polls_per_round",
            sum(&|s| s.counters.poll.calls) / rounds,
        );
        report.set("engine.awake_frac", awake / (rounds * n as f64));
        report.set(
            "engine.rx_per_tx",
            sum(&|s| s.stats.receptions) / sum(&|s| s.stats.transmissions).max(1.0),
        );
        report.set(
            "engine.collisions_per_round",
            sum(&|s| s.stats.collisions) / rounds,
        );
        report.set("node.poll_calls", sum(&|s| s.counters.poll.calls) / units);
        report.set(
            "node.receive_calls",
            sum(&|s| s.counters.receive.calls) / units,
        );
    }
    Ok(format!(
        "attribution (per-session medians; 1 in {} callbacks timed, {:.1} ns clock cost per \
         timed call and {:.1} ns wrapper cost per call removed): steps {steps:.4} s; engine self \
         {engine_self:.4} s ({:.0}%), node poll {poll:.4} s ({:.0}%), node receive \
         {receive:.4} s ({:.0}%)",
        timed::SAMPLE,
        ov.inside_ns,
        ov.per_call_ns,
        engine_self / steps * 100.0,
        poll / steps * 100.0,
        receive / steps * 100.0
    ))
}

/// Records the traced run's own cost: the median timed session minus
/// the median untraced session on the same seeds.
///
/// # Errors
///
/// Fewer than 20 sessions.
pub(crate) fn trace_overhead(
    report: &mut Report,
    plain_s: &[f64],
    timed_s: &[f64],
) -> Result<(), String> {
    let plain = p50(plain_s)?;
    let timed = p50(timed_s)?;
    report.set("trace.overhead_s", timed - plain);
    report.set("trace.overhead_frac", (timed - plain) / plain);
    report.note(format!(
        "tracing overhead: traced session p50 {timed:.6} s vs untraced {plain:.6} s ({:+.1}%)",
        (timed - plain) / plain * 100.0
    ));
    Ok(())
}
