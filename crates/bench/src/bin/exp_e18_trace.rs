//! **E18 (extension) — traced stage breakdown of all three protocols.**
//!
//! Runs the paper's coded protocol, the BII baseline and the
//! dynamic-arrival extension with [`kbcast::runner::RunOptions::trace`]
//! turned on, and aggregates the per-round trace samples into a
//! per-stage breakdown: rounds spent, transmissions, receptions,
//! collisions and reception rate per stage, plus a per-packet
//! amortized-round histogram across seeds. This supersedes E5's stage
//! table — the numbers here come from the engine's own round events,
//! not from re-deriving stage boundaries offline. E5's per-stage
//! columns are kept as a second table: each coded seed's stage rounds
//! next to the paper's per-stage bound formulas (Fact 1, Theorem 1,
//! Lemmas 5 and 7, evaluated without their hidden constants).
//!
//! A structural self-check is asserted before anything is written: for
//! every protocol the merged per-stage round totals must sum exactly to
//! the merged total rounds (stages partition the run; nothing is
//! counted twice or dropped).
//!
//! Output: a table to stdout and `results/E18_trace.json` (redirect
//! with `KB_E18_OUT`). With `KB_TRACE=1` the binary additionally dumps
//! the seed-0 coded run's raw artifacts: the JSONL event stream
//! (`KB_E18_JSONL`, default `results/E18_trace.jsonl`) and the
//! Chrome-trace span file (`KB_E18_CHROME`, default
//! `results/E18_trace_chrome.json`) — load the latter in Perfetto /
//! `chrome://tracing` to see the stage spans on a timeline.
//! Deterministic in the fixed seed range: same binary, same scale,
//! same JSON, bit for bit.

use std::fmt::Write as _;

use kbcast::baseline::BiiProtocol;
use kbcast::runner::{CodedProtocol, KbcastMeta, RunOptions};
use kbcast::session::SessionReport;
use kbcast_bench::session::{
    merge_traces, sweep_dynamic, sweep_protocol, two_wave_arrivals, SweepSpec,
};
use kbcast_bench::stats::median;
use kbcast_bench::table::{f2, Table};
use kbcast_bench::{trace_from_env, verify_from_env, write_result, Scale};
use protocols::timing::{epoch_len, log_n};
use radio_net::topology::Topology;
use radio_net::trace::TraceSummary;

/// One protocol's traced sweep, reduced to what the table, the JSON
/// and the self-check need.
struct Entry {
    protocol: &'static str,
    summary: TraceSummary,
    /// `rounds_total / packets` for each successful seed, seed order.
    amortized: Vec<f64>,
    /// Seed-0 per-stage closing gauge (coded: summed GF(2) rank).
    stage_gauge: Vec<(String, Option<u64>)>,
}

fn reduce<M>(
    protocol: &'static str,
    reports: &[SessionReport<M>],
    packets_per_run: usize,
) -> Entry {
    #[allow(clippy::cast_precision_loss)]
    let amortized: Vec<f64> = reports
        .iter()
        .filter(|r| r.success)
        .map(|r| r.rounds_total as f64 / packets_per_run.max(1) as f64)
        .collect();
    let stage_gauge = reports
        .first()
        .and_then(|r| r.trace.as_ref())
        .map(|t| {
            t.stages
                .iter()
                .map(|s| (s.name.clone(), s.gauge_end))
                .collect()
        })
        .unwrap_or_default();
    Entry {
        protocol,
        summary: merge_traces(reports),
        amortized,
        stage_gauge,
    }
}

/// Fixed-width ASCII histogram of the amortized rounds-per-packet
/// values (deterministic: buckets derive only from the data).
fn print_histogram(values: &[f64]) {
    if values.is_empty() {
        println!("    (no successful runs)");
        return;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min).floor();
    let hi = values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .ceil()
        .max(lo + 1.0);
    const BUCKETS: usize = 6;
    let width = (hi - lo) / BUCKETS as f64;
    let mut counts = [0usize; BUCKETS];
    for &v in values {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let b = (((v - lo) / width) as usize).min(BUCKETS - 1);
        counts[b] += 1;
    }
    for (b, &c) in counts.iter().enumerate() {
        #[allow(clippy::cast_precision_loss)]
        let (a, z) = (lo + b as f64 * width, lo + (b + 1) as f64 * width);
        println!("    [{a:8.1}, {z:8.1})  {:<12} {c}", "#".repeat(c.min(12)));
    }
}

/// Each successful coded seed's stage rounds against the per-stage
/// bound formulas: Stage 1 `(D + log n)·log n·logΔ`, Stage 2
/// `D·log n·logΔ`, Stage 3 `k + (D + log n)·log n`, Stage 4
/// `k·logΔ + D·log n·logΔ`. The ratios should stay roughly flat if the
/// measured shape matches the claims.
fn print_stage_bounds(reports: &[SessionReport<KbcastMeta>]) {
    let mut t = Table::new(&[
        "seed", "n", "k", "D", "Δ", "s1", "s1/bound", "s2", "s2/bound", "s3", "s3/bound", "s4",
        "s4/bound",
    ]);
    for (seed, r) in reports.iter().enumerate().filter(|(_, r)| r.success) {
        #[allow(clippy::cast_precision_loss)]
        let (d, ln, ld, k) = (
            r.diameter as f64,
            log_n(r.n) as f64,
            epoch_len(r.max_degree) as f64,
            r.k as f64,
        );
        let bounds = [
            (d + ln) * ln * ld,
            d * ln * ld,
            k + (d + ln) * ln,
            k * ld + d * ln * ld,
        ];
        let s = r.meta.stages;
        let mut row = vec![
            seed.to_string(),
            r.n.to_string(),
            r.k.to_string(),
            r.diameter.to_string(),
            r.max_degree.to_string(),
        ];
        for (rounds, bound) in [s.leader, s.bfs, s.collect, s.disseminate]
            .into_iter()
            .zip(bounds)
        {
            row.push(rounds.to_string());
            #[allow(clippy::cast_precision_loss)]
            row.push(f2(rounds as f64 / bound));
        }
        t.row(&row);
    }
    t.print();
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    let seeds = scale.pick(2u64, 5);
    let (topo, k) = if matches!(scale, Scale::Quick) {
        (Topology::Grid2d { rows: 16, cols: 16 }, 16usize)
    } else {
        (Topology::Gnp { n: 64, p: 0.13 }, 64usize)
    };
    let options = RunOptions {
        trace: true,
        verify: verify_from_env(),
        ..RunOptions::default()
    };

    println!("E18 (extension): traced per-stage breakdown (supersedes the E5 stage table)");
    println!("({topo}, k={k}, {seeds} seeds per protocol; trace ring cap 4096)");
    println!();

    let mut spec = SweepSpec::new(&topo, k, seeds);
    spec.options = options;
    let coded_reports = sweep_protocol(&CodedProtocol::default(), &spec);
    let bii_reports = sweep_protocol(&BiiProtocol::default(), &spec);
    let dynamic_reports = sweep_dynamic(&topo, seeds, 150_000, options, two_wave_arrivals);

    let entries = [
        reduce("coded", &coded_reports, k),
        reduce("bii", &bii_reports, k),
        // The dynamic workload is 8 arrivals (4 at round 0, 4 late).
        reduce("dynamic", &dynamic_reports, 8),
    ];

    // Self-check: the stage probe partitions every round into exactly
    // one stage, so per-stage round totals must sum to total rounds.
    for e in &entries {
        let stage_rounds: u64 = e.summary.stages.iter().map(|s| s.totals.rounds).sum();
        assert_eq!(
            stage_rounds, e.summary.totals.rounds,
            "{}: per-stage rounds must partition the run",
            e.protocol
        );
    }

    let mut t = Table::new(&[
        "protocol",
        "stage",
        "rounds",
        "share",
        "tx",
        "rx",
        "collisions",
        "rx/round",
    ]);
    for e in &entries {
        for s in &e.summary.stages {
            #[allow(clippy::cast_precision_loss)]
            let share = s.totals.rounds as f64 / e.summary.totals.rounds.max(1) as f64;
            #[allow(clippy::cast_precision_loss)]
            let rx_rate = s.totals.receptions as f64 / s.totals.rounds.max(1) as f64;
            t.row(&[
                e.protocol.to_string(),
                s.name.clone(),
                format!("{}", s.totals.rounds),
                format!("{:.0}%", share * 100.0),
                format!("{}", s.totals.transmissions),
                format!("{}", s.totals.receptions),
                format!("{}", s.totals.collisions),
                format!("{rx_rate:.2}"),
            ]);
        }
    }
    t.print();

    println!();
    println!("coded stage rounds / per-stage bound formulas (successful seeds):");
    print_stage_bounds(&coded_reports);

    println!();
    println!("amortized rounds per packet (successful seeds):");
    for e in &entries {
        println!("  {} (median {:.1}):", e.protocol, median(&e.amortized));
        print_histogram(&e.amortized);
    }

    // Deterministic JSON (no timestamps): the committed results file
    // must be reproducible bit-for-bit from the fixed seed range.
    let mut json_entries = Vec::new();
    for e in &entries {
        let mut j = String::new();
        let amortized = e
            .amortized
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(", ");
        let gauges = e
            .stage_gauge
            .iter()
            .map(|(name, g)| {
                format!(
                    "{{\"stage\": \"{name}\", \"gauge_end\": {}}}",
                    g.map_or_else(|| "null".to_string(), |v| v.to_string())
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        write!(
            j,
            "    {{\"protocol\": \"{}\", \"summary\": {}, \"median_amortized_rounds\": {:.2}, \
             \"amortized_rounds_per_packet\": [{amortized}], \"stage_gauge_seed0\": [{gauges}]}}",
            e.protocol,
            e.summary.to_json(),
            median(&e.amortized)
        )
        .expect("write to string");
        json_entries.push(j);
    }
    let json = format!(
        "{{\n  \"experiment\": \"E18_trace\",\n  \"topology\": \"{topo}\",\n  \"k\": {k},\n  \
         \"seeds\": {seeds},\n  \"entries\": [\n{}\n  ]\n}}\n",
        json_entries.join(",\n")
    );
    write_result("KB_E18_OUT", "results/E18_trace.json", &json)?;

    // Raw artifacts (seed-0 coded run) on request: the JSONL event
    // stream for ad-hoc analysis and the Chrome-trace span file for
    // Perfetto / chrome://tracing.
    if trace_from_env() {
        if let Some(trace) = coded_reports.first().and_then(|r| r.trace.as_ref()) {
            write_result("KB_E18_JSONL", "results/E18_trace.jsonl", &trace.to_jsonl())?;
            write_result(
                "KB_E18_CHROME",
                "results/E18_trace_chrome.json",
                &trace.to_chrome_trace(),
            )?;
        }
    }
    Ok(())
}
