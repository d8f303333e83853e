//! **E19 (extension) — streaming saturation curves under a λ-sweep.**
//!
//! Poisson arrivals at offered load λ (packets/round, network-wide)
//! stream into the dynamic protocol (sequential epochs: batches tile
//! time) across grid, unit-disk and G(n,p) topologies. For each
//! (topology, λ) the sweep records sustained throughput, queue-depth statistics (from
//! the trace collector's streaming gauges) and per-packet latency
//! percentiles p50/p95/p99 (nearest-rank over delivery stamps), then
//! locates the *knee*: the largest swept λ every seed still fully
//! delivers within the horizon.
//!
//! The one-shot coded protocol and the BII baseline cannot consume
//! mid-run arrivals, so they enter as *reference service rates*:
//! `k / T(k)` from a one-shot run is the ceiling a streaming adaptation
//! of each could sustain — the measured knees sit below the coded
//! reference (batch framing + marker overhead).
//!
//! Output: a table to stdout and `results/E19_saturation.json`
//! (redirect with `KB_E19_OUT`; `scripts/check.sh` runs the quick
//! configuration as a smoke stage). Deterministic in the fixed seed
//! range — same binary, same scale, same JSON, bit for bit.

use std::fmt::Write as _;

use kbcast::baseline::BiiProtocol;
use kbcast::dynamic::{run_streaming, StreamingReport};
use kbcast::runner::{CodedProtocol, RunOptions, Workload};
use kbcast::session::run_protocol;
use kbcast_bench::parallel::par_map_indexed;
use kbcast_bench::stats::median;
use kbcast_bench::table::Table;
use kbcast_bench::traffic::{SaturationSpec, TrafficPattern, TrafficSpec};
use kbcast_bench::{verify_from_env, write_result, Scale};
use radio_net::topology::Topology;

/// One (topology, λ) sweep point, aggregated over seeds.
struct Point {
    topology: String,
    lambda: f64,
    seeds: u64,
    /// Seeds that delivered every arrived packet within the horizon.
    ok: u64,
    /// Mean arrived packets per seed.
    mean_k: f64,
    /// Mean fully-delivered packets per executed round.
    throughput: f64,
    /// Median over seeds of the per-seed max summed queue depth.
    queue_max: f64,
    /// Median over seeds of the per-seed mean summed queue depth.
    queue_mean: f64,
    /// Median over seeds of each latency percentile.
    p50: f64,
    p95: f64,
    p99: f64,
}

/// Reference service rate from a one-shot protocol: k / T(k).
struct Reference {
    topology: String,
    protocol: &'static str,
    k: usize,
    median_rounds: f64,
    rate: f64,
}

#[allow(clippy::cast_precision_loss)]
fn summarize(topology: &Topology, lambda: f64, reports: &[StreamingReport]) -> Point {
    let ok = reports.iter().filter(|r| r.latencies.len() == r.k).count() as u64;
    let mean_k = reports.iter().map(|r| r.k as f64).sum::<f64>() / reports.len().max(1) as f64;
    let throughput = reports
        .iter()
        .map(StreamingReport::sustained_throughput)
        .sum::<f64>()
        / reports.len().max(1) as f64;
    let gauge = |f: &dyn Fn(&StreamingReport) -> f64| {
        let v: Vec<f64> = reports.iter().map(f).collect();
        median(&v)
    };
    let pct = |p: f64| {
        let v: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.latency_percentile(p))
            .map(|x| x as f64)
            .collect();
        median(&v)
    };
    Point {
        topology: topology.to_string(),
        lambda,
        seeds: reports.len() as u64,
        ok,
        mean_k,
        throughput,
        queue_max: gauge(&|r| {
            r.trace
                .as_ref()
                .and_then(|t| t.queue_stats.as_ref())
                .map_or(0.0, |q| q.max as f64)
        }),
        queue_mean: gauge(&|r| {
            r.trace
                .as_ref()
                .and_then(|t| t.queue_stats.as_ref())
                .map_or(0.0, radio_net::trace::GaugeStats::mean)
        }),
        p50: pct(50.0),
        p95: pct(95.0),
        p99: pct(99.0),
    }
}

fn sweep_point(
    topo: &Topology,
    lambda: f64,
    spec: &SaturationSpec,
    seeds: u64,
) -> Vec<StreamingReport> {
    par_map_indexed(
        usize::try_from(seeds).expect("seed count fits usize"),
        |i| {
            let seed = i as u64;
            let graph = topo.build(seed).expect("topology builds");
            let arrivals = TrafficSpec {
                pattern: TrafficPattern::Poisson { lambda },
                window: spec.window,
            }
            .generate(graph.len(), seed)
            .expect("traffic spec is valid");
            let options = RunOptions {
                verify: verify_from_env(),
                trace: true, // queue/in-flight gauges feed the curves
                ..RunOptions::default()
            };
            run_streaming(topo, &arrivals, None, seed, spec.horizon, options)
                .expect("streaming session runs")
        },
    )
}

#[allow(clippy::cast_precision_loss)]
fn reference(topo: &Topology, protocol: &'static str, k: usize, seeds: u64) -> Reference {
    let rounds: Vec<f64> = par_map_indexed(
        usize::try_from(seeds).expect("seed count fits usize"),
        |i| {
            let seed = i as u64;
            let workload = Workload::round_robin(topo.build(seed).expect("builds").len(), k);
            let opts = RunOptions {
                verify: verify_from_env(),
                ..RunOptions::default()
            };
            let r = match protocol {
                "coded" => {
                    run_protocol(&CodedProtocol::default(), topo, &workload, seed, opts)
                        .expect("one-shot run")
                        .rounds_total
                }
                _ => {
                    run_protocol(&BiiProtocol::default(), topo, &workload, seed, opts)
                        .expect("one-shot run")
                        .rounds_total
                }
            };
            r as f64
        },
    );
    let median_rounds = median(&rounds);
    Reference {
        topology: topo.to_string(),
        protocol,
        k,
        median_rounds,
        rate: if median_rounds > 0.0 {
            k as f64 / median_rounds
        } else {
            0.0
        },
    }
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    let seeds = scale.pick(2u64, 3);
    let topologies: Vec<Topology> = vec![
        Topology::Grid2d {
            rows: 4,
            cols: scale.pick(4, 6),
        },
        Topology::UnitDisk {
            n: scale.pick(16, 24),
            radius: 0.42,
        },
        Topology::Gnp {
            n: scale.pick(16, 24),
            p: 0.3,
        },
    ];
    // The horizon allows a bounded post-window drain (~2× the window):
    // below the knee queues empty well inside it, above the knee the
    // linearly growing backlog cannot drain and delivery stays partial
    // — that is what makes the knee measurable.
    let spec = SaturationSpec {
        lambdas: scale.pick(
            vec![0.0005, 0.002, 0.008, 0.032],
            vec![0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032],
        ),
        window: scale.pick(6_000, 20_000),
        horizon: scale.pick(30_000, 80_000),
    };
    spec.validate().expect("sweep spec is valid");
    let ref_k = 12usize;

    println!("E19 (extension): streaming saturation under a Poisson λ-sweep");
    println!(
        "(3 topologies, λ ∈ {:?}, window {} rounds, horizon {}, {} seeds)",
        spec.lambdas, spec.window, spec.horizon, seeds
    );
    println!();

    let mut refs: Vec<Reference> = Vec::new();
    let mut points: Vec<Point> = Vec::new();
    for topo in &topologies {
        refs.push(reference(topo, "coded", ref_k, seeds));
        refs.push(reference(topo, "bii", ref_k, seeds));
        for &lambda in &spec.lambdas {
            let reports = sweep_point(topo, lambda, &spec, seeds);
            points.push(summarize(topo, lambda, &reports));
        }
    }

    // The knee per topology: largest swept λ at which every seed still
    // delivered every packet within the horizon.
    let mut knees: Vec<(String, Option<f64>)> = Vec::new();
    for topo in &topologies {
        let knee = points
            .iter()
            .filter(|p| p.topology == topo.to_string() && p.ok == p.seeds)
            .map(|p| p.lambda)
            .fold(None::<f64>, |acc, l| Some(acc.map_or(l, |a: f64| a.max(l))));
        knees.push((topo.to_string(), knee));
    }

    // Guardrail: below the knee there must be no packet loss. The knee
    // is *defined* as the largest fully-delivered λ, so any smaller λ
    // with ok < seeds means the delivery curve is non-monotone — a
    // protocol or horizon bug, not a saturation effect. check.sh relies
    // on this abort for its streaming smoke stage.
    for (topo, knee) in &knees {
        let Some(knee) = knee else { continue };
        for p in &points {
            assert!(
                !(p.topology == *topo && p.lambda <= *knee && p.ok < p.seeds),
                "packet loss below the knee: {topo} λ={} ok {}/{} (knee λ*={knee})",
                p.lambda,
                p.ok,
                p.seeds
            );
        }
    }

    let mut t = Table::new(&[
        "topology", "lambda", "ok", "k", "thrpt", "q_max", "q_mean", "p50", "p95", "p99",
    ]);
    for p in &points {
        t.row(&[
            p.topology.clone(),
            format!("{:.4}", p.lambda),
            format!("{}/{}", p.ok, p.seeds),
            format!("{:.0}", p.mean_k),
            format!("{:.5}", p.throughput),
            format!("{:.0}", p.queue_max),
            format!("{:.1}", p.queue_mean),
            format!("{:.0}", p.p50),
            format!("{:.0}", p.p95),
            format!("{:.0}", p.p99),
        ]);
    }
    t.print();
    println!();
    println!("reference service rates (one-shot k/T(k) ceilings):");
    for r in &refs {
        println!(
            "  {} {}: k={} median T={:.0} -> rate {:.5}",
            r.topology, r.protocol, r.k, r.median_rounds, r.rate
        );
    }
    println!("knees (largest fully-delivered λ):");
    for (topo, knee) in &knees {
        match knee {
            Some(l) => println!("  {topo}: λ* = {l:.4}"),
            None => println!("  {topo}: below the smallest swept λ"),
        }
    }
    println!();
    println!("shape check: throughput tracks λ below the knee (queues bounded, p99 flat),");
    println!("then saturates at the service rate while queues and tail latency diverge.");

    // Deterministic JSON (no timestamps).
    let mut entries = Vec::new();
    for p in &points {
        let mut j = String::new();
        write!(
            j,
            "    {{\"topology\": \"{}\", \"lambda\": {}, \"seeds\": {}, \
             \"ok\": {}, \"mean_k\": {:.2}, \"throughput\": {:.6}, \"queue_max\": {:.1}, \
             \"queue_mean\": {:.3}, \"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}}}",
            p.topology,
            p.lambda,
            p.seeds,
            p.ok,
            p.mean_k,
            p.throughput,
            p.queue_max,
            p.queue_mean,
            p.p50,
            p.p95,
            p.p99
        )
        .expect("write to string");
        entries.push(j);
    }
    let mut ref_entries = Vec::new();
    for r in &refs {
        ref_entries.push(format!(
            "    {{\"topology\": \"{}\", \"protocol\": \"{}\", \"k\": {}, \
             \"median_rounds\": {:.1}, \"rate\": {:.6}}}",
            r.topology, r.protocol, r.k, r.median_rounds, r.rate
        ));
    }
    let mut knee_entries = Vec::new();
    for (topo, knee) in &knees {
        knee_entries.push(format!(
            "    {{\"topology\": \"{topo}\", \"knee_lambda\": {}}}",
            knee.map_or("null".to_string(), |l| format!("{l}"))
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"E19_saturation\",\n  \"window\": {},\n  \"horizon\": {},\n  \
         \"seeds\": {seeds},\n  \"entries\": [\n{}\n  ],\n  \"references\": [\n{}\n  ],\n  \
         \"knees\": [\n{}\n  ]\n}}\n",
        spec.window,
        spec.horizon,
        entries.join(",\n"),
        ref_entries.join(",\n"),
        knee_entries.join(",\n")
    );
    write_result("KB_E19_OUT", "results/E19_saturation.json", &json)
}
