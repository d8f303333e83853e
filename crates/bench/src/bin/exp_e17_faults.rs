//! **E17 (extension) — degradation curves under injected faults.**
//!
//! Beyond the paper (clean channel, collision-only losses): sweeps the
//! `radio_net::faults` models — i.i.d. loss, bursty Gilbert–Elliott
//! per-edge loss, seeded crash/recover schedules, a budgeted
//! adversarial jammer and wake-up corruption — against all three
//! protocols (the paper's coded algorithm, the BII baseline and the
//! dynamic-arrival extension) and records how the w.h.p. guarantees
//! degrade: success rate, rounds-to-completion inflation, residual
//! unreached packet mass, and (for the coded protocol) which stage the
//! fault-lost receptions landed in.
//!
//! Expected shapes (see EXPERIMENTS.md §E17): *graceful* rounds
//! inflation under moderate loss — the protocol's self-correcting
//! machinery absorbs it — versus a *cliff* under targeted jamming and
//! unrecovered crashes, which starve specific one-shot stages rather
//! than thinning every reception uniformly.
//!
//! Output: a table to stdout and `results/E17_faults.json` (redirect
//! with `KB_E17_OUT`; `scripts/check.sh` runs the quick grid16×16
//! configuration as a smoke stage). Everything is deterministic in the
//! fixed seed range — same binary, same scale, same JSON, bit for bit.

use std::fmt::Write as _;

use kbcast::baseline::BiiProtocol;
use kbcast::dynamic::{Arrival, DynamicProtocol};
use kbcast::runner::{CodedProtocol, RunOptions, StageFaults, Workload};
use kbcast::session::{run_protocol_on_graph, SessionReport};
use kbcast_bench::parallel::par_map_indexed;
use kbcast_bench::session::{sweep_protocol, SweepSpec};
use kbcast_bench::stats::median;
use kbcast_bench::table::{f3, Table};
use kbcast_bench::{verify_from_env, Scale};
use radio_net::faults::FaultSpec;
use radio_net::stats::SimStats;
use radio_net::topology::Topology;

/// Everything the table and the JSON need from one protocol × fault
/// sweep.
struct Entry {
    fault: String,
    protocol: &'static str,
    ok: u64,
    seeds: u64,
    median_rounds: f64,
    mean_delivered: f64,
    lost_receptions: u64,
    stage_faults: Option<StageFaults>,
}

fn lost(stats: &SimStats) -> u64 {
    stats.dropped + stats.jammed + stats.crashed_rx + stats.wakeups_suppressed
}

fn summarize<M>(
    fault: &FaultSpec,
    protocol: &'static str,
    reports: &[SessionReport<M>],
    stage_faults: Option<StageFaults>,
) -> Entry {
    let ok = reports.iter().filter(|r| r.success).count() as u64;
    #[allow(clippy::cast_precision_loss)]
    let rounds: Vec<f64> = reports
        .iter()
        .filter(|r| r.success)
        .map(|r| r.rounds_total as f64)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let mean_delivered =
        reports.iter().map(|r| r.delivered_fraction).sum::<f64>() / reports.len().max(1) as f64;
    Entry {
        fault: fault.label(),
        protocol,
        ok,
        seeds: reports.len() as u64,
        median_rounds: median(&rounds),
        mean_delivered,
        lost_receptions: reports.iter().map(|r| lost(&r.stats)).sum(),
        stage_faults,
    }
}

/// The dynamic-arrival sweep is not expressible as a [`SweepSpec`]
/// (arrivals are injected mid-session), so it fans its seeds out by
/// hand through the same session driver.
fn sweep_dynamic(
    topo: &Topology,
    seeds: u64,
    fault: &FaultSpec,
) -> Vec<SessionReport<kbcast::dynamic::DynamicMeta>> {
    par_map_indexed(
        usize::try_from(seeds).expect("seed count fits usize"),
        |i| {
            let seed = i as u64;
            let graph = topo.build(seed).expect("topology builds");
            let n = graph.len();
            // A round-0 wave (wakes the network, elects the leader) plus a
            // late wave that must ride a subsequent batch.
            let mut arrivals: Vec<Arrival> = (0..4)
                .map(|j| Arrival {
                    round: 0,
                    node: (j * 3) % n,
                    payload: vec![0, j as u8],
                })
                .collect();
            arrivals.extend((0..4).map(|j| Arrival {
                round: 1500,
                node: (j * 7 + 1) % n,
                payload: vec![1, j as u8],
            }));
            let mut initial: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
            for a in &arrivals {
                if a.round == 0 {
                    initial[a.node].push(a.payload.clone());
                }
            }
            let workload = Workload::new(initial);
            let protocol = DynamicProtocol {
                arrivals: &arrivals,
                config: None,
                horizon: 150_000,
            };
            let options = RunOptions {
                verify: verify_from_env(),
                faults: *fault,
                ..RunOptions::default()
            };
            run_protocol_on_graph(&protocol, graph, &workload, seed, options).expect("session runs")
        },
    )
}

fn main() {
    let scale = Scale::from_env();
    let seeds = scale.pick(2u64, 5);
    let (topo, k) = if matches!(scale, Scale::Quick) {
        (Topology::Grid2d { rows: 16, cols: 16 }, 16usize)
    } else {
        (Topology::Gnp { n: 64, p: 0.13 }, 64usize)
    };

    // ≥ 4 fault families; the full scale sweeps each family's knob.
    let specs: Vec<&str> = if matches!(scale, Scale::Quick) {
        vec![
            "none",
            "uniform:rate=0.15",
            "ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9",
            "crash:frac=0.25,from=0,until=2000,down=1000",
            "jam:budget=200",
            "wakeup:rate=0.5",
        ]
    } else {
        vec![
            "none",
            "uniform:rate=0.05",
            "uniform:rate=0.15",
            "uniform:rate=0.3",
            "ge:p_bad=0.002,p_good=0.1,loss_good=0,loss_bad=0.9",
            "ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9",
            "ge:p_bad=0.05,p_good=0.1,loss_good=0,loss_bad=0.9",
            "crash:frac=0.1,from=0,until=4000",
            "crash:frac=0.25,from=0,until=4000",
            "crash:frac=0.25,from=0,until=4000,down=2000",
            "crash:frac=0.5,from=0,until=4000",
            "jam:budget=100",
            "jam:budget=1000",
            "jam:budget=10000",
            "wakeup:rate=0.2",
            "wakeup:rate=0.5",
            "wakeup:rate=0.9",
            "uniform:rate=0.05+crash:frac=0.1,from=0,until=4000",
        ]
    };

    println!("E17 (extension): protocol degradation under injected fault models");
    println!("({topo}, k={k}, {seeds} seeds per protocol x fault; caps = default round caps)");
    println!();

    let mut entries: Vec<Entry> = Vec::new();
    for s in &specs {
        let fault: FaultSpec = s.parse().expect("experiment fault specs parse");
        let mut spec = SweepSpec::new(&topo, k, seeds);
        spec.options.verify = verify_from_env();
        spec.options.faults = fault;

        let coded = sweep_protocol(&CodedProtocol::default(), &spec);
        let mut stage_faults = StageFaults::default();
        for r in &coded {
            let s = r.meta.stage_faults;
            stage_faults.leader += s.leader;
            stage_faults.bfs += s.bfs;
            stage_faults.collect += s.collect;
            stage_faults.disseminate += s.disseminate;
        }
        entries.push(summarize(&fault, "coded", &coded, Some(stage_faults)));

        let bii = sweep_protocol(&BiiProtocol::default(), &spec);
        entries.push(summarize(&fault, "bii", &bii, None));

        let dynamic = sweep_dynamic(&topo, seeds, &fault);
        entries.push(summarize(&fault, "dynamic", &dynamic, None));
    }

    let mut t = Table::new(&[
        "fault",
        "protocol",
        "success",
        "median rounds",
        "delivered",
        "fault-lost rx",
    ]);
    for e in &entries {
        t.row(&[
            e.fault.clone(),
            e.protocol.to_string(),
            format!("{}/{}", e.ok, e.seeds),
            format!("{:.0}", e.median_rounds),
            f3(e.mean_delivered),
            format!("{}", e.lost_receptions),
        ]);
    }
    t.print();
    println!();
    println!("shape check: uniform/bursty loss inflate rounds gracefully before success");
    println!("decays; unrecovered crashes cap delivered_fraction at the surviving mass;");
    println!("targeted jamming and heavy wake-up corruption are cliffs — they starve one-");
    println!("shot stages (election, BFS labeling, first wake-ups) outright.");

    // Deterministic JSON (no timestamps): the committed results file
    // must be reproducible bit-for-bit from a fixed seed range.
    let mut json_entries = Vec::new();
    for e in &entries {
        let mut j = String::new();
        write!(
            j,
            "    {{\"fault\": \"{}\", \"protocol\": \"{}\", \"success\": {}, \"seeds\": {}, \
             \"median_rounds\": {:.1}, \"mean_delivered\": {:.6}, \"lost_receptions\": {}",
            e.fault,
            e.protocol,
            e.ok,
            e.seeds,
            e.median_rounds,
            e.mean_delivered,
            e.lost_receptions
        )
        .expect("write to string");
        if let Some(s) = e.stage_faults {
            write!(
                j,
                ", \"stage_faults\": {{\"leader\": {}, \"bfs\": {}, \"collect\": {}, \
                 \"disseminate\": {}}}",
                s.leader, s.bfs, s.collect, s.disseminate
            )
            .expect("write to string");
        }
        j.push('}');
        json_entries.push(j);
    }
    let json = format!(
        "{{\n  \"experiment\": \"E17_faults\",\n  \"topology\": \"{topo}\",\n  \"k\": {k},\n  \
         \"seeds\": {seeds},\n  \"entries\": [\n{}\n  ]\n}}\n",
        json_entries.join(",\n")
    );
    let path =
        std::env::var("KB_E17_OUT").unwrap_or_else(|_| "results/E17_faults.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e} (printing instead)\n{json}"),
    }
}
