//! **perf_smoke — simulator-throughput benchmark of the engine hot loop.**
//!
//! Times the canonical scenarios (grid / G(n,p) topology × single-source
//! / spread workload) by driving `radio_net::Engine` directly with
//! `kbcast` protocol nodes, and writes `results/BENCH_engine.json` with
//! rounds/sec and wall milliseconds per scenario. Unlike the `exp_*`
//! binaries (which measure *round counts*, the paper's metric), this
//! binary measures the *simulator's own speed*, so the perf trajectory of
//! the engine is tracked across PRs — compare the JSON against the
//! numbers recorded in EXPERIMENTS.md §"Engine throughput".
//!
//! Only the stepping loop (`run_until_all_done`) is timed; topology
//! generation, diameter probing and node construction are setup. Each
//! scenario is repeated `reps` times (median reported) on freshly built
//! state. `KB_SCALE=quick` lowers the repetitions, not the scenario
//! sizes, so the recorded numbers stay comparable — except the
//! `full_only` scale-out scenarios (grid256x256 and the million-node
//! unit disk), which are skipped at quick scale and always run a single
//! repetition so the committed baseline stays regenerable.
//!
//! Every scenario parameterizes its protocol with the exact diameter
//! (`Graph::diameter`, about a second at a million nodes), so round
//! counts stay bit-identical across engine rework.
//!
//! Every scenario must complete (`all_done`) — a cap hit aborts the
//! benchmark, so a committed baseline always reflects finished runs.

use std::fmt::Write as _;
use std::time::Instant;

use kbcast::baseline::{BiiConfig, BiiNode};
use kbcast::runner::{round_cap, Workload};
use kbcast::{Config, KbcastNode};
use kbcast_bench::{write_result, Scale};
use protocols::decay::Decay;
use radio_net::engine::{Engine, Node};
use radio_net::graph::{Graph, NodeId};
use radio_net::rng;
use radio_net::topology::Topology;

/// Which protocol's nodes drive the engine.
enum Protocol {
    /// The main coded algorithm ([`KbcastNode`]).
    Coded,
    /// The BII baseline with an explicit per-packet epoch budget
    /// (bypassing [`BiiConfig::for_network`]'s calibration, which is
    /// tuned for small networks).
    Bii { epochs_per_packet: usize },
}

struct Scenario {
    name: &'static str,
    topology: Topology,
    /// `false` = single source at node 0; `true` is spread
    /// (round-robin) placement.
    spread: bool,
    k: usize,
    protocol: Protocol,
    /// Scale-out scenario: skipped at quick scale, single repetition at
    /// full scale.
    full_only: bool,
}

struct Measurement {
    name: String,
    n: usize,
    k: usize,
    rounds: u64,
    wall_ms: f64,
    rounds_per_sec: f64,
    all_done: bool,
}

/// Times `run_until_all_done` on a freshly built engine.
fn time_engine<N: Node>(
    graph: Graph,
    nodes: Vec<N>,
    awake: Vec<NodeId>,
    cap: u64,
) -> (u64, f64, bool) {
    let mut engine = Engine::new(graph, nodes, awake).expect("engine builds");
    let start = Instant::now();
    let all_done = engine.run_until_all_done(cap);
    let wall = start.elapsed();
    (engine.round(), wall.as_secs_f64(), all_done)
}

fn measure(s: &Scenario, seed: u64) -> Measurement {
    let graph = s.topology.build(seed).expect("topology builds");
    let n = graph.len();
    let workload = if s.spread {
        Workload::round_robin(n, s.k)
    } else {
        Workload::single_source(n, 0, s.k)
    };
    let diameter = graph.diameter().expect("connected");
    let max_degree = graph.max_degree();
    let awake = workload.initially_awake();

    let (rounds, wall_s, all_done) = match s.protocol {
        Protocol::Coded => {
            let cfg = Config::for_network(n, diameter, max_degree);
            let cap = round_cap(&cfg, s.k);
            let nodes: Vec<KbcastNode> = (0..n)
                .map(|i| {
                    KbcastNode::new(
                        cfg,
                        i as u64,
                        workload.packets_of(i),
                        rng::stream(seed, i as u64),
                    )
                })
                .collect();
            time_engine(graph, nodes, awake, cap)
        }
        Protocol::Bii { epochs_per_packet } => {
            let cfg = BiiConfig {
                epochs_per_packet,
                delta_bound: max_degree.max(1),
            };
            // Mirrors BiiProtocol::round_cap: 8× the expected
            // (k + D) · epochs_per_packet · |epoch| budget.
            let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
            let cap = 8
                * ((s.k as u64 + diameter as u64 + 2) * cfg.epochs_per_packet as u64 * epoch)
                + 64;
            let nodes: Vec<BiiNode> = (0..n)
                .map(|i| {
                    BiiNode::with_target(
                        cfg,
                        workload.packets_of(i),
                        rng::stream(seed, i as u64),
                        s.k,
                    )
                })
                .collect();
            time_engine(graph, nodes, awake, cap)
        }
    };

    let wall_ms = wall_s * 1e3;
    #[allow(clippy::cast_precision_loss)]
    let rounds_per_sec = rounds as f64 / wall_s.max(1e-9);
    Measurement {
        name: s.name.to_string(),
        n,
        k: s.k,
        rounds,
        wall_ms,
        rounds_per_sec,
        all_done,
    }
}

fn median_by<T, F: Fn(&T) -> f64>(items: &[T], key: F) -> f64 {
    let mut v: Vec<f64> = items.iter().map(key).collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    let reps = scale.pick(1, 3);
    let quick = reps == 1;
    let scenarios = [
        Scenario {
            name: "grid64x64/single_source",
            topology: Topology::Grid2d { rows: 64, cols: 64 },
            spread: false,
            k: 8,
            protocol: Protocol::Coded,
            full_only: false,
        },
        Scenario {
            name: "grid64x64/spread",
            topology: Topology::Grid2d { rows: 64, cols: 64 },
            spread: true,
            k: 64,
            protocol: Protocol::Coded,
            full_only: false,
        },
        Scenario {
            name: "gnp1024/single_source",
            topology: kbcast_bench::sweep::gnp_standard(1024),
            spread: false,
            k: 8,
            protocol: Protocol::Coded,
            full_only: false,
        },
        Scenario {
            name: "gnp1024/spread",
            topology: kbcast_bench::sweep::gnp_standard(1024),
            spread: true,
            k: 64,
            protocol: Protocol::Coded,
            full_only: false,
        },
        Scenario {
            name: "grid256x256/single_source",
            topology: Topology::Grid2d {
                rows: 256,
                cols: 256,
            },
            spread: false,
            k: 8,
            protocol: Protocol::Coded,
            full_only: true,
        },
        Scenario {
            name: "udg1m/single_source",
            topology: Topology::UnitDisk {
                n: 1_000_000,
                radius: 0.0036,
            },
            spread: false,
            k: 2,
            protocol: Protocol::Bii {
                epochs_per_packet: 24,
            },
            full_only: true,
        },
    ];

    println!("perf_smoke: engine hot-loop throughput ({reps} rep(s) per scenario, median)");
    println!();
    let mut json_entries = Vec::new();
    for s in &scenarios {
        if quick && s.full_only {
            println!("{:<26} [skipped at quick scale]", s.name);
            continue;
        }
        let sreps = if s.full_only { 1 } else { reps };
        let runs: Vec<Measurement> = (0..sreps).map(|rep| measure(s, rep as u64)).collect();
        let wall_ms = median_by(&runs, |m| m.wall_ms);
        let rps = median_by(&runs, |m| m.rounds_per_sec);
        let m0 = &runs[0];
        println!(
            "{:<26} n {:>7}  k {:>3}  rounds {:>7}  wall {:>9.2} ms  {:>12.0} rounds/s{}",
            m0.name,
            m0.n,
            m0.k,
            m0.rounds,
            wall_ms,
            rps,
            if m0.all_done { "" } else { "  [CAP HIT]" },
        );
        for m in &runs {
            assert!(
                m.all_done,
                "scenario {} hit the round cap at {} rounds",
                m.name, m.rounds
            );
        }
        let mut e = String::new();
        write!(
            e,
            "    {{\"scenario\": \"{}\", \"n\": {}, \"k\": {}, \"rounds\": {}, \
             \"wall_ms\": {:.3}, \"rounds_per_sec\": {:.1}, \"reps\": {}, \"all_done\": {}}}",
            m0.name, m0.n, m0.k, m0.rounds, wall_ms, rps, sreps, m0.all_done
        )
        .expect("write to string");
        json_entries.push(e);
    }

    let json = format!(
        "{{\n  \"bench\": \"engine_hot_loop\",\n  \"reps\": {reps},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        json_entries.join(",\n")
    );
    // KB_BENCH_OUT redirects the report (the perf gate writes to a
    // scratch path so the committed baseline stays untouched).
    write_result("KB_BENCH_OUT", "results/BENCH_engine.json", &json)
}
