//! Faulted sweeps must be bit-identical regardless of worker-thread
//! count: `par_map_indexed_with` collects in index order and every
//! per-seed session is self-contained (its own graph, workload and
//! fault-model RNG streams), so a 1-thread and a 4-thread fan-out of
//! the same faulted sweep body must agree on every report field.

use kbcast::dynamic::DynamicProtocol;
use kbcast::runner::{CodedProtocol, KbcastMeta, RunOptions, Workload};
use kbcast::session::{run_protocol_on_graph, SessionReport};
use kbcast_bench::parallel::par_map_indexed_with;
use kbcast_bench::session::{
    merge_traces, sweep_dynamic, sweep_protocol, two_wave_arrivals, SweepSpec,
};
use radio_net::faults::FaultSpec;
use radio_net::topology::Topology;

fn faulted_seed_run(fault: &FaultSpec, seed: u64) -> SessionReport<KbcastMeta> {
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let graph = topo.build(seed).expect("topology builds");
    let workload = Workload::random(graph.len(), 4, seed);
    let options = RunOptions {
        faults: *fault,
        ..RunOptions::default()
    };
    run_protocol_on_graph(&CodedProtocol::default(), graph, &workload, seed, options)
        .expect("session runs")
}

#[test]
fn faulted_sweep_is_thread_count_invariant() {
    let fault: FaultSpec = "uniform:rate=0.05+crash:frac=0.2,from=0,until=500"
        .parse()
        .expect("spec parses");
    let serial = par_map_indexed_with(1, 6, |i| faulted_seed_run(&fault, i as u64));
    let fanned = par_map_indexed_with(4, 6, |i| faulted_seed_run(&fault, i as u64));
    for (seed, (a, b)) in serial.iter().zip(&fanned).enumerate() {
        assert_eq!(a.success, b.success, "seed {seed}: success");
        assert_eq!(a.rounds_total, b.rounds_total, "seed {seed}: rounds");
        assert_eq!(
            a.delivered_fraction.to_bits(),
            b.delivered_fraction.to_bits(),
            "seed {seed}: delivered_fraction"
        );
        assert_eq!(a.stats, b.stats, "seed {seed}: stats");
        assert_eq!(a.meta, b.meta, "seed {seed}: meta");
    }
}

fn traced_seed_run(seed: u64) -> SessionReport<KbcastMeta> {
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let graph = topo.build(seed).expect("topology builds");
    let workload = Workload::random(graph.len(), 4, seed);
    let options = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    run_protocol_on_graph(&CodedProtocol::default(), graph, &workload, seed, options)
        .expect("session runs")
}

/// [`merge_traces`] folds per-seed summaries in report (= seed) order,
/// so the merged [`radio_net::trace::TraceSummary`] — counters *and*
/// stage order — must be identical for a 1-thread and a 4-thread
/// fan-out of the same traced sweep.
#[test]
fn merged_trace_summary_is_thread_count_invariant() {
    let serial = par_map_indexed_with(1, 6, |i| traced_seed_run(i as u64));
    let fanned = par_map_indexed_with(4, 6, |i| traced_seed_run(i as u64));
    let a = merge_traces(&serial);
    let b = merge_traces(&fanned);
    assert_eq!(a, b, "merged trace summaries must not depend on threads");
    assert_eq!(a.to_json(), b.to_json(), "JSON rendering must agree too");
    assert_eq!(a.runs, 6, "every traced seed contributes one run");
    let stage_rounds: u64 = a.stages.iter().map(|s| s.totals.rounds).sum();
    assert_eq!(
        stage_rounds, a.totals.rounds,
        "stages partition the merged rounds"
    );
}

/// Merging is deterministic and order-sensitive in the documented way:
/// re-merging the same reports gives the same summary, and the stage
/// list follows first appearance across the merge sequence.
#[test]
fn merge_traces_is_deterministic() {
    let reports = par_map_indexed_with(2, 4, |i| traced_seed_run(i as u64));
    let once = merge_traces(&reports);
    let twice = merge_traces(&reports);
    assert_eq!(once, twice);
    // An untraced sweep merges to the empty summary.
    let untraced = par_map_indexed_with(2, 2, |i| {
        let topo = Topology::Grid2d { rows: 4, cols: 4 };
        let graph = topo.build(i as u64).expect("topology builds");
        let workload = Workload::random(graph.len(), 4, i as u64);
        run_protocol_on_graph(
            &CodedProtocol::default(),
            graph,
            &workload,
            i as u64,
            RunOptions::default(),
        )
        .expect("session runs")
    });
    let empty = merge_traces(&untraced);
    assert_eq!(empty.runs, 0);
    assert_eq!(empty.totals.rounds, 0);
    assert!(empty.stages.is_empty());
}

#[test]
fn sweep_spec_faults_matches_hand_rolled_sessions() {
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let fault: FaultSpec = "jam:budget=30".parse().expect("spec parses");
    let mut spec = SweepSpec::new(&topo, 4, 3);
    spec.options.faults = fault;
    let swept = sweep_protocol(&CodedProtocol::default(), &spec);
    for (seed, r) in swept.iter().enumerate() {
        let solo = faulted_seed_run(&fault, seed as u64);
        assert_eq!(r.success, solo.success);
        assert_eq!(r.rounds_total, solo.rounds_total);
        assert_eq!(r.stats, solo.stats);
        assert_eq!(r.meta, solo.meta);
    }
}

/// `sweep_dynamic` returns one report per seed, in seed order, each
/// bit-identical to a sequential session with the same schedule, and
/// the worker-thread count changes none of them.
#[test]
fn dynamic_sweep_matches_sequential_sessions_at_any_thread_count() {
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let options = RunOptions {
        faults: "uniform:rate=0.05".parse().expect("spec parses"),
        ..RunOptions::default()
    };
    let sequential: Vec<_> = (0..4)
        .map(|seed| {
            let graph = topo.build(seed).expect("topology builds");
            let arrivals = two_wave_arrivals(seed, graph.len());
            let protocol = DynamicProtocol {
                arrivals: &arrivals,
                config: None,
                horizon: 50_000,
            };
            let workload = protocol.initial_workload(graph.len());
            run_protocol_on_graph(&protocol, graph, &workload, seed, options).expect("session runs")
        })
        .collect();
    // Process-global, but every other test here only reads it, and the
    // thread count never changes results.
    for threads in ["1", "3"] {
        std::env::set_var("KBCAST_THREADS", threads);
        let swept = sweep_dynamic(&topo, 4, 50_000, options, two_wave_arrivals);
        assert_eq!(swept.len(), sequential.len());
        for (seed, (a, b)) in swept.iter().zip(&sequential).enumerate() {
            assert_eq!(a.success, b.success, "seed {seed}: success");
            assert_eq!(a.rounds_total, b.rounds_total, "seed {seed}: rounds");
            assert_eq!(
                a.delivered_fraction.to_bits(),
                b.delivered_fraction.to_bits(),
                "seed {seed}: delivered_fraction"
            );
            assert_eq!(a.stats, b.stats, "seed {seed}: stats");
            assert_eq!(a.meta, b.meta, "seed {seed}: meta");
        }
    }
    std::env::remove_var("KBCAST_THREADS");
}
