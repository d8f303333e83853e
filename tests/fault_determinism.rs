//! Determinism contract of the fault-injection subsystem: a
//! [`FaultSpec`] plus a seed pins the *entire* execution. Two runs with
//! the same spec and seed must agree on every report field, a zero-rate
//! `uniform:` spec (a present fault family: the engine takes its
//! per-listener path) must be bit-identical to the clean session (an
//! empty spec: the word-parallel path), and the `uniform:`
//! fault model must reproduce the recorded outputs of the engine's
//! original loss path exactly (same RNG salt, same draw points).

use proptest::prelude::*;
use radio_kbcast::kbcast::baseline::BiiProtocol;
use radio_kbcast::kbcast::dynamic::{Arrival, DynamicProtocol};
use radio_kbcast::kbcast::node::TxCounts;
use radio_kbcast::kbcast::runner::{
    CodedProtocol, KbcastMeta, RunOptions, StageFaults, StageRounds, Workload,
};
use radio_kbcast::kbcast::session::{run_protocol_on_graph, BroadcastProtocol, SessionReport};
use radio_kbcast::radio_net::faults::FaultSpec;
use radio_kbcast::radio_net::stats::SimStats;
use radio_kbcast::radio_net::topology::Topology;

/// Field-by-field bitwise equality (floats compared by bits — the
/// contract is reproducibility, not approximation).
fn assert_reports_identical<M: PartialEq + std::fmt::Debug>(
    a: &SessionReport<M>,
    b: &SessionReport<M>,
    what: &str,
) {
    assert_eq!(a.success, b.success, "{what}: success");
    assert_eq!(a.rounds_total, b.rounds_total, "{what}: rounds_total");
    assert_eq!(
        a.delivered_fraction.to_bits(),
        b.delivered_fraction.to_bits(),
        "{what}: delivered_fraction"
    );
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.meta, b.meta, "{what}: meta");
}

/// One fault spec from every family, including a stacked one.
fn spec_zoo() -> Vec<FaultSpec> {
    [
        "uniform:rate=0.1",
        "ge:p_bad=0.02,p_good=0.15,loss_good=0,loss_bad=0.85",
        "crash:frac=0.3,from=5,until=400,down=300",
        "jam:budget=50",
        "wakeup:rate=0.4",
        "uniform:rate=0.05+jam:budget=20",
    ]
    .iter()
    .map(|s| s.parse().expect("zoo specs parse"))
    .collect()
}

fn run_faulted<P>(protocol: &P, fault: &FaultSpec, seed: u64) -> SessionReport<P::Meta>
where
    P: BroadcastProtocol,
{
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let graph = topo.build(seed).expect("topology builds");
    let workload = Workload::random(graph.len(), 5, seed);
    let options = RunOptions {
        faults: *fault,
        ..RunOptions::default()
    };
    run_protocol_on_graph(protocol, graph, &workload, seed, options).expect("session runs")
}

#[test]
fn coded_runs_are_reproducible_for_every_fault_family() {
    for fault in spec_zoo() {
        for seed in 0..2 {
            let a = run_faulted(&CodedProtocol::default(), &fault, seed);
            let b = run_faulted(&CodedProtocol::default(), &fault, seed);
            assert_reports_identical(&a, &b, &format!("coded/{fault}/seed{seed}"));
        }
    }
}

#[test]
fn bii_runs_are_reproducible_for_every_fault_family() {
    for fault in spec_zoo() {
        for seed in 0..2 {
            let a = run_faulted(&BiiProtocol::default(), &fault, seed);
            let b = run_faulted(&BiiProtocol::default(), &fault, seed);
            assert_reports_identical(&a, &b, &format!("bii/{fault}/seed{seed}"));
        }
    }
}

#[test]
fn dynamic_runs_are_reproducible_for_every_fault_family() {
    let arrivals = vec![
        Arrival {
            round: 0,
            node: 0,
            payload: vec![1],
        },
        Arrival {
            round: 300,
            node: 7,
            payload: vec![2],
        },
    ];
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    for fault in spec_zoo() {
        for seed in 0..2 {
            let run = || {
                let graph = topo.build(seed).expect("topology builds");
                let n = graph.len();
                let mut initial = vec![Vec::new(); n];
                initial[0].push(vec![1u8]);
                let workload = Workload::new(initial);
                let protocol = DynamicProtocol {
                    arrivals: &arrivals,
                    config: None,
                    horizon: 50_000,
                };
                let options = RunOptions {
                    faults: fault,
                    ..RunOptions::default()
                };
                run_protocol_on_graph(&protocol, graph, &workload, seed, options)
                    .expect("session runs")
            };
            assert_reports_identical(&run(), &run(), &format!("dynamic/{fault}/seed{seed}"));
        }
    }
}

/// The coded protocol's observer and its trace probe attribute rounds
/// to stages on one stage clock, so the fault-lost receptions the
/// observer books per stage (`meta.stage_faults`) equal the trace's
/// per-stage `fault_lost` totals, stage by stage.
#[test]
fn stage_faults_agree_with_the_trace_stages() {
    let topo = Topology::Grid2d { rows: 8, cols: 8 };
    let mut total = 0;
    for spec in [
        "uniform:rate=0.05",
        "crash:frac=0.1,from=0,until=4000",
        "jam:budget=300",
    ] {
        for seed in 0..3 {
            let graph = topo.build(seed).expect("topology builds");
            let workload = Workload::random(graph.len(), 32, seed);
            let options = RunOptions {
                trace: true,
                faults: spec.parse().expect("spec parses"),
                ..RunOptions::default()
            };
            let r =
                run_protocol_on_graph(&CodedProtocol::default(), graph, &workload, seed, options)
                    .expect("session runs");
            let trace = r.trace.as_ref().expect("traced session");
            let traced = ["leader", "bfs", "collect", "disseminate"].map(|name| {
                let stage = trace.stages.iter().find(|s| s.name == name);
                stage.map_or(0, |s| s.totals.fault_lost())
            });
            let f = r.meta.stage_faults;
            let observed = [f.leader, f.bfs, f.collect, f.disseminate];
            assert_eq!(observed, traced, "{spec}/seed{seed}");
            total += f.total();
        }
    }
    assert!(total > 0, "the faults must have cost some receptions");
}

/// The `uniform:` model is the engine's original loss path, relocated:
/// same seed ⇒ the same drops, and therefore the same session. These
/// are that path's recorded outputs (coded protocol, rate 0.08).
#[test]
fn uniform_fault_model_reproduces_recorded_loss_goldens() {
    // (rounds, tx, rx, collisions, bits, dropped, stages, phases,
    //  tx by type [probe, bfs, data, ack, alarm, coded],
    //  stage faults [leader, bfs, collect, disseminate])
    type Golden = (
        u64,
        u64,
        u64,
        u64,
        u64,
        u64,
        [u64; 4],
        u32,
        [u64; 6],
        [u64; 4],
    );
    let goldens: [Golden; 3] = [
        (
            5958,
            2473,
            3723,
            2644,
            366_636,
            312,
            [540, 240, 4720, 458],
            0,
            [1623, 304, 9, 6, 0, 531],
            [139, 67, 6, 100],
        ),
        (
            5809,
            1064,
            2188,
            968,
            167_404,
            173,
            [540, 240, 4720, 309],
            0,
            [485, 355, 15, 10, 0, 199],
            [40, 58, 13, 62],
        ),
        (
            12839,
            2626,
            3935,
            2068,
            381_756,
            329,
            [540, 240, 11620, 439],
            1,
            [1106, 344, 54, 16, 615, 491],
            [88, 59, 84, 98],
        ),
    ];
    let topo = Topology::Gnp { n: 24, p: 0.25 };
    let fault: FaultSpec = "uniform:rate=0.08".parse().expect("spec parses");
    for (seed, g) in (0u64..).zip(goldens) {
        let (rounds, tx, rx, collisions, bits, dropped, st, phases, by_type, sf) = g;
        let graph = topo.build(seed).expect("topology builds");
        let workload = Workload::random(graph.len(), 4, seed);
        let options = RunOptions {
            faults: fault,
            ..RunOptions::default()
        };
        let modeled =
            run_protocol_on_graph(&CodedProtocol::default(), graph, &workload, seed, options)
                .expect("session runs");

        let what = format!("uniform/seed{seed}");
        assert!(modeled.success, "{what}: success");
        assert_eq!(modeled.rounds_total, rounds, "{what}: rounds_total");
        assert_eq!(modeled.delivered_fraction.to_bits(), 1.0f64.to_bits());
        let stats = SimStats {
            rounds,
            transmissions: tx,
            receptions: rx,
            collisions,
            bits_transmitted: bits,
            wakeups: 20,
            dropped,
            ..SimStats::new()
        };
        assert_eq!(modeled.stats, stats, "{what}: stats");
        let meta = KbcastMeta {
            stages: StageRounds {
                leader: st[0],
                bfs: st[1],
                collect: st[2],
                disseminate: st[3],
            },
            collection_phases: phases,
            tx_by_type: TxCounts {
                probe: by_type[0],
                bfs: by_type[1],
                data: by_type[2],
                ack: by_type[3],
                alarm: by_type[4],
                coded: by_type[5],
            },
            stage_faults: StageFaults {
                leader: sf[0],
                bfs: sf[1],
                collect: sf[2],
                disseminate: sf[3],
            },
        };
        assert_eq!(modeled.meta, meta, "{what}: meta");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The runtime fault flag picks the delivery path: the empty spec
    /// builds a `BuiltFaults` that is not enabled, so the engine takes
    /// the word-parallel path of the pre-subsystem engine, while a
    /// zero-rate `uniform:` spec is enabled and takes the per-listener
    /// path. The two must be bit-identical for arbitrary topology
    /// parameters and workloads, and the clean session never reports a
    /// fault. Every drop of a lossy `uniform:` spec must be attributed
    /// to a stage.
    #[test]
    fn no_faults_is_bit_identical_to_legacy(
        seed in 0u64..64,
        n in 6usize..20,
        k in 1usize..5,
        loss_centi in 1u32..20,
    ) {
        let topo = Topology::Gnp { n, p: 0.35 };
        let workload = Workload::random(n, k, seed);
        let options = RunOptions::default();
        let faulted_with = |rate: f64| {
            let faults = FaultSpec {
                uniform: Some(rate),
                ..FaultSpec::default()
            };
            run_protocol_on_graph(
                &CodedProtocol::default(),
                topo.build(seed).expect("topology builds"),
                &workload,
                seed,
                RunOptions { faults, ..options },
            )
            .expect("session runs")
        };

        let clean = run_protocol_on_graph(
            &CodedProtocol::default(),
            topo.build(seed).expect("topology builds"),
            &workload,
            seed,
            options,
        )
        .expect("session runs");
        let zero = faulted_with(0.0);

        prop_assert_eq!(clean.success, zero.success);
        prop_assert_eq!(clean.rounds_total, zero.rounds_total);
        prop_assert_eq!(
            clean.delivered_fraction.to_bits(),
            zero.delivered_fraction.to_bits()
        );
        prop_assert_eq!(clean.stats, zero.stats);
        prop_assert_eq!(clean.meta, zero.meta);

        // A clean engine reports no fault occurrences, ever.
        prop_assert_eq!(clean.stats.jammed, 0);
        prop_assert_eq!(clean.stats.crashed_rx, 0);
        prop_assert_eq!(clean.stats.wakeups_suppressed, 0);
        prop_assert_eq!(clean.stats.crash_events, 0);
        prop_assert_eq!(clean.stats.recover_events, 0);
        prop_assert_eq!(clean.stats.dropped, 0);

        // A lossy model: the stage attribution accounts for every drop.
        let rate = f64::from(loss_centi) / 100.0;
        let lossy = faulted_with(rate);
        prop_assert_eq!(lossy.meta.stage_faults.total(), lossy.stats.dropped);
    }
}
