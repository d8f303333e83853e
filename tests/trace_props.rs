//! Property tests for the trace subsystem on random topologies, plus
//! an every-round check of the protocol probes' reused gauges
//! (`reused_gauges_equal_full_recomputes`).
//!
//! Two laws, checked against the engine's own accounting rather than
//! against the trace's idea of itself:
//!
//! * **Counter conservation.** A traced session's totals must equal
//!   the engine's [`SimStats`] on every counter. The trace sums the
//!   per-round [`radio_net::session::RoundEvents`] it observes; the
//!   engine sums the same rounds internally. The coded
//!   protocol never wakes nodes outside the round loop, so the two
//!   bookkeepers see exactly the same events — any drift is a bug in
//!   one of them. (The dynamic protocol's mid-session arrival wake-ups
//!   happen *between* rounds, so its wakeup totals legitimately differ;
//!   it is excluded by design.)
//!
//! * **Span well-formedness.** The stage spans must partition
//!   `0..rounds` exactly: sorted, non-overlapping, contiguous, first
//!   start 0, last end = rounds — the Chrome-trace file inherits its
//!   timeline correctness from this. Likewise the per-stage round
//!   totals must sum to the run's total rounds.
//!
//! Random graphs come from the in-repo proptest shim's structural
//! [`proptest::graph::edge_list`] strategy — disconnected graphs are
//! deliberately in scope (the session then fails at the round cap, and
//! conservation must hold on the truncated run too).

use proptest::prelude::*;
use radio_kbcast::kbcast::baseline::BiiProtocol;
use radio_kbcast::kbcast::runner::{CodedProtocol, RunOptions, Workload};
use radio_kbcast::kbcast::session::{run_protocol_on_graph, BroadcastProtocol, NetParams};
use radio_kbcast::kbcast::KbcastNode;
use radio_kbcast::radio_net::engine::{Engine, Node};
use radio_kbcast::radio_net::graph::Graph;
use radio_kbcast::radio_net::session::{Observer, RoundEvents};
use radio_kbcast::radio_net::topology::Topology;
use radio_kbcast::radio_net::trace::StageProbe;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn trace_counters_equal_sim_stats_on_random_graphs(
        topo in proptest::graph::edge_list(3..10),
        seed in 0u64..1024,
        k in 1usize..5,
    ) {
        let graph = Graph::from_edges(topo.n, topo.edges.clone()).expect("valid edges");
        let w = Workload::random(topo.n, k, seed);
        let options = RunOptions { trace: true, ..RunOptions::default() };
        let r = run_protocol_on_graph(&CodedProtocol::default(), graph, &w, seed, options)
            .expect("session runs");
        let trace = r.trace.as_deref().expect("trace requested");
        let t = &trace.totals;
        let s = &r.stats;

        prop_assert_eq!(t, s, "trace totals vs engine stats");

        // Per-stage totals must re-sum to the run totals: stages
        // partition the rounds, so nothing is counted twice or lost.
        let stage_rounds: u64 = trace.stages.iter().map(|st| st.totals.rounds).sum();
        prop_assert_eq!(stage_rounds, t.rounds, "stage rounds partition the run");
        let stage_tx: u64 = trace.stages.iter().map(|st| st.totals.transmissions).sum();
        prop_assert_eq!(stage_tx, t.transmissions, "stage tx partition the run");
        let stage_rx: u64 = trace.stages.iter().map(|st| st.totals.receptions).sum();
        prop_assert_eq!(stage_rx, t.receptions, "stage rx partition the run");
    }

    #[test]
    fn spans_partition_the_timeline(
        topo in proptest::graph::edge_list(3..10),
        seed in 0u64..1024,
    ) {
        let graph = Graph::from_edges(topo.n, topo.edges.clone()).expect("valid edges");
        let w = Workload::random(topo.n, 3, seed);
        let options = RunOptions { trace: true, ..RunOptions::default() };
        let r = run_protocol_on_graph(&CodedProtocol::default(), graph, &w, seed, options)
            .expect("session runs");
        let trace = r.trace.as_deref().expect("trace requested");

        prop_assert!(!trace.spans.is_empty(), "a nonzero run has at least one span");
        prop_assert_eq!(trace.spans[0].start, 0, "first span starts at round 0");
        prop_assert_eq!(
            trace.spans.last().unwrap().end,
            trace.totals.rounds,
            "last span ends at the final round"
        );
        for span in &trace.spans {
            prop_assert!(span.start < span.end, "span {:?} is non-empty half-open", span);
        }
        for pair in trace.spans.windows(2) {
            prop_assert_eq!(
                pair[0].end, pair[1].start,
                "spans are contiguous and non-overlapping: {:?} then {:?}",
                &pair[0], &pair[1]
            );
        }

        // The exported forms inherit the structure: every JSONL line is
        // one object, and the Chrome trace is one JSON array.
        let jsonl = trace.to_jsonl();
        for line in jsonl.lines() {
            prop_assert!(
                line.starts_with('{') && line.ends_with('}'),
                "JSONL line is a single object: {line}"
            );
        }
        prop_assert!(jsonl.lines().next().is_some_and(|l| l.contains("\"type\": \"meta\"")));
        let chrome = trace.to_chrome_trace();
        let chrome = chrome.trim();
        prop_assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        prop_assert!(chrome.contains("\"ph\": \"X\""), "chrome trace has duration spans");
    }
}

/// Samples a protocol's trace probe every round and demands the gauge a
/// full recompute over all nodes gives: the coded and BII probes reuse
/// their gauge in rounds without a reception, which is exact only
/// because decoder ranks and known sets change only in `receive`.
struct GaugeCheck<N> {
    probe: Box<dyn StageProbe<N>>,
    full: fn(&[N]) -> u64,
    rounds: u64,
}

impl<N: Node> Observer<N> for GaugeCheck<N> {
    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        let sample = self.probe.sample(events, nodes);
        assert_eq!(
            sample.gauge,
            Some((self.full)(nodes)),
            "round {}",
            events.round
        );
        self.rounds += 1;
    }
}

fn check_gauge<P: BroadcastProtocol>(
    protocol: &P,
    topology: &Topology,
    k: usize,
    seed: u64,
    full: fn(&[P::Node]) -> u64,
) {
    let graph = topology.build(seed).expect("topology builds");
    let net = NetParams::of_graph(&graph);
    let (nodes, awake) = protocol.build(&net, &Workload::random(net.n, k, seed), seed);
    let mut engine = Engine::new(graph, nodes, awake).expect("engine builds");
    let mut check = GaugeCheck {
        probe: protocol.trace_probe(&net),
        full,
        rounds: 0,
    };
    let end = engine.run_session(protocol.round_cap(&net, k), &mut check);
    assert!(end.completed, "{topology} seed {seed}");
    assert_eq!(check.rounds, end.rounds);
}

#[test]
fn reused_gauges_equal_full_recomputes() {
    for (topology, seed) in [
        (Topology::Grid2d { rows: 5, cols: 5 }, 1),
        (Topology::Gnp { n: 30, p: 0.2 }, 4),
    ] {
        check_gauge(&CodedProtocol::default(), &topology, 12, seed, |nodes| {
            nodes
                .iter()
                .filter_map(KbcastNode::dissem_state)
                .flat_map(|d| d.group_status().map(|g| g.rank as u64))
                .sum()
        });
        check_gauge(&BiiProtocol::default(), &topology, 4, seed, |nodes| {
            nodes.iter().map(|n| n.known_count() as u64).sum()
        });
    }
}
