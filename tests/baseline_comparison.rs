//! Cross-algorithm integration tests: the coded algorithm, the uncoded
//! ablation and the BII baseline on identical inputs.

use radio_kbcast::kbcast::baseline::{BiiConfig, BiiProtocol};
use radio_kbcast::kbcast::runner::{CodedProtocol, KbcastMeta, RunOptions, Workload};
use radio_kbcast::kbcast::session::{run_protocol, SessionReport};
use radio_kbcast::kbcast::Config;
use radio_kbcast::radio_net::topology::Topology;

/// One session of the coded protocol (`None` = config from the graph).
fn coded_session(
    topo: &Topology,
    w: &Workload,
    config: Option<Config>,
    seed: u64,
) -> SessionReport<KbcastMeta> {
    let protocol = CodedProtocol {
        config,
        uncoded: false,
    };
    run_protocol(&protocol, topo, w, seed, RunOptions::default()).unwrap()
}

/// One session of the BII baseline (`None` = config from the graph).
fn bii_session(
    topo: &Topology,
    w: &Workload,
    config: Option<BiiConfig>,
    seed: u64,
) -> SessionReport<()> {
    run_protocol(
        &BiiProtocol { config },
        topo,
        w,
        seed,
        RunOptions::default(),
    )
    .unwrap()
}

#[test]
fn all_three_deliver_on_a_moderate_network() {
    let topo = Topology::Gnp { n: 40, p: 0.15 };
    let w = Workload::random(40, 80, 1);

    let coded = coded_session(&topo, &w, None, 1);
    assert!(coded.success, "coded failed: {coded:?}");

    let g = topo.build(1).unwrap();
    let mut cfg = Config::for_network(g.len(), g.diameter().unwrap(), g.max_degree());
    cfg.group_size_override = Some(1);
    let uncoded = coded_session(&topo, &w, Some(cfg), 1);
    assert!(uncoded.success, "uncoded failed: {uncoded:?}");

    let bii = bii_session(&topo, &w, None, 1);
    assert!(bii.success, "bii failed: {bii:?}");
}

#[test]
fn coding_beats_ablation_in_dissemination_rounds() {
    // Large k, so Stage 4 dominates: the coded pipeline must finish its
    // dissemination in fewer rounds than the one-packet-per-group
    // ablation (the log n gain).
    let topo = Topology::Gnp { n: 64, p: 0.12 };
    let seed = 2;
    let g = topo.build(seed).unwrap();
    let base = Config::for_network(g.len(), g.diameter().unwrap(), g.max_degree());
    let k = 256;
    let w = Workload::random(64, k, seed);

    let coded = coded_session(&topo, &w, Some(base), seed);
    let mut ab = base;
    ab.group_size_override = Some(1);
    let uncoded = coded_session(&topo, &w, Some(ab), seed);

    assert!(coded.success && uncoded.success);
    assert!(
        coded.meta.stages.disseminate < uncoded.meta.stages.disseminate,
        "coded {} !< uncoded {}",
        coded.meta.stages.disseminate,
        uncoded.meta.stages.disseminate
    );
    // Stages 1-3 are identical schedules (same seed, same constants).
    assert_eq!(coded.meta.stages.leader, uncoded.meta.stages.leader);
    assert_eq!(coded.meta.stages.bfs, uncoded.meta.stages.bfs);
}

#[test]
fn bii_with_custom_budget() {
    let topo = Topology::Grid2d { rows: 4, cols: 6 };
    let w = Workload::round_robin(24, 30);
    let cfg = BiiConfig {
        epochs_per_packet: 24,
        delta_bound: 4,
    };
    let r = bii_session(&topo, &w, Some(cfg), 3);
    assert!(r.success, "{r:?}");
    assert!(r.stats.transmissions > 0);
}

#[test]
fn reports_expose_channel_statistics() {
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let w = Workload::random(16, 24, 4);
    let coded = coded_session(&topo, &w, None, 4);
    let bii = bii_session(&topo, &w, None, 4);
    for (name, stats) in [("coded", coded.stats), ("bii", bii.stats)] {
        assert!(stats.transmissions > 0, "{name}");
        assert!(stats.receptions > 0, "{name}");
        assert!(stats.bits_transmitted > 0, "{name}");
        assert!(stats.rounds > 0, "{name}");
    }
    // The coded run wakes sleeping relays; BII may too.
    assert!(coded.stats.wakeups > 0);
}

#[test]
fn amortized_metric_consistency() {
    let topo = Topology::Gnp { n: 32, p: 0.2 };
    let w = Workload::random(32, 64, 5);
    let coded = coded_session(&topo, &w, None, 5);
    let bii = bii_session(&topo, &w, None, 5);
    #[allow(clippy::cast_precision_loss)]
    {
        assert!(
            (coded.amortized_rounds_per_packet() - coded.rounds_total as f64 / 64.0).abs() < 1e-9
        );
        assert!((bii.amortized_rounds_per_packet() - bii.rounds_total as f64 / 64.0).abs() < 1e-9);
    }
}
