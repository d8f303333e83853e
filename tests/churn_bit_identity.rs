//! Bit-identity pins for *churned* sessions: round counts and channel
//! statistics for two protocols (coded on the default no-CD channel,
//! GHK on the collision-detection channel) under two dynamic-topology
//! models (per-round edge churn and periodic partition/heal), on 3
//! pinned seeds — with the verify and trace tees enabled, so every run
//! is re-derived by the churn-aware [`ModelChecker`] replica as it
//! executes.
//!
//! These tables freeze the dynamic-topology semantics end to end: the
//! reshape hook's position in the round loop, the dedicated churn RNG
//! streams, the CSR rebuild, and the checker replica's lockstep replay.
//! Any drift — an extra RNG draw, a reshape moved across the
//! transmission phase, a changed bisection — shows up as a table
//! mismatch here before it shows up as a subtle statistics shift in
//! `exp_e22_churn`.
//!
//! Unlike the static pins in `engine_bit_identity.rs`, a churned run
//! is *not* asserted successful: a partition window can legitimately
//! hold the network apart past the round cap. Success is part of the
//! pinned observation instead.
//!
//! Regenerate after an intentional semantic change with
//! `KB_BLESS=1 cargo test -q --test churn_bit_identity -- --nocapture`.

use radio_kbcast::kbcast::ghk::GhkProtocol;
use radio_kbcast::kbcast::runner::{RunOptions, Workload};
use radio_kbcast::kbcast::session::run_protocol;
use radio_kbcast::kbcast::CodedProtocol;
use radio_kbcast::radio_net::dyntopo::{ChurnSpec, PartitionWindow};
use radio_kbcast::radio_net::stats::SimStats;
use radio_kbcast::radio_net::topology::Topology;

const SEEDS: [u64; 3] = [1, 2, 3];
const N: usize = 36;
const K: usize = 8;

fn topology() -> Topology {
    Topology::Grid2d { rows: 6, cols: 6 }
}

/// The two pinned churn models: gentle per-round edge flips (the graph
/// stays mostly connected, runs complete) and a periodic split that
/// holds two halves apart for half of every cycle.
fn churn_models() -> [(&'static str, ChurnSpec); 2] {
    [
        (
            "edge",
            ChurnSpec::Edge {
                rho: 0.02,
                heal: 0.25,
            },
        ),
        (
            "partition",
            ChurnSpec::Partition(PartitionWindow {
                split_at: 60,
                heal_at: 240,
                period: Some(480),
            }),
        ),
    ]
}

fn options(churn: ChurnSpec) -> RunOptions {
    RunOptions {
        verify: true,
        trace: true,
        churn,
        ..RunOptions::default()
    }
}

/// One pinned observation. `success` joins the channel counters: under
/// churn it is an outcome, not a precondition.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    success: bool,
    rounds: u64,
    transmissions: u64,
    receptions: u64,
    collisions: u64,
    wakeups: u64,
}

fn observe(success: bool, stats: &SimStats, rounds: u64) -> Golden {
    Golden {
        success,
        rounds,
        transmissions: stats.transmissions,
        receptions: stats.receptions,
        collisions: stats.collisions,
        wakeups: stats.wakeups,
    }
}

fn measure_coded(churn: ChurnSpec, seed: u64) -> Golden {
    let w = Workload::random(N, K, seed);
    let r = run_protocol(
        &CodedProtocol::default(),
        &topology(),
        &w,
        seed,
        options(churn),
    )
    .unwrap();
    observe(r.success, &r.stats, r.rounds_total)
}

fn measure_ghk(churn: ChurnSpec, seed: u64) -> Golden {
    let w = Workload::random(N, K, seed);
    let r = run_protocol(
        &GhkProtocol::default(),
        &topology(),
        &w,
        seed,
        options(churn),
    )
    .unwrap();
    // Deliberately no leader assertion: a partition can elect one
    // leader per component.
    observe(r.success, &r.stats, r.rounds_total)
}

macro_rules! g {
    ($success:expr, $rounds:expr, $tx:expr, $rx:expr, $coll:expr, $wake:expr) => {
        Golden {
            success: $success,
            rounds: $rounds,
            transmissions: $tx,
            receptions: $rx,
            collisions: $coll,
            wakeups: $wake,
        }
    };
}

fn print_table(name: &str, run: impl Fn(ChurnSpec, u64) -> Golden) {
    println!("fn golden_{name}() -> [[Golden; 3]; 2] {{");
    println!("    [");
    for (label, churn) in churn_models() {
        println!("        // {label}");
        println!("        [");
        for &seed in &SEEDS {
            let g = run(churn, seed);
            println!(
                "            g!({}, {}, {}, {}, {}, {}),",
                g.success, g.rounds, g.transmissions, g.receptions, g.collisions, g.wakeups
            );
        }
        println!("        ],");
    }
    println!("    ]");
    println!("}}");
}

fn check(protocol: &str, golden: &[[Golden; 3]; 2], run: impl Fn(ChurnSpec, u64) -> Golden) {
    // `KB_BLESS=1` turns a failing pin into a regeneration aid, same
    // contract as `engine_bit_identity.rs`.
    if std::env::var("KB_BLESS").as_deref() == Ok("1") {
        print_table(protocol, run);
        return;
    }
    for (ci, (label, churn)) in churn_models().into_iter().enumerate() {
        for (si, &seed) in SEEDS.iter().enumerate() {
            let got = run(churn, seed);
            assert_eq!(
                got, golden[ci][si],
                "{protocol} diverged under {label} churn, seed {seed}"
            );
        }
    }
}

fn golden_coded() -> [[Golden; 3]; 2] {
    [
        // edge
        [
            g!(true, 9942, 5036, 7116, 2576, 30),
            g!(true, 9940, 8768, 9756, 4429, 28),
            g!(true, 10023, 7419, 8759, 3785, 29),
        ],
        // partition
        [
            g!(true, 10022, 4131, 6563, 1462, 30),
            g!(false, 90552, 9189, 6512, 3938, 28),
            g!(false, 90552, 7335, 5584, 3167, 29),
        ],
    ]
}

fn golden_ghk() -> [[Golden; 3]; 2] {
    [
        // edge
        [
            g!(true, 1834, 20721, 16587, 10639, 0),
            g!(true, 1787, 20436, 16300, 10464, 0),
            g!(true, 1794, 20311, 16374, 10564, 0),
        ],
        // partition
        [
            g!(true, 1903, 21148, 15826, 8802, 0),
            g!(true, 1856, 21244, 16002, 8971, 0),
            g!(true, 1858, 20695, 15657, 8737, 0),
        ],
    ]
}

#[test]
fn coded_under_churn_matches_golden() {
    check("coded", &golden_coded(), measure_coded);
}

#[test]
fn ghk_under_churn_matches_golden() {
    check("ghk", &golden_ghk(), measure_ghk);
}
