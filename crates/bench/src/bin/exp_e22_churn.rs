//! **E22 (extension) — broadcast under dynamic topology.**
//!
//! Beyond the paper (whose network is frozen for the whole execution):
//! sweeps the four protocol families — the paper's coded algorithm,
//! the BII flooding baseline, the dynamic batch-pipelining variant,
//! and the GHK collision-detection broadcast — across a churn grid on
//! the same topology zoo:
//!
//! * a **rate ladder** of per-round edge churn (`edge:rho=...`), the
//!   degradation axis: every live edge flaps down with probability ρ
//!   each round and heals back at a fixed rate, so raising ρ thins the
//!   effective graph without ever adding capacity;
//! * one **random-waypoint mobility** configuration (`waypoint:...`),
//!   where the unit-disk graph is re-derived from moving positions; and
//! * one **periodic partition/heal** window (`partition:...`), which
//!   holds two bisection halves apart for part of every cycle.
//!
//! Expected shapes (see EXPERIMENTS.md §E22): delivered mass is
//! non-increasing along the edge-rho ladder — churn only removes
//! edges, so the curve can plateau at 1.0 under gentle flap rates but
//! can never improve; median rounds grow with ρ; the partition window
//! is the harshest model for the round-capped coded pipeline (a split
//! that outlives the cap reads as failure) while the flooders recover
//! as soon as the window heals.
//!
//! With `KB_VERIFY=1` every session replays through the churn-aware
//! [`radio_net::verify::ModelChecker`] replica; any violation aborts
//! the sweep with the offending seed instead of contributing a
//! silently-wrong data point.
//!
//! Output: a table to stdout and `results/E22_churn.json` (redirect
//! with `KB_E22_OUT`; `scripts/check.sh` runs the quick grid8×8
//! configuration as its churn-smoke stage). Deterministic in the fixed
//! seed range — same binary, same scale, same JSON, bit for bit.

use std::fmt::Write as _;

use kbcast::baseline::BiiProtocol;
use kbcast::dynamic::Arrival;
use kbcast::ghk::GhkProtocol;
use kbcast::runner::CodedProtocol;
use kbcast_bench::session::{sweep_dynamic, sweep_protocol, Summary, SweepSpec};
use kbcast_bench::table::{f3, Table};
use kbcast_bench::{verify_from_env, write_result, Scale};
use radio_net::dyntopo::{ChurnSpec, PartitionWindow};
use radio_net::topology::Topology;

/// Uniform round cap: bounds the partition rows (a window that
/// outlives the cap is a legitimate failure outcome) without touching
/// any run that completes — every clean protocol finishes well below
/// it on the zoo sizes.
const CAP: u64 = 60_000;

/// One protocol × topology × churn row.
struct Entry {
    topology: String,
    churn: String,
    protocol: &'static str,
    summary: Summary,
}

/// The dynamic variant's schedule: `k` packets, half present at round 0
/// to wake the network, the rest injected mid-session through the
/// session-control seam — churn active underneath the whole time.
fn arrivals(k: usize, seed: u64, n: usize) -> Vec<Arrival> {
    (0..k)
        .map(|i| Arrival {
            round: if i < k.div_ceil(2) { 0 } else { 200 * i as u64 },
            node: (i * 7 + seed as usize) % n,
            payload: vec![0xE2, i as u8, seed as u8],
        })
        .collect()
}

/// The churn grid: a clean baseline, the edge-rho degradation ladder,
/// one mobility model, one partition/heal schedule.
fn churn_grid() -> Vec<ChurnSpec> {
    let edge = |rho| ChurnSpec::Edge { rho, heal: 0.25 };
    vec![
        ChurnSpec::None,
        edge(0.005),
        edge(0.02),
        edge(0.08),
        ChurnSpec::Waypoint {
            radius: 0.45,
            speed: 0.01,
        },
        ChurnSpec::Partition(PartitionWindow {
            split_at: 100,
            heal_at: 400,
            period: Some(800),
        }),
    ]
}

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    let seeds = scale.pick(2u64, 5);
    let zoo: Vec<(Topology, usize)> = if matches!(scale, Scale::Quick) {
        vec![(Topology::Grid2d { rows: 8, cols: 8 }, 8usize)]
    } else {
        vec![
            (Topology::Grid2d { rows: 12, cols: 12 }, 12usize),
            (Topology::Gnp { n: 64, p: 0.13 }, 12usize),
        ]
    };
    let grid = churn_grid();

    println!("E22 (extension): broadcast under dynamic topology (churn/mobility/partition)");
    println!(
        "({} topologies, {} churn models, {seeds} seeds per protocol x topology x churn)",
        zoo.len(),
        grid.len()
    );
    println!();

    let mut entries: Vec<Entry> = Vec::new();
    for (topo, k) in &zoo {
        for churn in &grid {
            let mut spec = SweepSpec::new(topo, *k, seeds);
            spec.options.verify = verify_from_env();
            spec.options.max_rounds = Some(CAP);
            spec.options.churn = *churn;

            let coded = sweep_protocol(&CodedProtocol::default(), &spec);
            let bii = sweep_protocol(&BiiProtocol::default(), &spec);
            let ghk = sweep_protocol(&GhkProtocol::default(), &spec);
            let dynamic = sweep_dynamic(topo, seeds, CAP, spec.options, |seed, n| {
                arrivals(*k, seed, n)
            });
            for (protocol, summary) in [
                ("coded", Summary::of(&coded)),
                ("bii", Summary::of(&bii)),
                ("ghk", Summary::of(&ghk)),
                ("dynamic", Summary::of(&dynamic)),
            ] {
                entries.push(Entry {
                    topology: topo.to_string(),
                    churn: churn.to_string(),
                    protocol,
                    summary,
                });
            }
        }
    }

    let mut t = Table::new(&[
        "topology",
        "churn",
        "protocol",
        "success",
        "median rounds",
        "delivered",
    ]);
    for e in &entries {
        let s = &e.summary;
        t.row(&[
            e.topology.clone(),
            e.churn.clone(),
            e.protocol.to_string(),
            format!("{}/{}", s.ok, s.seeds),
            format!("{:.0}", s.median_rounds),
            f3(s.mean_delivered),
        ]);
    }
    t.print();
    println!();

    // Degradation shape: along the edge-rho ladder (none is rho = 0)
    // delivered mass must be non-increasing per protocol on every
    // topology — edge churn only removes edges, never adds capacity.
    // A small epsilon absorbs seed noise at quick scale.
    let ladder = [
        "none",
        "edge:rho=0.005,heal=0.25",
        "edge:rho=0.02,heal=0.25",
        "edge:rho=0.08,heal=0.25",
    ];
    let mut all_monotone = true;
    for (topo, _) in &zoo {
        let tname = topo.to_string();
        for protocol in ["coded", "bii", "ghk", "dynamic"] {
            let series: Vec<f64> = ladder
                .iter()
                .filter_map(|label| {
                    entries
                        .iter()
                        .find(|e| {
                            e.topology == tname && e.protocol == protocol && e.churn == *label
                        })
                        .map(|e| e.summary.mean_delivered)
                })
                .collect();
            let monotone = series.windows(2).all(|w| w[1] <= w[0] + 0.02);
            all_monotone &= monotone;
            let pretty: Vec<String> = series.iter().map(|v| format!("{v:.3}")).collect();
            println!(
                "degradation {tname} {protocol}: delivered [{}] monotone={monotone}",
                pretty.join(", ")
            );
        }
    }
    println!("degradation monotone overall: {all_monotone}");
    println!();
    println!("shape check: delivered mass never improves as edge-rho rises (churn only");
    println!("removes edges); median rounds grow with rho; the periodic partition is");
    println!("harshest for the round-capped coded pipeline (a split outliving the cap is");
    println!("a failure outcome) while the flooders recover once the window heals.");

    // Deterministic JSON (no timestamps): reproducible bit-for-bit
    // from the fixed seed range.
    let mut json_entries = Vec::new();
    for e in &entries {
        let s = &e.summary;
        let mut j = String::new();
        write!(
            j,
            "    {{\"topology\": \"{}\", \"churn\": \"{}\", \"protocol\": \"{}\", \
             \"success\": {}, \"seeds\": {}, \"median_rounds\": {:.1}, \
             \"mean_delivered\": {:.6}}}",
            e.topology, e.churn, e.protocol, s.ok, s.seeds, s.median_rounds, s.mean_delivered
        )
        .expect("write to string");
        json_entries.push(j);
    }
    let json = format!(
        "{{\n  \"experiment\": \"E22_churn\",\n  \"seeds\": {seeds},\n  \
         \"monotone_degradation\": {all_monotone},\n  \"entries\": [\n{}\n  ]\n}}\n",
        json_entries.join(",\n")
    );
    write_result("KB_E22_OUT", "results/E22_churn.json", &json)
}
