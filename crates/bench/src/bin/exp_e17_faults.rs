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
use kbcast::runner::{CodedProtocol, StageFaults};
use kbcast_bench::session::{sweep_dynamic, sweep_protocol, two_wave_arrivals, Summary, SweepSpec};
use kbcast_bench::table::{f3, Table};
use kbcast_bench::{verify_from_env, write_result, Scale};
use radio_net::faults::FaultSpec;
use radio_net::topology::Topology;

/// Everything the table and the JSON need from one protocol × fault
/// sweep.
struct Entry {
    fault: String,
    protocol: &'static str,
    summary: Summary,
    stage_faults: Option<StageFaults>,
}

fn main() -> std::io::Result<()> {
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
        let entry = |protocol, summary, stage_faults| Entry {
            fault: fault.label(),
            protocol,
            summary,
            stage_faults,
        };
        entries.push(entry("coded", Summary::of(&coded), Some(stage_faults)));

        let bii = sweep_protocol(&BiiProtocol::default(), &spec);
        entries.push(entry("bii", Summary::of(&bii), None));

        let dynamic = sweep_dynamic(&topo, seeds, 150_000, spec.options, two_wave_arrivals);
        entries.push(entry("dynamic", Summary::of(&dynamic), None));
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
        let s = &e.summary;
        t.row(&[
            e.fault.clone(),
            e.protocol.to_string(),
            format!("{}/{}", s.ok, s.seeds),
            format!("{:.0}", s.median_rounds),
            f3(s.mean_delivered),
            format!("{}", s.lost_receptions),
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
        let s = &e.summary;
        let mut j = String::new();
        write!(
            j,
            "    {{\"fault\": \"{}\", \"protocol\": \"{}\", \"success\": {}, \"seeds\": {}, \
             \"median_rounds\": {:.1}, \"mean_delivered\": {:.6}, \"lost_receptions\": {}",
            e.fault,
            e.protocol,
            s.ok,
            s.seeds,
            s.median_rounds,
            s.mean_delivered,
            s.lost_receptions
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
    write_result("KB_E17_OUT", "results/E17_faults.json", &json)
}
