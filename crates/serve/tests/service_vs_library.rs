//! The determinism contract: a service session reproduces the
//! in-process [`kbcast::dynamic::run_streaming`] run bit-for-bit on the
//! same seed — same stop round, same channel counters, same per-packet
//! latency distribution. The service is not a
//! second simulator; it is the same simulator behind a protocol.

use kbcast::dynamic::run_streaming;
use kbcast::runner::RunOptions;
use kbcast_bench::traffic::{TrafficPattern, TrafficSpec};
use kbcast_serve::json::Json;
use kbcast_serve::proto::{Envelope, InjectPacket, Request};
use kbcast_serve::service::Service;
use radio_net::dyntopo::ChurnSpec;
use radio_net::stats::nearest_rank;
use radio_net::topology::Topology;
use std::str::FromStr;

fn ok(service: &mut Service, line: &str) -> Json {
    let resp = service.handle_line(line);
    let doc = Json::parse(&resp).unwrap();
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "request {line} failed: {resp}"
    );
    doc
}

fn get(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

#[test]
fn service_sessions_match_the_library_run_bit_for_bit() {
    for (protocol, seed) in [("stream-seq", 41u64), ("stream-seq", 42u64)] {
        let topology = "grid(4x4)";
        let horizon = 400_000u64;
        let topo = Topology::from_str(topology).unwrap();
        let n = topo.build(seed).unwrap().len();
        let arrivals = TrafficSpec {
            pattern: TrafficPattern::Poisson { lambda: 0.01 },
            window: 4_000,
        }
        .generate(n, seed)
        .unwrap();
        assert!(arrivals.len() > 10, "workload too small to be interesting");

        // Ground truth: the in-process streaming run.
        let lib = run_streaming(
            &topo,
            &arrivals,
            None,
            seed,
            horizon,
            RunOptions {
                verify: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(lib.success, "library run did not drain: {lib:?}");

        // The same session through the service front-end.
        let mut s = Service::new();
        ok(
            &mut s,
            &format!(
                r#"{{"op":"init","topology":"{topology}","protocol":"{protocol}","seed":{seed},"horizon":{horizon},"verify":true}}"#
            ),
        );
        // Inject the identical schedule (batched, like the driver).
        for chunk in arrivals.chunks(64) {
            let req = Envelope {
                id: None,
                req: Request::Inject {
                    packets: chunk
                        .iter()
                        .map(|a| InjectPacket {
                            node: a.node,
                            round: Some(a.round),
                            payload: a.payload.clone(),
                        })
                        .collect(),
                },
            };
            ok(&mut s, &req.to_json().to_string());
        }
        let drain = ok(&mut s, r#"{"op":"run_until_drained"}"#);
        assert_eq!(
            drain.get("completed").and_then(Json::as_bool),
            Some(true),
            "service run did not drain ({protocol})"
        );
        let q = ok(&mut s, r#"{"op":"query"}"#);

        // Stop round and delivery.
        assert_eq!(get(&q, "round"), lib.rounds_total, "{protocol}: stop round");
        assert_eq!(get(&q, "k"), lib.k as u64, "{protocol}: packet count");
        assert_eq!(q.get("all_delivered").and_then(Json::as_bool), Some(true));
        assert_eq!(get(&q, "violations"), 0, "{protocol}: violations");

        // Channel counters, field by field.
        let stats = q.get("stats").unwrap();
        assert_eq!(get(stats, "rounds"), lib.stats.rounds, "{protocol}: rounds");
        assert_eq!(
            get(stats, "transmissions"),
            lib.stats.transmissions,
            "{protocol}: transmissions"
        );
        assert_eq!(
            get(stats, "receptions"),
            lib.stats.receptions,
            "{protocol}: receptions"
        );
        assert_eq!(
            get(stats, "collisions"),
            lib.stats.collisions,
            "{protocol}: collisions"
        );
        assert_eq!(
            get(stats, "wakeups"),
            lib.stats.wakeups,
            "{protocol}: wakeups"
        );

        // Latency distribution: count, every pinned percentile, max.
        let lat = q.get("latency").unwrap();
        assert_eq!(get(lat, "count"), lib.meta.latencies.len() as u64);
        for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            assert_eq!(
                lat.get(key).and_then(Json::as_u64),
                nearest_rank(&lib.meta.latencies, p),
                "{protocol}: {key}"
            );
        }
        assert_eq!(
            lat.get("max").and_then(Json::as_u64),
            lib.meta.latencies.last().copied(),
            "{protocol}: max latency"
        );

        let sd = ok(&mut s, r#"{"op":"shutdown"}"#);
        assert_eq!(
            get(&sd, "violations"),
            0,
            "{protocol}: end-of-session checks"
        );
    }
}

/// The same contract on a *moving* graph: a churned service session —
/// `"churn"` in `init` — must reproduce the in-process churned
/// streaming run bit-for-bit, verify stack live the whole way. This
/// pins the service's churn plumbing end to end: spec parsing, the
/// identically-seeded engine + checker-replica construction, and the
/// per-round reshape inside `run_streaming_until` spans.
#[test]
fn churned_service_session_matches_the_library_run_bit_for_bit() {
    let (protocol, seed) = ("stream-seq", 43u64);
    let topology = "grid(4x4)";
    let churn = "edge:rho=0.01,heal=0.3";
    let horizon = 400_000u64;
    let topo = Topology::from_str(topology).unwrap();
    let n = topo.build(seed).unwrap().len();
    let arrivals = TrafficSpec {
        pattern: TrafficPattern::Poisson { lambda: 0.01 },
        window: 2_000,
    }
    .generate(n, seed)
    .unwrap();
    assert!(arrivals.len() > 5, "workload too small to be interesting");

    // Ground truth: the in-process churned streaming run.
    let spec: ChurnSpec = churn.parse().unwrap();
    let lib = run_streaming(
        &topo,
        &arrivals,
        None,
        seed,
        horizon,
        RunOptions {
            verify: true,
            churn: spec,
            ..RunOptions::default()
        },
    )
    .unwrap();

    // The same session through the service front-end.
    let mut s = Service::new();
    let ack = ok(
        &mut s,
        &format!(
            r#"{{"op":"init","topology":"{topology}","protocol":"{protocol}","seed":{seed},"horizon":{horizon},"verify":true,"churn":"{churn}"}}"#
        ),
    );
    assert_eq!(
        ack.get("churn").and_then(Json::as_str),
        Some(churn),
        "init ack must echo the canonical churn spec"
    );
    for chunk in arrivals.chunks(64) {
        let req = Envelope {
            id: None,
            req: Request::Inject {
                packets: chunk
                    .iter()
                    .map(|a| InjectPacket {
                        node: a.node,
                        round: Some(a.round),
                        payload: a.payload.clone(),
                    })
                    .collect(),
            },
        };
        ok(&mut s, &req.to_json().to_string());
    }
    let drain = ok(&mut s, r#"{"op":"run_until_drained"}"#);
    // Under churn completion is an outcome, not a precondition: assert
    // the service agrees with the library, whichever way it went.
    assert_eq!(
        drain.get("completed").and_then(Json::as_bool),
        Some(lib.success),
        "churned drain outcome"
    );
    let q = ok(&mut s, r#"{"op":"query"}"#);
    assert_eq!(get(&q, "round"), lib.rounds_total, "churned stop round");
    assert_eq!(get(&q, "k"), lib.k as u64, "churned packet count");
    assert_eq!(get(&q, "violations"), 0, "churned violations");
    let stats = q.get("stats").unwrap();
    assert_eq!(get(stats, "rounds"), lib.stats.rounds);
    assert_eq!(get(stats, "transmissions"), lib.stats.transmissions);
    assert_eq!(get(stats, "receptions"), lib.stats.receptions);
    assert_eq!(get(stats, "collisions"), lib.stats.collisions);
    assert_eq!(get(stats, "wakeups"), lib.stats.wakeups);
    let lat = q.get("latency").unwrap();
    assert_eq!(get(lat, "count"), lib.meta.latencies.len() as u64);
    for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        assert_eq!(
            lat.get(key).and_then(Json::as_u64),
            nearest_rank(&lib.meta.latencies, p),
            "churned {key}"
        );
    }
    let sd = ok(&mut s, r#"{"op":"shutdown"}"#);
    assert_eq!(get(&sd, "violations"), 0, "churned end-of-session checks");
}

/// The same contract under faults: a service session whose `init`
/// names a fault spec (never flipped mid-run) must reproduce the
/// in-process streaming run with the same spec in its `RunOptions`
/// bit-for-bit, verify stack live the whole way.
#[test]
fn faulted_service_session_matches_the_library_run_bit_for_bit() {
    let (protocol, seed) = ("stream-seq", 44u64);
    let topology = "grid(4x4)";
    let faults = "uniform:rate=0.03";
    let horizon = 400_000u64;
    let topo = Topology::from_str(topology).unwrap();
    let n = topo.build(seed).unwrap().len();
    let arrivals = TrafficSpec {
        pattern: TrafficPattern::Poisson { lambda: 0.01 },
        window: 2_000,
    }
    .generate(n, seed)
    .unwrap();
    assert!(arrivals.len() > 5, "workload too small to be interesting");

    // Ground truth: the in-process faulted streaming run.
    let lib = run_streaming(
        &topo,
        &arrivals,
        None,
        seed,
        horizon,
        RunOptions {
            verify: true,
            faults: faults.parse().unwrap(),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert!(lib.stats.dropped > 0, "the loss model actually fired");

    // The same session through the service front-end.
    let mut s = Service::new();
    let ack = ok(
        &mut s,
        &format!(
            r#"{{"op":"init","topology":"{topology}","protocol":"{protocol}","seed":{seed},"horizon":{horizon},"verify":true,"faults":"{faults}"}}"#
        ),
    );
    assert_eq!(ack.get("faults").and_then(Json::as_str), Some(faults));
    for chunk in arrivals.chunks(64) {
        let req = Envelope {
            id: None,
            req: Request::Inject {
                packets: chunk
                    .iter()
                    .map(|a| InjectPacket {
                        node: a.node,
                        round: Some(a.round),
                        payload: a.payload.clone(),
                    })
                    .collect(),
            },
        };
        ok(&mut s, &req.to_json().to_string());
    }
    let drain = ok(&mut s, r#"{"op":"run_until_drained"}"#);
    assert_eq!(
        drain.get("completed").and_then(Json::as_bool),
        Some(lib.success),
        "faulted drain outcome"
    );
    let q = ok(&mut s, r#"{"op":"query"}"#);
    assert_eq!(get(&q, "round"), lib.rounds_total, "faulted stop round");
    assert_eq!(get(&q, "k"), lib.k as u64, "faulted packet count");
    assert_eq!(get(&q, "violations"), 0, "faulted violations");
    let stats = q.get("stats").unwrap();
    assert_eq!(get(stats, "rounds"), lib.stats.rounds);
    assert_eq!(get(stats, "transmissions"), lib.stats.transmissions);
    assert_eq!(get(stats, "receptions"), lib.stats.receptions);
    assert_eq!(get(stats, "collisions"), lib.stats.collisions);
    assert_eq!(get(stats, "wakeups"), lib.stats.wakeups);
    assert_eq!(get(stats, "dropped"), lib.stats.dropped);
    let lat = q.get("latency").unwrap();
    assert_eq!(get(lat, "count"), lib.meta.latencies.len() as u64);
    for (key, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        assert_eq!(
            lat.get(key).and_then(Json::as_u64),
            nearest_rank(&lib.meta.latencies, p),
            "faulted {key}"
        );
    }
    let sd = ok(&mut s, r#"{"op":"shutdown"}"#);
    assert_eq!(get(&sd, "violations"), 0, "faulted end-of-session checks");
}
