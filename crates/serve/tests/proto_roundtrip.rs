//! Serde round-trips for every request and response type of the line
//! protocol: encode → one JSON line → decode must reproduce the value
//! exactly (and ids echo verbatim).

use kbcast_serve::json::Json;
use kbcast_serve::proto::{
    Envelope, InjectPacket, LatencyBlock, PacketState, Request, Response, StatsBlock,
};

fn all_requests() -> Vec<Request> {
    vec![
        Request::Init {
            topology: "grid(4x8)".into(),
            protocol: "stream-seq".into(),
            seed: u64::MAX,
            faults: Some("uniform:rate=0.01".into()),
            horizon: Some(1_000_000),
            verify: Some(true),
            trace: Some(false),
            cd: Some(true),
            churn: Some("edge:rho=0.02,heal=0.2".into()),
        },
        Request::Init {
            topology: "gnp(n=16,p=0.4)".into(),
            protocol: "stream-seq".into(),
            seed: 0,
            faults: None,
            horizon: None,
            verify: None,
            trace: None,
            cd: None,
            churn: None,
        },
        Request::AddNode {
            neighbors: vec![0, 3, 7],
        },
        Request::Inject {
            packets: vec![
                InjectPacket {
                    node: 0,
                    round: Some(0),
                    payload: vec![0, 127, 255],
                },
                InjectPacket {
                    node: 31,
                    round: None,
                    payload: vec![],
                },
            ],
        },
        Request::SetFaults {
            faults: "ge:p_bad=0.01,p_good=0.2,loss_good=0.001,loss_bad=0.6".into(),
        },
        Request::Tick { rounds: 1 },
        Request::Tick { rounds: u64::MAX },
        Request::RunUntilDrained { max_rounds: None },
        Request::RunUntilDrained {
            max_rounds: Some(42),
        },
        Request::Query { packet: None },
        Request::Query {
            packet: Some((u64::MAX, u32::MAX)),
        },
        Request::Snapshot,
        Request::Shutdown,
    ]
}

fn all_responses() -> Vec<Response> {
    let stats = StatsBlock {
        rounds: 123_456,
        transmissions: 1,
        receptions: 2,
        collisions: 3,
        dropped: 4,
        jammed: 5,
        wakeups: 6,
    };
    let latency = LatencyBlock {
        count: 100_000,
        mean: 5_120.25,
        p50: Some(4_800),
        p90: Some(9_000),
        p99: Some(12_000),
        max: Some(15_001),
    };
    vec![
        Response::Error {
            error: "inject: node 99 out of range".into(),
        },
        Response::InitAck {
            n: 32,
            diameter: 10,
            max_degree: 4,
            protocol: "stream-seq".into(),
            topology: "grid(4x8)".into(),
            faults: "none".into(),
            churn: None,
        },
        Response::InitAck {
            n: 16,
            diameter: 6,
            max_degree: 5,
            protocol: "stream-seq".into(),
            topology: "gnp(n=16,p=0.4)".into(),
            faults: "none".into(),
            churn: Some("partition:at=200,heal=400,period=1000".into()),
        },
        Response::AddNodeAck { node: 32, n: 33 },
        Response::InjectAck {
            accepted: 512,
            k: 100_000,
        },
        Response::SetFaultsAck {
            faults: "uniform:rate=0.02".into(),
            round: 99_999,
        },
        Response::TickAck {
            round: 100_000,
            delivered_min: 7,
            drained: false,
        },
        Response::DrainAck {
            completed: true,
            round: 4_000_000,
        },
        Response::QueryAck {
            round: 4_000_000,
            started: true,
            k: 100_000,
            delivered_min: 100_000,
            all_delivered: true,
            faults: "none".into(),
            violations: 0,
            stats,
            latency,
            throughput: 0.025,
            packet: Some(PacketState {
                origin: 3,
                seq: 17,
                holders: 32,
                delivered: true,
                latency: Some(4_801),
            }),
        },
        Response::QueryAck {
            round: 0,
            started: false,
            k: 0,
            delivered_min: 0,
            all_delivered: false,
            faults: "jam:budget=1000".into(),
            violations: 2,
            stats: StatsBlock::default(),
            latency: LatencyBlock::default(),
            throughput: 0.0,
            packet: None,
        },
        Response::SnapshotAck {
            round: 5,
            violations: 0,
            trace: Some(Json::parse(r#"{"runs":1,"rounds":5}"#).unwrap()),
        },
        Response::SnapshotAck {
            round: 5,
            violations: 0,
            trace: None,
        },
        Response::ShutdownAck {
            round: 4_000_000,
            violations: 0,
        },
    ]
}

#[test]
fn every_request_round_trips_through_its_line_form() {
    for req in all_requests() {
        for id in [
            None,
            Some(Json::UInt(u64::MAX)),
            Some(Json::Str("q-7".into())),
        ] {
            let env = Envelope {
                id: id.clone(),
                req: req.clone(),
            };
            let line = env.to_json().to_string();
            let back = Envelope::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, env, "line was {line}");
        }
    }
}

#[test]
fn every_response_round_trips_through_its_line_form() {
    for resp in all_responses() {
        for id in [None, Some(Json::UInt(0)), Some(Json::Str("r".into()))] {
            let line = resp.to_json(id.as_ref()).to_string();
            let (back, back_id) = Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, resp, "line was {line}");
            assert_eq!(back_id, id, "line was {line}");
        }
    }
}

#[test]
fn single_packet_inject_form_normalizes_to_the_batch_form() {
    let env = Envelope::parse(r#"{"op":"inject","node":4,"round":9,"payload":[1,2]}"#).unwrap();
    assert_eq!(
        env.req,
        Request::Inject {
            packets: vec![InjectPacket {
                node: 4,
                round: Some(9),
                payload: vec![1, 2],
            }],
        }
    );
    // And the canonical encoding re-parses to the same value.
    let line = env.to_json().to_string();
    assert_eq!(Envelope::parse(&line).unwrap(), env);
}

#[test]
fn requests_preserve_exact_u64_seeds() {
    // 2^53 + 1 is not representable as f64 — the codec must keep it.
    let seed = (1u64 << 53) + 1;
    let line =
        format!(r#"{{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":{seed}}}"#);
    let env = Envelope::parse(&line).unwrap();
    let Request::Init { seed: parsed, .. } = env.req else {
        panic!("not an init");
    };
    assert_eq!(parsed, seed);
}
