//! The line protocol: request/response types and their JSON codec.
//!
//! One JSON object per line in each direction. Every request may carry
//! an `"id"` member (string or integer) that the service echoes back
//! verbatim in the response, so drivers can pipeline requests. The
//! full grammar is tabulated in DESIGN.md §"Service front-end".
//!
//! Codec shape: [`Envelope::parse`] decodes a request line,
//! [`Envelope::to_json`] encodes one (the driver side), and
//! [`Response`] does the same for the answer direction. Both directions
//! round-trip value-exactly (pinned by `tests/proto_roundtrip.rs`).

use crate::json::Json;

/// One packet of an `inject` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectPacket {
    /// Destination node.
    pub node: usize,
    /// Arrival round; `None` = the current floor: the engine's current
    /// round or the previous injection's round, whichever is later.
    pub round: Option<u64>,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

/// A decoded request body.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Configure the session (topology/protocol/seed/faults/...).
    Init {
        /// Topology spec, [`radio_net::topology::Topology`] grammar.
        topology: String,
        /// Streaming protocol name (`stream-seq`).
        protocol: String,
        /// Session seed; all randomness derives from it.
        seed: u64,
        /// Initial fault spec ([`radio_net::faults::FaultSpec`]
        /// grammar); `None` = `none`.
        faults: Option<String>,
        /// Absolute round horizon; `None` = unbounded.
        horizon: Option<u64>,
        /// Run the online verify stack; `None` = off.
        verify: Option<bool>,
        /// Record a structured trace; `None` = off.
        trace: Option<bool>,
        /// Collision detection: must be absent or `false`. The
        /// streaming protocol never listens for collision noise, so
        /// `init` refuses `true`.
        cd: Option<bool>,
        /// Dynamic-topology spec ([`radio_net::dyntopo::ChurnSpec`]
        /// grammar, e.g. `edge:rho=0.02,heal=0.2`); `None` = frozen
        /// graph.
        churn: Option<String>,
    },
    /// Append a node with the given neighbors (before the first round).
    AddNode {
        /// Neighbor ids among existing nodes.
        neighbors: Vec<usize>,
    },
    /// Queue packets for arrival.
    Inject {
        /// The packets, in injection order.
        packets: Vec<InjectPacket>,
    },
    /// Swap the fault model (allowed mid-run).
    SetFaults {
        /// The new fault spec.
        faults: String,
    },
    /// Execute exactly this many rounds (clamped to the horizon).
    Tick {
        /// Rounds to execute.
        rounds: u64,
    },
    /// Run until every injected packet is delivered everywhere.
    RunUntilDrained {
        /// Extra round budget on top of the current round (at least
        /// 1); `None` =
        /// up to the horizon, or — without one — a default budget of
        /// `kbcast::runner::round_cap` rounds for the injected packets.
        max_rounds: Option<u64>,
    },
    /// Report delivery state, stats and latency percentiles.
    Query {
        /// Optional per-packet drill-down: `(origin, seq)`.
        packet: Option<(u64, u32)>,
    },
    /// Report the trace summary and verify state without stopping.
    Snapshot,
    /// Finalize and exit the event loop.
    Shutdown,
}

/// A request plus its echoed `"id"`.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// The `"id"` member, echoed verbatim (string or integer).
    pub id: Option<Json>,
    /// The request body.
    pub req: Request,
}

fn need<'a>(obj: &'a Json, key: &str, op: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("{op}: missing {key:?}"))
}

fn need_u64(obj: &Json, key: &str, op: &str) -> Result<u64, String> {
    need(obj, key, op)?
        .as_u64()
        .ok_or_else(|| format!("{op}: {key:?} must be a non-negative integer"))
}

fn need_str<'a>(obj: &'a Json, key: &str, op: &str) -> Result<&'a str, String> {
    need(obj, key, op)?
        .as_str()
        .ok_or_else(|| format!("{op}: {key:?} must be a string"))
}

fn opt_u64(obj: &Json, key: &str, op: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("{op}: {key:?} must be a non-negative integer")),
    }
}

fn opt_bool(obj: &Json, key: &str, op: &str) -> Result<Option<bool>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("{op}: {key:?} must be a boolean")),
    }
}

fn opt_str(obj: &Json, key: &str, op: &str) -> Result<Option<String>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("{op}: {key:?} must be a string")),
    }
}

fn payload_bytes(value: &Json, op: &str) -> Result<Vec<u8>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("{op}: \"payload\" must be an array of bytes"))?;
    items
        .iter()
        .map(|b| {
            b.as_u64()
                .and_then(|v| u8::try_from(v).ok())
                .ok_or_else(|| format!("{op}: payload bytes must be integers in 0..=255"))
        })
        .collect()
}

fn packet_from(obj: &Json, op: &str) -> Result<InjectPacket, String> {
    let node = usize::try_from(need_u64(obj, "node", op)?)
        .map_err(|_| format!("{op}: \"node\" out of range"))?;
    Ok(InjectPacket {
        node,
        round: opt_u64(obj, "round", op)?,
        payload: payload_bytes(need(obj, "payload", op)?, op)?,
    })
}

impl Envelope {
    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// A description of the first problem: invalid JSON, a non-object
    /// document, a missing/unknown `"op"`, or a malformed field.
    pub fn parse(line: &str) -> Result<Envelope, String> {
        let doc = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("request must be a JSON object".into());
        }
        let id = doc.get("id").cloned();
        if let Some(id) = &id {
            if !matches!(id, Json::UInt(_) | Json::Str(_)) {
                return Err("\"id\" must be a string or a non-negative integer".into());
            }
        }
        let op = need_str(&doc, "op", "request")?;
        let req = match op {
            "init" => Request::Init {
                topology: need_str(&doc, "topology", op)?.to_string(),
                protocol: need_str(&doc, "protocol", op)?.to_string(),
                seed: need_u64(&doc, "seed", op)?,
                faults: opt_str(&doc, "faults", op)?,
                horizon: opt_u64(&doc, "horizon", op)?,
                verify: opt_bool(&doc, "verify", op)?,
                trace: opt_bool(&doc, "trace", op)?,
                cd: opt_bool(&doc, "cd", op)?,
                churn: opt_str(&doc, "churn", op)?,
            },
            "add_node" => {
                let items = need(&doc, "neighbors", op)?
                    .as_array()
                    .ok_or_else(|| format!("{op}: \"neighbors\" must be an array"))?;
                let neighbors = items
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|x| usize::try_from(x).ok())
                            .ok_or_else(|| format!("{op}: neighbors must be node ids"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Request::AddNode { neighbors }
            }
            "inject" => {
                // Either a single packet spelled inline or a "packets"
                // batch; normalized to the batch form.
                let packets = if let Some(batch) = doc.get("packets") {
                    let items = batch
                        .as_array()
                        .ok_or_else(|| format!("{op}: \"packets\" must be an array"))?;
                    items
                        .iter()
                        .map(|p| packet_from(p, op))
                        .collect::<Result<Vec<_>, _>>()?
                } else {
                    vec![packet_from(&doc, op)?]
                };
                if packets.is_empty() {
                    return Err(format!("{op}: empty packet batch"));
                }
                Request::Inject { packets }
            }
            "set_faults" => Request::SetFaults {
                faults: need_str(&doc, "faults", op)?.to_string(),
            },
            "tick" => {
                let rounds = opt_u64(&doc, "rounds", op)?.unwrap_or(1);
                if rounds == 0 {
                    return Err(format!("{op}: \"rounds\" must be at least 1"));
                }
                Request::Tick { rounds }
            }
            "run_until_drained" => {
                // A zero budget would build the session without running
                // a round, leaving round 0 open to late injections that
                // never join the election.
                let max_rounds = opt_u64(&doc, "max_rounds", op)?;
                if max_rounds == Some(0) {
                    return Err(format!("{op}: \"max_rounds\" must be at least 1"));
                }
                Request::RunUntilDrained { max_rounds }
            }
            "query" => {
                let origin = opt_u64(&doc, "origin", op)?;
                let seq = opt_u64(&doc, "seq", op)?;
                let packet = match (origin, seq) {
                    (Some(origin), Some(seq)) => Some((
                        origin,
                        u32::try_from(seq).map_err(|_| format!("{op}: \"seq\" out of range"))?,
                    )),
                    (None, None) => None,
                    _ => {
                        return Err(format!(
                            "{op}: packet queries need both \"origin\" and \"seq\""
                        ))
                    }
                };
                Request::Query { packet }
            }
            "snapshot" => Request::Snapshot,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(Envelope { id, req })
    }

    /// Encodes this request as one JSON line (the driver side of the
    /// codec). `inject` always uses the `"packets"` batch form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut m: Vec<(String, Json)> = Vec::new();
        let op = |name: &str| ("op".to_string(), Json::Str(name.to_string()));
        match &self.req {
            Request::Init {
                topology,
                protocol,
                seed,
                faults,
                horizon,
                verify,
                trace,
                cd,
                churn,
            } => {
                m.push(op("init"));
                m.push(("topology".into(), Json::Str(topology.clone())));
                m.push(("protocol".into(), Json::Str(protocol.clone())));
                m.push(("seed".into(), Json::UInt(*seed)));
                if let Some(f) = faults {
                    m.push(("faults".into(), Json::Str(f.clone())));
                }
                if let Some(h) = horizon {
                    m.push(("horizon".into(), Json::UInt(*h)));
                }
                if let Some(v) = verify {
                    m.push(("verify".into(), Json::Bool(*v)));
                }
                if let Some(t) = trace {
                    m.push(("trace".into(), Json::Bool(*t)));
                }
                if let Some(c) = cd {
                    m.push(("cd".into(), Json::Bool(*c)));
                }
                if let Some(c) = churn {
                    m.push(("churn".into(), Json::Str(c.clone())));
                }
            }
            Request::AddNode { neighbors } => {
                m.push(op("add_node"));
                m.push((
                    "neighbors".into(),
                    Json::Arr(neighbors.iter().map(|&v| Json::UInt(v as u64)).collect()),
                ));
            }
            Request::Inject { packets } => {
                m.push(op("inject"));
                let items = packets
                    .iter()
                    .map(|p| {
                        let mut pm = vec![("node".to_string(), Json::UInt(p.node as u64))];
                        if let Some(r) = p.round {
                            pm.push(("round".into(), Json::UInt(r)));
                        }
                        pm.push((
                            "payload".into(),
                            Json::Arr(p.payload.iter().map(|&b| Json::UInt(b.into())).collect()),
                        ));
                        Json::Obj(pm)
                    })
                    .collect();
                m.push(("packets".into(), Json::Arr(items)));
            }
            Request::SetFaults { faults } => {
                m.push(op("set_faults"));
                m.push(("faults".into(), Json::Str(faults.clone())));
            }
            Request::Tick { rounds } => {
                m.push(op("tick"));
                m.push(("rounds".into(), Json::UInt(*rounds)));
            }
            Request::RunUntilDrained { max_rounds } => {
                m.push(op("run_until_drained"));
                if let Some(mr) = max_rounds {
                    m.push(("max_rounds".into(), Json::UInt(*mr)));
                }
            }
            Request::Query { packet } => {
                m.push(op("query"));
                if let Some((origin, seq)) = packet {
                    m.push(("origin".into(), Json::UInt(*origin)));
                    m.push(("seq".into(), Json::UInt((*seq).into())));
                }
            }
            Request::Snapshot => m.push(op("snapshot")),
            Request::Shutdown => m.push(op("shutdown")),
        }
        if let Some(id) = &self.id {
            m.push(("id".to_string(), id.clone()));
        }
        Json::Obj(m)
    }
}

/// Summary statistics block of a `query` response.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyBlock {
    /// Packets with a measured end-to-end latency (delivered to every
    /// node).
    pub count: u64,
    /// Mean latency in rounds.
    pub mean: f64,
    /// Nearest-rank percentiles (absent while nothing is delivered).
    pub p50: Option<u64>,
    /// 90th percentile.
    pub p90: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// Maximum.
    pub max: Option<u64>,
}

/// Per-packet drill-down of a `query` response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketState {
    /// The queried key.
    pub origin: u64,
    /// The queried sequence number.
    pub seq: u32,
    /// Nodes currently holding the packet.
    pub holders: u64,
    /// Whether every node holds it.
    pub delivered: bool,
    /// End-to-end latency, once delivered everywhere.
    pub latency: Option<u64>,
}

/// A decoded response body (the driver side decodes these; the service
/// encodes them).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Any request that failed; the service keeps running.
    Error {
        /// What went wrong.
        error: String,
    },
    /// `init` acknowledged.
    InitAck {
        /// Node count of the built topology.
        n: u64,
        /// True diameter.
        diameter: u64,
        /// True maximum degree.
        max_degree: u64,
        /// Canonical protocol name.
        protocol: String,
        /// Canonical topology spec (re-parseable).
        topology: String,
        /// Canonical fault spec (re-parseable).
        faults: String,
        /// Canonical churn spec (re-parseable) — present only for
        /// dynamic-topology sessions, so frozen-graph transcripts are
        /// byte-identical to the pre-churn protocol.
        churn: Option<String>,
    },
    /// `add_node` acknowledged.
    AddNodeAck {
        /// Id of the new node.
        node: u64,
        /// New node count.
        n: u64,
    },
    /// `inject` acknowledged.
    InjectAck {
        /// Packets accepted from this request.
        accepted: u64,
        /// Total packets injected so far.
        k: u64,
    },
    /// `set_faults` acknowledged.
    SetFaultsAck {
        /// Canonical new fault spec.
        faults: String,
        /// Round at which the swap takes effect.
        round: u64,
    },
    /// `tick` finished.
    TickAck {
        /// Round after the executed budget.
        round: u64,
        /// Minimum per-node delivered count.
        delivered_min: u64,
        /// Whether every injected packet is delivered everywhere.
        drained: bool,
    },
    /// `run_until_drained` finished.
    DrainAck {
        /// Whether the drain condition held within the budget.
        completed: bool,
        /// Round at which the run stopped.
        round: u64,
    },
    /// `query` answered.
    QueryAck {
        /// Current round.
        round: u64,
        /// Whether the engine has started executing rounds.
        started: bool,
        /// Total packets injected.
        k: u64,
        /// Minimum per-node delivered count.
        delivered_min: u64,
        /// Whether every injected packet is delivered everywhere.
        all_delivered: bool,
        /// Canonical current fault spec (re-parseable).
        faults: String,
        /// Verify-stack violations so far (0 when verification is off).
        violations: u64,
        /// Engine channel statistics.
        stats: StatsBlock,
        /// Latency distribution over fully delivered packets.
        latency: LatencyBlock,
        /// Fully delivered packets per executed round.
        throughput: f64,
        /// Per-packet drill-down, when the query named a key.
        packet: Option<PacketState>,
    },
    /// `snapshot` answered.
    SnapshotAck {
        /// Current round.
        round: u64,
        /// Verify-stack violations so far.
        violations: u64,
        /// Trace summary (absent when tracing is off), as the same JSON
        /// object `TraceSummary::to_json` produces.
        trace: Option<Json>,
    },
    /// `shutdown` acknowledged; the service exits after sending this.
    ShutdownAck {
        /// Final round.
        round: u64,
        /// Total verify-stack violations (end-of-session checks
        /// included).
        violations: u64,
    },
}

/// Channel statistics block, mirroring [`radio_net::stats::SimStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsBlock {
    /// Rounds executed.
    pub rounds: u64,
    /// Total transmissions.
    pub transmissions: u64,
    /// Successful receptions.
    pub receptions: u64,
    /// Listener-rounds lost to collisions.
    pub collisions: u64,
    /// Receptions dropped by loss faults.
    pub dropped: u64,
    /// Listener-rounds silenced by jamming.
    pub jammed: u64,
    /// Radio wake-ups.
    pub wakeups: u64,
}

impl StatsBlock {
    /// Projects the engine's stats into the response block.
    #[must_use]
    pub fn of(stats: &radio_net::stats::SimStats) -> Self {
        StatsBlock {
            rounds: stats.rounds,
            transmissions: stats.transmissions,
            receptions: stats.receptions,
            collisions: stats.collisions,
            dropped: stats.dropped,
            jammed: stats.jammed,
            wakeups: stats.wakeups,
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("rounds".into(), Json::UInt(self.rounds)),
            ("transmissions".into(), Json::UInt(self.transmissions)),
            ("receptions".into(), Json::UInt(self.receptions)),
            ("collisions".into(), Json::UInt(self.collisions)),
            ("dropped".into(), Json::UInt(self.dropped)),
            ("jammed".into(), Json::UInt(self.jammed)),
            ("wakeups".into(), Json::UInt(self.wakeups)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(StatsBlock {
            rounds: need_u64(v, "rounds", "stats")?,
            transmissions: need_u64(v, "transmissions", "stats")?,
            receptions: need_u64(v, "receptions", "stats")?,
            collisions: need_u64(v, "collisions", "stats")?,
            dropped: need_u64(v, "dropped", "stats")?,
            jammed: need_u64(v, "jammed", "stats")?,
            wakeups: need_u64(v, "wakeups", "stats")?,
        })
    }
}

fn opt_u64_field(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::UInt)
}

impl LatencyBlock {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::UInt(self.count)),
            ("mean".into(), Json::Num(self.mean)),
            ("p50".into(), opt_u64_field(self.p50)),
            ("p90".into(), opt_u64_field(self.p90)),
            ("p99".into(), opt_u64_field(self.p99)),
            ("max".into(), opt_u64_field(self.max)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(LatencyBlock {
            count: need_u64(v, "count", "latency")?,
            mean: need(v, "mean", "latency")?
                .as_f64()
                .ok_or("latency: \"mean\" must be a number")?,
            p50: opt_u64(v, "p50", "latency")?,
            p90: opt_u64(v, "p90", "latency")?,
            p99: opt_u64(v, "p99", "latency")?,
            max: opt_u64(v, "max", "latency")?,
        })
    }
}

impl PacketState {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("origin".into(), Json::UInt(self.origin)),
            ("seq".into(), Json::UInt(self.seq.into())),
            ("holders".into(), Json::UInt(self.holders)),
            ("delivered".into(), Json::Bool(self.delivered)),
            ("latency".into(), opt_u64_field(self.latency)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PacketState {
            origin: need_u64(v, "origin", "packet")?,
            seq: u32::try_from(need_u64(v, "seq", "packet")?)
                .map_err(|_| "packet: \"seq\" out of range")?,
            holders: need_u64(v, "holders", "packet")?,
            delivered: need(v, "delivered", "packet")?
                .as_bool()
                .ok_or("packet: \"delivered\" must be a boolean")?,
            latency: opt_u64(v, "latency", "packet")?,
        })
    }
}

impl Response {
    /// Encodes this response (plus the echoed `id`) as one JSON line.
    #[must_use]
    pub fn to_json(&self, id: Option<&Json>) -> Json {
        let mut m: Vec<(String, Json)> = Vec::new();
        let op = |name: &str| ("op".to_string(), Json::Str(name.to_string()));
        match self {
            Response::Error { error } => {
                m.push(("ok".into(), Json::Bool(false)));
                m.push(("error".into(), Json::Str(error.clone())));
            }
            Response::InitAck {
                n,
                diameter,
                max_degree,
                protocol,
                topology,
                faults,
                churn,
            } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("init"));
                m.push(("n".into(), Json::UInt(*n)));
                m.push(("diameter".into(), Json::UInt(*diameter)));
                m.push(("max_degree".into(), Json::UInt(*max_degree)));
                m.push(("protocol".into(), Json::Str(protocol.clone())));
                m.push(("topology".into(), Json::Str(topology.clone())));
                m.push(("faults".into(), Json::Str(faults.clone())));
                if let Some(c) = churn {
                    m.push(("churn".into(), Json::Str(c.clone())));
                }
            }
            Response::AddNodeAck { node, n } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("add_node"));
                m.push(("node".into(), Json::UInt(*node)));
                m.push(("n".into(), Json::UInt(*n)));
            }
            Response::InjectAck { accepted, k } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("inject"));
                m.push(("accepted".into(), Json::UInt(*accepted)));
                m.push(("k".into(), Json::UInt(*k)));
            }
            Response::SetFaultsAck { faults, round } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("set_faults"));
                m.push(("faults".into(), Json::Str(faults.clone())));
                m.push(("round".into(), Json::UInt(*round)));
            }
            Response::TickAck {
                round,
                delivered_min,
                drained,
            } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("tick"));
                m.push(("round".into(), Json::UInt(*round)));
                m.push(("delivered_min".into(), Json::UInt(*delivered_min)));
                m.push(("drained".into(), Json::Bool(*drained)));
            }
            Response::DrainAck { completed, round } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("run_until_drained"));
                m.push(("completed".into(), Json::Bool(*completed)));
                m.push(("round".into(), Json::UInt(*round)));
            }
            Response::QueryAck {
                round,
                started,
                k,
                delivered_min,
                all_delivered,
                faults,
                violations,
                stats,
                latency,
                throughput,
                packet,
            } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("query"));
                m.push(("round".into(), Json::UInt(*round)));
                m.push(("started".into(), Json::Bool(*started)));
                m.push(("k".into(), Json::UInt(*k)));
                m.push(("delivered_min".into(), Json::UInt(*delivered_min)));
                m.push(("all_delivered".into(), Json::Bool(*all_delivered)));
                m.push(("faults".into(), Json::Str(faults.clone())));
                m.push(("violations".into(), Json::UInt(*violations)));
                m.push(("stats".into(), stats.to_json()));
                m.push(("latency".into(), latency.to_json()));
                m.push(("throughput".into(), Json::Num(*throughput)));
                if let Some(p) = packet {
                    m.push(("packet".into(), p.to_json()));
                }
            }
            Response::SnapshotAck {
                round,
                violations,
                trace,
            } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("snapshot"));
                m.push(("round".into(), Json::UInt(*round)));
                m.push(("violations".into(), Json::UInt(*violations)));
                m.push(("trace".into(), trace.clone().unwrap_or(Json::Null)));
            }
            Response::ShutdownAck { round, violations } => {
                m.push(("ok".into(), Json::Bool(true)));
                m.push(op("shutdown"));
                m.push(("round".into(), Json::UInt(*round)));
                m.push(("violations".into(), Json::UInt(*violations)));
            }
        }
        if let Some(id) = id {
            m.push(("id".to_string(), id.clone()));
        }
        Json::Obj(m)
    }

    /// Decodes one response line, returning the body and the echoed id.
    ///
    /// # Errors
    ///
    /// A description of the first problem with the line.
    pub fn parse(line: &str) -> Result<(Response, Option<Json>), String> {
        let doc = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let id = doc.get("id").cloned();
        let ok = need(&doc, "ok", "response")?
            .as_bool()
            .ok_or("response: \"ok\" must be a boolean")?;
        if !ok {
            return Ok((
                Response::Error {
                    error: need_str(&doc, "error", "response")?.to_string(),
                },
                id,
            ));
        }
        let op = need_str(&doc, "op", "response")?;
        let resp = match op {
            "init" => Response::InitAck {
                n: need_u64(&doc, "n", op)?,
                diameter: need_u64(&doc, "diameter", op)?,
                max_degree: need_u64(&doc, "max_degree", op)?,
                protocol: need_str(&doc, "protocol", op)?.to_string(),
                topology: need_str(&doc, "topology", op)?.to_string(),
                faults: need_str(&doc, "faults", op)?.to_string(),
                churn: opt_str(&doc, "churn", op)?,
            },
            "add_node" => Response::AddNodeAck {
                node: need_u64(&doc, "node", op)?,
                n: need_u64(&doc, "n", op)?,
            },
            "inject" => Response::InjectAck {
                accepted: need_u64(&doc, "accepted", op)?,
                k: need_u64(&doc, "k", op)?,
            },
            "set_faults" => Response::SetFaultsAck {
                faults: need_str(&doc, "faults", op)?.to_string(),
                round: need_u64(&doc, "round", op)?,
            },
            "tick" => Response::TickAck {
                round: need_u64(&doc, "round", op)?,
                delivered_min: need_u64(&doc, "delivered_min", op)?,
                drained: need(&doc, "drained", op)?
                    .as_bool()
                    .ok_or("tick: \"drained\" must be a boolean")?,
            },
            "run_until_drained" => Response::DrainAck {
                completed: need(&doc, "completed", op)?
                    .as_bool()
                    .ok_or("run_until_drained: \"completed\" must be a boolean")?,
                round: need_u64(&doc, "round", op)?,
            },
            "query" => Response::QueryAck {
                round: need_u64(&doc, "round", op)?,
                started: need(&doc, "started", op)?
                    .as_bool()
                    .ok_or("query: \"started\" must be a boolean")?,
                k: need_u64(&doc, "k", op)?,
                delivered_min: need_u64(&doc, "delivered_min", op)?,
                all_delivered: need(&doc, "all_delivered", op)?
                    .as_bool()
                    .ok_or("query: \"all_delivered\" must be a boolean")?,
                faults: need_str(&doc, "faults", op)?.to_string(),
                violations: need_u64(&doc, "violations", op)?,
                stats: StatsBlock::from_json(need(&doc, "stats", op)?)?,
                latency: LatencyBlock::from_json(need(&doc, "latency", op)?)?,
                throughput: need(&doc, "throughput", op)?
                    .as_f64()
                    .ok_or("query: \"throughput\" must be a number")?,
                packet: match doc.get("packet") {
                    None | Some(Json::Null) => None,
                    Some(p) => Some(PacketState::from_json(p)?),
                },
            },
            "snapshot" => Response::SnapshotAck {
                round: need_u64(&doc, "round", op)?,
                violations: need_u64(&doc, "violations", op)?,
                trace: match doc.get("trace") {
                    None | Some(Json::Null) => None,
                    Some(t) => Some(t.clone()),
                },
            },
            "shutdown" => Response::ShutdownAck {
                round: need_u64(&doc, "round", op)?,
                violations: need_u64(&doc, "violations", op)?,
            },
            other => return Err(format!("unknown response op {other:?}")),
        };
        Ok((resp, id))
    }
}
