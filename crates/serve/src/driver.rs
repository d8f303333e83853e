//! The workload driver: builds session scripts, runs them against
//! service instances (in-process or spawned `kbcast-serve` children),
//! and aggregates delivery/throughput/latency reports.
//!
//! A *script* is the session's full request side as JSON lines — the
//! same bytes whether they are piped into a child process, replayed
//! from a recorded file, or fed to an embedded [`Service`]. Scripts are
//! therefore the driver's unit of record/replay: a run can be captured
//! with [`write_script`] and replayed byte-identically later, and the
//! soak tests pin that the resulting [`SessionOutcome`]s are equal
//! across transports, repetitions and `KBCAST_THREADS` settings.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;

use kbcast_bench::traffic::{TrafficPattern, TrafficSpec};
use radio_net::topology::Topology;

use crate::json::Json;
use crate::proto::{Envelope, InjectPacket, LatencyBlock, Request, Response, StatsBlock};
use crate::service::Service;

/// A mid-run fault flip: at engine round `at`, switch to `spec`; after
/// `recover` more rounds (when set), switch back to `none`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultFlip {
    /// The fault spec to switch to ([`radio_net::faults::FaultSpec`]
    /// grammar).
    pub spec: String,
    /// Engine round of the flip.
    pub at: u64,
    /// Rounds to keep the faulty model before flipping back to `none`
    /// (`None` = leave it in place).
    pub recover: Option<u64>,
}

/// A generated heavy-traffic workload, fully determined by its fields.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Topology spec ([`Topology`] grammar).
    pub topology: String,
    /// Streaming protocol name (`stream-seq`).
    pub protocol: String,
    /// Session seed.
    pub seed: u64,
    /// Offered load in packets per round (network-wide), Poisson.
    pub lambda: f64,
    /// Arrival-generation window in rounds.
    pub window: u64,
    /// Optional mid-run fault flip.
    pub flip: Option<FaultFlip>,
    /// Round budget for the final drain.
    pub drain_rounds: u64,
    /// Run the service's verify stack.
    pub verify: bool,
    /// Packets per `inject` request (batching amortizes the protocol
    /// overhead for million-packet workloads).
    pub batch: usize,
    /// Dynamic-topology spec for the session
    /// ([`radio_net::dyntopo::ChurnSpec`] grammar); `None` = frozen
    /// graph.
    pub churn: Option<String>,
}

impl WorkloadSpec {
    /// Builds the session script for this workload: `init`, batched
    /// `inject`s (the whole schedule is queued up front), the optional
    /// fault flip bracketed by exact `tick`s, a bounded
    /// `run_until_drained`, a final `query`, `shutdown`.
    ///
    /// # Errors
    ///
    /// A description of the invalid field (unparseable topology,
    /// rejected traffic parameters, a flip at round 0, ...).
    pub fn script(&self) -> Result<Vec<String>, String> {
        let topo = Topology::from_str(&self.topology).map_err(|e| e.to_string())?;
        let n = topo.build(self.seed).map_err(|e| e.to_string())?.len();
        let traffic = TrafficSpec {
            pattern: TrafficPattern::Poisson {
                lambda: self.lambda,
            },
            window: self.window,
        };
        let arrivals = traffic.generate(n, self.seed).map_err(|e| e.to_string())?;
        if let Some(flip) = &self.flip {
            if flip.at == 0 {
                return Err("the fault flip must happen after round 0".into());
            }
        }
        let mut lines = Vec::new();
        let mut push = |req: Request| {
            lines.push(Envelope { id: None, req }.to_json().to_string());
        };
        push(Request::Init {
            topology: self.topology.clone(),
            protocol: self.protocol.clone(),
            seed: self.seed,
            faults: Some("none".into()),
            horizon: None,
            verify: Some(self.verify),
            trace: Some(false),
            cd: None,
            churn: self.churn.clone(),
        });
        let batch = self.batch.max(1);
        for chunk in arrivals.chunks(batch) {
            push(Request::Inject {
                packets: chunk
                    .iter()
                    .map(|a| InjectPacket {
                        node: a.node,
                        round: Some(a.round),
                        payload: a.payload.clone(),
                    })
                    .collect(),
            });
        }
        if let Some(flip) = &self.flip {
            push(Request::Tick { rounds: flip.at });
            push(Request::SetFaults {
                faults: flip.spec.clone(),
            });
            if let Some(recover) = flip.recover {
                push(Request::Tick {
                    rounds: recover.max(1),
                });
                push(Request::SetFaults {
                    faults: "none".into(),
                });
            }
        }
        push(Request::RunUntilDrained {
            max_rounds: Some(self.drain_rounds),
        });
        push(Request::Query { packet: None });
        push(Request::Shutdown);
        Ok(lines)
    }
}

/// How the driver talks to a service.
pub enum Transport {
    /// An embedded [`Service`] — no process boundary; useful as the
    /// ground truth the child transport is compared against.
    InProcess(Box<Service>),
    /// A spawned `kbcast-serve` child over its stdin/stdout pipes.
    Child {
        /// The child process (killed on drop via [`Transport::close`]).
        child: Child,
        /// Its stdin.
        stdin: std::process::ChildStdin,
        /// Its stdout, buffered for line reads.
        stdout: BufReader<std::process::ChildStdout>,
    },
}

impl Transport {
    /// An embedded service.
    #[must_use]
    pub fn in_process() -> Self {
        Transport::InProcess(Box::default())
    }

    /// Spawns `program` (a `kbcast-serve` binary) with piped
    /// stdin/stdout.
    ///
    /// # Errors
    ///
    /// Any spawn failure, or missing stdio handles.
    pub fn spawn(program: &Path) -> Result<Self, String> {
        let mut child = Command::new(program)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", program.display()))?;
        let stdin = child.stdin.take().ok_or("child stdin missing")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("child stdout missing")?);
        Ok(Transport::Child {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and returns the raw response line.
    ///
    /// # Errors
    ///
    /// Pipe failures or an early child exit.
    pub fn request_line(&mut self, line: &str) -> Result<String, String> {
        match self {
            Transport::InProcess(service) => Ok(service.handle_line(line)),
            Transport::Child { stdin, stdout, .. } => {
                writeln!(stdin, "{line}").map_err(|e| format!("writing to service: {e}"))?;
                stdin
                    .flush()
                    .map_err(|e| format!("flushing to service: {e}"))?;
                let mut resp = String::new();
                let read = stdout
                    .read_line(&mut resp)
                    .map_err(|e| format!("reading from service: {e}"))?;
                if read == 0 {
                    return Err("service exited before answering".into());
                }
                Ok(resp.trim_end().to_string())
            }
        }
    }

    /// Tears the transport down (waits for / kills the child).
    pub fn close(&mut self) {
        if let Transport::Child { child, .. } = self {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.close();
    }
}

/// What one session ended up delivering — the driver's unit of
/// comparison for determinism and cross-transport checks.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionOutcome {
    /// Packets injected.
    pub k: u64,
    /// Final engine round.
    pub round: u64,
    /// Whether every packet reached every node.
    pub all_delivered: bool,
    /// Verify-stack violations (0 when verification was off).
    pub violations: u64,
    /// Final latency distribution.
    pub latency: LatencyBlock,
    /// Fully delivered packets per executed round.
    pub throughput: f64,
    /// Final channel statistics.
    pub stats: StatsBlock,
}

/// Runs a script over a transport, checking every response and
/// extracting the final `query` as the session outcome. When `record`
/// is given, every request line is appended to it (the script side of
/// record/replay).
///
/// # Errors
///
/// The first transport failure, error response, or malformed response
/// line — prefixed with the offending request.
pub fn run_script(
    transport: &mut Transport,
    script: &[String],
    mut record: Option<&mut Vec<String>>,
) -> Result<SessionOutcome, String> {
    let mut last_query: Option<SessionOutcome> = None;
    let mut shutdown_violations: Option<u64> = None;
    for line in script {
        if let Some(rec) = record.as_deref_mut() {
            rec.push(line.clone());
        }
        let resp_line = transport
            .request_line(line)
            .map_err(|e| format!("request {line:?}: {e}"))?;
        let (resp, _id) = Response::parse(&resp_line)
            .map_err(|e| format!("request {line:?}: bad response {resp_line:?}: {e}"))?;
        match resp {
            Response::Error { error } => {
                return Err(format!("request {line:?} failed: {error}"));
            }
            Response::QueryAck {
                round,
                k,
                all_delivered,
                violations,
                latency,
                throughput,
                stats,
                ..
            } => {
                last_query = Some(SessionOutcome {
                    k,
                    round,
                    all_delivered,
                    violations,
                    latency,
                    throughput,
                    stats,
                });
            }
            Response::ShutdownAck { violations, .. } => {
                shutdown_violations = Some(violations);
            }
            _ => {}
        }
    }
    let mut outcome = last_query.ok_or("script never queried the session")?;
    // Shutdown runs the end-of-session checks; its count supersedes the
    // mid-run one.
    if let Some(v) = shutdown_violations {
        outcome.violations = v;
    }
    Ok(outcome)
}

/// Aggregate over a fleet of sessions.
#[derive(Clone, Debug, PartialEq)]
pub struct DriveReport {
    /// Per-session outcomes, in session order.
    pub sessions: Vec<SessionOutcome>,
}

impl DriveReport {
    /// Total packets across sessions.
    #[must_use]
    pub fn packets(&self) -> u64 {
        self.sessions.iter().map(|s| s.k).sum()
    }

    /// Whether every session delivered everything with zero violations.
    #[must_use]
    pub fn all_delivered(&self) -> bool {
        self.sessions
            .iter()
            .all(|s| s.all_delivered && s.violations == 0)
    }

    /// Summed sustained throughput (packets per round, across
    /// concurrent sessions).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.sessions.iter().map(|s| s.throughput).sum()
    }

    /// Packet-weighted mean latency across sessions.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        let total: u64 = self.sessions.iter().map(|s| s.latency.count).sum();
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sessions
                .iter()
                .map(|s| s.latency.mean * s.latency.count as f64)
                .sum::<f64>()
                / total as f64
        }
    }

    /// Worst latency across sessions.
    #[must_use]
    pub fn max_latency(&self) -> Option<u64> {
        self.sessions.iter().filter_map(|s| s.latency.max).max()
    }

    /// Human-readable report.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.sessions.iter().enumerate() {
            let _ = writeln!(
                out,
                "session {i}: k={} rounds={} delivered={} violations={} \
                 throughput={:.4} pkt/round mean_latency={:.1} \
                 p50={:?} p90={:?} p99={:?} max={:?}",
                s.k,
                s.round,
                s.all_delivered,
                s.violations,
                s.throughput,
                s.latency.mean,
                s.latency.p50,
                s.latency.p90,
                s.latency.p99,
                s.latency.max,
            );
        }
        let _ = writeln!(
            out,
            "total: sessions={} packets={} delivered={} throughput={:.4} pkt/round \
             mean_latency={:.1} max_latency={:?}",
            self.sessions.len(),
            self.packets(),
            self.all_delivered(),
            self.throughput(),
            self.mean_latency(),
            self.max_latency(),
        );
        out
    }
}

/// Runs one script per session concurrently (worker count from
/// `KBCAST_THREADS`, like every other harness in this workspace) and
/// aggregates the outcomes. `program` selects the transport: a path
/// spawns one `kbcast-serve` child per session, `None` embeds the
/// service in-process.
///
/// # Errors
///
/// The first failing session, labelled with its index.
pub fn drive_sessions(
    scripts: &[Vec<String>],
    program: Option<&Path>,
) -> Result<DriveReport, String> {
    let outcomes = kbcast_bench::parallel::par_map_indexed(scripts.len(), |i| {
        let mut transport = match program {
            Some(p) => Transport::spawn(p)?,
            None => Transport::in_process(),
        };
        let r = run_script(&mut transport, &scripts[i], None);
        transport.close();
        r.map_err(|e| format!("session {i}: {e}"))
    });
    let sessions = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(DriveReport { sessions })
}

/// Reads a recorded script (one request per line, blank lines and `#`
/// comments skipped).
///
/// # Errors
///
/// I/O failures reading `path`.
pub fn read_script(path: &Path) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect())
}

/// Writes a script to `path`, one request per line.
///
/// # Errors
///
/// I/O failures writing `path`.
pub fn write_script(path: &Path, script: &[String]) -> Result<(), String> {
    let mut text = String::with_capacity(script.iter().map(|l| l.len() + 1).sum());
    for line in script {
        text.push_str(line);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Parses a `SPEC@ROUND` or `SPEC@ROUND+RECOVER` flip argument (e.g.
/// `uniform:rate=0.02@5000+4000`).
///
/// # Errors
///
/// A description of the malformed part.
pub fn parse_flip(arg: &str) -> Result<FaultFlip, String> {
    let (spec, when) = arg
        .rsplit_once('@')
        .ok_or("flip must look like SPEC@ROUND or SPEC@ROUND+RECOVER")?;
    radio_net::faults::FaultSpec::from_str(spec).map_err(|e| e.to_string())?;
    let (at, recover) = match when.split_once('+') {
        Some((at, rec)) => (
            at.parse::<u64>().map_err(|e| format!("flip round: {e}"))?,
            Some(
                rec.parse::<u64>()
                    .map_err(|e| format!("flip recovery: {e}"))?,
            ),
        ),
        None => (
            when.parse::<u64>()
                .map_err(|e| format!("flip round: {e}"))?,
            None,
        ),
    };
    Ok(FaultFlip {
        spec: spec.to_string(),
        at,
        recover,
    })
}

/// Convenience for tests and the smoke stage: extracts a named `u64`
/// from a raw response line.
#[must_use]
pub fn response_u64(line: &str, key: &str) -> Option<u64> {
    Json::parse(line).ok()?.get(key)?.as_u64()
}
