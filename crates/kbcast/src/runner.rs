//! The paper's coded protocol as a session-driver
//! [`BroadcastProtocol`] ([`CodedProtocol`]), plus the pieces every
//! run shares: packet placement ([`Workload`]), run knobs
//! ([`RunOptions`]) and the default round cap ([`round_cap`]). Run it
//! with [`crate::session::run_protocol`]:
//!
//! ```
//! use kbcast::runner::{CodedProtocol, RunOptions, Workload};
//! use kbcast::session::run_protocol;
//! use radio_net::topology::Topology;
//!
//! # fn main() -> Result<(), radio_net::error::Error> {
//! let report = run_protocol(
//!     &CodedProtocol::default(),
//!     &Topology::Grid2d { rows: 3, cols: 3 },
//!     &Workload::single_source(9, 4, 5),
//!     7,
//!     RunOptions::default(),
//! )?;
//! assert!(report.success);
//! assert_eq!(report.k, 5);
//! # Ok(())
//! # }
//! ```

use radio_net::dyntopo::ChurnSpec;
use radio_net::error::Error;
use radio_net::faults::FaultSpec;
use radio_net::graph::NodeId;
use radio_net::rng;
use radio_net::session::{Observer, RoundEvents, SessionEnd};
use radio_net::trace::{StageProbe, StageSample};

use crate::config::{check_id_bits, Config, GROUP_SPACING};
use crate::node::{KbcastNode, TxCounts};
use crate::packet::Packet;
use crate::session::{BroadcastProtocol, NetParams};
use crate::stage3::schedule;
use crate::stage4::DissemState;

/// Where the `k` packets initially live: `payloads[i]` is the list of
/// packet payloads held by node `i` at round 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    payloads: Vec<Vec<Vec<u8>>>,
}

impl Workload {
    /// A workload from explicit per-node payload lists.
    #[must_use]
    pub fn new(payloads: Vec<Vec<Vec<u8>>>) -> Self {
        Workload { payloads }
    }

    /// All `k` packets at one node (`source`), with small distinct
    /// payloads.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    #[must_use]
    pub fn single_source(n: usize, source: usize, k: usize) -> Self {
        assert!(source < n, "source {source} out of range for n = {n}");
        let mut payloads = vec![Vec::new(); n];
        payloads[source] = (0..k).map(|i| (i as u32).to_le_bytes().to_vec()).collect();
        Workload { payloads }
    }

    /// `k` packets spread over the nodes round-robin (packet `i` at node
    /// `i % n`).
    #[must_use]
    pub fn round_robin(n: usize, k: usize) -> Self {
        let mut payloads = vec![Vec::new(); n];
        for i in 0..k {
            payloads[i % n].push((i as u32).to_le_bytes().to_vec());
        }
        Workload { payloads }
    }

    /// `k` packets at uniformly random nodes (seeded).
    #[must_use]
    pub fn random(n: usize, k: usize, seed: u64) -> Self {
        use rand::Rng;
        let mut r = rng::stream(seed, rng::salts::WORKLOAD);
        let mut payloads = vec![Vec::new(); n];
        for i in 0..k {
            let node = r.gen_range(0..n);
            payloads[node].push((i as u32).to_le_bytes().to_vec());
        }
        Workload { payloads }
    }

    /// Total packet count `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.payloads.iter().map(Vec::len).sum()
    }

    /// Number of nodes this workload is shaped for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// `true` if the workload covers zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// The packets of node `i`.
    #[must_use]
    pub fn packets_of(&self, i: usize) -> Vec<Packet> {
        self.payloads[i]
            .iter()
            .enumerate()
            .map(|(s, p)| Packet::new(i as u64, s as u32, p.clone()))
            .collect()
    }

    /// The nodes holding packets at round 0, in id order: the initially
    /// awake set of every protocol built from this workload.
    #[must_use]
    pub fn initially_awake(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&i| !self.payloads[i].is_empty())
            .map(NodeId::new)
            .collect()
    }

    /// The raw payloads of node `i` (no packet allocation).
    #[must_use]
    pub fn payloads_of(&self, i: usize) -> &[Vec<u8>] {
        &self.payloads[i]
    }

    /// Checks every payload with [`crate::packet::check_payload`].
    ///
    /// # Errors
    ///
    /// The first payload's refusal.
    pub fn check_payloads(&self) -> Result<(), Error> {
        self.payloads
            .iter()
            .flatten()
            .try_for_each(|p| crate::packet::check_payload(p))
    }

    /// The sorted ground-truth key set of all `k` packets, built
    /// without cloning any payload.
    #[must_use]
    pub fn keys(&self) -> Vec<crate::packet::PacketKey> {
        self.payloads
            .iter()
            .enumerate()
            .flat_map(|(i, ps)| {
                (0..ps.len()).map(move |s| crate::packet::PacketKey {
                    origin: i as u64,
                    seq: s as u32,
                })
            })
            .collect()
    }
}

/// Per-stage round counts, measured at the root.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageRounds {
    /// Stage 1 (leader election) — fixed by the configuration.
    pub leader: u64,
    /// Stage 2 (BFS) — fixed by the configuration.
    pub bfs: u64,
    /// Stage 3 (collection) — until the first alarm-free phase ended.
    pub collect: u64,
    /// Stage 4 (dissemination) — until the last node decoded everything.
    pub disseminate: u64,
}

/// Receptions lost to injected faults (dropped + jammed + crashed +
/// wake-up-suppressed), attributed to the protocol stage in whose
/// rounds they occurred — the per-stage blowup under adversity is only
/// meaningful next to where the faults actually landed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageFaults {
    /// Lost during Stage 1 (leader election).
    pub leader: u64,
    /// Lost during Stage 2 (BFS).
    pub bfs: u64,
    /// Lost during Stage 3 (collection).
    pub collect: u64,
    /// Lost during Stage 4 (dissemination).
    pub disseminate: u64,
}

impl StageFaults {
    /// Total fault-lost receptions across all stages.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.leader + self.bfs + self.collect + self.disseminate
    }
}

/// Optional knobs for a run beyond the protocol configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunOptions {
    /// Override the default round cap (None = the formula in
    /// [`round_cap`]).
    pub max_rounds: Option<u64>,
    /// Run the session under the online verifiers: the
    /// [`radio_net::verify::ModelChecker`] radio-axiom checker plus the
    /// protocol's own invariant checks (see
    /// [`crate::session::BroadcastProtocol::verify_checks`]). Any
    /// violation turns the run into
    /// [`radio_net::error::Error::VerificationFailed`] carrying the
    /// seed. Off by default — and zero-cost then: detail recording is
    /// compiled out of the engine's hot loop.
    pub verify: bool,
    /// Record a structured round trace (see [`radio_net::trace`]): the
    /// driver tees the protocol's observer with a
    /// [`radio_net::trace::TraceCollector`] fed by the protocol's
    /// [`crate::session::BroadcastProtocol::trace_probe`], and the
    /// report carries the frozen
    /// [`radio_net::trace::TraceReport`] (per-stage metrics, span
    /// timeline, ring-buffered samples, JSONL / Chrome-trace
    /// exporters). Off by default — and zero-cost then: the untraced
    /// driver path monomorphizes to the exact pre-trace session loop.
    pub trace: bool,
    /// Dynamic-topology model applied while the protocol runs (see
    /// [`radio_net::dyntopo`]): per-round edge churn, random-waypoint
    /// mobility, or scheduled partition/heal. The default
    /// [`ChurnSpec::None`] keeps the graph frozen: it builds
    /// [`radio_net::BuiltTopology::Static`], which never reshapes and
    /// draws nothing. Parameters are validated when the model is built, before any
    /// engine state exists. Under [`RunOptions::verify`] the model
    /// checker replays an identically-seeded replica of the churn
    /// model, so verification stays sound on a moving graph.
    pub churn: ChurnSpec,
    /// Faults injected into the channel (see [`radio_net::faults`]):
    /// loss, bursty loss, crashes, jamming and wake-up corruption, at
    /// most one model per family. The default (no family) is the
    /// paper's clean channel: its empty [`radio_net::BuiltFaults`] is
    /// not [`radio_net::FaultModel::enabled`], so the engine skips every
    /// fault hook and keeps its word-parallel path. Each seed builds its own models from the spec, validated
    /// before any engine state exists. A session with neither faults
    /// nor churn is *clean*: its protocol checks may also assert the
    /// w.h.p. invariants adversity could break (see
    /// [`crate::session::BroadcastProtocol::verify_checks`]).
    pub faults: FaultSpec,
}

impl RunOptions {
    /// Checks the options before any engine state is built.
    ///
    /// # Errors
    ///
    /// Returns [`radio_net::error::Error::InvalidParameter`] for
    /// `max_rounds == Some(0)` (a zero-round run can never deliver
    /// anything; use `None` for the default cap).
    pub fn validate(&self) -> Result<(), radio_net::error::Error> {
        if self.max_rounds == Some(0) {
            return Err(radio_net::error::Error::InvalidParameter {
                reason: "max_rounds must be at least 1 (use None for the default cap)".into(),
            });
        }
        Ok(())
    }
}

/// A conservative round cap for a run: twice the sum of the scheduled
/// stage lengths with the estimate grown past `4k`.
#[must_use]
pub fn round_cap(cfg: &Config, k: usize) -> u64 {
    let s12 = cfg.stage3_start();
    // Stage 3: phases until the estimate exceeds 4k (plus two slack
    // phases).
    let mut phases = 2u32;
    while schedule::estimate_for_phase(phases, cfg) < 4 * k.max(1) {
        phases += 1;
    }
    let s3 = schedule::phase_start(phases + 1, cfg);
    // Stage 4 for k packets.
    let g = k.div_ceil(cfg.group_size()).max(1) as u64;
    let s4 = (GROUP_SPACING * g + cfg.d_bound as u64 + 1) * cfg.forward_phase_rounds();
    2 * (s12 + s3 + s4) + 64
}

/// The paper's four-stage coded algorithm as a [`BroadcastProtocol`].
///
/// `config: None` derives [`Config::for_network`] from the probed
/// graph; `uncoded: true` forces `group_size_override = Some(1)` (the
/// no-coding-gain ablation of experiment E2).
#[derive(Clone, Copy, Debug, Default)]
pub struct CodedProtocol {
    /// Explicit configuration, or `None` for [`Config::for_network`].
    pub config: Option<Config>,
    /// Disable Stage 4 coding gain (`group_size_override = Some(1)`).
    pub uncoded: bool,
}

impl CodedProtocol {
    fn resolve(&self, net: &NetParams) -> Config {
        let mut cfg = self
            .config
            .unwrap_or_else(|| Config::for_network(net.n, net.diameter, net.max_degree));
        if self.uncoded {
            cfg.group_size_override = Some(1);
        }
        cfg
    }
}

/// The paper's four stages by name, in schedule order: a
/// [`StageClock`] reports a round's stage as an index into this.
const STAGES: [&str; 4] = ["leader", "bfs", "collect", "disseminate"];

/// The stage clock [`StageObserver`] and [`CodedStageProbe`] share.
///
/// Locates the root with a single node scan at the first observed round
/// at or past Stage 1's end (election winners finalize their flag during
/// the first post-Stage-1 poll, so that scan is definitive; under crash
/// faults a later scan could answer differently), then tracks when the
/// root's collection finished in O(1) per round. Collection counts until
/// that finish, which is known by the round it happens in.
#[derive(Debug)]
struct StageClock {
    /// Cached stage boundaries (`stage1_rounds`, `stage3_start`): the
    /// clock runs every round, and deriving them from the configuration
    /// each time is measurable at simulator scale.
    s1_end: u64,
    s3_start: u64,
    root: Option<usize>,
    scanned: bool,
    collect_end: Option<u64>,
}

impl StageClock {
    fn new(cfg: &Config) -> Self {
        StageClock {
            s1_end: cfg.stage1_rounds(),
            s3_start: cfg.stage3_start(),
            root: None,
            scanned: false,
            collect_end: None,
        }
    }

    /// Observes the nodes after `round` and returns the round's stage
    /// (an index into [`STAGES`]).
    fn stage(&mut self, round: u64, nodes: &[KbcastNode]) -> usize {
        if !self.scanned && round >= self.s1_end {
            self.root = nodes.iter().position(KbcastNode::is_root);
            self.scanned = true;
        }
        if self.collect_end.is_none() {
            if let Some(r) = self.root {
                self.collect_end = nodes[r].collection_finished_at();
            }
        }
        if round < self.s1_end {
            0
        } else if round < self.s3_start {
            1
        } else if self.collect_end.is_none_or(|c| round < self.s3_start + c) {
            2
        } else {
            3
        }
    }
}

/// Stage instrumentation for a [`CodedProtocol`] session: the stage
/// clock it shares with [`CodedStageProbe`] (one root scan right after
/// Stage 1, then O(1) per round) plus the fault-lost receptions of each
/// stage. After the run, [`BroadcastProtocol::finish`] reads only the
/// root's collection phase count.
#[derive(Debug)]
pub struct StageObserver {
    clock: StageClock,
    /// Fault-lost receptions per stage, indexed like [`STAGES`].
    lost: [u64; 4],
}

impl Observer<KbcastNode> for StageObserver {
    fn on_round(&mut self, events: &RoundEvents, nodes: &[KbcastNode]) {
        let stage = self.clock.stage(events.round, nodes);
        self.lost[stage] += events.faults.lost_receptions() as u64;
    }
}

/// Stage probe for a [`CodedProtocol`] session (see
/// [`radio_net::trace`]): attributes each round to the paper's four
/// stages on the same stage clock as [`StageObserver`], and reports
/// summed GF(2) decoder rank across all nodes as the protocol-progress
/// gauge — the trace's rank-progress curve is the per-round view of
/// Stage 4's decoding front.
///
/// Ranks only grow on reception ([`DissemState::deliver`]), so the
/// gauge is re-summed — one running total per node — only in rounds
/// with a reception, and reused otherwise. Before Stage 3 starts it is
/// zero without a sum: coded rows exist only once a root has finished
/// Stage 3, so no decoder can hold one earlier.
#[derive(Debug)]
pub struct CodedStageProbe {
    clock: StageClock,
    gauge: Option<u64>,
}

impl CodedStageProbe {
    /// A probe for a session configured with `cfg`.
    #[must_use]
    pub fn new(cfg: Config) -> Self {
        CodedStageProbe {
            clock: StageClock::new(&cfg),
            gauge: None,
        }
    }
}

impl StageProbe<KbcastNode> for CodedStageProbe {
    fn sample(&mut self, events: &RoundEvents, nodes: &[KbcastNode]) -> StageSample {
        let stage = self.clock.stage(events.round, nodes);
        let gauge = match self.gauge {
            _ if events.round < self.clock.s3_start => 0,
            Some(g) if events.receptions == 0 => g,
            _ => nodes
                .iter()
                .filter_map(KbcastNode::dissem_state)
                .map(DissemState::rank_total)
                .sum(),
        };
        self.gauge = Some(gauge);
        StageSample::new(STAGES[stage]).with_gauge(gauge)
    }
}

/// Completion metadata of a [`CodedProtocol`] session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KbcastMeta {
    /// Per-stage breakdown (valid when the run succeeded).
    pub stages: StageRounds,
    /// Collection phases executed by the root.
    pub collection_phases: u32,
    /// Transmissions by message type, summed over all nodes.
    pub tx_by_type: TxCounts,
    /// Fault-lost receptions attributed to the stage they landed in
    /// (all zero in the clean model).
    pub stage_faults: StageFaults,
}

impl BroadcastProtocol for CodedProtocol {
    type Node = KbcastNode;
    type Cd = radio_net::NoCd;
    type Obs = StageObserver;
    type Meta = KbcastMeta;

    fn name(&self) -> &'static str {
        if self.uncoded {
            "uncoded"
        } else {
            "coded"
        }
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<KbcastNode>, Vec<NodeId>) {
        let cfg = self.resolve(net);
        let nodes = (0..net.n)
            .map(|i| {
                KbcastNode::new(
                    cfg,
                    i as u64,
                    workload.packets_of(i),
                    rng::stream(seed, i as u64),
                )
            })
            .collect();
        (nodes, workload.initially_awake())
    }

    fn observer(&self, net: &NetParams) -> StageObserver {
        StageObserver {
            clock: StageClock::new(&self.resolve(net)),
            lost: [0; 4],
        }
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        round_cap(&self.resolve(net), k)
    }

    /// The payloads, and a caller's [`Config`] against the node count.
    fn check_inputs(&self, workload: &Workload) -> Result<(), Error> {
        if let Some(cfg) = &self.config {
            check_id_bits(cfg.id_bits as usize, workload.len())?;
        }
        workload.check_payloads()
    }

    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<KbcastNode>> {
        Box::new(CodedStageProbe::new(self.resolve(net)))
    }

    fn delivered(&self, node: &KbcastNode) -> Vec<crate::packet::PacketKey> {
        node.packets().iter().map(|p| p.key).collect()
    }

    fn verify_checks(
        &self,
        net: &NetParams,
        workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn radio_net::verify::Check<KbcastNode>>> {
        vec![Box::new(crate::verify::StageInvariants::new(
            self.resolve(net),
            net.n,
            workload.keys(),
            clean,
        ))]
    }

    fn finish(&self, obs: StageObserver, nodes: &[KbcastNode], end: &SessionEnd) -> KbcastMeta {
        let clock = &obs.clock;
        let (stages, collection_phases) = match clock.root {
            Some(r) => {
                let collect = clock.collect_end.unwrap_or(0);
                let s123 = clock.s3_start + collect;
                (
                    StageRounds {
                        leader: clock.s1_end,
                        bfs: clock.s3_start - clock.s1_end,
                        collect,
                        disseminate: end.rounds.saturating_sub(s123),
                    },
                    nodes[r].collection_phase().unwrap_or(0),
                )
            }
            None => (StageRounds::default(), 0),
        };
        let mut tx_by_type = TxCounts::default();
        for node in nodes {
            tx_by_type.add(&node.tx_counts());
        }
        let [leader, bfs, collect, disseminate] = obs.lost;
        KbcastMeta {
            stages,
            collection_phases,
            tx_by_type,
            stage_faults: StageFaults {
                leader,
                bfs,
                collect,
                disseminate,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_protocol, SessionReport};
    use radio_net::stats::SimStats;
    use radio_net::topology::Topology;

    fn run(topology: &Topology, workload: &Workload, seed: u64) -> SessionReport<KbcastMeta> {
        run_protocol(
            &CodedProtocol::default(),
            topology,
            workload,
            seed,
            RunOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn workload_constructors() {
        let w = Workload::single_source(5, 2, 4);
        assert_eq!(w.k(), 4);
        assert_eq!(w.packets_of(2).len(), 4);
        assert!(w.packets_of(0).is_empty());

        let w = Workload::round_robin(3, 7);
        assert_eq!(w.k(), 7);
        assert_eq!(w.packets_of(0).len(), 3);
        assert_eq!(w.packets_of(1).len(), 2);

        let w = Workload::random(10, 20, 1);
        assert_eq!(w.k(), 20);
        assert_eq!(w, Workload::random(10, 20, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_source_validates() {
        let _ = Workload::single_source(3, 3, 1);
    }

    #[test]
    fn validate_rejects_a_zero_round_cap() {
        let opts = RunOptions {
            max_rounds: Some(0),
            ..RunOptions::default()
        };
        let err = opts.validate().unwrap_err();
        assert!(err.to_string().contains("max_rounds"), "{err}");
        assert!(RunOptions::default().validate().is_ok());
    }

    #[test]
    fn zero_packets_is_trivial_success() {
        let r = run(
            &Topology::Path { n: 5 },
            &Workload::new(vec![Vec::new(); 5]),
            0,
        );
        assert!(r.success);
        assert_eq!(r.rounds_total, 0);
    }

    #[test]
    fn end_to_end_tiny_path() {
        let r = run(
            &Topology::Path { n: 6 },
            &Workload::single_source(6, 5, 3),
            1,
        );
        assert!(r.success, "report: {r:?}");
        assert_eq!(r.k, 3);
        assert!((r.delivered_fraction - 1.0).abs() < 1e-9);
        let s = r.meta.stages;
        assert_eq!(s.leader + s.bfs + s.collect + s.disseminate, r.rounds_total);
    }

    #[test]
    fn end_to_end_spread_workload_on_grid() {
        let r = run(
            &Topology::Grid2d { rows: 4, cols: 4 },
            &Workload::round_robin(16, 10),
            2,
        );
        assert!(r.success, "report: {r:?}");
        assert!(r.meta.collection_phases <= 3);
    }

    #[test]
    fn single_node_network() {
        let r = run(
            &Topology::Path { n: 1 },
            &Workload::single_source(1, 0, 2),
            0,
        );
        assert!(r.success, "report: {r:?}");
    }

    #[test]
    fn two_node_network() {
        let r = run(&Topology::Path { n: 2 }, &Workload::round_robin(2, 3), 4);
        assert!(r.success, "report: {r:?}");
    }

    #[test]
    fn amortized_metric_uses_total_rounds() {
        let r = SessionReport {
            n: 1,
            k: 10,
            diameter: 1,
            max_degree: 1,
            success: true,
            rounds_total: 50,
            delivered_fraction: 1.0,
            stats: SimStats::new(),
            meta: KbcastMeta::default(),
            trace: None,
        };
        assert!((r.amortized_rounds_per_packet() - 5.0).abs() < 1e-12);
    }
}
