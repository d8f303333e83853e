//! Per-stage protocol invariants, checked online during `--verify`
//! sessions alongside the radio-axiom [`radio_net::verify::ModelChecker`].
//!
//! Where the model checker guards the *channel*, [`StageInvariants`]
//! guards the *protocol*: properties each stage of the paper's
//! algorithm must preserve in every execution, independent of the
//! randomness that drives it. Checked always (faults included):
//!
//! - **BFS tree shape** (Stage 2) — labels are adopted exactly once; a
//!   distance-0 label belongs to a root, and any other label names a
//!   parent whose own final distance is exactly one less.
//! - **Token conservation** (Stage 3) — the root's collected-packet
//!   ledger grows monotonically, never holds a duplicate key, and never
//!   holds a key outside the workload's ground-truth set (no forgery).
//! - **Decoder sanity** (Stage 4) — each group's GF(2) rank is monotone
//!   nondecreasing, never exceeds the group size, and a group reports
//!   decoded only at full rank; a node's decoded-group count is
//!   monotone too.
//! - **End-to-end no-forgery** — every packet any node ends up holding
//!   has a key from the ground-truth set, with no duplicates.
//!
//! Checked only in *clean* runs (no fault model, no churn),
//! because injected adversity can legitimately break them:
//!
//! - **Unique leader** (Stage 1) — exactly one root, and it is the
//!   maximum id among the packet-holding candidates.
//! - **Conservation on completion** — a node claiming all packets
//!   ([`KbcastNode::has_all_packets`]) holds exactly the expected set.
//!
//! Per-round work follows receptions, since protocol state only
//! changes in `receive`, and none of it scans all n nodes. The Stage 2
//! label check walks a shrinking list of the nodes not yet labeled,
//! only in rounds with a reception at or past Stage 1's end (no label
//! exists before). The Stage 3 ledger check visits the roots that walk
//! has found: a root labels itself in the same call that makes it root
//! (`Setup::ensure_bfs`), so even a late root — one that finalizes its
//! election on a poll after Stage 1 because a crash fault held it down
//! — is found in the round it appears. The decoder checks are
//! receiver-driven: they visit only the round's listeners
//! (the [`RoundDetail`] deliveries), because a node's decoder ranks
//! and decoded-group count change only in
//! [`crate::stage4::DissemState::deliver`], which runs only inside
//! that node's `receive`, and a fresh decoder state reads all zeros.
//! A checked coded round thus costs O(receptions · groups), not
//! O(n · groups).

use std::collections::HashSet;

use radio_net::graph::NodeId;
use radio_net::session::{RoundDetail, RoundEvents};
use radio_net::verify::{Check, Violation, ViolationLog};
use radio_net::SessionEnd;

use crate::config::Config;
use crate::dynamic::{arrival_key, Arrival, DynamicNode};
use crate::node::KbcastNode;
use crate::packet::PacketKey;
use protocols::bfs::BfsLabel;

/// The end-of-session holdings audit both checkers run on node `i`:
/// sorts its `keys`, flags every duplicate, then flags each key outside
/// the sorted ground truth `expected` as forged and hands it to
/// `per_key` for the checker's own per-key test. Returns the sorted
/// keys.
fn audit_holdings(
    log: &mut ViolationLog,
    i: usize,
    mut keys: Vec<PacketKey>,
    expected: &[PacketKey],
    mut per_key: impl FnMut(&mut ViolationLog, PacketKey),
) -> Vec<PacketKey> {
    keys.sort_unstable();
    for w in keys.windows(2) {
        if w[0] == w[1] {
            log.record(
                u64::MAX,
                format!("node {i} ended up holding duplicate key {:?}", w[0]),
            );
        }
    }
    for &key in &keys {
        if expected.binary_search(&key).is_err() {
            log.record(
                u64::MAX,
                format!("node {i} ended up holding forged key {key:?}"),
            );
        }
        per_key(log, key);
    }
    keys
}

/// Online checker for the four-stage protocol's invariants (see the
/// [module docs](self)). One instance observes one session.
#[derive(Debug)]
pub struct StageInvariants {
    /// Ground-truth key set, sorted (the driver's `expected_keys`).
    expected: Vec<PacketKey>,
    /// Whether w.h.p.-only invariants (unique leader, conservation on
    /// completion) may be asserted.
    clean: bool,
    scanned: bool,
    /// Stage 1's end: no node holds a BFS label before it.
    s1_end: u64,
    /// Nodes whose BFS label has not been validated yet, ascending.
    /// Labels are write-once, so each node is checked exactly once,
    /// when it leaves this list.
    unlabeled: Vec<u32>,
    /// Roots the label scan has found, ascending, each with its last
    /// seen ledger size. A root labels itself in the same call that
    /// makes it root, so the scan finds it in the round it appears.
    roots: Vec<(usize, usize)>,
    /// Per node: last seen decoded-group count.
    prev_decoded: Vec<u32>,
    /// Per node, per group: last seen decoder rank.
    prev_ranks: Vec<Vec<usize>>,
    log: ViolationLog,
}

impl StageInvariants {
    /// A checker for a session of `n` nodes under `cfg`, verifying
    /// against the sorted ground-truth key set `expected`. `clean`
    /// enables the w.h.p.-only invariants (see the [module docs](self)).
    #[must_use]
    pub fn new(cfg: Config, n: usize, expected: Vec<PacketKey>, clean: bool) -> Self {
        debug_assert!(expected.windows(2).all(|w| w[0] < w[1]));
        StageInvariants {
            expected,
            clean,
            scanned: false,
            s1_end: cfg.stage1_rounds(),
            #[allow(clippy::cast_possible_truncation)]
            unlabeled: (0..n as u32).collect(), // node ids fit u32
            roots: Vec::new(),
            prev_decoded: vec![0; n],
            prev_ranks: vec![Vec::new(); n],
            log: ViolationLog::default(),
        }
    }

    fn expects(&self, key: PacketKey) -> bool {
        self.expected.binary_search(&key).is_ok()
    }

    /// Stage 1 postcondition, one scan right after the stage ends
    /// (leader flags finalize during the first post-Stage-1 poll, and
    /// every candidate is awake from round 0).
    fn check_election(&mut self, round: u64, nodes: &[KbcastNode]) {
        let roots: Vec<u64> = nodes
            .iter()
            .filter(|nd| nd.is_root())
            .map(KbcastNode::id)
            .collect();
        let max_candidate = nodes
            .iter()
            .filter(|nd| nd.is_candidate())
            .map(KbcastNode::id)
            .max();
        match (roots.as_slice(), max_candidate) {
            ([], _) => self
                .log
                .record(round, "no leader elected among the candidates".to_string()),
            ([root], Some(max)) if *root != max => self.log.record(
                round,
                format!("leader {root} is not the maximum candidate id {max}"),
            ),
            ([_], _) => {}
            (many, _) => self
                .log
                .record(round, format!("multiple leaders elected: {many:?}")),
        }
    }

    /// Stage 2 shape: validates each newly labeled node's label once,
    /// against its parent's (final, write-once) label, and records the
    /// new roots among them.
    fn check_bfs(&mut self, round: u64, nodes: &[KbcastNode]) {
        let mut unlabeled = std::mem::take(&mut self.unlabeled);
        unlabeled.retain(|&i| {
            let i = i as usize;
            let node = &nodes[i];
            let Some(label) = node.bfs_label() else {
                return true;
            };
            self.check_label(round, i, label, nodes);
            if node.is_root() {
                let at = self.roots.partition_point(|&(r, _)| r < i);
                self.roots.insert(at, (i, 0));
            }
            false
        });
        self.unlabeled = unlabeled;
    }

    fn check_label(&mut self, round: u64, i: usize, label: BfsLabel, nodes: &[KbcastNode]) {
        match label.parent {
            None => {
                if !nodes[i].is_root() || label.dist != 0 {
                    self.log.record(
                        round,
                        format!(
                            "node {i} has a parentless label (dist {}) but is not the root",
                            label.dist
                        ),
                    );
                }
            }
            Some(p) => {
                let pd = usize::try_from(p)
                    .ok()
                    .and_then(|pi| nodes.get(pi))
                    .and_then(|pn| pn.bfs_label().map(|l| l.dist));
                match pd {
                    None => self
                        .log
                        .record(round, format!("node {i} names unlabeled parent {p}")),
                    Some(pd) if pd + 1 != label.dist => self.log.record(
                        round,
                        format!(
                            "node {i} at BFS distance {} has parent {p} at distance {pd} \
                             (must differ by exactly 1)",
                            label.dist
                        ),
                    ),
                    Some(_) => {}
                }
            }
        }
    }

    /// Stage 3 token conservation: each root's ledger only grows, and
    /// only with fresh ground-truth keys.
    fn check_collection(&mut self, round: u64, nodes: &[KbcastNode]) {
        for r in 0..self.roots.len() {
            let (i, prev) = self.roots[r];
            let Some(collect) = nodes[i].collect_state() else {
                continue;
            };
            let collected = collect.collected();
            if collected.len() < prev {
                self.log.record(
                    round,
                    format!(
                        "root {i} ledger shrank from {prev} to {} packets",
                        collected.len()
                    ),
                );
            }
            if collected.len() != prev {
                // Validate only on change; the ledger is append-only so
                // re-validating old entries would be redundant work.
                let mut keys: Vec<PacketKey> = collected.iter().map(|p| p.key).collect();
                keys.sort_unstable();
                for w in keys.windows(2) {
                    if w[0] == w[1] {
                        self.log.record(
                            round,
                            format!("root {i} collected duplicate key {:?}", w[0]),
                        );
                    }
                }
                for key in keys {
                    if !self.expects(key) {
                        self.log
                            .record(round, format!("root {i} collected forged key {key:?}"));
                    }
                }
                self.roots[r].1 = collected.len();
            }
        }
    }

    /// Stage 4 decoder sanity for this round's listeners: ranks and
    /// decoded counts only grow, and decode happens exactly at full
    /// rank. Nodes that received nothing kept their decoder state, so
    /// visiting the listeners (ascending, like a full scan) is exact.
    fn check_dissemination(&mut self, round: u64, deliveries: &[(u32, u32)], nodes: &[KbcastNode]) {
        for &(listener, _) in deliveries {
            let i = listener as usize;
            let Some(dissem) = nodes[i].dissem_state() else {
                continue;
            };
            let decoded = dissem.decoded_groups();
            if decoded < self.prev_decoded[i] {
                self.log.record(
                    round,
                    format!(
                        "node {i} decoded-group count fell from {} to {decoded}",
                        self.prev_decoded[i]
                    ),
                );
            }
            self.prev_decoded[i] = decoded;
            for gs in dissem.group_status() {
                let slot = gs.group as usize;
                if self.prev_ranks[i].len() <= slot {
                    self.prev_ranks[i].resize(slot + 1, 0);
                }
                if gs.rank < self.prev_ranks[i][slot] {
                    self.log.record(
                        round,
                        format!(
                            "node {i} group {} rank fell from {} to {} \
                             (must be monotone nondecreasing)",
                            gs.group, self.prev_ranks[i][slot], gs.rank
                        ),
                    );
                }
                self.prev_ranks[i][slot] = gs.rank;
                if gs.rank > gs.size {
                    self.log.record(
                        round,
                        format!(
                            "node {i} group {} rank {} exceeds group size {}",
                            gs.group, gs.rank, gs.size
                        ),
                    );
                }
                if gs.decoded && gs.rank != gs.size {
                    self.log.record(
                        round,
                        format!(
                            "node {i} decoded group {} at rank {} of {} \
                             (decode requires full rank)",
                            gs.group, gs.rank, gs.size
                        ),
                    );
                }
            }
        }
    }
}

impl Check<KbcastNode> for StageInvariants {
    fn name(&self) -> &'static str {
        "stage"
    }

    fn on_round(&mut self, events: &RoundEvents, nodes: &[KbcastNode]) {
        if !self.scanned && events.round >= self.s1_end {
            self.scanned = true;
            if self.clean {
                self.check_election(events.round, nodes);
            }
        }
        // The checks below watch state that only changes through
        // receptions; silent rounds are free, and so is Stage 1, where
        // no node holds a label and so no root is known.
        if events.receptions == 0 || events.round < self.s1_end {
            return;
        }
        let round = events.round;
        if !self.unlabeled.is_empty() {
            self.check_bfs(round, nodes);
        }
        self.check_collection(round, nodes);
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[KbcastNode]) {
        self.check_dissemination(detail.round, detail.deliveries, nodes);
    }

    fn on_session_end(&mut self, nodes: &[KbcastNode], _end: &SessionEnd) {
        for (i, node) in nodes.iter().enumerate() {
            let keys = audit_holdings(
                &mut self.log,
                i,
                node.packets().iter().map(|p| p.key).collect(),
                &self.expected,
                |_, _| {},
            );
            if self.clean && node.has_all_packets() && keys != self.expected {
                self.log.record(
                    u64::MAX,
                    format!(
                        "node {i} claims all packets but holds {} of {} expected keys",
                        keys.len(),
                        self.expected.len()
                    ),
                );
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        self.log.stored()
    }

    fn total_violations(&self) -> usize {
        self.log.total()
    }
}

/// Streaming invariants for the dynamic protocol: key
/// conservation is checked **per epoch, as each epoch closes**, rather
/// than once at end-of-run — an unbounded streaming session validates
/// continuously instead of deferring everything to a final audit.
///
/// Checked as the root's epoch history grows (faults included — these
/// are structural, not w.h.p., properties):
///
/// - epoch indices are contiguous from 0;
/// - each record's `k` matches its key list, which contains no
///   duplicates, no marker, and no key outside the arrival-derived
///   ground truth (no forgery);
/// - no key is carried by two epochs (conservation across epochs);
/// - epoch windows tile time: each starts where the previous one ended.
///
/// At session end, every node's holdings are audited (unique, no
/// forgery, stamps cover holdings), and in *clean* runs a node holding
/// the full count must hold exactly the expected set.
///
/// The ground truth grows with every injection the harness reports
/// through [`Check::on_inject`], so a service that learns arrivals one
/// request at a time checks against the same set a fixed schedule
/// would give.
#[derive(Debug)]
pub struct EpochConservation {
    /// Ground-truth key set, sorted (arrival-derived).
    expected: Vec<PacketKey>,
    /// Per-node arrivals keyed so far (see [`arrival_key`]).
    counts: Vec<u32>,
    clean: bool,
    /// Stage 1's end: no node is root before it.
    s1_end: u64,
    root: Option<usize>,
    /// Epoch records already validated.
    seen: usize,
    /// End round of the last validated epoch.
    prev_end: Option<u64>,
    /// Keys carried by any validated epoch.
    carried: HashSet<PacketKey>,
    log: ViolationLog,
}

impl EpochConservation {
    /// A checker verifying a session configured with `cfg` against the
    /// keys of the arrival schedule `arrivals`. `clean` enables the
    /// w.h.p.-only completeness invariant.
    #[must_use]
    pub fn new(cfg: Config, arrivals: &[Arrival], clean: bool) -> Self {
        let mut counts = Vec::new();
        let mut expected: Vec<PacketKey> = arrivals
            .iter()
            .map(|a| arrival_key(&mut counts, a.node))
            .collect();
        expected.sort_unstable();
        EpochConservation {
            expected,
            counts,
            clean,
            s1_end: cfg.stage1_rounds(),
            root: None,
            seen: 0,
            prev_end: None,
            carried: HashSet::new(),
            log: ViolationLog::default(),
        }
    }

    fn expects(&self, key: PacketKey) -> bool {
        self.expected.binary_search(&key).is_ok()
    }

    fn check_epoch(&mut self, round: u64, record: &crate::dynamic::BatchRecord) {
        if record.batch as usize != self.seen {
            self.log.record(
                round,
                format!(
                    "epoch {} closed out of order (expected epoch {})",
                    record.batch, self.seen
                ),
            );
        }
        if record.k != record.keys.len() {
            self.log.record(
                round,
                format!(
                    "epoch {} reports k={} but carries {} keys",
                    record.batch,
                    record.k,
                    record.keys.len()
                ),
            );
        }
        if record.start > record.end {
            self.log.record(
                round,
                format!(
                    "epoch {} window is inverted ({}..{})",
                    record.batch, record.start, record.end
                ),
            );
        }
        if let Some(prev_end) = self.prev_end {
            if record.start != prev_end {
                self.log.record(
                    round,
                    format!(
                        "epoch {} starts at {} against previous end {prev_end}",
                        record.batch, record.start
                    ),
                );
            }
        }
        self.prev_end = Some(record.end);
        for &key in &record.keys {
            if !self.expects(key) {
                self.log.record(
                    round,
                    format!("epoch {} carries forged key {key:?}", record.batch),
                );
            }
            if !self.carried.insert(key) {
                self.log.record(
                    round,
                    format!(
                        "key {key:?} carried twice (again by epoch {})",
                        record.batch
                    ),
                );
            }
        }
        self.seen += 1;
    }
}

impl Check<DynamicNode> for EpochConservation {
    fn name(&self) -> &'static str {
        "epoch"
    }

    fn on_round(&mut self, events: &RoundEvents, nodes: &[DynamicNode]) {
        // The root flag finalizes in a post-Stage-1 poll (a node crashed
        // at Stage 1's end finalizes on recovery); scan from Stage 1's
        // end until it appears, then pin it.
        if self.root.is_none() && events.round >= self.s1_end {
            self.root = nodes.iter().position(DynamicNode::is_root);
        }
        let Some(root) = self.root else {
            return;
        };
        // Validate epochs as they close — streaming conservation.
        let history = nodes[root].history();
        while self.seen < history.len() {
            let record = history[self.seen].clone();
            self.check_epoch(events.round, &record);
        }
    }

    /// Sound because a key can only appear in an epoch after its packet
    /// was injected, and the harness reports the injection first.
    fn on_inject(&mut self, node: NodeId) {
        let key = arrival_key(&mut self.counts, node.index());
        if let Err(pos) = self.expected.binary_search(&key) {
            self.expected.insert(pos, key);
        }
    }

    fn on_session_end(&mut self, nodes: &[DynamicNode], _end: &SessionEnd) {
        for (i, node) in nodes.iter().enumerate() {
            let stamped: HashSet<PacketKey> = node.stamps().iter().map(|&(k, _)| k).collect();
            let keys = audit_holdings(
                &mut self.log,
                i,
                node.delivered().iter().map(|p| p.key).collect(),
                &self.expected,
                |log, key| {
                    if !stamped.contains(&key) {
                        log.record(
                            u64::MAX,
                            format!("node {i} holds key {key:?} without a delivery stamp"),
                        );
                    }
                },
            );
            if self.clean && keys.len() == self.expected.len() && keys != self.expected {
                self.log.record(
                    u64::MAX,
                    format!(
                        "node {i} holds the full packet count but not the expected set \
                         ({} keys)",
                        keys.len()
                    ),
                );
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        self.log.stored()
    }

    fn total_violations(&self) -> usize {
        self.log.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{CodedProtocol, RunOptions, Workload};
    use crate::session::{run_protocol, BroadcastProtocol, NetParams};
    use radio_net::topology::Topology;

    fn verify_opts() -> RunOptions {
        RunOptions {
            verify: true,
            ..RunOptions::default()
        }
    }

    #[test]
    fn clean_grid_run_verifies() {
        let protocol = CodedProtocol::default();
        let workload = Workload::single_source(9, 6, 4);
        let report = run_protocol(
            &protocol,
            &Topology::Grid2d { rows: 3, cols: 3 },
            &workload,
            11,
            verify_opts(),
        )
        .expect("verified run must be violation-free");
        assert!(report.success);
    }

    #[test]
    fn clean_multi_source_run_verifies() {
        let protocol = CodedProtocol::default();
        let workload = Workload::round_robin(12, 9);
        let report = run_protocol(
            &protocol,
            &Topology::Gnp { n: 12, p: 0.35 },
            &workload,
            5,
            verify_opts(),
        )
        .expect("verified run must be violation-free");
        assert!(report.success);
    }

    #[test]
    fn coded_protocol_registers_stage_checks() {
        let protocol = CodedProtocol::default();
        let net = NetParams {
            n: 9,
            diameter: 4,
            max_degree: 4,
        };
        let workload = Workload::single_source(9, 3, 4);
        assert!(!workload.keys().is_empty());
        let checks = protocol.verify_checks(&net, &workload, true);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].name(), "stage");
    }

    /// [`CodedProtocol`] with a tampered checker: its
    /// [`StageInvariants`] gets a ground-truth set missing the last
    /// key, so a *correct* run must trip the no-forgery invariant.
    struct Tampered(CodedProtocol);

    impl BroadcastProtocol for Tampered {
        type Node = KbcastNode;
        type Cd = radio_net::NoCd;
        type Obs = <CodedProtocol as BroadcastProtocol>::Obs;
        type Meta = <CodedProtocol as BroadcastProtocol>::Meta;

        fn name(&self) -> &'static str {
            "tampered"
        }

        fn build(
            &self,
            net: &NetParams,
            workload: &Workload,
            seed: u64,
        ) -> (Vec<KbcastNode>, Vec<radio_net::graph::NodeId>) {
            self.0.build(net, workload, seed)
        }

        fn observer(&self, net: &NetParams) -> Self::Obs {
            self.0.observer(net)
        }

        fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
            self.0.round_cap(net, k)
        }

        fn delivered(&self, node: &KbcastNode) -> Vec<PacketKey> {
            self.0.delivered(node)
        }

        fn verify_checks(
            &self,
            net: &NetParams,
            workload: &Workload,
            clean: bool,
        ) -> Vec<Box<dyn Check<KbcastNode>>> {
            let mut keys = workload.keys();
            keys.pop();
            let cfg = Config::for_network(net.n, net.diameter, net.max_degree);
            vec![Box::new(StageInvariants::new(cfg, net.n, keys, clean))]
        }

        fn finish(&self, obs: Self::Obs, nodes: &[KbcastNode], end: &SessionEnd) -> Self::Meta {
            self.0.finish(obs, nodes, end)
        }
    }

    #[test]
    fn dynamic_protocol_registers_the_epoch_check() {
        use crate::dynamic::{Arrival, DynamicProtocol};
        let arrivals = vec![Arrival {
            round: 0,
            node: 0,
            payload: vec![1],
        }];
        let net = NetParams {
            n: 9,
            diameter: 4,
            max_degree: 4,
        };
        let workload = Workload::new(vec![
            vec![vec![1]],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        ]);
        let dy = DynamicProtocol {
            arrivals: &arrivals,
            config: None,
            horizon: 1_000,
        };
        let checks = dy.verify_checks(&net, &workload, true);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].name(), "epoch");
    }

    #[test]
    fn verified_streaming_run_is_violation_free() {
        use crate::dynamic::{run_streaming, Arrival};
        use radio_net::topology::Topology;
        let mut arrivals = vec![
            Arrival {
                round: 0,
                node: 0,
                payload: vec![1],
            },
            Arrival {
                round: 0,
                node: 3,
                payload: vec![2],
            },
        ];
        for i in 0..4u8 {
            arrivals.push(Arrival {
                round: 2_000 + u64::from(i) * 1_500,
                node: usize::from(i) * 2 + 1,
                payload: vec![0x40, i],
            });
        }
        let r = run_streaming(
            &Topology::Gnp { n: 12, p: 0.4 },
            &arrivals,
            None,
            13,
            800_000,
            verify_opts(),
        )
        .expect("verified streaming run must be violation-free");
        assert!(r.success, "{r:?}");
    }

    /// One round-0 arrival at each of `nodes`, in order.
    fn arrivals_at(nodes: &[usize]) -> Vec<Arrival> {
        nodes
            .iter()
            .map(|&node| Arrival {
                round: 0,
                node,
                payload: vec![1],
            })
            .collect()
    }

    #[test]
    fn epoch_conservation_flags_duplicate_and_forged_keys() {
        use crate::dynamic::BatchRecord;
        // Ground truth: keys (0,0) and (1,0).
        let mut check =
            EpochConservation::new(Config::for_network(2, 1, 1), &arrivals_at(&[0, 1]), true);
        check.check_epoch(
            10,
            &BatchRecord {
                batch: 0,
                k: 1,
                start: 0,
                end: 10,
                keys: vec![PacketKey { origin: 0, seq: 0 }],
            },
        );
        assert_eq!(check.total_violations(), 0);
        // Epoch 1: re-carries key (0,0), forges (9,9), gaps the tiling.
        check.check_epoch(
            20,
            &BatchRecord {
                batch: 1,
                k: 2,
                start: 12,
                end: 20,
                keys: vec![
                    PacketKey { origin: 0, seq: 0 },
                    PacketKey { origin: 9, seq: 9 },
                ],
            },
        );
        let msgs: Vec<&str> = check
            .violations()
            .iter()
            .map(|v| v.message.as_str())
            .collect();
        assert_eq!(check.total_violations(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("carried twice")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("forged key")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("starts at")), "{msgs:?}");
    }

    #[test]
    fn injected_keys_join_the_ground_truth() {
        use crate::dynamic::BatchRecord;
        // Node 2's packet arrives after the checker was built; the epoch
        // carrying it is legitimate only once the harness reported it.
        let epoch = BatchRecord {
            batch: 0,
            k: 2,
            start: 0,
            end: 10,
            keys: vec![
                PacketKey { origin: 0, seq: 0 },
                PacketKey { origin: 2, seq: 0 },
            ],
        };
        let mut told =
            EpochConservation::new(Config::for_network(2, 1, 1), &arrivals_at(&[0]), true);
        told.on_inject(NodeId::new(2));
        told.check_epoch(10, &epoch);
        assert_eq!(told.total_violations(), 0, "{:?}", told.violations());

        let mut untold =
            EpochConservation::new(Config::for_network(2, 1, 1), &arrivals_at(&[0]), true);
        untold.check_epoch(10, &epoch);
        let msgs: Vec<&str> = untold
            .violations()
            .iter()
            .map(|v| v.message.as_str())
            .collect();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("forged key"), "{msgs:?}");
    }

    /// Node 1 receives one unit row of a 4-member group from node 0 in
    /// each round `100 + r`, `r < rows`, reported to a
    /// [`StageInvariants`] through the same hooks a session uses, with
    /// `sabotage` armed on node 1's decoder state just before row
    /// `arm_at` (≥ 1, so the state exists). Returns every violation.
    fn sabotaged_rows(
        sabotage: crate::stage4::disseminate::Sabotage,
        arm_at: usize,
        rows: usize,
    ) -> Vec<Violation> {
        use crate::messages::{CodedMsg, Msg};
        use gf2::bitvec::BitVec;
        use radio_net::engine::Node as _;

        let cfg = Config::for_network(2, 1, 1);
        let mut nodes: Vec<KbcastNode> = (0..2)
            .map(|i| KbcastNode::new(cfg, i, Vec::new(), radio_net::rng::stream(0, i)))
            .collect();
        let mut check = StageInvariants::new(cfg, 2, Vec::new(), false);
        for r in 0..rows {
            if r == arm_at {
                nodes[1]
                    .dissem_state_mut()
                    .expect("row 0 created it")
                    .sabotage = Some(sabotage);
            }
            let round = 100 + r as u64;
            let row = CodedMsg::by_hand(0, 1, 4, BitVec::unit(4, r % 4), vec![vec![0; 8]; 4]);
            nodes[1].receive(round, &Msg::Coded(row));
            let events = RoundEvents {
                round,
                transmissions: 1,
                receptions: 1,
                ..RoundEvents::default()
            };
            check.on_round(&events, &nodes);
            check.on_round_detail(
                &RoundDetail {
                    round,
                    transmitters: &[0],
                    deliveries: &[(1, 0)],
                    collisions: &[],
                    woken: &[],
                    external_wakes: &[],
                    dropped: &[],
                    jammed: &[],
                    crashed: &[],
                    wakeups_suppressed: &[],
                    noise: &[],
                },
                &nodes,
            );
        }
        assert_eq!(check.total_violations(), check.violations().len());
        check.violations().to_vec()
    }

    #[test]
    fn decoder_sabotage_is_caught_at_its_round() {
        use crate::stage4::disseminate::Sabotage;
        let at = |round: u64, message: &str| {
            vec![Violation {
                round,
                message: message.to_string(),
            }]
        };
        // Armed past the last row: the control run is clean.
        assert_eq!(sabotaged_rows(Sabotage::ForgetRows, 6, 6), Vec::new());
        assert_eq!(
            sabotaged_rows(Sabotage::ForgetRows, 2, 3),
            at(
                102,
                "node 1 group 0 rank fell from 2 to 0 (must be monotone nondecreasing)"
            )
        );
        // Stop at the sabotaged row: every later reception would
        // re-report the early decode.
        assert_eq!(
            sabotaged_rows(Sabotage::DecodeEarly, 1, 2),
            at(
                101,
                "node 1 decoded group 0 at rank 2 of 4 (decode requires full rank)"
            )
        );
        // Row 4 arrives after the full-rank decode at row 3.
        assert_eq!(
            sabotaged_rows(Sabotage::UndoDecode, 4, 5),
            at(104, "node 1 decoded-group count fell from 1 to 0")
        );
    }

    #[test]
    fn forged_key_fails_the_driver() {
        let err = run_protocol(
            &Tampered(CodedProtocol::default()),
            &Topology::Grid2d { rows: 3, cols: 3 },
            &Workload::single_source(9, 6, 4),
            11,
            verify_opts(),
        )
        .expect_err("tampered expected set must trip the no-forgery check");
        let radio_net::error::Error::VerificationFailed {
            seed,
            count,
            details,
        } = err
        else {
            panic!("expected VerificationFailed, got {err}");
        };
        assert_eq!(seed, 11);
        assert!(count > 0);
        assert!(details.contains("forged key"), "{details}");
    }
}
