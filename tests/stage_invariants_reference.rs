//! Pins the receiver-driven Stage 4 decoder checks of
//! [`StageInvariants`] to the original full-scan checker, kept below
//! verbatim as a test-only reference: the original walks every node's
//! `group_status()` in every round with a reception, the current one
//! visits only that round's listeners. Both run side by side in one
//! session through a paired [`Check`], and must store the same
//! violations (round and message) and count the same total — on clean
//! sessions across topologies and seeds, and under faults, including a
//! jammed election whose split roots make the reference record
//! violations, so the comparison is not vacuous.

use std::cell::RefCell;
use std::rc::Rc;

use radio_kbcast::kbcast::runner::{KbcastMeta, RunOptions, StageObserver};
use radio_kbcast::kbcast::session::{run_protocol, BroadcastProtocol, NetParams};
use radio_kbcast::kbcast::{
    CodedProtocol, Config, KbcastNode, PacketKey, StageInvariants, Workload,
};
use radio_kbcast::radio_net::dyntopo::ChurnSpec;
use radio_kbcast::radio_net::faults::FaultSpec;
use radio_kbcast::radio_net::graph::NodeId;
use radio_kbcast::radio_net::session::{RoundDetail, RoundEvents};
use radio_kbcast::radio_net::topology::Topology;
use radio_kbcast::radio_net::verify::{Check, Violation};
use radio_kbcast::radio_net::SessionEnd;

/// The original full-scan stage checker, verbatim.
mod reference {
    use radio_kbcast::kbcast::config::Config;
    use radio_kbcast::kbcast::node::KbcastNode;
    use radio_kbcast::kbcast::packet::PacketKey;
    use radio_kbcast::radio_net::session::RoundEvents;
    use radio_kbcast::radio_net::verify::{Check, Violation, ViolationLog};
    use radio_kbcast::radio_net::SessionEnd;

    /// Online checker for the four-stage protocol's invariants (see the
    /// [module docs](self)). One instance observes one session.
    #[derive(Debug)]
    pub struct StageInvariants {
        cfg: Config,
        /// Ground-truth key set, sorted (the driver's `expected_keys`).
        expected: Vec<PacketKey>,
        /// Whether w.h.p.-only invariants (unique leader, conservation on
        /// completion) may be asserted.
        clean: bool,
        scanned: bool,
        /// Per node: BFS label validated (labels are write-once, so each
        /// node is checked exactly once).
        bfs_checked: Vec<bool>,
        /// Per node: last seen root-ledger size (only roots are tracked).
        prev_collected: Vec<usize>,
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
                cfg,
                expected,
                clean,
                scanned: false,
                bfs_checked: vec![false; n],
                prev_collected: vec![0; n],
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

        /// Stage 2 shape: validates a node's label once, against its
        /// parent's (final, write-once) label.
        fn check_bfs(&mut self, round: u64, nodes: &[KbcastNode]) {
            for (i, node) in nodes.iter().enumerate() {
                if self.bfs_checked[i] {
                    continue;
                }
                let Some(label) = node.bfs_label() else {
                    continue;
                };
                self.bfs_checked[i] = true;
                match label.parent {
                    None => {
                        if !node.is_root() || label.dist != 0 {
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
        }

        /// Stage 3 token conservation: the root ledger only grows, and only
        /// with fresh ground-truth keys.
        fn check_collection(&mut self, round: u64, nodes: &[KbcastNode]) {
            for (i, node) in nodes.iter().enumerate() {
                if !node.is_root() {
                    continue;
                }
                let Some(collect) = node.collect_state() else {
                    continue;
                };
                let collected = collect.collected();
                if collected.len() < self.prev_collected[i] {
                    self.log.record(
                        round,
                        format!(
                            "root {i} ledger shrank from {} to {} packets",
                            self.prev_collected[i],
                            collected.len()
                        ),
                    );
                }
                if collected.len() != self.prev_collected[i] {
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
                    self.prev_collected[i] = collected.len();
                }
            }
        }

        /// Stage 4 decoder sanity: ranks and decoded counts only grow, and
        /// decode happens exactly at full rank.
        fn check_dissemination(&mut self, round: u64, nodes: &[KbcastNode]) {
            for (i, node) in nodes.iter().enumerate() {
                let Some(dissem) = node.dissem_state() else {
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
            if !self.scanned && events.round >= self.cfg.stage1_rounds() {
                self.scanned = true;
                if self.clean {
                    self.check_election(events.round, nodes);
                }
            }
            // Everything below watches state that only changes through
            // receptions; silent rounds are free.
            if events.receptions == 0 {
                return;
            }
            let round = events.round;
            self.check_bfs(round, nodes);
            self.check_collection(round, nodes);
            self.check_dissemination(round, nodes);
        }

        fn on_session_end(&mut self, nodes: &[KbcastNode], _end: &SessionEnd) {
            for (i, node) in nodes.iter().enumerate() {
                let mut keys: Vec<PacketKey> = node.packets().iter().map(|p| p.key).collect();
                keys.sort_unstable();
                for w in keys.windows(2) {
                    if w[0] == w[1] {
                        self.log.record(
                            u64::MAX,
                            format!("node {i} ended up holding duplicate key {:?}", w[0]),
                        );
                    }
                }
                for &key in &keys {
                    if !self.expects(key) {
                        self.log.record(
                            u64::MAX,
                            format!("node {i} ended up holding forged key {key:?}"),
                        );
                    }
                }
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
}

/// Stored violations and total of one checker.
type Outcome = (Vec<Violation>, usize);

/// What the paired check saw by session end: `(current, reference)`.
type Shared = Rc<RefCell<Option<(Outcome, Outcome)>>>;

/// Runs the current and the reference checker on the same session and
/// hands both outcomes to the test at session end. It reports no
/// violations itself, so the driver lets the session finish either way.
///
/// It also notes the late roots: nodes that are root at session end
/// but were not at the first round past Stage 1, when the stage clock
/// takes its one root scan.
struct Paired {
    current: StageInvariants,
    reference: reference::StageInvariants,
    out: Shared,
    s1_end: u64,
    roots_at_scan: Option<Vec<usize>>,
    late_roots: Rc<RefCell<Vec<usize>>>,
}

fn roots(nodes: &[KbcastNode]) -> Vec<usize> {
    (0..nodes.len()).filter(|&i| nodes[i].is_root()).collect()
}

impl Check<KbcastNode> for Paired {
    fn name(&self) -> &'static str {
        "paired"
    }

    fn on_round(&mut self, events: &RoundEvents, nodes: &[KbcastNode]) {
        if self.roots_at_scan.is_none() && events.round >= self.s1_end {
            self.roots_at_scan = Some(roots(nodes));
        }
        self.current.on_round(events, nodes);
        self.reference.on_round(events, nodes);
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[KbcastNode]) {
        self.current.on_round_detail(detail, nodes);
        self.reference.on_round_detail(detail, nodes);
    }

    fn on_session_end(&mut self, nodes: &[KbcastNode], end: &SessionEnd) {
        self.current.on_session_end(nodes, end);
        self.reference.on_session_end(nodes, end);
        let outcome = |c: &dyn Check<KbcastNode>| (c.violations().to_vec(), c.total_violations());
        *self.out.borrow_mut() = Some((outcome(&self.current), outcome(&self.reference)));
        let scanned = self.roots_at_scan.take().unwrap_or_default();
        *self.late_roots.borrow_mut() = roots(nodes)
            .into_iter()
            .filter(|r| !scanned.contains(r))
            .collect();
    }

    fn on_inject(&mut self, node: NodeId) {
        self.current.on_inject(node);
        self.reference.on_inject(node);
    }

    fn violations(&self) -> &[Violation] {
        &[]
    }
}

/// [`CodedProtocol`] whose only stage check is a [`Paired`] one.
struct Differential {
    inner: CodedProtocol,
    out: Shared,
    late_roots: Rc<RefCell<Vec<usize>>>,
    /// A node whose packets the checkers' ground truth leaves out.
    forget_origin: Option<u64>,
}

impl BroadcastProtocol for Differential {
    type Node = KbcastNode;
    type Cd = radio_kbcast::radio_net::NoCd;
    type Obs = StageObserver;
    type Meta = KbcastMeta;

    fn name(&self) -> &'static str {
        "differential"
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<KbcastNode>, Vec<NodeId>) {
        self.inner.build(net, workload, seed)
    }

    fn observer(&self, net: &NetParams) -> StageObserver {
        self.inner.observer(net)
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        self.inner.round_cap(net, k)
    }

    fn delivered(&self, node: &KbcastNode) -> Vec<PacketKey> {
        self.inner.delivered(node)
    }

    fn verify_checks(
        &self,
        net: &NetParams,
        workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn Check<KbcastNode>>> {
        let cfg = Config::for_network(net.n, net.diameter, net.max_degree);
        let mut keys = workload.keys();
        keys.retain(|k| Some(k.origin) != self.forget_origin);
        vec![Box::new(Paired {
            current: StageInvariants::new(cfg, net.n, keys.clone(), clean),
            reference: reference::StageInvariants::new(cfg, net.n, keys, clean),
            out: Rc::clone(&self.out),
            s1_end: cfg.stage1_rounds(),
            roots_at_scan: None,
            late_roots: Rc::clone(&self.late_roots),
        })]
    }

    fn finish(&self, obs: StageObserver, nodes: &[KbcastNode], end: &SessionEnd) -> KbcastMeta {
        self.inner.finish(obs, nodes, end)
    }
}

/// Runs one verified session under both checkers, asserts they agree,
/// and returns the reference's total violation count.
fn compare(topology: &Topology, workload: &Workload, seed: u64, options: RunOptions) -> usize {
    let (reference, _) = compare_forgetting(topology, workload, seed, options, None);
    reference.1
}

/// [`compare`] with the packets of `forget_origin` left out of the
/// ground truth; returns the reference's outcome and the session's late
/// roots.
fn compare_forgetting(
    topology: &Topology,
    workload: &Workload,
    seed: u64,
    options: RunOptions,
    forget_origin: Option<u64>,
) -> (Outcome, Vec<usize>) {
    let protocol = Differential {
        inner: CodedProtocol::default(),
        out: Rc::default(),
        late_roots: Rc::default(),
        forget_origin,
    };
    let options = RunOptions {
        verify: true,
        ..options
    };
    let report = run_protocol(&protocol, topology, workload, seed, options)
        .unwrap_or_else(|e| panic!("{topology} seed {seed}: {e}"));
    let ((current, current_total), (reference, reference_total)) =
        protocol.out.borrow_mut().take().expect("the session ended");
    assert_eq!(
        current, reference,
        "{topology} seed {seed} (success {})",
        report.success
    );
    assert_eq!(current_total, reference_total, "{topology} seed {seed}");
    let late_roots = protocol.late_roots.take();
    ((reference, reference_total), late_roots)
}

#[test]
fn clean_sessions_agree() {
    let topologies = [
        Topology::Grid2d { rows: 6, cols: 6 },
        Topology::Path { n: 12 },
        Topology::Gnp { n: 40, p: 0.15 },
        Topology::Star { n: 16 },
    ];
    for topology in &topologies {
        let n = topology.build(0).expect("topology builds").len();
        for seed in 0..3 {
            for workload in [
                Workload::random(n, 24, seed),
                Workload::single_source(n, 0, 9),
            ] {
                let total = compare(topology, &workload, seed, RunOptions::default());
                assert_eq!(total, 0, "{topology} seed {seed}: clean run violated");
            }
        }
    }
}

#[test]
fn faulted_and_churned_sessions_agree() {
    let topology = Topology::Grid2d { rows: 8, cols: 8 };
    let specs = [
        "uniform:rate=0.15",
        "ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9",
        "crash:frac=0.25,from=0,until=2000,down=1000",
        "jam:budget=200",
        "wakeup:rate=0.5",
    ];
    for spec in specs {
        let faults: FaultSpec = spec.parse().expect("fault spec parses");
        for seed in 0..2 {
            let options = RunOptions {
                faults,
                ..RunOptions::default()
            };
            compare(&topology, &Workload::random(64, 16, seed), seed, options);
        }
    }
    let churn: ChurnSpec = "edge:rho=0.08,heal=0.25"
        .parse()
        .expect("churn spec parses");
    for seed in 0..2 {
        let options = RunOptions {
            churn,
            ..RunOptions::default()
        };
        compare(&topology, &Workload::random(64, 16, seed), seed, options);
    }
}

/// A jammed election on `gnp(64, 0.13)` splits into several roots (seed 3 of
/// the full-scale fault sweep): the reference records violations, and the
/// current checker must record the same ones.
#[test]
fn split_election_violations_agree() {
    let faults: FaultSpec = "jam:budget=1000".parse().expect("fault spec parses");
    let options = RunOptions {
        faults,
        ..RunOptions::default()
    };
    let total = compare(
        &Topology::Gnp { n: 64, p: 0.13 },
        &Workload::random(64, 64, 3),
        3,
        options,
    );
    assert!(
        total > 0,
        "the split election no longer trips the reference"
    );
}

/// A node crashed across Stage 1's end finalizes its election on its
/// first poll after recovery: a late root, which the stage clock's one
/// root scan right after Stage 1 cannot see. Leaving the late root's
/// own packets out of the ground truth makes its ledger forged, so both
/// checkers must flag that ledger, in the same round and with the same
/// message; the current checker reaches it only through its label walk.
#[test]
fn late_root_ledgers_agree() {
    let topology = Topology::Grid2d { rows: 8, cols: 8 };
    let net = NetParams::of_graph(&topology.build(0).expect("topology builds"));
    let s1_end = Config::for_network(net.n, net.diameter, net.max_degree).stage1_rounds();
    // A quarter of the nodes crash in Stage 1's last 400 rounds and stay
    // down past its end.
    let faults: FaultSpec = format!(
        "crash:frac=0.25,from={},until={s1_end},down=600",
        s1_end - 400
    )
    .parse()
    .expect("fault spec parses");
    let options = RunOptions {
        faults,
        ..RunOptions::default()
    };
    for seed in [1, 4, 5] {
        let workload = Workload::random(64, 16, seed);
        let (_, late) = compare_forgetting(&topology, &workload, seed, options, None);
        assert!(!late.is_empty(), "seed {seed}: no late root occurred");
        for root in late {
            let ((violations, _), _) =
                compare_forgetting(&topology, &workload, seed, options, Some(root as u64));
            let flagged = format!("root {root} collected forged key");
            assert!(
                violations.iter().any(|v| v.message.starts_with(&flagged)),
                "seed {seed}: late root {root}'s ledger was not checked: {violations:?}"
            );
        }
    }
}
