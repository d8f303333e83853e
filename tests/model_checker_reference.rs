//! Pins the word-parallel [`ModelChecker`] to the original scalar
//! checker, kept below verbatim as a test-only reference: the original
//! re-derives every round listener by listener, the current one screens
//! clean no-CD rounds word-parallel and hands every other round to the
//! per-listener pass. Both run side by side — in one session through a
//! paired [`Check`], or fed the same fabricated rounds — and must store
//! the same violations (round and message), count the same total and
//! derive the same collision count: on clean sessions, under every
//! fault family and edge churn, for GHK on the CD engine, for the
//! streaming protocol's external wakes, and on fabricated rounds that
//! break each axiom the screen covers, so the comparison is not
//! vacuous.

use std::cell::RefCell;
use std::rc::Rc;

use radio_kbcast::kbcast::baseline::bii::BiiProtocol;
use radio_kbcast::kbcast::dynamic::{Arrival, DynamicProtocol};
use radio_kbcast::kbcast::runner::RunOptions;
use radio_kbcast::kbcast::session::{run_protocol_on_graph, BroadcastProtocol, NetParams};
use radio_kbcast::kbcast::{CodedProtocol, GhkProtocol, PacketKey, Workload};
use radio_kbcast::radio_net::dyntopo::ChurnSpec;
use radio_kbcast::radio_net::engine::{CdModel, Engine};
use radio_kbcast::radio_net::error::Error;
use radio_kbcast::radio_net::faults::{FaultEvents, FaultModel, FaultSpec};
use radio_kbcast::radio_net::graph::{Graph, NodeId};
use radio_kbcast::radio_net::session::{Observer, RoundDetail, RoundEvents, SessionEnd};
use radio_kbcast::radio_net::topology::Topology;
use radio_kbcast::radio_net::trace::StageProbe;
use radio_kbcast::radio_net::verify::{Check, ModelChecker, Violation};
use radio_kbcast::radio_net::{Node, TopologyModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The original scalar model checker, verbatim.
#[allow(dead_code)]
mod reference {
    use radio_kbcast::radio_net::dyntopo::{BuiltTopology, TopologyModel};
    use radio_kbcast::radio_net::engine::Node;
    use radio_kbcast::radio_net::graph::{Graph, NodeId};
    use radio_kbcast::radio_net::session::{RoundDetail, RoundEvents};
    use radio_kbcast::radio_net::verify::{Check, Violation, ViolationLog};

    /// Re-derives every round from its own copy of the graph and asserts
    /// the radio axioms (see the [module docs](self)). Protocol-agnostic:
    /// it never looks at node state, only at the channel trace, so it works
    /// under any [`Node`] and any fault model with zero false positives —
    /// faulted outcomes arrive pre-labelled in the trace and are checked
    /// for consistency rather than flagged.
    #[derive(Debug)]
    pub struct ModelChecker {
        /// The checker's own copy of the adjacency. Under churn (see
        /// `topo`) this is the *replayed per-round snapshot*: the replica
        /// model reshapes it at the top of every `check_round`, so each
        /// round's receptions are re-derived against the graph that round
        /// actually ran on, never a stale one.
        graph: Graph,
        /// An independent replica of the engine's dynamic-topology model
        /// ([`BuiltTopology::Static`] for a frozen graph). Topology models
        /// are deterministic in their own state, so replaying the same
        /// round sequence reproduces the engine's exact graph sequence
        /// without any trace schema change.
        topo: BuiltTopology,
        awake: Vec<bool>,
        /// Per-round generation counter backing the stamp arrays below, so
        /// none of them is cleared between rounds.
        gen: u64,
        /// `stamp[v] == gen` marks `v` as adjacent to ≥1 transmitter.
        stamp: Vec<u64>,
        /// Number of transmitting neighbors of `v` (valid under `stamp`).
        heard: Vec<u32>,
        /// Last transmitting neighbor of `v` (valid under `stamp`).
        from: Vec<u32>,
        /// `tx_mark[v] == gen` marks `v` as a transmitter this round.
        tx_mark: Vec<u64>,
        /// `accounted[v] == gen` marks `v` as having exactly one channel
        /// outcome this round (delivery / collision / drop / jam / …).
        accounted: Vec<u64>,
        /// `delivered_mark[v] == gen` marks `v` as having received.
        delivered_mark: Vec<u64>,
        /// `woken_mark[v] == gen` marks `v` as woken by reception.
        woken_mark: Vec<u64>,
        /// `fault_mark[v] == gen` marks `v` as silenced by a fault (jam or
        /// crash) this round — the two outcomes that can mask a collision.
        fault_mark: Vec<u64>,
        /// `jam_mark[v] == gen` marks `v` as jammed this round (the fault
        /// that reads as collision-noise to a CD listener).
        jam_mark: Vec<u64>,
        /// `crash_mark[v] == gen` marks `v` as crash-silenced this round
        /// (deaf: must not hear collision-noise either).
        crash_mark: Vec<u64>,
        /// `noise_mark[v] == gen` marks `v` as having observed
        /// collision-noise this round (CD engines only).
        noise_mark: Vec<u64>,
        /// Whether the checked engine runs with collision detection
        /// ([`crate::engine::WithCd`]): enables the CD-axiom re-derivation;
        /// when `false`, any reported noise is itself a violation.
        cd: bool,
        /// Listeners adjacent to ≥1 transmitter, rebuilt per round.
        touched: Vec<u32>,
        /// Collisions re-derived from the graph and transmit set alone
        /// (touched non-transmitting listeners with ≥2 transmitting
        /// neighbors and no fault silence), cumulated across rounds and
        /// cross-checked against the engine's own per-round count.
        derived_collisions: u64,
        /// Aggregate events stashed by `on_round` for cross-checking
        /// against the detailed trace.
        pending: Option<RoundEvents>,
        log: ViolationLog,
    }

    impl ModelChecker {
        /// A checker over its own copy of the topology and the initial
        /// awake set — the same two inputs the engine was constructed from.
        ///
        /// # Panics
        ///
        /// Panics if an initially-awake id is out of range.
        #[must_use]
        pub fn new(graph: Graph, initially_awake: impl IntoIterator<Item = NodeId>) -> Self {
            Self::new_with_cd(graph, initially_awake, false)
        }

        /// [`ModelChecker::new`] with the collision-detection capability of
        /// the engine under check made explicit. With `cd = true` the
        /// checker re-derives the CD axiom each round: an awake,
        /// non-transmitting, non-crashed listener must observe
        /// collision-noise iff it heard ≥ 2 masked transmitters or was
        /// jammed. With `cd = false`, any reported noise is a violation.
        ///
        /// # Panics
        ///
        /// Panics if an initially-awake id is out of range.
        #[must_use]
        pub fn new_with_cd(
            graph: Graph,
            initially_awake: impl IntoIterator<Item = NodeId>,
            cd: bool,
        ) -> Self {
            let n = graph.len();
            let mut awake = vec![false; n];
            for id in initially_awake {
                assert!(id.index() < n, "initially-awake id out of range");
                awake[id.index()] = true;
            }
            ModelChecker {
                graph,
                topo: BuiltTopology::Static,
                awake,
                gen: 0,
                stamp: vec![0; n],
                heard: vec![0; n],
                from: vec![0; n],
                tx_mark: vec![0; n],
                accounted: vec![0; n],
                delivered_mark: vec![0; n],
                woken_mark: vec![0; n],
                fault_mark: vec![0; n],
                jam_mark: vec![0; n],
                crash_mark: vec![0; n],
                noise_mark: vec![0; n],
                cd,
                touched: Vec::new(),
                derived_collisions: 0,
                pending: None,
                log: ViolationLog::default(),
            }
        }

        /// [`ModelChecker::new_with_cd`] for an engine under dynamic
        /// topology (see [`crate::dyntopo`]; [`BuiltTopology::Static`] is
        /// the frozen graph): `topo` must be an
        /// *independent replica* of the engine's churn model — same spec,
        /// same seed, same base graph (e.g. a clone taken before the
        /// engine was built, or a second `ChurnSpec::build`). The checker
        /// replays it round by round and re-derives every reception,
        /// collision and CD-noise observation against the round's actual
        /// graph snapshot.
        ///
        /// # Panics
        ///
        /// Panics if an initially-awake id is out of range.
        #[must_use]
        pub fn with_topology(
            graph: Graph,
            initially_awake: impl IntoIterator<Item = NodeId>,
            cd: bool,
            topo: BuiltTopology,
        ) -> Self {
            ModelChecker {
                topo,
                ..Self::new_with_cd(graph, initially_awake, cd)
            }
        }

        /// `true` if no axiom has been violated so far.
        #[must_use]
        pub fn is_clean(&self) -> bool {
            self.log.total() == 0
        }

        /// Total collisions the checker re-derived from the graph and the
        /// transmit sets alone, independently of the engine's own
        /// accounting: a touched, non-transmitting listener with two or
        /// more transmitting neighbors and no fault silence (jam / crash)
        /// must have lost exactly one reception to a collision. Checked
        /// each round against the engine-reported collision list, so after
        /// a clean run this equals `SimStats::collisions`.
        #[must_use]
        pub fn derived_collisions(&self) -> u64 {
            self.derived_collisions
        }

        fn check_round(&mut self, d: &RoundDetail<'_>) {
            // Replay the churn replica first: everything below must be
            // derived against the same per-round snapshot the engine's own
            // reshape hook installed before this round's transmissions
            // resolved.
            if let Some(g) = self.topo.reshape(d.round, &self.graph) {
                self.graph = g;
            }
            let n = self.graph.len();
            let round = d.round;
            self.gen += 1;
            let gen = self.gen;

            // External wakes precede the round. The engine's `wake` is
            // idempotent, so a wake of an already-awake node in the trace
            // is itself an inconsistency.
            for &w in d.external_wakes {
                if w as usize >= n {
                    self.log
                        .record(round, format!("external wake of invalid node {w}"));
                    continue;
                }
                if self.awake[w as usize] {
                    self.log
                        .record(round, format!("external wake of already-awake node {w}"));
                }
                self.awake[w as usize] = true;
            }

            // Transmitters: must be awake, unique, and in range. Their
            // neighborhoods define the touched set and per-listener heard
            // counts this entire round is checked against.
            self.touched.clear();
            for &t in d.transmitters {
                let ti = t as usize;
                if ti >= n {
                    self.log
                        .record(round, format!("invalid transmitter id {t}"));
                    continue;
                }
                if self.tx_mark[ti] == gen {
                    self.log
                        .record(round, format!("node {t} transmitted twice in one round"));
                    continue;
                }
                self.tx_mark[ti] = gen;
                if !self.awake[ti] {
                    self.log
                        .record(round, format!("sleeping node {t} transmitted"));
                }
                for &v in self.graph.neighbors(NodeId::new(ti)) {
                    let vi = v.index();
                    if self.stamp[vi] != gen {
                        self.stamp[vi] = gen;
                        self.heard[vi] = 0;
                        self.touched.push(vi as u32);
                    }
                    self.heard[vi] += 1;
                    self.from[vi] = t;
                }
            }

            // First pass over radio wake-ups just marks them; deliveries
            // below need to know whether a sleeping listener was woken, and
            // the validation pass after that flips the awake bits.
            for &w in d.woken {
                if (w as usize) < n {
                    self.woken_mark[w as usize] = gen;
                } else {
                    self.log.record(round, format!("woken id {w} out of range"));
                }
            }

            for &(l, f) in d.deliveries {
                let li = l as usize;
                if li >= n {
                    self.log
                        .record(round, format!("delivery to invalid node {l}"));
                    continue;
                }
                self.account(round, l, "delivery");
                self.delivered_mark[li] = gen;
                if self.stamp[li] != gen || self.heard[li] != 1 {
                    let heard = if self.stamp[li] == gen {
                        self.heard[li]
                    } else {
                        0
                    };
                    self.log.record(
                        round,
                        format!(
                            "node {l} received but has {heard} transmitting neighbors \
                             (exactly-one axiom)"
                        ),
                    );
                } else if self.from[li] != f {
                    self.log.record(
                        round,
                        format!(
                            "delivery to {l} attributed to {f} but its unique transmitting \
                             neighbor is {}",
                            self.from[li]
                        ),
                    );
                }
                if !self.awake[li] && self.woken_mark[li] != gen {
                    self.log.record(
                        round,
                        format!("sleeping node {l} received without a wake event"),
                    );
                }
            }

            for &l in d.collisions {
                if (l as usize) >= n {
                    self.log
                        .record(round, format!("collision at invalid node {l}"));
                    continue;
                }
                self.account(round, l, "collision");
                let li = l as usize;
                if self.stamp[li] != gen || self.heard[li] < 2 {
                    let heard = if self.stamp[li] == gen {
                        self.heard[li]
                    } else {
                        0
                    };
                    self.log.record(
                        round,
                        format!("collision at {l} with {heard} transmitting neighbors"),
                    );
                }
            }

            for &l in d.dropped {
                if (l as usize) >= n {
                    self.log.record(round, format!("drop at invalid node {l}"));
                    continue;
                }
                self.account(round, l, "drop");
                let li = l as usize;
                if self.stamp[li] != gen || self.heard[li] != 1 {
                    self.log.record(
                        round,
                        format!("drop at {l} without a unique transmitting neighbor"),
                    );
                }
            }

            for &l in d.jammed {
                if (l as usize) >= n {
                    self.log.record(round, format!("jam at invalid node {l}"));
                    continue;
                }
                self.account(round, l, "jam");
                self.fault_mark[l as usize] = gen;
                self.jam_mark[l as usize] = gen;
                if self.stamp[l as usize] != gen {
                    self.log.record(
                        round,
                        format!("jam reported at {l}, which heard no transmitter"),
                    );
                }
            }

            let mut crashed_unique_rx = 0usize;
            for &l in d.crashed {
                if (l as usize) >= n {
                    self.log
                        .record(round, format!("crash silence at invalid node {l}"));
                    continue;
                }
                self.account(round, l, "crash silence");
                let li = l as usize;
                self.fault_mark[li] = gen;
                self.crash_mark[li] = gen;
                if self.stamp[li] != gen {
                    self.log.record(
                        round,
                        format!("crash silence at {l}, which heard no transmitter"),
                    );
                } else if self.heard[li] == 1 {
                    crashed_unique_rx += 1;
                }
            }

            for &l in d.wakeups_suppressed {
                if (l as usize) >= n {
                    self.log
                        .record(round, format!("suppressed wake-up at invalid node {l}"));
                    continue;
                }
                self.account(round, l, "suppressed wake-up");
                let li = l as usize;
                if self.awake[li] {
                    self.log.record(
                        round,
                        format!("wake-up of {l} suppressed but it was already awake"),
                    );
                }
                if self.stamp[li] != gen || self.heard[li] != 1 {
                    self.log.record(
                        round,
                        format!("suppressed wake-up at {l} without a unique transmitter"),
                    );
                }
            }

            // CD noise entries (informational, alongside the outcome
            // partition): each must name an awake, non-transmitting,
            // non-crashed listener that actually heard ≥ 2 masked
            // transmitters or was jammed. Under a no-CD engine the list
            // must be empty. The awake bits are still the pre-round state
            // here (radio wake-ups are applied below), which is exactly
            // right: noise carries no message and cannot wake a sleeper.
            for &l in d.noise {
                let li = l as usize;
                if li >= n {
                    self.log
                        .record(round, format!("collision-noise at invalid node {l}"));
                    continue;
                }
                if !self.cd {
                    self.log.record(
                        round,
                        format!("collision-noise at {l} reported by a no-CD engine"),
                    );
                }
                if self.noise_mark[li] == gen {
                    self.log
                        .record(round, format!("duplicate collision-noise at {l}"));
                    continue;
                }
                self.noise_mark[li] = gen;
                if self.tx_mark[li] == gen {
                    self.log.record(
                        round,
                        format!("half-duplex violated: transmitter {l} heard collision-noise"),
                    );
                }
                if !self.awake[li] {
                    self.log
                        .record(round, format!("sleeping node {l} heard collision-noise"));
                }
                if self.crash_mark[li] == gen {
                    self.log.record(
                        round,
                        format!("crashed (deaf) listener {l} heard collision-noise"),
                    );
                }
                let heard = if self.stamp[li] == gen {
                    self.heard[li]
                } else {
                    0
                };
                if heard < 2 && self.jam_mark[li] != gen {
                    self.log.record(
                        round,
                        format!(
                            "collision-noise at {l} with {heard} transmitting neighbor(s) \
                             and no jam (CD axiom)"
                        ),
                    );
                }
            }

            // Wake-only-on-reception, and the awake set grows only here.
            for &w in d.woken {
                let wi = w as usize;
                if wi >= n {
                    continue;
                }
                if self.delivered_mark[wi] != gen {
                    self.log
                        .record(round, format!("node {w} woken without receiving"));
                }
                if self.awake[wi] {
                    self.log
                        .record(round, format!("node {w} woken but already awake"));
                }
                self.awake[wi] = true;
            }

            // Completeness: every touched, non-transmitting listener must
            // have exactly one recorded outcome. (Uniqueness was enforced
            // by `account` as the lists were scanned.) The same pass
            // re-derives the round's collision count from first principles:
            // ≥2 transmitting neighbors and no fault silence ⇒ collision.
            let mut round_derived = 0usize;
            for idx in 0..self.touched.len() {
                let v = self.touched[idx];
                let vi = v as usize;
                if self.tx_mark[vi] == gen {
                    continue;
                }
                if self.heard[vi] >= 2 && self.fault_mark[vi] != gen {
                    round_derived += 1;
                }
                if self.accounted[vi] != gen {
                    self.log.record(
                        round,
                        format!(
                            "listener {v} heard {} transmitter(s) but has no recorded outcome",
                            self.heard[vi]
                        ),
                    );
                }
                // CD completeness: the noise the axiom demands was actually
                // observed. Safe against the awake bits having been updated
                // by the woken pass above: a woken node received (exactly
                // one transmitter, not jammed), so it never enters here.
                if self.cd
                    && self.awake[vi]
                    && self.crash_mark[vi] != gen
                    && (self.heard[vi] >= 2 || self.jam_mark[vi] == gen)
                    && self.noise_mark[vi] != gen
                {
                    self.log.record(
                        round,
                        format!(
                            "CD listener {v} heard {} transmitter(s){} but no \
                             collision-noise was recorded (CD axiom)",
                            self.heard[vi],
                            if self.jam_mark[vi] == gen {
                                " under jamming"
                            } else {
                                ""
                            }
                        ),
                    );
                }
            }
            self.derived_collisions += round_derived as u64;
            if round_derived != d.collisions.len() {
                self.log.record(
                    round,
                    format!(
                        "collision conservation: derived {round_derived} collision(s) from the \
                         transmit set but the engine reported {}",
                        d.collisions.len()
                    ),
                );
            }

            // Aggregate counters must agree with the trace: every faulted
            // outcome is accounted for exactly once, and none is invented.
            if let Some(ev) = self.pending.take() {
                if ev.round != round {
                    self.log.record(
                        round,
                        format!(
                            "aggregate events are for round {}, trace for {round}",
                            ev.round
                        ),
                    );
                }
                let pairs = [
                    ("transmissions", ev.transmissions, d.transmitters.len()),
                    ("receptions", ev.receptions, d.deliveries.len()),
                    ("collisions", ev.collisions, d.collisions.len()),
                    ("wakeups", ev.wakeups, d.woken.len()),
                    ("dropped", ev.faults.dropped, d.dropped.len()),
                    ("jammed", ev.faults.jammed, d.jammed.len()),
                    ("crashed_rx", ev.faults.crashed_rx, crashed_unique_rx),
                    (
                        "wakeups_suppressed",
                        ev.faults.wakeups_suppressed,
                        d.wakeups_suppressed.len(),
                    ),
                ];
                for (what, aggregate, traced) in pairs {
                    if aggregate != traced {
                        self.log.record(
                            round,
                            format!("{what}: aggregate count {aggregate} != traced {traced}"),
                        );
                    }
                }
            }
        }

        /// Marks `l` as having one channel outcome this round, flagging a
        /// violation if it already had one.
        fn account(&mut self, round: u64, l: u32, what: &str) {
            let li = l as usize;
            if self.tx_mark[li] == self.gen {
                self.log.record(
                    round,
                    format!("half-duplex violated: transmitter {l} also has a {what}"),
                );
            }
            if self.accounted[li] == self.gen {
                self.log.record(
                    round,
                    format!("node {l} has more than one channel outcome ({what} is extra)"),
                );
            }
            self.accounted[li] = self.gen;
        }
    }

    impl<N: Node> Check<N> for ModelChecker {
        fn name(&self) -> &'static str {
            "model"
        }

        fn on_round(&mut self, events: &RoundEvents, _nodes: &[N]) {
            self.pending = Some(*events);
        }

        fn on_round_detail(&mut self, detail: &RoundDetail<'_>, _nodes: &[N]) {
            self.check_round(detail);
        }

        fn violations(&self) -> &[Violation] {
            self.log.stored()
        }

        fn total_violations(&self) -> usize {
            self.log.total()
        }
    }
}

/// Stored violations, total and derived collision count of one checker.
type Outcome = (Vec<Violation>, usize, u64);

/// What the paired check saw by session end: `(current, reference)`,
/// plus the external wakes the session reported.
type Shared = Rc<RefCell<Option<(Outcome, Outcome, usize)>>>;

/// Runs the current and the reference checker on the same rounds and
/// hands both outcomes to the test at session end. It reports no
/// violations itself, so the driver lets the session finish either way.
struct Paired {
    current: ModelChecker,
    reference: reference::ModelChecker,
    external_wakes: usize,
    out: Shared,
}

impl Paired {
    fn outcomes<N: Node>(&self) -> (Outcome, Outcome) {
        (
            (
                Check::<N>::violations(&self.current).to_vec(),
                Check::<N>::total_violations(&self.current),
                self.current.derived_collisions(),
            ),
            (
                Check::<N>::violations(&self.reference).to_vec(),
                Check::<N>::total_violations(&self.reference),
                self.reference.derived_collisions(),
            ),
        )
    }
}

impl<N: Node> Check<N> for Paired {
    fn name(&self) -> &'static str {
        "paired"
    }

    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        self.current.on_round(events, nodes);
        self.reference.on_round(events, nodes);
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        self.external_wakes += detail.external_wakes.len();
        self.current.on_round_detail(detail, nodes);
        self.reference.on_round_detail(detail, nodes);
    }

    fn on_session_end(&mut self, nodes: &[N], end: &SessionEnd) {
        self.current.on_session_end(nodes, end);
        self.reference.on_session_end(nodes, end);
        let (current, reference) = self.outcomes::<N>();
        *self.out.borrow_mut() = Some((current, reference, self.external_wakes));
    }

    fn violations(&self) -> &[Violation] {
        &[]
    }
}

/// `inner` whose only check is a [`Paired`] one, built from the same
/// inputs the driver gives its own [`ModelChecker`]: the graph, the
/// initially awake set and an identically seeded churn replica.
struct Differential<P> {
    inner: P,
    graph: Graph,
    churn: ChurnSpec,
    seed: u64,
    awake: RefCell<Vec<NodeId>>,
    out: Shared,
}

impl<P: BroadcastProtocol> BroadcastProtocol for Differential<P> {
    type Node = P::Node;
    type Cd = P::Cd;
    type Obs = P::Obs;
    type Meta = P::Meta;

    fn name(&self) -> &'static str {
        "differential"
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<P::Node>, Vec<NodeId>) {
        let (nodes, awake) = self.inner.build(net, workload, seed);
        self.awake.borrow_mut().clone_from(&awake);
        (nodes, awake)
    }

    fn observer(&self, net: &NetParams) -> P::Obs {
        self.inner.observer(net)
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        self.inner.round_cap(net, k)
    }

    fn expected_keys(&self, workload: &Workload) -> Vec<PacketKey> {
        self.inner.expected_keys(workload)
    }

    fn check_inputs(&self, workload: &Workload) -> Result<(), Error> {
        self.inner.check_inputs(workload)
    }

    fn delivered(&self, node: &P::Node) -> Vec<PacketKey> {
        self.inner.delivered(node)
    }

    fn drive<F: FaultModel, T: TopologyModel, O: Observer<P::Node>>(
        &self,
        engine: &mut Engine<P::Node, F, P::Cd, T>,
        cap: u64,
        obs: &mut O,
    ) -> SessionEnd {
        self.inner.drive(engine, cap, obs)
    }

    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<P::Node>> {
        self.inner.trace_probe(net)
    }

    fn verify_checks(
        &self,
        _net: &NetParams,
        _workload: &Workload,
        _clean: bool,
    ) -> Vec<Box<dyn Check<P::Node>>> {
        let awake = self.awake.borrow().clone();
        let cd = <P::Cd as CdModel>::ENABLED;
        let replica = || {
            self.churn
                .build(&self.graph, self.seed)
                .expect("churn builds")
        };
        vec![Box::new(Paired {
            current: ModelChecker::with_topology(
                self.graph.clone(),
                awake.iter().copied(),
                cd,
                replica(),
            ),
            reference: reference::ModelChecker::with_topology(
                self.graph.clone(),
                awake,
                cd,
                replica(),
            ),
            external_wakes: 0,
            out: Rc::clone(&self.out),
        })]
    }

    fn finish(&self, obs: P::Obs, nodes: &[P::Node], end: &SessionEnd) -> P::Meta {
        self.inner.finish(obs, nodes, end)
    }
}

/// Runs one verified session of `inner` under both checkers, asserts
/// they agree, and returns the external wakes the session reported.
fn compare<P: BroadcastProtocol>(
    inner: P,
    topology: &Topology,
    workload: &Workload,
    seed: u64,
    options: RunOptions,
) -> usize {
    let graph = topology.build(seed).expect("topology builds");
    let protocol = Differential {
        inner,
        graph: graph.clone(),
        churn: options.churn,
        seed,
        awake: RefCell::default(),
        out: Rc::default(),
    };
    let options = RunOptions {
        verify: true,
        ..options
    };
    run_protocol_on_graph(&protocol, graph, workload, seed, options)
        .unwrap_or_else(|e| panic!("{topology} seed {seed}: {e}"));
    let (current, reference, external_wakes) =
        protocol.out.borrow_mut().take().expect("the session ended");
    assert_eq!(current, reference, "{topology} seed {seed}");
    assert_eq!(reference.1, 0, "{topology} seed {seed}: {:?}", reference.0);
    external_wakes
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
            let workload = Workload::random(n, 24, seed);
            compare(
                CodedProtocol::default(),
                topology,
                &workload,
                seed,
                RunOptions::default(),
            );
            // A single source: everyone else sleeps until its first
            // reception, so the screen sees wake-ups.
            let workload = Workload::single_source(n, 0, 6);
            compare(
                BiiProtocol::default(),
                topology,
                &workload,
                seed,
                RunOptions::default(),
            );
        }
    }
}

#[test]
fn faulted_and_churned_sessions_agree() {
    let topology = Topology::Grid2d { rows: 6, cols: 6 };
    let workload = Workload::random(36, 8, 1);
    let specs = [
        "uniform:rate=0.15",
        "ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9",
        "crash:frac=0.25,from=0,until=2000,down=1000",
        "jam:budget=200",
        "wakeup:rate=0.5",
    ];
    for spec in specs {
        let options = RunOptions {
            faults: spec.parse().expect("fault spec parses"),
            ..RunOptions::default()
        };
        compare(CodedProtocol::default(), &topology, &workload, 1, options);
    }
    // This churned session does not complete; it is cut at 10 000
    // rounds rather than run to its default cap.
    let options = RunOptions {
        churn: "edge:rho=0.08,heal=0.25"
            .parse()
            .expect("churn spec parses"),
        max_rounds: Some(10_000),
        ..RunOptions::default()
    };
    compare(CodedProtocol::default(), &topology, &workload, 1, options);
}

#[test]
fn cd_sessions_agree() {
    let topology = Topology::Grid2d { rows: 6, cols: 6 };
    for spec in [
        "",
        "jam:budget=100",
        "crash:frac=0.2,from=0,until=500,down=200",
    ] {
        let faults: FaultSpec = if spec.is_empty() {
            FaultSpec::default()
        } else {
            spec.parse().expect("fault spec parses")
        };
        for seed in 0..2 {
            let options = RunOptions {
                faults,
                ..RunOptions::default()
            };
            compare(
                GhkProtocol::default(),
                &topology,
                &Workload::random(36, 8, seed),
                seed,
                options,
            );
        }
    }
}

#[test]
fn streaming_external_wakes_agree() {
    // Later arrivals are injected into sleeping nodes through
    // `Engine::wake`, so rounds carry external wakes.
    let topology = Topology::Grid2d { rows: 5, cols: 5 };
    let mut arrivals = vec![Arrival {
        round: 0,
        node: 0,
        payload: vec![1],
    }];
    for i in 0..6u8 {
        arrivals.push(Arrival {
            round: 1 + u64::from(i) * 700,
            node: 24 - 3 * usize::from(i),
            payload: vec![0x40, i],
        });
    }
    let protocol = DynamicProtocol {
        arrivals: &arrivals,
        config: None,
        horizon: 400_000,
    };
    let workload = protocol.initial_workload(25);
    let wakes = compare(protocol, &topology, &workload, 4, RunOptions::default());
    assert!(wakes > 0, "the session must exercise external wakes");
}

/// A node that never acts: fabricated rounds need a node type only to
/// name the [`Check`] impl.
struct Quiet;

impl Node for Quiet {
    type Msg = u32;
    fn poll(&mut self, _round: u64) -> Option<u32> {
        None
    }
    fn receive(&mut self, _round: u64, _msg: &u32) {}
}

/// An empty round `round`.
fn empty(round: u64) -> RoundDetail<'static> {
    RoundDetail {
        round,
        transmitters: &[],
        deliveries: &[],
        collisions: &[],
        woken: &[],
        external_wakes: &[],
        dropped: &[],
        jammed: &[],
        crashed: &[],
        wakeups_suppressed: &[],
        noise: &[],
    }
}

/// A current and a reference checker over `graph` with initially
/// awake `awake`.
fn pair(graph: &Graph, awake: &[usize], cd: bool) -> Paired {
    let awake: Vec<NodeId> = awake.iter().copied().map(NodeId::new).collect();
    Paired {
        current: ModelChecker::new_with_cd(graph.clone(), awake.iter().copied(), cd),
        reference: reference::ModelChecker::new_with_cd(graph.clone(), awake, cd),
        external_wakes: 0,
        out: Rc::default(),
    }
}

/// Feeds one round (with optional aggregate events) to both checkers
/// of `pair`, asserts they agree, and returns the reference's total.
fn feed(pair: &mut Paired, events: Option<RoundEvents>, detail: &RoundDetail<'_>) -> usize {
    let nodes: [Quiet; 0] = [];
    if let Some(ev) = events {
        Check::<Quiet>::on_round(pair, &ev, &nodes);
    }
    Check::<Quiet>::on_round_detail(pair, detail, &nodes);
    let (current, reference) = pair.outcomes::<Quiet>();
    assert_eq!(current, reference, "after round {}", detail.round);
    reference.1
}

/// Feeds `rounds` to a fresh [`pair`] and returns the reference's
/// total.
fn fabricated(
    graph: &Graph,
    awake: &[usize],
    cd: bool,
    rounds: &[(Option<RoundEvents>, RoundDetail<'_>)],
) -> usize {
    let mut pair = pair(graph, awake, cd);
    rounds
        .iter()
        .fold(0, |_, (events, detail)| feed(&mut pair, *events, detail))
}

fn path3() -> Graph {
    Topology::Path { n: 3 }.build(0).expect("path builds")
}

/// Star on 3 nodes: hub 0, leaves 1 and 2.
fn star3() -> Graph {
    Topology::Star { n: 3 }.build(0).expect("star builds")
}

/// Aggregate events matching a clean round's lists.
fn events(d: &RoundDetail<'_>) -> RoundEvents {
    RoundEvents {
        round: d.round,
        transmissions: d.transmitters.len(),
        receptions: d.deliveries.len(),
        collisions: d.collisions.len(),
        wakeups: d.woken.len(),
        ..RoundEvents::default()
    }
}

#[test]
fn fabricated_clean_rounds_agree() {
    let (p, s) = (path3(), star3());
    // One delivery, a collision with wake-ups around it, an external
    // wake whose node transmits in the same round: all clean.
    let delivery = RoundDetail {
        transmitters: &[0],
        deliveries: &[(1, 0)],
        ..empty(0)
    };
    assert_eq!(fabricated(&p, &[0, 1, 2], false, &[(None, delivery)]), 0);
    let collision = RoundDetail {
        transmitters: &[1, 2],
        collisions: &[0],
        ..empty(0)
    };
    assert_eq!(
        fabricated(&s, &[1, 2], false, &[(Some(events(&collision)), collision)]),
        0
    );
    let wake = RoundDetail {
        transmitters: &[0],
        deliveries: &[(1, 0)],
        woken: &[1],
        ..empty(0)
    };
    let relay = RoundDetail {
        external_wakes: &[2],
        transmitters: &[1, 2],
        deliveries: &[(0, 1)],
        ..empty(1)
    };
    let after = RoundDetail {
        transmitters: &[0, 2],
        collisions: &[1],
        ..empty(2)
    };
    assert_eq!(
        fabricated(
            &p,
            &[0],
            false,
            &[
                (Some(events(&wake)), wake),
                (Some(events(&relay)), relay),
                (Some(events(&after)), after)
            ]
        ),
        0
    );
}

#[test]
fn fabricated_violations_agree() {
    let (p, s) = (path3(), star3());
    let all = [0, 1, 2];
    // (name, graph, awake, cd, round) — every one breaks an axiom.
    let cases: Vec<(&str, &Graph, &[usize], bool, RoundDetail<'static>)> = vec![
        (
            "non-neighbor delivery (exactly-one)",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0), (2, 0)],
                ..empty(3)
            },
        ),
        (
            "delivery under two transmitters (exactly-one)",
            &s,
            &all,
            false,
            RoundDetail {
                transmitters: &[1, 2],
                deliveries: &[(0, 2)],
                ..empty(0)
            },
        ),
        (
            "half-duplex",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0, 1],
                deliveries: &[(1, 0)],
                collisions: &[2],
                ..empty(0)
            },
        ),
        (
            "misattributed delivery",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 2)],
                ..empty(1)
            },
        ),
        (
            "missing outcome (partition)",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                ..empty(2)
            },
        ),
        (
            "two outcomes for one listener (partition)",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0)],
                collisions: &[1],
                ..empty(0)
            },
        ),
        (
            "repeated delivery (partition)",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0), (1, 0)],
                ..empty(0)
            },
        ),
        (
            "repeated collision (conservation)",
            &s,
            &all,
            false,
            RoundDetail {
                transmitters: &[1, 2],
                collisions: &[0, 0],
                ..empty(0)
            },
        ),
        (
            "single-transmitter collision",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                collisions: &[1],
                ..empty(0)
            },
        ),
        (
            "unreported collision (conservation)",
            &s,
            &all,
            false,
            RoundDetail {
                transmitters: &[1, 2],
                ..empty(0)
            },
        ),
        (
            "repeated transmitter",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0, 0],
                deliveries: &[(1, 0)],
                ..empty(0)
            },
        ),
        (
            "invalid transmitter",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[7],
                ..empty(0)
            },
        ),
        (
            "invalid delivery",
            &p,
            &all,
            false,
            RoundDetail {
                deliveries: &[(9, 0)],
                ..empty(0)
            },
        ),
        (
            "invalid collision",
            &p,
            &all,
            false,
            RoundDetail {
                collisions: &[9],
                ..empty(0)
            },
        ),
        (
            "invalid woken",
            &p,
            &all,
            false,
            RoundDetail {
                woken: &[9],
                ..empty(0)
            },
        ),
        (
            "sleeping transmitter",
            &p,
            &[0],
            false,
            RoundDetail {
                transmitters: &[2],
                deliveries: &[(1, 2)],
                woken: &[1],
                ..empty(0)
            },
        ),
        (
            "sleeping receiver without a wake event",
            &p,
            &[0],
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0)],
                ..empty(0)
            },
        ),
        (
            "wake without reception",
            &p,
            &[0],
            false,
            RoundDetail {
                woken: &[1],
                ..empty(0)
            },
        ),
        (
            "woken but already awake",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0)],
                woken: &[1],
                ..empty(0)
            },
        ),
        (
            "repeated woken",
            &p,
            &[0],
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0)],
                woken: &[1, 1],
                ..empty(0)
            },
        ),
        (
            "external wake of an awake node",
            &p,
            &all,
            false,
            RoundDetail {
                external_wakes: &[0],
                ..empty(0)
            },
        ),
        (
            "repeated external wake",
            &p,
            &[0],
            false,
            RoundDetail {
                external_wakes: &[1, 1],
                ..empty(0)
            },
        ),
        (
            "invalid external wake",
            &p,
            &[0],
            false,
            RoundDetail {
                external_wakes: &[5],
                ..empty(0)
            },
        ),
        (
            "noise from a no-CD engine",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0, 2],
                collisions: &[1],
                noise: &[1],
                ..empty(0)
            },
        ),
        (
            "drop without a unique transmitter",
            &s,
            &all,
            false,
            RoundDetail {
                transmitters: &[1, 2],
                dropped: &[0],
                ..empty(0)
            },
        ),
        (
            "jam at a listener that heard nothing",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0)],
                jammed: &[2],
                ..empty(0)
            },
        ),
        (
            "crash silence at a listener that heard nothing",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                deliveries: &[(1, 0)],
                crashed: &[2],
                ..empty(0)
            },
        ),
        (
            "suppressed wake-up of an awake node",
            &p,
            &all,
            false,
            RoundDetail {
                transmitters: &[0],
                wakeups_suppressed: &[1],
                ..empty(0)
            },
        ),
        (
            "crashed (deaf) listener heard noise (CD)",
            &p,
            &all,
            true,
            RoundDetail {
                transmitters: &[0, 2],
                crashed: &[1],
                noise: &[1],
                ..empty(0)
            },
        ),
        (
            "jammed CD listener without noise",
            &p,
            &all,
            true,
            RoundDetail {
                transmitters: &[0],
                jammed: &[1],
                ..empty(0)
            },
        ),
        (
            "collision without noise (CD)",
            &s,
            &all,
            true,
            RoundDetail {
                transmitters: &[1, 2],
                collisions: &[0],
                ..empty(0)
            },
        ),
        (
            "noise under one transmitter (CD)",
            &p,
            &all,
            true,
            RoundDetail {
                transmitters: &[0],
                collisions: &[1],
                noise: &[1],
                ..empty(0)
            },
        ),
    ];
    for (name, graph, awake, cd, detail) in cases {
        let total = fabricated(graph, awake, cd, &[(None, detail)]);
        assert!(total > 0, "{name}: the reference must record a violation");
    }

    // Aggregate counters that disagree with the trace, and events
    // stashed for another round.
    let clean = RoundDetail {
        transmitters: &[0],
        deliveries: &[(1, 0)],
        ..empty(4)
    };
    let mut miscounted = events(&clean);
    miscounted.receptions = 2;
    let mut faulted = events(&clean);
    faulted.faults.dropped = 1;
    let mut stale = events(&clean);
    stale.round = 3;
    for ev in [miscounted, faulted, stale] {
        assert!(fabricated(&p, &all, false, &[(Some(ev), clean)]) > 0);
    }
}

#[test]
fn capped_storage_agrees() {
    // The same broken round 100 times: both store the first 32
    // violations and count all of them.
    let broken = RoundDetail {
        transmitters: &[0],
        deliveries: &[(1, 0)],
        collisions: &[1],
        ..empty(0)
    };
    let rounds: Vec<_> = (0..100)
        .map(|r| (None, RoundDetail { round: r, ..broken }))
        .collect();
    assert!(fabricated(&path3(), &[0, 1, 2], false, &rounds) >= 100);
}

/// Owned lists of one fabricated round.
#[derive(Clone, Default)]
struct Lists {
    transmitters: Vec<u32>,
    deliveries: Vec<(u32, u32)>,
    collisions: Vec<u32>,
    woken: Vec<u32>,
    external_wakes: Vec<u32>,
    dropped: Vec<u32>,
    jammed: Vec<u32>,
    crashed: Vec<u32>,
    wakeups_suppressed: Vec<u32>,
    noise: Vec<u32>,
}

impl Lists {
    fn detail(&self, round: u64) -> RoundDetail<'_> {
        RoundDetail {
            round,
            transmitters: &self.transmitters,
            deliveries: &self.deliveries,
            collisions: &self.collisions,
            woken: &self.woken,
            external_wakes: &self.external_wakes,
            dropped: &self.dropped,
            jammed: &self.jammed,
            crashed: &self.crashed,
            wakeups_suppressed: &self.wakeups_suppressed,
            noise: &self.noise,
        }
    }

    fn screenable(&self) -> bool {
        self.dropped.is_empty()
            && self.jammed.is_empty()
            && self.crashed.is_empty()
            && self.wakeups_suppressed.is_empty()
            && self.noise.is_empty()
    }
}

/// The honest outcome of a random round on `g` (awake bits `awake`,
/// updated for the round's wakes), with faults drawn at rate `faults`.
fn honest_round(rng: &mut SmallRng, g: &Graph, awake: &mut [bool], faults: f64) -> Lists {
    let n = g.len();
    let mut l = Lists::default();
    for (v, a) in awake.iter_mut().enumerate() {
        if !*a && rng.gen_bool(0.05) {
            *a = true;
            l.external_wakes.push(v as u32);
        }
    }
    let tx: Vec<bool> = awake.iter().map(|&a| a && rng.gen_bool(0.2)).collect();
    l.transmitters = (0..n as u32).filter(|&v| tx[v as usize]).collect();
    for v in 0..n {
        if tx[v] {
            continue;
        }
        let heard: Vec<u32> = g
            .neighbors(NodeId::new(v))
            .iter()
            .map(|u| u.index() as u32)
            .filter(|&u| tx[u as usize])
            .collect();
        if heard.is_empty() {
            continue;
        }
        let v32 = v as u32;
        if rng.gen_bool(faults) {
            match rng.gen_range(0..2) {
                0 => l.jammed.push(v32),
                _ => l.crashed.push(v32),
            }
        } else if heard.len() >= 2 {
            l.collisions.push(v32);
        } else if rng.gen_bool(faults) {
            l.dropped.push(v32);
        } else if !awake[v] && rng.gen_bool(faults) {
            l.wakeups_suppressed.push(v32);
        } else {
            l.deliveries.push((v32, heard[0]));
            if !awake[v] {
                awake[v] = true;
                l.woken.push(v32);
            }
        }
    }
    l
}

/// One random corruption of `l` on `n` nodes.
fn corrupt(rng: &mut SmallRng, l: &mut Lists, n: usize) {
    let node = |rng: &mut SmallRng| rng.gen_range(0..n as u32 + 1);
    match rng.gen_range(0..14) {
        0 if !l.deliveries.is_empty() => {
            let i = rng.gen_range(0..l.deliveries.len());
            l.deliveries.remove(i);
        }
        1 => {
            let (v, f) = (node(rng), node(rng));
            l.deliveries.push((v, f));
        }
        2 if !l.deliveries.is_empty() => {
            let i = rng.gen_range(0..l.deliveries.len());
            l.deliveries[i].1 = node(rng);
        }
        3 if !l.deliveries.is_empty() => {
            let i = rng.gen_range(0..l.deliveries.len());
            let (v, _) = l.deliveries.remove(i);
            l.collisions.push(v);
        }
        4 if !l.collisions.is_empty() => {
            let i = rng.gen_range(0..l.collisions.len());
            let v = l.collisions.remove(i);
            l.deliveries.push((v, node(rng)));
        }
        5 if !l.transmitters.is_empty() => {
            let t = l.transmitters[rng.gen_range(0..l.transmitters.len())];
            l.transmitters.push(t);
        }
        6 => l.transmitters.push(node(rng)),
        7 if !l.transmitters.is_empty() => {
            let i = rng.gen_range(0..l.transmitters.len());
            l.transmitters.remove(i);
        }
        8 => l.woken.push(node(rng)),
        9 if !l.woken.is_empty() => {
            let i = rng.gen_range(0..l.woken.len());
            l.woken.remove(i);
        }
        10 => l.external_wakes.push(node(rng)),
        11 => l.collisions.push(node(rng)),
        12 if !l.deliveries.is_empty() => {
            let d = l.deliveries[rng.gen_range(0..l.deliveries.len())];
            l.deliveries.push(d);
        }
        _ => l.noise.push(node(rng)),
    }
}

#[test]
fn random_rounds_agree() {
    let mut rng = SmallRng::seed_from_u64(27);
    let (mut clean_screened, mut broken_screened) = (0, 0);
    for sequence in 0..300u64 {
        let n = rng.gen_range(2..150usize);
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .filter(|_| rng.gen_bool(0.08))
            .collect();
        let g = Graph::from_edges(n, edges).expect("edges in range");
        let cd = sequence % 5 == 4;
        let faults = if sequence % 3 == 0 { 0.1 } else { 0.0 };
        let mut awake: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let initially: Vec<usize> = (0..n).filter(|&v| awake[v]).collect();
        let mut rounds = Vec::new();
        for round in 0..12u64 {
            let mut l = honest_round(&mut rng, &g, &mut awake, faults);
            if cd {
                // A CD engine's honest noise: awake, not crashed, heard
                // two or more or jammed.
                l.noise = l
                    .collisions
                    .iter()
                    .chain(&l.jammed)
                    .copied()
                    .filter(|&v| awake[v as usize])
                    .collect();
                l.noise.sort_unstable();
            }
            if rng.gen_bool(0.4) {
                corrupt(&mut rng, &mut l, n);
            }
            let d = l.detail(round);
            let mut ev = events(&d);
            ev.faults = FaultEvents {
                dropped: l.dropped.len(),
                jammed: l.jammed.len(),
                crashed_rx: 0,
                wakeups_suppressed: l.wakeups_suppressed.len(),
                ..FaultEvents::default()
            };
            if rng.gen_bool(0.05) {
                ev.collisions += 1;
            }
            let ev = rng.gen_bool(0.8).then_some(ev);
            rounds.push((ev, l));
        }
        // Round by round, so each round's own verdict is known.
        let mut pair = pair(&g, &initially, cd);
        let mut before = 0;
        for (round, (ev, l)) in (0u64..).zip(&rounds) {
            let total = feed(&mut pair, *ev, &l.detail(round));
            if !cd && l.screenable() {
                if total == before {
                    clean_screened += 1;
                } else {
                    broken_screened += 1;
                }
            }
            before = total;
        }
    }
    assert!(
        clean_screened > 300,
        "{clean_screened} clean screened rounds"
    );
    assert!(
        broken_screened > 300,
        "{broken_screened} broken screened rounds"
    );
}
