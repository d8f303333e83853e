//! Online model-conformance checking: re-derive every round from the
//! graph and the transmit set, and assert the radio axioms held.
//!
//! The engine is the single owner of the channel semantics, which also
//! means nothing else in the stack would notice if a refactor quietly
//! broke them. The [`ModelChecker`] closes that loop: it is an
//! [`Observer`] (via [`VerifyStack`]) that opts into per-listener round
//! traces ([`RoundDetail`]) and independently recomputes, from its own
//! copy of the topology, what each round *must* have looked like:
//!
//! - **Exactly-one reception** — a listener receives iff exactly one of
//!   its neighbors transmitted, and from precisely that neighbor.
//! - **Half-duplex** — a transmitter never appears as a listener.
//! - **No reception while asleep** — a sleeping node only receives in
//!   the round that wakes it, and wake-ups happen only on reception
//!   (or explicitly via [`crate::engine::Engine::wake`], which the
//!   trace reports separately).
//! - **Collision = silence** — two or more transmitting neighbors
//!   produce a collision event, never a delivery.
//! - **The CD axiom** (collision-detection engines only, see
//!   [`ModelChecker::new_with_cd`]) — an awake, non-transmitting,
//!   non-crashed listener observes collision-noise *iff* it heard two
//!   or more masked transmitters or was jammed; a no-CD engine must
//!   never report noise at all.
//! - **Fault consistency** — drops, jams, crash-silences and suppressed
//!   wake-ups in the trace match the per-round [`RoundEvents`] fault
//!   counters, so injected adversity is accounted for exactly once.
//! - **Churn awareness** (dynamic-topology engines, see
//!   [`ModelChecker::with_topology`]) — the checker replays an
//!   independent replica of the engine's [`crate::dyntopo`] model and
//!   re-derives every round against that round's *actual* graph
//!   snapshot, so an engine that resolves receptions against a stale
//!   adjacency (or drops edges without re-deriving collisions) is
//!   caught.
//!
//! Verification is strictly additive: it runs only when a harness opts
//! in (see `RunOptions::verify` in the `kbcast` crate), and the
//! recording side is gated on [`Observer::DETAIL`] — a monomorphized
//! constant, so disabled runs compile to the unchecked hot loop.

use crate::dyntopo::{BuiltTopology, TopologyModel};
use crate::engine::Node;
use crate::graph::{Graph, NodeId};
use crate::session::{Observer, RoundDetail, RoundEvents, SessionEnd};

/// Cap on *stored* violations per check; the total is still counted so
/// a flood of failures doesn't allocate without bound.
const STORED_VIOLATIONS: usize = 32;

/// One broken axiom or invariant, tied to the round that broke it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Round in which the violation was observed ([`u64::MAX`] for
    /// end-of-session checks).
    pub round: u64,
    /// Human-readable description of what was violated.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.round == u64::MAX {
            write!(f, "[end] {}", self.message)
        } else {
            write!(f, "[round {}] {}", self.round, self.message)
        }
    }
}

/// One online checker: a named bundle of assertions fed the same
/// per-round hooks as an [`Observer`], accumulating [`Violation`]s
/// instead of panicking so a harness can report every failure at once
/// (with the seed that produced it).
pub trait Check<N: Node> {
    /// Short name used when reporting violations (e.g. `"model"`).
    fn name(&self) -> &'static str;

    /// Per-round aggregate events, called before
    /// [`Check::on_round_detail`].
    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        let _ = (events, nodes);
    }

    /// Per-round full trace.
    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        let _ = (detail, nodes);
    }

    /// Called once when the session ends, for whole-run invariants.
    fn on_session_end(&mut self, nodes: &[N], end: &SessionEnd) {
        let _ = (nodes, end);
    }

    /// The harness scheduled one more packet for injection at `node`,
    /// after every packet it scheduled there before. Called before any
    /// round that could carry the packet, so a check whose ground truth
    /// is the set of injected packets grows it here.
    fn on_inject(&mut self, node: NodeId) {
        let _ = node;
    }

    /// Violations recorded so far (capped; see
    /// [`Check::total_violations`] for the true count).
    fn violations(&self) -> &[Violation];

    /// Total number of violations found, including ones beyond the
    /// storage cap.
    fn total_violations(&self) -> usize {
        self.violations().len()
    }
}

/// Violation accumulator shared by [`Check`] implementations (here and
/// in protocol crates): stores the first few violations verbatim and
/// counts the rest.
#[derive(Debug, Default)]
pub struct ViolationLog {
    stored: Vec<Violation>,
    total: usize,
}

impl ViolationLog {
    /// Records one violation (stored if under the cap, always counted).
    pub fn record(&mut self, round: u64, message: String) {
        self.total += 1;
        if self.stored.len() < STORED_VIOLATIONS {
            self.stored.push(Violation { round, message });
        }
    }

    /// The stored violations (at most the storage cap).
    #[must_use]
    pub fn stored(&self) -> &[Violation] {
        &self.stored
    }

    /// The true violation count, including unstored ones.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }
}

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

/// A set of [`Check`]s run side by side as one detail-opted
/// [`Observer`]. The driver owns the stack, runs the session through
/// it (alongside the protocol's own observer via [`Verified`]), and
/// asks [`VerifyStack::total_violations`] afterwards.
pub struct VerifyStack<N: Node> {
    checks: Vec<Box<dyn Check<N>>>,
}

impl<N: Node> Default for VerifyStack<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Node> VerifyStack<N> {
    /// An empty stack; add checkers with [`VerifyStack::push`].
    #[must_use]
    pub fn new() -> Self {
        VerifyStack { checks: Vec::new() }
    }

    /// Adds a checker to the stack.
    pub fn push(&mut self, check: Box<dyn Check<N>>) {
        self.checks.push(check);
    }

    /// Runs every check's end-of-session hook.
    pub fn session_end(&mut self, nodes: &[N], end: &SessionEnd) {
        for c in &mut self.checks {
            c.on_session_end(nodes, end);
        }
    }

    /// Forwards a harness injection at `node` to every check (see
    /// [`Check::on_inject`]).
    pub fn on_inject(&mut self, node: NodeId) {
        for c in &mut self.checks {
            c.on_inject(node);
        }
    }

    /// Total violations across all checks.
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.checks.iter().map(|c| c.total_violations()).sum()
    }

    /// `true` if every check is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// `(check name, violation)` pairs across the stack, in check order.
    pub fn violations(&self) -> impl Iterator<Item = (&'static str, &Violation)> {
        self.checks
            .iter()
            .flat_map(|c| c.violations().iter().map(move |v| (c.name(), v)))
    }

    /// A one-violation-per-line report of up to `limit` violations,
    /// noting how many more were found.
    #[must_use]
    pub fn summary(&self, limit: usize) -> String {
        use std::fmt::Write as _;
        let total = self.total_violations();
        let mut out = String::new();
        for (i, (name, v)) in self.violations().enumerate() {
            if i >= limit {
                break;
            }
            let _ = writeln!(out, "{name}: {v}");
        }
        let shown = total.min(limit);
        if total > shown {
            let _ = writeln!(out, "... and {} more", total - shown);
        }
        out
    }
}

impl<N: Node> Observer<N> for VerifyStack<N> {
    const DETAIL: bool = true;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        for c in &mut self.checks {
            c.on_round(events, nodes);
        }
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        for c in &mut self.checks {
            c.on_round_detail(detail, nodes);
        }
    }
}

/// Tees one session into a protocol observer and a [`VerifyStack`]:
/// the protocol keeps its instrumentation, the stack keeps its checks,
/// and the engine records details because `DETAIL` is `true` here
/// regardless of the inner observer's choice.
pub struct Verified<'a, O, N: Node> {
    /// The protocol's own observer.
    pub inner: &'a mut O,
    /// The checker stack run alongside it.
    pub stack: &'a mut VerifyStack<N>,
}

impl<O: Observer<N>, N: Node> Observer<N> for Verified<'_, O, N> {
    const DETAIL: bool = true;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        self.inner.on_round(events, nodes);
        Observer::on_round(self.stack, events, nodes);
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        if O::DETAIL {
            self.inner.on_round_detail(detail, nodes);
        }
        Observer::on_round_detail(self.stack, detail, nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Node};
    use crate::faults::BuiltFaults;
    use crate::session::NoopObserver;
    use crate::topology;

    /// Transmits `plan[round]` each round; counts receptions.
    struct Scripted {
        plan: Vec<Option<u32>>,
        received: usize,
    }

    impl Scripted {
        fn new(plan: Vec<Option<u32>>) -> Self {
            Scripted { plan, received: 0 }
        }

        fn silent() -> Self {
            Scripted::new(Vec::new())
        }
    }

    impl Node for Scripted {
        type Msg = u32;
        fn poll(&mut self, round: u64) -> Option<u32> {
            self.plan.get(round as usize).copied().flatten()
        }
        fn receive(&mut self, _round: u64, _msg: &u32) {
            self.received += 1;
        }
    }

    fn all_awake(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    fn model_stack(graph: &Graph, awake: &[NodeId]) -> VerifyStack<Scripted> {
        let mut stack = VerifyStack::new();
        stack.push(Box::new(ModelChecker::new(
            graph.clone(),
            awake.iter().copied(),
        )));
        stack
    }

    #[test]
    fn clean_run_has_no_violations() {
        // Star with colliding leaves, a sleeping leaf, and wake-ups:
        // exercises deliveries, collisions, and the woken list.
        let g = topology::star(4).unwrap();
        let nodes = vec![
            Scripted::new(vec![None, Some(0)]),
            Scripted::new(vec![Some(1), None, Some(1)]),
            Scripted::new(vec![Some(2), None, Some(2)]),
            Scripted::silent(),
        ];
        let awake = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let mut stack = model_stack(g_ref(&g), &awake);
        let mut e = Engine::new(g, nodes, awake).unwrap();
        for _ in 0..4 {
            e.step_observed(&mut stack);
        }
        assert!(stack.is_clean(), "{}", stack.summary(8));
        assert!(e.stats().collisions > 0, "test should exercise collisions");
        assert!(e.stats().wakeups > 0, "test should exercise wake-ups");
    }

    // Helper so the engine can consume the graph after the checker
    // cloned it.
    fn g_ref(g: &Graph) -> &Graph {
        g
    }

    #[test]
    fn external_wakes_are_accepted() {
        let g = topology::path(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![None, Some(5)]),
            Scripted::silent(),
        ];
        let awake = [NodeId::new(0)];
        let mut stack = model_stack(g_ref(&g), &awake);
        let mut e = Engine::new(g, nodes, awake).unwrap();
        e.step_observed(&mut stack);
        e.wake(NodeId::new(1));
        e.step_observed(&mut stack);
        e.step_observed(&mut stack);
        assert!(stack.is_clean(), "{}", stack.summary(8));
        assert!(e.is_awake(NodeId::new(2)), "woken over the radio");
    }

    #[test]
    fn broken_engine_two_transmitter_delivery_is_caught() {
        // Star: both leaves transmit every round. A correct engine
        // reports a collision at the hub; the sabotaged one delivers.
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1)]),
            Scripted::new(vec![Some(2)]),
        ];
        let awake = all_awake(3);
        let mut stack = model_stack(g_ref(&g), &awake);
        let mut e = Engine::new(g, nodes, awake).unwrap();
        e.force_deliver_on_collision = true;
        e.step_observed(&mut stack);
        assert!(!stack.is_clean(), "sabotage must be detected");
        let all = stack.summary(8);
        assert!(
            all.contains("exactly-one axiom"),
            "expected the exactly-one violation, got:\n{all}"
        );
    }

    /// A partition model splitting a 2-path from round 1 on, plus an
    /// identically-seeded replica for the checker.
    fn split_pair(g: &Graph) -> (BuiltTopology, BuiltTopology) {
        use crate::dyntopo::{PartitionHeal, PartitionWindow};
        let w = PartitionWindow {
            split_at: 1,
            heal_at: 100,
            period: None,
        };
        let model = BuiltTopology::Partition(PartitionHeal::new(g, Some(w), 3).unwrap());
        (model.clone(), model)
    }

    #[test]
    fn churned_clean_run_has_no_violations() {
        // A 2-path whose only edge is cut from round 1: the checker's
        // replica must track the engine's reshape exactly — deliveries
        // before the split, silence after it, zero violations.
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..6).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        let awake = all_awake(2);
        let (topo, replica) = split_pair(&g);
        let mut stack: VerifyStack<Scripted> = VerifyStack::new();
        stack.push(Box::new(ModelChecker::with_topology(
            g.clone(),
            awake.iter().copied(),
            false,
            replica,
        )));
        let mut e =
            Engine::<Scripted>::with_topology(g, nodes, awake, BuiltFaults::default(), topo)
                .unwrap();
        for _ in 0..6 {
            e.step_observed(&mut stack);
        }
        assert!(stack.is_clean(), "{}", stack.summary(8));
        assert_eq!(e.stats().receptions, 1, "only the pre-split round delivers");
    }

    #[test]
    fn stale_graph_under_churn_is_caught() {
        // The sabotaged engine advances its churn model but keeps
        // resolving receptions against the pre-split adjacency; the
        // checker's replica cuts the edge at round 1, so the round-1
        // delivery arrives over an edge that no longer exists.
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..3).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        let awake = all_awake(2);
        let (topo, replica) = split_pair(&g);
        let mut stack: VerifyStack<Scripted> = VerifyStack::new();
        stack.push(Box::new(ModelChecker::with_topology(
            g.clone(),
            awake.iter().copied(),
            false,
            replica,
        )));
        let mut e =
            Engine::<Scripted>::with_topology(g, nodes, awake, BuiltFaults::default(), topo)
                .unwrap();
        e.churn_stale_graph = true;
        for _ in 0..3 {
            e.step_observed(&mut stack);
        }
        assert!(!stack.is_clean(), "stale-graph sabotage must be detected");
        let all = stack.summary(8);
        assert!(
            all.contains("exactly-one axiom"),
            "expected a stale-delivery violation, got:\n{all}"
        );
    }

    #[test]
    fn dropped_edges_without_rederive_are_caught() {
        // The sabotaged engine silently strips node 1's edges from its
        // applied graph (a broken incremental CSR update): the checker
        // re-derives a delivery the engine never made.
        use crate::dyntopo::PartitionHeal;
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..2).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        let awake = all_awake(2);
        // An inert dynamic model: the graphs should agree every round,
        // so every violation below comes from the sabotage alone.
        let topo = BuiltTopology::Partition(PartitionHeal::new(&g, None, 3).unwrap());
        let mut stack: VerifyStack<Scripted> = VerifyStack::new();
        stack.push(Box::new(ModelChecker::with_topology(
            g.clone(),
            awake.iter().copied(),
            false,
            topo.clone(),
        )));
        let mut e =
            Engine::<Scripted>::with_topology(g, nodes, awake, BuiltFaults::default(), topo)
                .unwrap();
        e.churn_drop_edges_of = Some(1);
        for _ in 0..2 {
            e.step_observed(&mut stack);
        }
        assert!(!stack.is_clean(), "dropped-edge sabotage must be detected");
        let all = stack.summary(8);
        assert!(
            all.contains("no recorded outcome"),
            "expected a completeness violation, got:\n{all}"
        );
    }

    /// Feeds a hand-crafted trace on a 3-path (checker state: all
    /// awake) and returns the violation summary.
    fn run_fabricated(detail: &RoundDetail<'_>) -> (usize, String) {
        let g = topology::path(3).unwrap();
        let mut checker = ModelChecker::new(g, all_awake(3));
        let nodes: [Scripted; 0] = [];
        Check::<Scripted>::on_round_detail(&mut checker, detail, &nodes);
        let mut stack: VerifyStack<Scripted> = VerifyStack::new();
        stack.push(Box::new(checker));
        (stack.total_violations(), stack.summary(8))
    }

    #[test]
    fn derived_collisions_match_engine_stats_on_clean_run() {
        // Dense ring with everyone shouting on overlapping schedules:
        // plenty of collisions for the re-derivation to count.
        let g = topology::cycle(6).unwrap();
        let nodes = (0..6u32)
            .map(|i| {
                Scripted::new(
                    (0..12)
                        .map(|r| (r % 3 != u64::from(i) % 3).then_some(i))
                        .collect(),
                )
            })
            .collect::<Vec<_>>();
        let awake = all_awake(6);
        let mut checker = ModelChecker::new(g.clone(), awake.iter().copied());
        let mut e = Engine::new(g, nodes, awake).unwrap();
        // Drive the standalone checker through a hand-held tee so we
        // can read `derived_collisions` afterwards (a VerifyStack boxes
        // its checks away).
        struct Tee<'c>(&'c mut ModelChecker);
        impl Observer<Scripted> for Tee<'_> {
            const DETAIL: bool = true;
            fn on_round(&mut self, events: &RoundEvents, nodes: &[Scripted]) {
                Check::on_round(self.0, events, nodes);
            }
            fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[Scripted]) {
                Check::on_round_detail(self.0, detail, nodes);
            }
        }
        let mut tee = Tee(&mut checker);
        for _ in 0..12 {
            e.step_observed(&mut tee);
        }
        assert!(
            checker.is_clean(),
            "{:?}",
            Check::<Scripted>::violations(&checker)
        );
        assert!(e.stats().collisions > 0, "test must exercise collisions");
        assert_eq!(checker.derived_collisions(), e.stats().collisions);
    }

    #[test]
    fn fabricated_unreported_collision_is_caught() {
        // Star: nodes 1 and 2 both transmit, hub 0 hears two — but the
        // trace claims no collision happened anywhere.
        let g = topology::star(3).unwrap();
        let mut checker = ModelChecker::new(g, all_awake(3));
        let nodes: [Scripted; 0] = [];
        Check::<Scripted>::on_round_detail(
            &mut checker,
            &RoundDetail {
                round: 0,
                transmitters: &[1, 2],
                deliveries: &[],
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
        let v = Check::<Scripted>::violations(&checker);
        assert!(
            v.iter()
                .any(|v| v.message.contains("collision conservation")),
            "{v:?}"
        );
        assert_eq!(checker.derived_collisions(), 1);
    }

    #[test]
    fn fabricated_half_duplex_violation() {
        // Node 1 transmits and "receives" from node 0 simultaneously.
        let (count, summary) = run_fabricated(&RoundDetail {
            round: 0,
            transmitters: &[0, 1],
            deliveries: &[(1, 0)],
            collisions: &[2],
            woken: &[],
            external_wakes: &[],
            dropped: &[],
            jammed: &[],
            crashed: &[],
            wakeups_suppressed: &[],
            noise: &[],
        });
        assert!(count > 0);
        assert!(summary.contains("half-duplex"), "{summary}");
    }

    #[test]
    fn fabricated_non_neighbor_delivery_violation() {
        // Node 2 is not adjacent to transmitter 0 on a path.
        let (count, summary) = run_fabricated(&RoundDetail {
            round: 3,
            transmitters: &[0],
            deliveries: &[(1, 0), (2, 0)],
            collisions: &[],
            woken: &[],
            external_wakes: &[],
            dropped: &[],
            jammed: &[],
            crashed: &[],
            wakeups_suppressed: &[],
            noise: &[],
        });
        assert!(count > 0);
        assert!(summary.contains("exactly-one axiom"), "{summary}");
    }

    #[test]
    fn fabricated_misattributed_delivery_violation() {
        // Node 0 transmits; node 1's reception is credited to node 2.
        let (count, summary) = run_fabricated(&RoundDetail {
            round: 1,
            transmitters: &[0],
            deliveries: &[(1, 2)],
            collisions: &[],
            woken: &[],
            external_wakes: &[],
            dropped: &[],
            jammed: &[],
            crashed: &[],
            wakeups_suppressed: &[],
            noise: &[],
        });
        assert!(count > 0);
        assert!(summary.contains("unique transmitting"), "{summary}");
    }

    #[test]
    fn fabricated_missing_outcome_violation() {
        // Node 0 transmits but its neighbor 1 has no recorded outcome.
        let (count, summary) = run_fabricated(&RoundDetail {
            round: 2,
            transmitters: &[0],
            deliveries: &[],
            collisions: &[],
            woken: &[],
            external_wakes: &[],
            dropped: &[],
            jammed: &[],
            crashed: &[],
            wakeups_suppressed: &[],
            noise: &[],
        });
        assert!(count > 0);
        assert!(summary.contains("no recorded outcome"), "{summary}");
    }

    #[test]
    fn fabricated_single_transmitter_collision_violation() {
        let (count, summary) = run_fabricated(&RoundDetail {
            round: 0,
            transmitters: &[0],
            deliveries: &[],
            collisions: &[1],
            woken: &[],
            external_wakes: &[],
            dropped: &[],
            jammed: &[],
            crashed: &[],
            wakeups_suppressed: &[],
            noise: &[],
        });
        assert!(count > 0);
        assert!(summary.contains("collision at 1 with 1"), "{summary}");
    }

    #[test]
    fn fabricated_sleeping_transmitter_violation() {
        let g = topology::path(3).unwrap();
        let mut checker = ModelChecker::new(g, [NodeId::new(0)]);
        let nodes: [Scripted; 0] = [];
        Check::<Scripted>::on_round_detail(
            &mut checker,
            &RoundDetail {
                round: 0,
                transmitters: &[2],
                deliveries: &[],
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
        // Transmitter 2 was asleep, and its neighbor 1 has no outcome.
        let v = Check::<Scripted>::violations(&checker);
        assert!(
            v.iter().any(|v| v.message.contains("sleeping node 2")),
            "{v:?}"
        );
    }

    #[test]
    fn fabricated_wake_without_reception_violation() {
        let g = topology::path(3).unwrap();
        let mut checker = ModelChecker::new(g, [NodeId::new(0)]);
        let nodes: [Scripted; 0] = [];
        Check::<Scripted>::on_round_detail(
            &mut checker,
            &RoundDetail {
                round: 0,
                transmitters: &[],
                deliveries: &[],
                collisions: &[],
                woken: &[1],
                external_wakes: &[],
                dropped: &[],
                jammed: &[],
                crashed: &[],
                wakeups_suppressed: &[],
                noise: &[],
            },
            &nodes,
        );
        let v = Check::<Scripted>::violations(&checker);
        assert!(
            v.iter()
                .any(|v| v.message.contains("woken without receiving")),
            "{v:?}"
        );
    }

    #[test]
    fn violation_storage_is_capped_but_counted() {
        let g = topology::path(3).unwrap();
        let mut checker = ModelChecker::new(g, all_awake(3));
        let nodes: [Scripted; 0] = [];
        for r in 0..100 {
            // Same broken trace every round: a collision with one
            // transmitter.
            Check::<Scripted>::on_round_detail(
                &mut checker,
                &RoundDetail {
                    round: r,
                    transmitters: &[0],
                    deliveries: &[(1, 0)],
                    collisions: &[1],
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
        assert!(Check::<Scripted>::violations(&checker).len() <= super::STORED_VIOLATIONS);
        assert!(Check::<Scripted>::total_violations(&checker) >= 100);
    }

    fn cd_stack(graph: &Graph, awake: &[NodeId]) -> VerifyStack<Scripted> {
        let mut stack = VerifyStack::new();
        stack.push(Box::new(ModelChecker::new_with_cd(
            graph.clone(),
            awake.iter().copied(),
            true,
        )));
        stack
    }

    fn cd_engine(
        g: Graph,
        nodes: Vec<Scripted>,
        awake: Vec<NodeId>,
    ) -> Engine<Scripted, BuiltFaults, crate::engine::WithCd> {
        Engine::with_topology(
            g,
            nodes,
            awake,
            BuiltFaults::default(),
            BuiltTopology::Static,
        )
        .unwrap()
    }

    #[test]
    fn cd_clean_run_has_no_violations() {
        // Star with colliding leaves and a delivery round: the CD
        // engine reports noise at the hub and the checker re-derives
        // exactly that from the transmit set.
        let g = topology::star(4).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1), Some(1)]),
            Scripted::new(vec![Some(2), None]),
            Scripted::silent(),
        ];
        let awake = all_awake(4);
        let mut stack = cd_stack(g_ref(&g), &awake);
        let mut e = cd_engine(g, nodes, awake);
        for _ in 0..3 {
            e.step_observed(&mut stack);
        }
        assert!(stack.is_clean(), "{}", stack.summary(8));
        assert!(e.stats().collisions > 0, "test should exercise collisions");
    }

    #[test]
    fn cd_sabotage_noise_on_unique_transmitter_is_caught() {
        // Path: node 0 is the only transmitter; the sabotaged engine
        // reports collision-noise at node 1 anyway. Both the collision
        // entry (heard == 1) and the noise entry violate the axioms.
        let g = topology::path(3).unwrap();
        let nodes = vec![
            Scripted::new(vec![Some(7)]),
            Scripted::silent(),
            Scripted::silent(),
        ];
        let awake = all_awake(3);
        let mut stack = cd_stack(g_ref(&g), &awake);
        let mut e = cd_engine(g, nodes, awake);
        e.force_noise_on_unique = true;
        e.step_observed(&mut stack);
        assert!(!stack.is_clean(), "sabotage must be detected");
        let all = stack.summary(8);
        assert!(
            all.contains("collision at 1 with 1"),
            "expected the single-transmitter collision violation, got:\n{all}"
        );
        assert!(
            all.contains("CD axiom"),
            "expected the CD-axiom noise violation, got:\n{all}"
        );
    }

    #[test]
    fn cd_sabotage_silence_on_collision_is_caught() {
        // Star: the leaves genuinely collide at the hub, but the
        // sabotaged engine swallows the noise observation — the CD
        // completeness check must notice the silence.
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1)]),
            Scripted::new(vec![Some(2)]),
        ];
        let awake = all_awake(3);
        let mut stack = cd_stack(g_ref(&g), &awake);
        let mut e = cd_engine(g, nodes, awake);
        e.force_silence_on_collision = true;
        e.step_observed(&mut stack);
        assert!(!stack.is_clean(), "sabotage must be detected");
        let all = stack.summary(8);
        assert!(
            all.contains("no collision-noise was recorded"),
            "expected the CD completeness violation, got:\n{all}"
        );
    }

    #[test]
    fn cd_sabotages_pass_the_nocd_checker_shape() {
        // Sanity for the sabotage pair: an honest CD run with the same
        // topology is clean, so the two tests above fail for the
        // sabotage and not for the setup.
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1)]),
            Scripted::new(vec![Some(2)]),
        ];
        let awake = all_awake(3);
        let mut stack = cd_stack(g_ref(&g), &awake);
        let mut e = cd_engine(g, nodes, awake);
        e.step_observed(&mut stack);
        assert!(stack.is_clean(), "{}", stack.summary(8));
    }

    #[test]
    fn fabricated_noise_from_nocd_engine_is_caught() {
        // A no-CD checker (cd = false) must reject any noise entry,
        // even one that would satisfy the CD axiom.
        let (count, summary) = run_fabricated(&RoundDetail {
            round: 0,
            transmitters: &[0, 2],
            deliveries: &[],
            collisions: &[1],
            woken: &[],
            external_wakes: &[],
            dropped: &[],
            jammed: &[],
            crashed: &[],
            wakeups_suppressed: &[],
            noise: &[1],
        });
        assert!(count > 0);
        assert!(summary.contains("no-CD engine"), "{summary}");
    }

    #[test]
    fn fabricated_crashed_listener_noise_is_caught() {
        // CD checker: node 1 is crash-silenced (deaf) yet the trace
        // claims it heard collision-noise.
        let g = topology::path(3).unwrap();
        let mut checker = ModelChecker::new_with_cd(g, all_awake(3), true);
        let nodes: [Scripted; 0] = [];
        Check::<Scripted>::on_round_detail(
            &mut checker,
            &RoundDetail {
                round: 0,
                transmitters: &[0, 2],
                deliveries: &[],
                collisions: &[],
                woken: &[],
                external_wakes: &[],
                dropped: &[],
                jammed: &[],
                crashed: &[1],
                wakeups_suppressed: &[],
                noise: &[1],
            },
            &nodes,
        );
        let v = Check::<Scripted>::violations(&checker);
        assert!(
            v.iter().any(|v| v.message.contains("crashed (deaf)")),
            "{v:?}"
        );
    }

    #[test]
    fn fabricated_jammed_cd_listener_without_noise_is_caught() {
        // CD checker: node 1 is jammed (which a CD listener must hear
        // as noise) but the trace records no noise for it.
        let g = topology::path(3).unwrap();
        let mut checker = ModelChecker::new_with_cd(g, all_awake(3), true);
        let nodes: [Scripted; 0] = [];
        Check::<Scripted>::on_round_detail(
            &mut checker,
            &RoundDetail {
                round: 0,
                transmitters: &[0],
                deliveries: &[],
                collisions: &[],
                woken: &[],
                external_wakes: &[],
                dropped: &[],
                jammed: &[1],
                crashed: &[],
                wakeups_suppressed: &[],
                noise: &[],
            },
            &nodes,
        );
        let v = Check::<Scripted>::violations(&checker);
        assert!(
            v.iter()
                .any(|v| v.message.contains("no collision-noise was recorded")),
            "{v:?}"
        );
    }

    #[test]
    fn verified_tee_reaches_both_observers() {
        let g = topology::path(2).unwrap();
        let nodes = vec![Scripted::new(vec![Some(1)]), Scripted::silent()];
        let awake = all_awake(2);
        let mut stack = model_stack(g_ref(&g), &awake);
        let mut e = Engine::new(g, nodes, awake).unwrap();
        let mut inner = NoopObserver;
        let mut tee = Verified {
            inner: &mut inner,
            stack: &mut stack,
        };
        e.step_observed(&mut tee);
        assert!(stack.is_clean(), "{}", stack.summary(8));
    }
}
