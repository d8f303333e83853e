//! The synchronous round loop and the collision semantics.
//!
//! All radio semantics live in [`Engine::step`] — protocols never get to
//! observe the graph, other nodes' state, or the cause of a silent round.
//! This is what makes simulated executions faithful to the ad-hoc model:
//! a protocol node sees exactly `(its own state, the round number, its own
//! receptions)` and nothing else.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::bitset::{words_for, ActiveSet};
use crate::dyntopo::{BuiltTopology, TopologyModel};
use crate::error::Error;
use crate::faults::{BuiltFaults, ChannelView, FaultModel};
use crate::graph::{Graph, NodeId};
use crate::message::MessageSize;
use crate::session::{
    NoopObserver, Observer, RoundEvents, RoundRecord, SessionControl, SessionEnd,
};
use crate::stats::SimStats;

/// Type-level collision-detection capability of an [`Engine`].
///
/// The seed paper's model is *without* collision detection: a listener
/// cannot distinguish silence from a collision. Two follow-up papers
/// (Ghaffari–Haeupler–Khabbazian; Andriambolamalala–Ravelomanana)
/// change exactly that one axiom — with CD, the channel is
/// three-valued per round: silence / message / collision-noise.
///
/// The capability is a property of the protocol, so it is fixed by
/// type rather than read at run time: the default [`NoCd`]
/// has `ENABLED = false`, so every CD branch in
/// [`Engine::step`] monomorphizes away and the word-parallel no-CD
/// hot loop compiles to exactly the pre-CD code. [`WithCd`] engines
/// take the per-listener slow path and report collision-noise to
/// awake, non-crashed listeners via [`Node::collision_heard`].
pub trait CdModel {
    /// Whether listeners can detect collisions. `false` compiles every
    /// CD hook out of the hot loop.
    const ENABLED: bool;
}

/// No collision detection (the seed paper's model; the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCd;

impl CdModel for NoCd {
    const ENABLED: bool = false;
}

/// Collision detection enabled: awake listeners observe a three-valued
/// channel and get [`Node::collision_heard`] on collision or jamming.
#[derive(Debug, Clone, Copy, Default)]
pub struct WithCd;

impl CdModel for WithCd {
    const ENABLED: bool = true;
}

/// A per-node protocol state machine driven by the [`Engine`].
///
/// Implementations must be *local*: decisions may depend only on state
/// accumulated through [`Node::receive`] and the round counter. The engine
/// never exposes the topology.
pub trait Node {
    /// The message type this protocol puts on the channel.
    type Msg: Clone + MessageSize;

    /// Called once per round while the node is awake. Returning
    /// `Some(msg)` transmits `msg` this round; returning `None` listens.
    fn poll(&mut self, round: u64) -> Option<Self::Msg>;

    /// Called when the node successfully receives `msg` (i.e. exactly one
    /// neighbor transmitted this round and this node was listening). If
    /// the node was asleep, the engine wakes it; from the next round on it
    /// will be polled. If it was parked (see [`Node::next_activity`]),
    /// the engine asks for a fresh hint right after this call.
    fn receive(&mut self, round: u64, msg: &Self::Msg);

    /// Reports protocol-local completion; used by harness stop conditions
    /// such as [`Engine::run_until_all_done`]. Defaults to `false`
    /// (protocols that never terminate locally).
    ///
    /// The engine caches this per node and, once a node reports done,
    /// does not re-query it after ordinary polls/receptions — completion
    /// must be stable under [`Node::poll`] and [`Node::receive`].
    /// Harness-side mutation through [`Engine::node_mut`] *may* revoke
    /// completion; the engine re-checks such nodes.
    fn is_done(&self) -> bool {
        false
    }

    /// Called when the node is awake, listening, and the channel
    /// carries collision-noise this round — two or more neighbors
    /// transmitted (or a jammer struck) and the engine runs with
    /// collision detection ([`WithCd`]).
    ///
    /// `NoCd` engines never call this: under the seed paper's model a
    /// collision is indistinguishable from silence, so the default
    /// no-op keeps every existing protocol valid in both models.
    /// Like [`Node::receive`], a call on a parked node is followed by a
    /// fresh [`Node::next_activity`] question: the node stays parked
    /// only if its new hint still skips the next round. Sleeping nodes
    /// hear nothing (noise carries no message and cannot wake a node);
    /// crashed listeners are deaf.
    fn collision_heard(&mut self, round: u64) {
        let _ = round;
    }

    /// The earliest future round at which this node may act again —
    /// the engine's permission to skip polls ("parking").
    ///
    /// Called right after [`Node::poll`]`(round)` on an awake node, and
    /// again right after a [`Node::receive`] or
    /// [`Node::collision_heard`] in `round` on a parked one, so the
    /// answer must be honest in both places. A return of
    /// `next > round + 1` promises that every poll at a round `r` with
    /// `round < r < next` would return `None`, draw no randomness and
    /// cause no externally visible state change (including
    /// [`Node::is_done`]); the engine then skips those polls wholesale
    /// and resumes at `next`. Returning `u64::MAX` parks the node
    /// indefinitely. Any answer `≤ round + 1` (a stale cached round
    /// included) means "poll me next round".
    ///
    /// After a reception the node stays parked if the new hint still
    /// passes `round + 1` (an unchanged hint reuses its pending timer),
    /// and returns to the polled set otherwise. Harness mutation via
    /// [`Engine::node_mut`], an [`Engine::wake`] and a radio wake-up
    /// void the promise outright: the engine polls such a node from
    /// the next round and asks for a fresh hint after that poll.
    ///
    /// The default (`round + 1`, never park) is always correct: a
    /// parked execution must be bit-identical to a never-parked one.
    fn next_activity(&self, round: u64) -> u64 {
        round + 1
    }
}

/// Synchronous radio-network simulator.
///
/// See the [crate-level documentation](crate) for the model and an example.
///
/// The second type parameter is the fault model (see [`crate::faults`])
/// and the fourth the dynamic-topology model (see [`crate::dyntopo`]).
/// They default to [`BuiltFaults`] and [`BuiltTopology`], the models
/// every session runs. [`FaultModel::enabled`] is read once per round:
/// an empty [`BuiltFaults`] skips every fault hook and keeps the
/// word-parallel delivery path, and [`BuiltTopology::Static`] never
/// reshapes, so an `Engine<N>` is exactly the clean-channel engine.
///
/// The third type parameter is the collision-detection capability (see
/// [`CdModel`]). It defaults to [`NoCd`] — the seed paper's model, where
/// a collision is indistinguishable from silence — and every CD branch
/// is behind `if C::ENABLED`, so a `NoCd` engine monomorphizes to
/// exactly the pre-CD hot loop.
///
/// [`Engine::new`] builds the clean default; every other combination
/// comes from [`Engine::with_topology`], with the CD capability picked
/// by turbofish (struct defaults don't drive inference at call sites),
/// e.g. `Engine::<_, _, WithCd>::with_topology(g, nodes, awake, faults,
/// BuiltTopology::Static)`.
#[derive(Debug)]
pub struct Engine<
    N: Node,
    F: FaultModel = BuiltFaults,
    C: CdModel = NoCd,
    T: TopologyModel = BuiltTopology,
> {
    /// The adjacency the current round's transmissions resolve
    /// against. Immutable for static engines; a dynamic model may swap
    /// in a new snapshot at the top of each round.
    graph: Graph,
    nodes: Vec<N>,
    awake: Vec<bool>,
    /// Awake nodes that are not parked: exactly the set phase 1 polls,
    /// iterated word-parallel (empty 64-node blocks cost one summary
    /// bit test). Wake-ups insert; parking (see [`Node::next_activity`])
    /// removes; nodes never go back to sleep.
    active: ActiveSet,
    /// Per-node round of the latest park, i.e. the round its activity
    /// hint expires (`u64::MAX` = parked until an event shortens the
    /// hint; 0 = never parked). Whether the node is parked *now* is
    /// "awake and not in `active`": an unpark leaves this value alone,
    /// so a later re-park to the same round finds its finite entry
    /// still pending in [`Engine::timers`] and pushes no second one.
    /// Guards stale timer entries: an entry fires only if it still
    /// matches this value.
    parked_until: Vec<u64>,
    /// Pending hint expirations `(round, node)`, drained at the top of
    /// each round. Finite hints get an entry unless the node's pending
    /// one already holds that round; `u64::MAX` parks don't (they end
    /// only when a reception's fresh hint or [`Engine::node_mut`]
    /// ends them).
    timers: BinaryHeap<Reverse<(u64, u32)>>,
    round: u64,
    stats: SimStats,
    // Reused per-round scratch space.
    tx: Vec<Option<N::Msg>>,
    /// This round's transmitters; also tells the next round which `tx`
    /// slots (and `tx_mask` words) to clear, so idle slots are never
    /// rewritten.
    tx_ids: Vec<u32>,
    /// Transmitter bitmask (bit `i%64` of word `i/64`), the word-level
    /// mirror of `tx_ids`: phase 3 masks transmitters out of a whole
    /// 64-listener block at once (half-duplex).
    tx_mask: Vec<u64>,
    /// Saturating two-bit per-listener counters as a pair of bit-planes:
    /// `ones` = heard ≥ 1 transmitter, `twos` = heard ≥ 2 (collision).
    /// Valid only for words whose `word_stamp` equals the current round;
    /// stale words are reset lazily when first touched.
    ones: Vec<u64>,
    twos: Vec<u64>,
    /// Per-word round stamp for `ones`/`twos` (the word-level version of
    /// the classic stamp trick: no O(n/64) clearing per round).
    word_stamp: Vec<u64>,
    /// Indices of words touched by phase 2 this round; phase 3 iterates
    /// this (sorted) instead of scanning all words.
    touched_words: Vec<u32>,
    last_tx: Vec<u32>,
    /// Cached `is_done` per node plus a count, maintained incrementally
    /// after every poll/receive so [`Engine::run_until_all_done`] never
    /// rescans the whole network.
    done: Vec<bool>,
    done_count: usize,
    /// Nodes handed out via [`Engine::node_mut`] since the last round —
    /// the harness may have changed their `is_done`, so their cached flag
    /// is refreshed before it is next consulted.
    dirty: Vec<u32>,
    /// The fault model driving this engine's adversity.
    faults: F,
    /// The dynamic-topology model; consulted once at the top of every
    /// round, before transmissions resolve.
    topo: T,
    /// Scratch: round number at which each node was last jammed; a node
    /// is jammed this round iff `jam_stamp[v] == round`.
    jam_stamp: Vec<u64>,
    /// Scratch list the fault model's jam hook fills each round.
    jam_list: Vec<u32>,
    /// Nodes woken via [`Engine::wake`] since the previous round; drained
    /// into the detail record (when an observer opted in) so a model
    /// checker can distinguish external wakes from radio wake-ups.
    ext_wakes: Vec<u32>,
    /// Reusable per-round detail buffer; filled only for observers with
    /// [`Observer::DETAIL`] set.
    detail: RoundRecord,
    /// Test-only sabotage switch: deliver to listeners that heard two or
    /// more transmitters, violating the collision axiom. Exists solely to
    /// prove [`crate::verify::ModelChecker`] catches a broken engine.
    #[cfg(test)]
    pub(crate) force_deliver_on_collision: bool,
    /// Test-only CD sabotage: report collision-noise to listeners with a
    /// single transmitting neighbor (a false positive against the CD
    /// axiom). Proves the checker's noise-entry validation works.
    #[cfg(test)]
    pub(crate) force_noise_on_unique: bool,
    /// Test-only CD sabotage: swallow the collision-noise observation on
    /// genuine collisions (silence where the CD axiom demands noise).
    /// Proves the checker's noise completeness check works.
    #[cfg(test)]
    pub(crate) force_silence_on_collision: bool,
    /// Test-only churn sabotage: advance the topology model each round
    /// but keep resolving receptions against the *stale* graph (the
    /// exact bug a missed CSR swap would cause). Proves the
    /// churn-aware [`crate::verify::ModelChecker`] checks against the
    /// round's actual snapshot.
    #[cfg(test)]
    pub(crate) churn_stale_graph: bool,
    /// Test-only churn sabotage: after each reshape, silently drop
    /// this node's edges from the applied graph without re-deriving
    /// anything (a broken incremental adjacency update). Proves the
    /// checker's delivery-completeness re-derivation works under
    /// churn.
    #[cfg(test)]
    pub(crate) churn_drop_edges_of: Option<u32>,
    /// Zero-sized witness of the collision-detection capability.
    _cd: std::marker::PhantomData<C>,
}

impl<N: Node> Engine<N> {
    /// Creates an engine over `graph` with one state machine per node.
    /// `initially_awake` nodes are polled from round 0; all others sleep
    /// until their first reception.
    ///
    /// The resulting engine has an empty [`BuiltFaults`] and a
    /// [`BuiltTopology::Static`] graph, so it runs the clean-channel
    /// loop; use [`Engine::with_topology`] to inject faults, pick the
    /// CD capability or move the graph.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeCountMismatch`] if `nodes.len() != graph.len()`
    /// and [`Error::NodeOutOfRange`] if an initially-awake id is invalid.
    pub fn new(
        graph: Graph,
        nodes: Vec<N>,
        initially_awake: impl IntoIterator<Item = NodeId>,
    ) -> Result<Self, Error> {
        Self::with_topology(
            graph,
            nodes,
            initially_awake,
            BuiltFaults::default(),
            BuiltTopology::Static,
        )
    }
}

impl<N: Node, F: FaultModel, C: CdModel, T: TopologyModel> Engine<N, F, C, T> {
    /// Creates an engine like [`Engine::new`] driven by the given fault
    /// model (see [`crate::faults`] for the hook semantics) and
    /// dynamic-topology model (see [`crate::dyntopo`]; pass
    /// [`BuiltTopology::Static`] for a frozen graph): `topo`'s reshape hook
    /// runs at the top of every round and may swap the adjacency before
    /// that round's transmissions resolve. The collision-detection
    /// capability is the `C` type parameter.
    ///
    /// `graph` is the round-0 base topology (for a
    /// [`crate::dyntopo::Waypoint`] model it only fixes the node
    /// count — the round-0 reshape installs the disk graph of the
    /// seeded positions).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeCountMismatch`] if `nodes.len() != graph.len()`
    /// and [`Error::NodeOutOfRange`] if an initially-awake id is invalid.
    pub fn with_topology(
        graph: Graph,
        nodes: Vec<N>,
        initially_awake: impl IntoIterator<Item = NodeId>,
        faults: F,
        topo: T,
    ) -> Result<Self, Error> {
        if nodes.len() != graph.len() {
            return Err(Error::NodeCountMismatch {
                nodes: nodes.len(),
                graph: graph.len(),
            });
        }
        let n = graph.len();
        let mut awake = vec![false; n];
        for id in initially_awake {
            if id.index() >= n {
                return Err(Error::NodeOutOfRange {
                    node: id.index(),
                    n,
                });
            }
            awake[id.index()] = true;
        }
        let _ = u32::try_from(n).expect("node count fits u32");
        let mut active = ActiveSet::new(n);
        for (i, &a) in awake.iter().enumerate() {
            if a {
                active.insert(i);
            }
        }
        let done: Vec<bool> = nodes.iter().map(Node::is_done).collect();
        let done_count = done.iter().filter(|&&d| d).count();
        let nw = words_for(n);
        Ok(Engine {
            graph,
            nodes,
            awake,
            active,
            parked_until: vec![0; n],
            timers: BinaryHeap::new(),
            round: 0,
            stats: SimStats::new(),
            tx: (0..n).map(|_| None).collect(),
            tx_ids: Vec::new(),
            tx_mask: vec![0; nw],
            ones: vec![0; nw],
            twos: vec![0; nw],
            word_stamp: vec![u64::MAX; nw],
            touched_words: Vec::new(),
            last_tx: vec![0; n],
            done,
            done_count,
            dirty: Vec::new(),
            faults,
            topo,
            jam_stamp: vec![u64::MAX; n],
            jam_list: Vec::new(),
            ext_wakes: Vec::new(),
            detail: RoundRecord::default(),
            #[cfg(test)]
            force_deliver_on_collision: false,
            #[cfg(test)]
            force_noise_on_unique: false,
            #[cfg(test)]
            force_silence_on_collision: false,
            #[cfg(test)]
            churn_stale_graph: false,
            #[cfg(test)]
            churn_drop_edges_of: None,
            _cd: std::marker::PhantomData,
        })
    }

    /// Re-evaluates the cached done flag of node `i`.
    fn refresh_done(&mut self, i: usize) {
        let now = self.nodes[i].is_done();
        if now != self.done[i] {
            self.done[i] = now;
            if now {
                self.done_count += 1;
            } else {
                self.done_count -= 1;
            }
        }
    }

    /// Refreshes the done flags of nodes mutated via [`Engine::node_mut`]
    /// and cancels their parking (the harness may have changed state the
    /// activity hint was based on). Awake nodes outside `active` are
    /// exactly the parked ones; a timer entry stays in the heap, where
    /// firing it for an active node is a no-op and a re-park to the same
    /// round reuses it.
    fn flush_dirty(&mut self) {
        while let Some(i) = self.dirty.pop() {
            let i = i as usize;
            self.refresh_done(i);
            if self.awake[i] {
                self.active.insert(i);
            }
        }
    }

    /// Records that node `i`, already out of `active`, sleeps until
    /// round `next` (`> round + 1`; `u64::MAX` = until an event).
    /// `parked_until[i] == next` means the entry of an earlier park to
    /// this round is still pending (it pops at `next`, which is in the
    /// future), so no second entry is pushed.
    #[inline]
    fn park_until(&mut self, i: usize, next: u64) {
        if next != u64::MAX && next != self.parked_until[i] {
            #[allow(clippy::cast_possible_truncation)]
            self.timers.push(Reverse((next, i as u32))); // node count fits u32
        }
        self.parked_until[i] = next;
    }

    /// Re-asks awake node `v`'s activity hint after it received or
    /// heard noise in `round`, if it is parked: it stays parked while
    /// the new hint skips the next round, and returns to the polled set
    /// otherwise. An active node — a sleeper woken this round included —
    /// keeps its slot; its next poll asks anyway.
    #[inline]
    fn rehint(&mut self, v: usize, round: u64) {
        if self.active.contains(v) {
            return;
        }
        let next = self.nodes[v].next_activity(round);
        if next > round + 1 {
            self.park_until(v, next);
        } else {
            self.active.insert(v);
        }
    }

    /// Delivers a collision-noise observation to awake listener `v`
    /// (CD engines only): fires [`Node::collision_heard`], re-asks a
    /// parked node's activity hint, refreshes its done flag, and
    /// records a `noise` detail entry.
    #[inline]
    fn hear_noise<const DETAIL: bool>(&mut self, v: usize, v32: u32, round: u64) {
        self.nodes[v].collision_heard(round);
        self.rehint(v, round);
        if !self.done[v] {
            self.refresh_done(v);
        }
        if DETAIL {
            self.detail.noise.push(v32);
        }
    }

    /// `true` if every node currently reports [`Node::is_done`]. Tracked
    /// incrementally, so this is O(1) plus the cost of refreshing nodes
    /// recently exposed through [`Engine::node_mut`].
    pub fn all_done(&mut self) -> bool {
        self.flush_dirty();
        self.done_count == self.nodes.len()
    }

    /// The engine's fault model (harness-side inspection, e.g. a
    /// jammer's remaining budget).
    #[must_use]
    pub fn faults(&self) -> &F {
        &self.faults
    }

    /// Mutable access to the fault model, so a long-running harness can
    /// swap fault behaviour between rounds (e.g. a service flipping a
    /// runtime-dispatched [`crate::faults::BuiltFaults`] mid-session).
    /// Future rounds consult the new model; past rounds are unaffected.
    pub fn faults_mut(&mut self) -> &mut F {
        &mut self.faults
    }

    /// Executes one synchronous round and returns its channel events.
    ///
    /// Each phase touches only the nodes that matter: phase 1 polls the
    /// active set (sleepers and parked nodes cost nothing — see
    /// [`Node::next_activity`]), phase 2 walks transmitter
    /// neighborhoods accumulating word-parallel two-bit counters, and
    /// phase 3 visits only the 64-listener words touched in phase 2,
    /// counting collisions by popcount — per-round cost is
    /// O(active + Σ deg(tx)) rather than O(n · Δ).
    pub fn step(&mut self) -> RoundEvents {
        self.step_with::<false>()
    }

    /// [`Engine::step`], also filling the engine's [`RoundRecord`] when
    /// `DETAIL` is set. Every recording push sits behind `if DETAIL`,
    /// so the `false` instantiation is bit- and cost-identical to the
    /// pre-detail hot loop.
    ///
    /// [`FaultModel::enabled`] is read once per round, not per session:
    /// a harness may swap the fault model between rounds (see
    /// [`Engine::faults_mut`]). The round body is compiled once per
    /// answer, so a round with no fault present runs with every fault
    /// hook compiled out.
    fn step_with<const DETAIL: bool>(&mut self) -> RoundEvents {
        if self.faults.enabled() {
            self.round_with::<DETAIL, true>()
        } else {
            self.round_with::<DETAIL, false>()
        }
    }

    /// One round of [`Engine::step_with`], with the fault flag fixed.
    /// Each channel event is counted once, into the returned
    /// [`RoundEvents`]; the cumulative [`SimStats`] takes the round's
    /// sum at the end.
    fn round_with<const DETAIL: bool, const FAULTY: bool>(&mut self) -> RoundEvents {
        self.flush_dirty();
        if DETAIL {
            self.detail.clear();
            self.detail
                .external_wakes
                .extend_from_slice(&self.ext_wakes);
        }
        self.ext_wakes.clear();
        let round = self.round;
        // Dynamic topology: give the model a chance to swap the
        // adjacency before anything in this round resolves. The swap
        // happens before phase 1 polls, so phases 2/3 (and the jam
        // hook's ChannelView) all see one consistent per-round
        // snapshot — the same snapshot the ModelChecker's replayed
        // replica re-derives receptions against.
        #[cfg(test)]
        let stale = self.churn_stale_graph;
        #[cfg(not(test))]
        let stale = false;
        if let Some(g) = self.topo.reshape(round, &self.graph) {
            debug_assert_eq!(
                g.len(),
                self.graph.len(),
                "reshape must preserve the node count"
            );
            if !stale {
                self.graph = g;
            }
        }
        #[cfg(test)]
        if let Some(x) = self.churn_drop_edges_of {
            self.graph = crate::dyntopo::drop_node_edges(&self.graph, x as usize);
        }
        let mut outcome = RoundEvents {
            round,
            ..RoundEvents::default()
        };
        if FAULTY {
            self.faults.begin_round(round, &mut outcome.faults);
        }

        // Expired activity hints: return parked nodes to the pollable
        // set before phase 1. Entries whose `parked_until` no longer
        // matches are stale (a reception moved the node's hint, or it
        // was unparked and re-parked to another round since) and are
        // dropped; a matching entry of a node unparked meanwhile finds
        // it already active.
        while let Some(&Reverse((when, id))) = self.timers.peek() {
            if when > round {
                break;
            }
            self.timers.pop();
            let i = id as usize;
            if self.parked_until[i] == when {
                self.active.insert(i);
            }
        }

        // Clear the previous round's transmissions (only slots and mask
        // words that were actually written; idle ones are already zero).
        for idx in 0..self.tx_ids.len() {
            let t = self.tx_ids[idx] as usize;
            self.tx[t] = None;
            self.tx_mask[t / 64] = 0;
        }
        self.tx_ids.clear();

        // Phase 1: collect transmissions from active nodes, ascending.
        // The two-level bitset iteration snapshots each word, so parking
        // the node being visited is safe; insertions (wakes) only happen
        // in phase 3. Crashed nodes are fail-stop: not polled (so they
        // cannot transmit), state retained for recovery, never parked
        // (the hint contract requires a preceding poll).
        for swi in 0..self.active.summary_words() {
            let mut sw = self.active.summary_word(swi);
            while sw != 0 {
                let wi = (swi << 6) + sw.trailing_zeros() as usize;
                sw &= sw - 1;
                let base = wi << 6;
                let mut aw = self.active.word(wi);
                while aw != 0 {
                    let b = aw.trailing_zeros() as usize;
                    aw &= aw - 1;
                    let i = base + b;
                    if FAULTY && self.faults.is_crashed(i) {
                        continue;
                    }
                    #[allow(clippy::cast_possible_truncation)]
                    let raw = i as u32; // node count fits u32 (checked at construction)
                    if let Some(msg) = self.nodes[i].poll(round) {
                        outcome.transmissions += 1;
                        outcome.bits_transmitted += msg.size_bits() as u64;
                        self.tx[i] = Some(msg);
                        self.tx_ids.push(raw);
                        self.tx_mask[wi] |= 1u64 << b;
                        if DETAIL {
                            self.detail.transmitters.push(raw);
                        }
                    }
                    // Polling can complete a node (e.g. a source that
                    // finishes local work without ever receiving).
                    // Already-done nodes are not re-checked: completion
                    // is stable under poll/receive (see
                    // [`Node::is_done`]); harness mutation that could
                    // undo it goes through `node_mut`, which marks the
                    // node dirty.
                    if !self.done[i] {
                        self.refresh_done(i);
                    }
                    let next = self.nodes[i].next_activity(round);
                    if next > round + 1 {
                        self.active.remove(i);
                        self.park_until(i, next);
                    }
                }
            }
        }

        // Phase 2: word-parallel neighbor counting. Per touched listener
        // word, `ones`/`twos` form a saturating two-bit accumulator
        // (heard ≥ 1 / heard ≥ 2); the word-level stamp trick confines
        // both the lazy reset and phase 3 to transmitter neighborhoods.
        for idx in 0..self.tx_ids.len() {
            let t = self.tx_ids[idx];
            for &v in self.graph.neighbors(NodeId::new(t as usize)) {
                let vi = v.index();
                let wi = vi / 64;
                let bit = 1u64 << (vi % 64);
                if self.word_stamp[wi] != round {
                    self.word_stamp[wi] = round;
                    self.ones[wi] = 0;
                    self.twos[wi] = 0;
                    #[allow(clippy::cast_possible_truncation)]
                    self.touched_words.push(wi as u32);
                }
                self.twos[wi] |= self.ones[wi] & bit;
                self.ones[wi] |= bit;
                self.last_tx[vi] = t;
            }
        }

        // Jam hook: the fault model sees this round's transmitter set and
        // names the listeners that hear only noise. Marks expire on their
        // own (the stamp is compared against the current round).
        if FAULTY {
            let mut jam_list = std::mem::take(&mut self.jam_list);
            jam_list.clear();
            let view = ChannelView {
                graph: &self.graph,
                transmitters: &self.tx_ids,
            };
            self.faults.jam(round, &view, &mut jam_list);
            for &j in &jam_list {
                self.jam_stamp[j as usize] = round;
            }
            self.jam_list = jam_list;
        }

        // Phase 3: deliver to touched listeners with exactly one
        // transmitting neighbor; transmitters hear nothing (half-duplex,
        // a whole-word mask); sleeping nodes wake on their first
        // reception. Words are visited in sorted order and bits LSB
        // first, so the visiting order (and hence loss-RNG draws and
        // wake order) is identical to a full ascending scan.
        self.touched_words.sort_unstable();
        #[cfg(test)]
        let force_deliver = self.force_deliver_on_collision;
        #[cfg(not(test))]
        let force_deliver = false;
        #[cfg(test)]
        let force_noise = self.force_noise_on_unique;
        #[cfg(not(test))]
        let force_noise = false;
        #[cfg(test)]
        let force_silence = self.force_silence_on_collision;
        #[cfg(not(test))]
        let force_silence = false;
        // The bare word-parallel path: collisions are counted with one
        // popcount per word and only unique receivers are visited
        // per-bit. Anything that needs per-listener decisions or events
        // — fault hooks, loss RNG draws (whose order anchors
        // bit-identity), detail recording, collision detection, the test
        // sabotage switches — takes the per-bit slow path instead. All
        // of these constants monomorphize.
        let word_fast =
            !FAULTY && !DETAIL && !C::ENABLED && !force_deliver && !force_noise && !force_silence;
        for widx in 0..self.touched_words.len() {
            let wi = self.touched_words[widx] as usize;
            let base = wi << 6;
            let listeners = self.ones[wi] & !self.tx_mask[wi];
            if listeners == 0 {
                continue;
            }
            if word_fast {
                let ncoll = (listeners & self.twos[wi]).count_ones();
                outcome.collisions += ncoll as usize;
                let mut uniq = listeners & !self.twos[wi];
                while uniq != 0 {
                    let v = base + uniq.trailing_zeros() as usize;
                    uniq &= uniq - 1;
                    if !self.awake[v] {
                        self.awake[v] = true;
                        self.active.insert(v);
                        outcome.wakeups += 1;
                    }
                    let t = self.last_tx[v] as usize;
                    // `tx[t]` is Some by construction of `last_tx`.
                    let msg = self.tx[t].as_ref().expect("recorded transmitter sent");
                    self.nodes[v].receive(round, msg);
                    self.rehint(v, round);
                    outcome.receptions += 1;
                    if !self.done[v] {
                        self.refresh_done(v);
                    }
                }
                continue;
            }
            let mut rest = listeners;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let v = base + b;
                let vbit = 1u64 << b;
                #[allow(clippy::cast_possible_truncation)]
                let v32 = v as u32;
                // A crashed listener is deaf (and cannot be woken); a
                // jammed one hears noise. Neither registers as a
                // collision — to the node both are indistinguishable
                // from silence anyway.
                if FAULTY && self.faults.is_crashed(v) {
                    if self.twos[wi] & vbit == 0 {
                        outcome.faults.crashed_rx += 1;
                    }
                    if DETAIL {
                        self.detail.crashed.push(v32);
                    }
                    continue;
                }
                if FAULTY && self.jam_stamp[v] == round {
                    outcome.faults.jammed += 1;
                    if DETAIL {
                        self.detail.jammed.push(v32);
                    }
                    // Jamming is channel noise: to a CD listener it is
                    // indistinguishable from a genuine collision, so an
                    // awake jammed listener hears collision-noise (a
                    // no-CD listener still just hears silence).
                    if C::ENABLED && self.awake[v] {
                        self.hear_noise::<DETAIL>(v, v32, round);
                    }
                    continue;
                }
                let unique_rx = (self.twos[wi] & vbit == 0 && !force_noise) || force_deliver;
                if unique_rx {
                    // Fault-model loss draws advance in ascending
                    // listener order, keeping fixed-seed runs
                    // bit-identical.
                    if FAULTY
                        && self
                            .faults
                            .drop_delivery(round, self.last_tx[v] as usize, v)
                    {
                        outcome.faults.dropped += 1;
                        if DETAIL {
                            self.detail.dropped.push(v32);
                        }
                        continue;
                    }
                    if !self.awake[v] {
                        if FAULTY && self.faults.corrupt_wakeup(round, v) {
                            outcome.faults.wakeups_suppressed += 1;
                            if DETAIL {
                                self.detail.wakeups_suppressed.push(v32);
                            }
                            continue;
                        }
                        self.awake[v] = true;
                        self.active.insert(v);
                        outcome.wakeups += 1;
                        if DETAIL {
                            self.detail.woken.push(v32);
                        }
                    }
                    let t = self.last_tx[v] as usize;
                    // `tx[t]` is Some by construction of `last_tx`.
                    let msg = self.tx[t].as_ref().expect("recorded transmitter sent");
                    self.nodes[v].receive(round, msg);
                    // A dropped/jammed delivery leaves a parked node's
                    // hint standing (its state is untouched); an actual
                    // reception asks it again.
                    self.rehint(v, round);
                    outcome.receptions += 1;
                    if DETAIL {
                        self.detail.deliveries.push((v32, self.last_tx[v]));
                    }
                    if !self.done[v] {
                        self.refresh_done(v);
                    }
                } else {
                    outcome.collisions += 1;
                    if DETAIL {
                        self.detail.collisions.push(v32);
                    }
                    // The CD axiom: an awake, non-crashed, non-jammed
                    // listener with ≥ 2 transmitting neighbors observes
                    // collision-noise. Sleeping listeners hear nothing
                    // (noise carries no message and cannot wake).
                    if C::ENABLED && self.awake[v] && !force_silence {
                        self.hear_noise::<DETAIL>(v, v32, round);
                    }
                }
            }
        }
        self.touched_words.clear();

        self.round += 1;
        self.stats.add(&outcome);
        outcome
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Runs until every node reports [`Node::is_done`], for at most
    /// `max_rounds` rounds. Returns `true` on success.
    ///
    /// Equivalent to a [`Engine::run_session`] with a
    /// [`NoopObserver`], which compiles down to the bare step loop.
    pub fn run_until_all_done(&mut self, max_rounds: u64) -> bool {
        self.run_session(max_rounds, &mut NoopObserver).completed
    }

    /// Executes one round and reports it to `obs` — the round's channel
    /// events plus read-only access to every node state machine.
    ///
    /// If the observer opted in with [`Observer::DETAIL`], the round
    /// records its per-listener events and the observer additionally
    /// receives them as a [`crate::session::RoundDetail`]. The branch is
    /// on a monomorphized constant, so non-detail observers keep the
    /// bare hot loop.
    pub fn step_observed<O: Observer<N>>(&mut self, obs: &mut O) -> RoundEvents {
        let events = if O::DETAIL {
            self.step_with::<true>()
        } else {
            self.step()
        };
        obs.on_round(&events, &self.nodes);
        if O::DETAIL {
            obs.on_round_detail(&self.detail.detail(events.round), &self.nodes);
        }
        events
    }

    /// The engine-owned session loop: runs rounds until every node
    /// reports [`Node::is_done`] or `max_rounds` rounds elapsed,
    /// invoking `obs` after every round.
    ///
    /// Uses the incrementally maintained done counter (see
    /// [`Engine::all_done`]) instead of scanning every node each round.
    pub fn run_session<O: Observer<N>>(&mut self, max_rounds: u64, obs: &mut O) -> SessionEnd {
        self.run_session_with(max_rounds, obs, |e| {
            if e.all_done() {
                SessionControl::Stop
            } else {
                SessionControl::Continue
            }
        })
    }

    /// [`Engine::run_session`] with a custom control hook in place of
    /// the all-done stop condition.
    ///
    /// `control` is called with mutable engine access before the first
    /// round and again after every round, so a harness can inject
    /// external events for the round about to execute (dynamic packet
    /// arrivals via [`Engine::wake`] / [`Engine::node_mut`]) and decide
    /// when the session is over. Returning [`SessionControl::Stop`]
    /// ends the session as completed; exhausting `max_rounds` ends it
    /// as not completed.
    pub fn run_session_with<O: Observer<N>>(
        &mut self,
        max_rounds: u64,
        obs: &mut O,
        mut control: impl FnMut(&mut Self) -> SessionControl,
    ) -> SessionEnd {
        if control(self) == SessionControl::Stop {
            return SessionEnd {
                completed: true,
                rounds: self.round,
            };
        }
        for _ in 0..max_rounds {
            self.step_observed(obs);
            if control(self) == SessionControl::Stop {
                return SessionEnd {
                    completed: true,
                    rounds: self.round,
                };
            }
        }
        SessionEnd {
            completed: false,
            rounds: self.round,
        }
    }

    /// The round about to be executed (0 before the first [`Engine::step`]).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The simulated topology (harness-side observation only; protocol
    /// nodes have no access to this).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Immutable access to a node's state machine.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// All node state machines, indexed by node id.
    #[must_use]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Whether a node is currently awake.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn is_awake(&self, id: NodeId) -> bool {
        self.awake[id.index()]
    }

    /// Wakes a node from outside the radio channel — models an external
    /// event (e.g. a packet arriving at the node's application layer in
    /// the dynamic-arrival extension). Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn wake(&mut self, id: NodeId) {
        if !self.awake[id.index()] {
            self.awake[id.index()] = true;
            let raw = u32::try_from(id.index()).expect("node count fits u32");
            self.active.insert(id.index());
            self.ext_wakes.push(raw);
            self.stats.wakeups += 1;
        }
    }

    /// Mutable access to a node's state machine, for harness-side
    /// injection (external arrivals, fault injection). Protocol code
    /// never sees this — it is a tool of the omniscient harness.
    ///
    /// The harness may change the node's [`Node::is_done`] through this
    /// reference, so the node is marked for a done-flag refresh before
    /// the cached counter is next consulted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        self.dirty
            .push(u32::try_from(id.index()).expect("node count fits u32"));
        &mut self.nodes[id.index()]
    }

    /// Consumes the engine and returns the node state machines, for
    /// harness-side inspection after a run.
    #[must_use]
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::UniformLoss;
    use crate::topology;

    /// Transmits `plan[round]` each round; records receptions and (on
    /// CD engines) collision-noise observations.
    struct Scripted {
        plan: Vec<Option<u32>>,
        received: Vec<(u64, u32)>,
        noise_rounds: Vec<u64>,
    }

    impl Scripted {
        fn new(plan: Vec<Option<u32>>) -> Self {
            Scripted {
                plan,
                received: Vec::new(),
                noise_rounds: Vec::new(),
            }
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
        fn receive(&mut self, round: u64, msg: &u32) {
            self.received.push((round, *msg));
        }
        fn collision_heard(&mut self, round: u64) {
            self.noise_rounds.push(round);
        }
    }

    fn all_awake(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    #[test]
    fn unique_transmitter_is_received() {
        // path 0-1-2; node 0 transmits in round 0.
        let g = topology::path(3).unwrap();
        let nodes = vec![
            Scripted::new(vec![Some(7)]),
            Scripted::silent(),
            Scripted::silent(),
        ];
        let mut e = Engine::new(g, nodes, all_awake(3)).unwrap();
        let out = e.step();
        assert_eq!(out.transmissions, 1);
        assert_eq!(out.receptions, 1);
        assert_eq!(out.collisions, 0);
        assert_eq!(e.node(NodeId::new(1)).received, vec![(0, 7)]);
        assert!(e.node(NodeId::new(2)).received.is_empty());
    }

    #[test]
    fn two_transmitters_collide_without_detection() {
        // star: center 0, leaves 1 and 2 both transmit.
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1)]),
            Scripted::new(vec![Some(2)]),
        ];
        let mut e = Engine::new(g, nodes, all_awake(3)).unwrap();
        let out = e.step();
        assert_eq!(out.receptions, 0);
        assert_eq!(out.collisions, 1); // the center lost a reception
        assert!(e.node(NodeId::new(0)).received.is_empty());
    }

    #[test]
    fn transmitter_does_not_receive() {
        // path 0-1: both transmit simultaneously; neither receives.
        let g = topology::path(2).unwrap();
        let nodes = vec![Scripted::new(vec![Some(1)]), Scripted::new(vec![Some(2)])];
        let mut e = Engine::new(g, nodes, all_awake(2)).unwrap();
        let out = e.step();
        assert_eq!(out.receptions, 0);
        // Neither counts as a "collision" either: both were transmitting.
        assert_eq!(out.collisions, 0);
        assert!(e.node(NodeId::new(0)).received.is_empty());
        assert!(e.node(NodeId::new(1)).received.is_empty());
    }

    #[test]
    fn sleeping_node_wakes_on_first_reception_and_not_before() {
        // path 0-1-2, only node 0 awake; node 1 sleeps but still receives
        // (and wakes); node 2 stays asleep (its only neighbor 1 is silent).
        let g = topology::path(3).unwrap();
        let nodes = vec![
            Scripted::new(vec![Some(9)]),
            Scripted::new(vec![None, Some(5)]), // would transmit in round 1 if awake
            Scripted::silent(),
        ];
        let mut e = Engine::new(g, nodes, [NodeId::new(0)]).unwrap();
        assert!(!e.is_awake(NodeId::new(1)));
        e.step();
        assert!(e.is_awake(NodeId::new(1)));
        assert_eq!(e.stats().wakeups, 1);
        assert!(!e.is_awake(NodeId::new(2)));
        // Node 1 is awake now, so its round-1 transmission goes out.
        let out = e.step();
        assert_eq!(out.transmissions, 1);
        assert!(e.is_awake(NodeId::new(2)));
        assert_eq!(e.node(NodeId::new(2)).received, vec![(1, 5)]);
    }

    #[test]
    fn sleeping_node_is_not_polled() {
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new(vec![Some(1), Some(1)]),
            Scripted::new(vec![Some(99)]), // asleep: must NOT transmit in round 0
        ];
        let mut e = Engine::new(g, nodes, [NodeId::new(0)]).unwrap();
        let out = e.step();
        // If the sleeper had been polled, both would transmit and nothing
        // would be received.
        assert_eq!(out.transmissions, 1);
        assert_eq!(out.receptions, 1);
    }

    #[test]
    fn node_count_mismatch_rejected() {
        let g = topology::path(3).unwrap();
        let nodes = vec![Scripted::silent()];
        assert!(matches!(
            Engine::new(g, nodes, []),
            Err(Error::NodeCountMismatch { nodes: 1, graph: 3 })
        ));
    }

    #[test]
    fn awake_id_out_of_range_rejected() {
        let g = topology::path(2).unwrap();
        let nodes = vec![Scripted::silent(), Scripted::silent()];
        assert!(matches!(
            Engine::new(g, nodes, [NodeId::new(5)]),
            Err(Error::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    /// A lone leaf transmitting to its neighbor every round for `rounds`
    /// rounds under a [`UniformLoss`] of `rate`: the engine's stats and
    /// the rounds in which the neighbor actually received.
    fn lossy_link(rounds: usize, rate: f64, seed: u64) -> (SimStats, Vec<u64>) {
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..rounds).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        let faults = UniformLoss::new(rate, seed).unwrap();
        let mut e = faulted(g, nodes, all_awake(2), faults);
        e.run(rounds as u64);
        let rx = e
            .node(NodeId::new(1))
            .received
            .iter()
            .map(|r| r.0)
            .collect();
        (*e.stats(), rx)
    }

    #[test]
    fn full_loss_is_rejected_and_zero_is_noop() {
        assert!(UniformLoss::new(1.0, 0).is_err());
        assert!(UniformLoss::new(-0.1, 0).is_err());
        let (stats, rx) = lossy_link(1, 0.0, 0);
        assert_eq!(stats.receptions, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(rx, vec![0]);
    }

    #[test]
    fn loss_drops_about_the_right_fraction() {
        // 30% loss over 1000 one-message rounds: the recorded drop count
        // of this seed, which is also ~300.
        let (stats, _) = lossy_link(1000, 0.3, 42);
        assert_eq!(stats.dropped, 307);
        assert!((200..400).contains(&stats.dropped));
        assert_eq!(stats.receptions + stats.dropped, 1000);
    }

    #[test]
    fn loss_is_seed_deterministic() {
        // Compare the exact reception pattern, not a summary statistic.
        let run = |seed| lossy_link(100, 0.5, seed).1;
        assert_eq!(run(1), run(1));
        assert_eq!(
            run(1),
            [
                1, 2, 5, 6, 7, 8, 9, 19, 20, 21, 23, 25, 26, 29, 33, 36, 37, 39, 40, 42, 44, 45,
                48, 50, 52, 53, 54, 55, 56, 57, 59, 64, 65, 66, 71, 72, 74, 78, 79, 80, 82, 83, 84,
                90, 94, 95, 96, 97, 99
            ]
        );
        assert_eq!(
            run(2),
            [
                3, 5, 6, 7, 8, 10, 11, 13, 15, 16, 17, 20, 21, 22, 24, 25, 27, 28, 30, 33, 34, 37,
                39, 41, 43, 45, 46, 47, 49, 52, 53, 55, 58, 62, 65, 73, 77, 79, 80, 84, 85, 86, 92,
                93, 94
            ]
        );
    }

    /// Records every round's events; used to check observer plumbing.
    #[derive(Default)]
    struct Recorder {
        events: Vec<RoundEvents>,
    }

    impl Observer<Scripted> for Recorder {
        fn on_round(&mut self, events: &RoundEvents, _nodes: &[Scripted]) {
            self.events.push(*events);
        }
    }

    #[test]
    fn observer_sees_per_round_events_matching_stats() {
        // path 0-1-2, only node 0 awake: round 0 wakes node 1, round 1
        // (node 1's plan) wakes node 2.
        let g = topology::path(3).unwrap();
        let nodes = vec![
            Scripted::new(vec![Some(9)]),
            Scripted::new(vec![None, Some(5)]),
            Scripted::silent(),
        ];
        let mut e = Engine::new(g, nodes, [NodeId::new(0)]).unwrap();
        let mut rec = Recorder::default();
        let end = e.run_session(2, &mut rec);
        assert!(!end.completed); // Scripted never reports done
        assert_eq!(end.rounds, 2);
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].round, 0);
        assert_eq!(rec.events[0].transmissions, 1);
        assert_eq!(rec.events[0].receptions, 1);
        assert_eq!(rec.events[0].wakeups, 1);
        assert_eq!(rec.events[1].round, 1);
        assert_eq!(rec.events[1].wakeups, 1);
        let total_rx: usize = rec.events.iter().map(|ev| ev.receptions).sum();
        assert_eq!(total_rx as u64, e.stats().receptions);
        let total_wake: usize = rec.events.iter().map(|ev| ev.wakeups).sum();
        assert_eq!(total_wake as u64, e.stats().wakeups);
    }

    #[test]
    fn observer_reads_node_state_each_round() {
        // The observer can watch protocol-visible state evolve: count
        // rounds until node 1 has received something.
        struct FirstRx(Option<u64>);
        impl Observer<Scripted> for FirstRx {
            fn on_round(&mut self, events: &RoundEvents, nodes: &[Scripted]) {
                if self.0.is_none() && !nodes[1].received.is_empty() {
                    self.0 = Some(events.round);
                }
            }
        }
        let g = topology::path(2).unwrap();
        let nodes = vec![Scripted::new(vec![None, None, Some(3)]), Scripted::silent()];
        let mut e = Engine::new(g, nodes, all_awake(2)).unwrap();
        let mut obs = FirstRx(None);
        e.run_session(5, &mut obs);
        assert_eq!(obs.0, Some(2));
    }

    #[test]
    fn run_session_with_custom_control_stops_and_injects() {
        // Control wakes the sleeping node 1 before round 1 and stops
        // once it has transmitted (observed via stats).
        let g = topology::path(2).unwrap();
        let nodes = vec![Scripted::silent(), Scripted::new(vec![None, Some(7)])];
        let mut e = Engine::new(g, nodes, [NodeId::new(0)]).unwrap();
        let end = e.run_session_with(100, &mut NoopObserver, |e| {
            if e.round() == 1 {
                e.wake(NodeId::new(1));
            }
            if e.stats().transmissions > 0 {
                SessionControl::Stop
            } else {
                SessionControl::Continue
            }
        });
        assert!(end.completed);
        assert_eq!(end.rounds, 2); // woken before round 1, transmitted in it
        assert_eq!(e.node(NodeId::new(0)).received, vec![(1, 7)]);
    }

    #[test]
    fn run_session_precheck_stops_before_stepping() {
        let g = topology::path(2).unwrap();
        let nodes = vec![Scripted::silent(), Scripted::silent()];
        let mut e = Engine::new(g, nodes, all_awake(2)).unwrap();
        let end = e.run_session_with(100, &mut NoopObserver, |_| SessionControl::Stop);
        assert!(end.completed);
        assert_eq!(end.rounds, 0);
    }

    #[test]
    fn uniform_loss_fault_matches_recorded_drops() {
        // The salted loss stream is drawn at the same sequence points
        // as the engine's original hard-coded loss path: these are that
        // path's recorded receptions for seeds 9 and 10.
        let (stats, rx) = lossy_link(200, 0.5, 9);
        assert_eq!((stats.dropped, stats.receptions), (107, 93));
        assert_eq!(
            rx,
            [
                0, 1, 2, 3, 5, 9, 17, 18, 23, 25, 26, 28, 32, 34, 35, 38, 40, 44, 45, 46, 48, 49,
                51, 53, 55, 56, 61, 63, 68, 69, 70, 71, 73, 76, 77, 78, 80, 83, 86, 88, 89, 90, 92,
                95, 97, 99, 100, 102, 104, 105, 108, 109, 111, 112, 114, 120, 121, 123, 124, 129,
                130, 131, 134, 136, 138, 140, 143, 144, 145, 146, 147, 148, 149, 150, 152, 153,
                154, 156, 157, 160, 163, 164, 166, 176, 179, 180, 181, 182, 183, 189, 190, 191,
                193
            ]
        );
        let (stats, rx) = lossy_link(200, 0.5, 10);
        assert_eq!((stats.dropped, stats.receptions), (100, 100));
        assert_eq!(
            rx,
            [
                0, 1, 4, 7, 8, 9, 10, 14, 15, 19, 20, 23, 24, 25, 26, 28, 29, 33, 36, 38, 40, 41,
                43, 45, 46, 47, 48, 49, 52, 53, 55, 58, 60, 61, 62, 65, 66, 68, 70, 75, 77, 80, 81,
                83, 84, 85, 87, 88, 89, 90, 92, 94, 96, 100, 106, 109, 110, 111, 112, 113, 114,
                115, 116, 118, 119, 121, 123, 126, 128, 129, 130, 133, 134, 138, 140, 141, 145,
                146, 149, 151, 152, 153, 156, 159, 164, 174, 175, 177, 178, 182, 183, 184, 186,
                190, 192, 193, 194, 195, 198, 199
            ]
        );
    }

    #[test]
    fn with_no_faults_is_bit_identical_to_new() {
        // `Engine::new` and an empty `BuiltFaults` have no fault family,
        // so their rounds take the word-parallel path; a zero-rate loss
        // model is present, so the same rounds take the per-listener
        // path and draw nothing.
        let build = || {
            let g = topology::star(6).unwrap();
            let nodes = (0..6)
                .map(|i| Scripted::new((0..20).map(|r| (r % 3 == i % 3).then_some(i)).collect()))
                .collect::<Vec<_>>();
            (g, nodes)
        };
        let awake = [NodeId::new(0), NodeId::new(1)];
        let (g, nodes) = build();
        let mut a = Engine::new(g, nodes, awake).unwrap();
        let (g, nodes) = build();
        let mut b = faulted(g, nodes, awake, BuiltFaults::default());
        let (g, nodes) = build();
        let zero_loss = crate::faults::FaultSpec {
            uniform: Some(0.0),
            ..crate::faults::FaultSpec::default()
        };
        let mut c = faulted(g, nodes, awake, zero_loss.build(6, 0).unwrap());
        for _ in 0..20 {
            let out = a.step();
            assert_eq!(out, b.step());
            assert_eq!(out, c.step());
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.stats(), c.stats());
    }

    #[test]
    fn crashed_node_neither_transmits_nor_receives_and_recovers() {
        // Path 0-1: node 0 transmits every round; crash node 1 for
        // rounds [2, 5). While crashed it must miss receptions (counted
        // as crashed_rx) and its state machine must be untouched.
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..8).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        let faults = crate::faults::CrashSchedule::new(2, 1.0, 2, 3, Some(3), 0).unwrap();
        let mut e = faulted(g, nodes, all_awake(2), faults);
        for _ in 0..8 {
            e.step();
        }
        // Node 0 crashed too (fraction 1.0) so rounds 2..5 have no tx at
        // all; node 1 receives in rounds {0, 1} and {5, 6, 7}.
        let got: Vec<u64> = e
            .node(NodeId::new(1))
            .received
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(got, vec![0, 1, 5, 6, 7]);
        assert_eq!(e.stats().crash_events, 2);
        assert_eq!(e.stats().recover_events, 2);
        assert_eq!(e.stats().transmissions, 5);
        assert_eq!(e.stats().crashed_rx, 0, "no tx while both were crashed");
    }

    #[test]
    fn crashed_listener_counts_crashed_rx() {
        // Crash only happens when fraction picks node 1: use a star and
        // check the aggregate instead — node 1 listens, node 0 transmits,
        // all nodes crashed from round 1 onward, never recovering.
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..4).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        // Only node 1 in the victim set: fraction 0.5 picks 1 of 2 by
        // seeded shuffle — use the first seed that picks node 1.
        let seed = (0..64)
            .find(|&s| {
                crate::faults::CrashSchedule::new(2, 0.5, 1, 2, None, s)
                    .unwrap()
                    .timeline()
                    == [(1, 1, true)]
            })
            .expect("some seed picks node 1");
        let faults = crate::faults::CrashSchedule::new(2, 0.5, 1, 2, None, seed).unwrap();
        let mut e = faulted(g, nodes, all_awake(2), faults);
        for _ in 0..4 {
            e.step();
        }
        assert_eq!(e.node(NodeId::new(1)).received.len(), 1); // round 0 only
        assert_eq!(e.stats().crashed_rx, 3);
        assert_eq!(e.stats().receptions, 1);
    }

    #[test]
    fn jammer_silences_the_hot_neighborhood() {
        // Star: leaf 1 transmits to the center every round; a jammer
        // with budget 2 kills exactly the first two receptions.
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new((0..6).map(|_| Some(1)).collect()),
            Scripted::silent(),
        ];
        let faults = crate::faults::AdversarialJammer::new(2);
        let mut e = faulted(g, nodes, all_awake(3), faults);
        for _ in 0..6 {
            e.step();
        }
        assert_eq!(e.stats().jammed, 2);
        assert_eq!(e.faults().remaining(), 0);
        let got: Vec<u64> = e
            .node(NodeId::new(0))
            .received
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(got, vec![2, 3, 4, 5], "rounds 0 and 1 jammed");
    }

    #[test]
    fn corrupted_wakeup_loses_message_and_keeps_node_asleep() {
        // Path 0-1-2, only 0 awake; wake-up corruption rate 1 keeps 1
        // asleep forever (radio wake-ups never succeed).
        let g = topology::path(3).unwrap();
        let nodes = vec![
            Scripted::new((0..5).map(|_| Some(9)).collect()),
            Scripted::new(vec![None, Some(5)]),
            Scripted::silent(),
        ];
        let faults = crate::faults::WakeupCorrupt::new(1.0, 0).unwrap();
        let mut e = faulted(g, nodes, [NodeId::new(0)], faults);
        for _ in 0..5 {
            e.step();
        }
        assert!(!e.is_awake(NodeId::new(1)));
        assert!(e.node(NodeId::new(1)).received.is_empty());
        assert_eq!(e.stats().wakeups_suppressed, 5);
        assert_eq!(e.stats().wakeups, 0);
    }

    #[test]
    fn observer_sees_fault_events() {
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..50).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        let faults = UniformLoss::new(0.5, 3).unwrap();
        let mut e = faulted(g, nodes, all_awake(2), faults);
        let mut rec = Recorder::default();
        e.run_session(50, &mut rec);
        let dropped: usize = rec.events.iter().map(|ev| ev.faults.dropped).sum();
        assert_eq!(dropped as u64, e.stats().dropped);
        assert!(dropped > 0);
    }

    /// A no-CD engine on a frozen graph under `faults`.
    fn faulted<F: FaultModel>(
        g: Graph,
        nodes: Vec<Scripted>,
        awake: impl IntoIterator<Item = NodeId>,
        faults: F,
    ) -> Engine<Scripted, F> {
        Engine::with_topology(g, nodes, awake, faults, BuiltTopology::Static).unwrap()
    }

    fn cd_engine<F: FaultModel>(
        g: Graph,
        nodes: Vec<Scripted>,
        awake: Vec<NodeId>,
        faults: F,
    ) -> Engine<Scripted, F, WithCd> {
        Engine::with_topology(g, nodes, awake, faults, BuiltTopology::Static).unwrap()
    }

    #[test]
    fn cd_listener_hears_noise_on_collision() {
        // Star: leaves 1 and 2 collide at the hub. With CD the hub
        // observes collision-noise; the transmitting leaves (half-
        // duplex) and the uninvolved leaf 3 hear nothing.
        let g = topology::star(4).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1)]),
            Scripted::new(vec![Some(2)]),
            Scripted::silent(),
        ];
        let mut e = cd_engine(g, nodes, all_awake(4), BuiltFaults::default());
        let out = e.step();
        assert_eq!(out.collisions, 1);
        assert_eq!(e.node(NodeId::new(0)).noise_rounds, vec![0]);
        assert!(e.node(NodeId::new(1)).noise_rounds.is_empty());
        assert!(e.node(NodeId::new(2)).noise_rounds.is_empty());
        assert!(e.node(NodeId::new(3)).noise_rounds.is_empty());
    }

    #[test]
    fn nocd_engine_never_calls_the_hook() {
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1)]),
            Scripted::new(vec![Some(2)]),
        ];
        let mut e = Engine::new(g, nodes, all_awake(3)).unwrap();
        let out = e.step();
        assert_eq!(out.collisions, 1);
        assert!(e.node(NodeId::new(0)).noise_rounds.is_empty());
    }

    #[test]
    fn cd_sleeping_listener_hears_nothing_and_stays_asleep() {
        // Same collision, but the hub sleeps: noise carries no message
        // and cannot wake a node.
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new(vec![Some(1)]),
            Scripted::new(vec![Some(2)]),
        ];
        let mut e = cd_engine(
            g,
            nodes,
            vec![NodeId::new(1), NodeId::new(2)],
            BuiltFaults::default(),
        );
        e.step();
        assert!(!e.is_awake(NodeId::new(0)));
        assert!(e.node(NodeId::new(0)).noise_rounds.is_empty());
    }

    #[test]
    fn cd_jammed_listener_hears_noise_not_silence() {
        // Path 0-1: a single transmitter, but rounds 0 and 1 are jammed
        // — to a CD listener jamming is indistinguishable from a
        // collision, so node 1 hears noise in exactly those rounds.
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Scripted::new((0..4).map(|_| Some(7)).collect()),
            Scripted::silent(),
        ];
        let faults = crate::faults::AdversarialJammer::new(2);
        let mut e = cd_engine(g, nodes, all_awake(2), faults);
        for _ in 0..4 {
            e.step();
        }
        assert_eq!(e.node(NodeId::new(1)).noise_rounds, vec![0, 1]);
        let got: Vec<u64> = e
            .node(NodeId::new(1))
            .received
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(got, vec![2, 3]);
        assert_eq!(e.stats().jammed, 2);
    }

    #[test]
    fn cd_crashed_listener_is_deaf_to_noise() {
        // Star hub crashed while the leaves collide: fail-stop nodes
        // are deaf to noise as well as to messages.
        let g = topology::star(3).unwrap();
        let nodes = vec![
            Scripted::silent(),
            Scripted::new((0..4).map(|_| Some(1)).collect()),
            Scripted::new((0..4).map(|_| Some(2)).collect()),
        ];
        // Crash everyone from round 1 onward: leaves stop transmitting
        // too, so only round 0 has a collision at the (not yet crashed)
        // hub — crash at round 1+ must produce zero further noise.
        let faults = crate::faults::CrashSchedule::new(3, 1.0, 1, 2, None, 0).unwrap();
        let mut e = cd_engine(g, nodes, all_awake(3), faults);
        for _ in 0..4 {
            e.step();
        }
        assert_eq!(e.node(NodeId::new(0)).noise_rounds, vec![0]);
    }

    #[test]
    fn cd_engine_outcomes_are_bit_identical_to_nocd() {
        // The CD hook adds an observation channel but never changes the
        // round outcomes, stats, or receptions of a no-CD run.
        let build = || {
            let g = topology::star(6).unwrap();
            let nodes = (0..6)
                .map(|i| Scripted::new((0..20).map(|r| (r % 3 == i % 3).then_some(i)).collect()))
                .collect::<Vec<_>>();
            (g, nodes)
        };
        let (g, nodes) = build();
        let mut a = Engine::new(g, nodes, all_awake(6)).unwrap();
        let (g, nodes) = build();
        let mut b = cd_engine(g, nodes, all_awake(6), BuiltFaults::default());
        for _ in 0..20 {
            assert_eq!(a.step(), b.step());
        }
        assert_eq!(a.stats(), b.stats());
        for i in 0..6 {
            assert_eq!(
                e_received(&a, i),
                e_received_cd(&b, i),
                "receptions diverged at node {i}"
            );
        }
        assert!(
            (0..6).any(|i| !b.node(NodeId::new(i)).noise_rounds.is_empty()),
            "test should exercise noise"
        );
    }

    fn e_received(e: &Engine<Scripted>, i: usize) -> &[(u64, u32)] {
        &e.node(NodeId::new(i)).received
    }

    fn e_received_cd(e: &Engine<Scripted, BuiltFaults, WithCd>, i: usize) -> &[(u64, u32)] {
        &e.node(NodeId::new(i)).received
    }

    #[test]
    fn cd_noise_re_asks_a_parked_nodes_hint() {
        // A parked node that hears noise is asked for a fresh hint: it
        // returns to the polled set only when the noise shortened it.
        // The hub wants a poll right after noise in an even round and
        // parks forever otherwise.
        struct Parker {
            polls: Vec<u64>,
            noise_rounds: Vec<u64>,
            wake_at: u64,
        }
        impl Node for Parker {
            type Msg = u32;
            fn poll(&mut self, round: u64) -> Option<u32> {
                self.polls.push(round);
                None
            }
            fn receive(&mut self, _round: u64, _msg: &u32) {}
            fn collision_heard(&mut self, round: u64) {
                self.noise_rounds.push(round);
                if round.is_multiple_of(2) {
                    self.wake_at = round + 1;
                }
            }
            fn next_activity(&self, round: u64) -> u64 {
                if self.wake_at > round {
                    self.wake_at
                } else {
                    u64::MAX
                }
            }
        }
        struct Shouter;
        impl Node for Shouter {
            type Msg = u32;
            fn poll(&mut self, _round: u64) -> Option<u32> {
                Some(1)
            }
            fn receive(&mut self, _round: u64, _msg: &u32) {}
        }
        // Star: both leaves shout forever, so the hub hears noise in
        // every round.
        let g = topology::star(3).unwrap();
        let hub = Parker {
            polls: Vec::new(),
            noise_rounds: Vec::new(),
            wake_at: 0,
        };
        enum Either {
            Hub(Parker),
            Leaf(Shouter),
        }
        impl Node for Either {
            type Msg = u32;
            fn poll(&mut self, round: u64) -> Option<u32> {
                match self {
                    Either::Hub(p) => p.poll(round),
                    Either::Leaf(s) => s.poll(round),
                }
            }
            fn receive(&mut self, round: u64, msg: &u32) {
                match self {
                    Either::Hub(p) => p.receive(round, msg),
                    Either::Leaf(s) => s.receive(round, msg),
                }
            }
            fn collision_heard(&mut self, round: u64) {
                if let Either::Hub(p) = self {
                    p.collision_heard(round);
                }
            }
            fn next_activity(&self, round: u64) -> u64 {
                match self {
                    Either::Hub(p) => p.next_activity(round),
                    Either::Leaf(_) => round + 1,
                }
            }
        }
        let nodes = vec![
            Either::Hub(hub),
            Either::Leaf(Shouter),
            Either::Leaf(Shouter),
        ];
        let mut e: Engine<Either, BuiltFaults, WithCd> = Engine::with_topology(
            g,
            nodes,
            all_awake(3),
            BuiltFaults::default(),
            BuiltTopology::Static,
        )
        .unwrap();
        for _ in 0..7 {
            e.step();
        }
        match e.node(NodeId::new(0)) {
            Either::Hub(p) => {
                assert_eq!(p.noise_rounds, (0..7).collect::<Vec<_>>());
                // Parked forever after each poll; noise in an even round
                // shortens the hint to the next round, noise in an odd
                // one leaves it parked.
                assert_eq!(p.polls, vec![0, 1, 3, 5]);
            }
            Either::Leaf(_) => unreachable!(),
        }
    }

    #[test]
    fn repark_to_the_same_round_reuses_the_timer_entry() {
        // Node 0 transmits in rounds 0..20. Node 1 promises round 50
        // after its round-0 poll; each reception asks again and gets the
        // same round, so the node stays parked and the heap keeps its
        // one pending entry instead of gaining one per reception.
        struct Reparker {
            tx_until: u64,
            wake_at: u64,
            polls: Vec<u64>,
        }
        impl Node for Reparker {
            type Msg = u32;
            fn poll(&mut self, round: u64) -> Option<u32> {
                self.polls.push(round);
                (round < self.tx_until).then_some(1)
            }
            fn receive(&mut self, _round: u64, _msg: &u32) {}
            fn next_activity(&self, round: u64) -> u64 {
                if round < self.tx_until {
                    round + 1
                } else {
                    self.wake_at.max(round + 1)
                }
            }
        }
        let g = topology::path(2).unwrap();
        let nodes = vec![
            Reparker {
                tx_until: 20,
                wake_at: 0,
                polls: Vec::new(),
            },
            Reparker {
                tx_until: 0,
                wake_at: 50,
                polls: Vec::new(),
            },
        ];
        let mut e = Engine::new(g, nodes, all_awake(2)).unwrap();
        for _ in 0..60 {
            e.step();
            assert!(e.timers.len() <= 1, "heap holds {} entries", e.timers.len());
        }
        // Receptions do not wake it: polled at round 0, then parked
        // until the entry fires at round 50.
        let want: Vec<u64> = std::iter::once(0).chain(50..60).collect();
        assert_eq!(e.node(NodeId::new(1)).polls, want);
        assert!(e.timers.is_empty());
    }

    #[test]
    fn stats_accumulate_bits() {
        let g = topology::path(2).unwrap();
        let nodes = vec![Scripted::new(vec![Some(1), Some(2)]), Scripted::silent()];
        let mut e = Engine::new(g, nodes, all_awake(2)).unwrap();
        e.run(2);
        assert_eq!(e.stats().transmissions, 2);
        assert_eq!(e.stats().bits_transmitted, 64); // two u32 messages
        assert_eq!(e.stats().rounds, 2);
    }
}
