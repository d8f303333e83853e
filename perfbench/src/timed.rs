//! Host-time instrumentation of the simulator's layers, built only from
//! their public seams: a [`Node`] wrapper that counts every `poll` and
//! `receive` and times a sample of them, a step-timing session loop over
//! [`Engine::run_session_with`], and a [`BroadcastProtocol`] wrapper
//! that runs any protocol through the real session driver with both.
//!
//! The wrappers forward every method — including
//! [`Node::next_activity`] and [`Node::is_done`] — so parking, the
//! round loop and every simulated count are unchanged: a timed session
//! is bit-identical to the untimed one (pinned by
//! `tests/timed_identity.rs`).

use std::cell::{Cell, RefCell};
use std::time::Instant;

use kbcast::packet::PacketKey;
use kbcast::runner::Workload;
use kbcast::session::{BroadcastProtocol, NetParams};
use radio_net::dyntopo::TopologyModel;
use radio_net::engine::{CdModel, Engine, Node};
use radio_net::faults::FaultModel;
use radio_net::graph::NodeId;
use radio_net::session::{Observer, RoundDetail, RoundEvents, SessionControl, SessionEnd};
use radio_net::trace::{StageProbe, StageSample};
use radio_net::verify::{Check, Violation};

/// One in this many node callbacks of each kind is timed; the rest are
/// only counted. Reading the clock costs about 50 ns on a 2-vCPU Xeon
/// host, as much as a typical `poll`, so timing every call would
/// distort the steps it sits in.
pub const SAMPLE: u64 = 16;

/// Calls, timed calls and host time of one node callback kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallCounter {
    /// Calls.
    pub calls: u64,
    /// Calls that were timed (every [`SAMPLE`]-th).
    pub timed: u64,
    /// Host nanoseconds inside the timed calls.
    pub ns: u64,
}

impl CallCounter {
    const ZERO: Self = CallCounter {
        calls: 0,
        timed: 0,
        ns: 0,
    };

    /// Estimated host seconds inside all calls: the timed calls' mean,
    /// less the clock's own cost, times the call count.
    #[must_use]
    pub fn secs(&self, ov: &Overhead) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let per_call = (self.ns as f64 / self.timed as f64 - ov.inside_ns).max(0.0);
        #[allow(clippy::cast_precision_loss)]
        let total = per_call * self.calls as f64 / 1e9;
        total
    }

    /// Counts one call and reports whether to time it.
    fn sampled(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(SAMPLE)
    }

    fn record(&mut self, ns: u64) {
        self.timed += 1;
        self.ns += ns;
    }
}

/// Node-callback counters, accumulated per thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// `poll`.
    pub poll: CallCounter,
    /// `receive`.
    pub receive: CallCounter,
}

impl NodeCounters {
    /// Callbacks of either kind.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.poll.calls + self.receive.calls
    }
}

thread_local! {
    static COUNTERS: Cell<NodeCounters> = const {
        Cell::new(NodeCounters {
            poll: CallCounter::ZERO,
            receive: CallCounter::ZERO,
        })
    };
}

/// Returns this thread's node counters and resets them to zero.
pub fn take_counters() -> NodeCounters {
    COUNTERS.with(|c| c.replace(NodeCounters::default()))
}

fn counters() -> NodeCounters {
    COUNTERS.with(Cell::get)
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` as one call counted by `pick(counters)`, timing it if it is
/// a sampled one.
fn count<R>(pick: fn(&mut NodeCounters) -> &mut CallCounter, f: impl FnOnce() -> R) -> R {
    let mut c = counters();
    let sampled = pick(&mut c).sampled();
    let r = if sampled {
        let start = Instant::now();
        let r = f();
        let ns = elapsed_ns(start);
        // `f` may not touch the counters, so `c` is still current.
        pick(&mut c).record(ns);
        r
    } else {
        f()
    };
    COUNTERS.with(|cell| cell.set(c));
    r
}

/// The timing wrapper's own cost, measured on a no-op node:
/// `inside_ns` is what a timed interval reads around an empty body and
/// `per_call_ns` what the wrapper adds to a step per call, averaged over
/// timed and untimed calls. The benchmark subtracts both, so the layer
/// times it reports estimate the untraced program's.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Overhead {
    /// Nanoseconds a timed empty call reads.
    pub inside_ns: f64,
    /// Nanoseconds the wrapper adds per call.
    pub per_call_ns: f64,
}

impl Overhead {
    /// Measures the wrapper around a node whose callbacks do nothing:
    /// the median over 15 batches of 160 000 `poll` calls.
    #[must_use]
    pub fn calibrate() -> Self {
        struct Nop;
        impl Node for Nop {
            type Msg = ();
            fn poll(&mut self, _round: u64) -> Option<()> {
                None
            }
            fn receive(&mut self, _round: u64, _msg: &()) {}
        }
        const CALLS: u32 = 160_000;
        let saved = take_counters();
        let mut node = TimedNode(Nop);
        let mut inside = Vec::new();
        let mut per_call = Vec::new();
        let mut empty = Vec::new();
        for _ in 0..15 {
            let start = Instant::now();
            for r in 0..u64::from(CALLS) {
                std::hint::black_box(std::hint::black_box(&mut node).poll(r));
            }
            let wrapped = elapsed_ns(start);
            let mut bare = Nop;
            let start = Instant::now();
            for r in 0..u64::from(CALLS) {
                std::hint::black_box(std::hint::black_box(&mut bare).poll(r));
            }
            let bare_ns = elapsed_ns(start);
            let c = take_counters();
            #[allow(clippy::cast_precision_loss)]
            {
                inside.push(c.poll.ns as f64 / c.poll.timed as f64);
                per_call.push(wrapped as f64 / f64::from(CALLS));
                empty.push(bare_ns as f64 / f64::from(CALLS));
            }
        }
        COUNTERS.with(|c| c.set(saved));
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        Overhead {
            inside_ns: median(inside),
            per_call_ns: (median(per_call) - median(empty)).max(0.0),
        }
    }

    /// A step of `ns` containing `calls` wrapped calls, less the
    /// wrapper's cost.
    #[must_use]
    pub fn step(&self, ns: u64, calls: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let ns = ns as f64 - calls as f64 * self.per_call_ns;
        ns.max(0.0)
    }
}

/// A protocol node whose `poll` and `receive` are counted, and one in
/// [`SAMPLE`] of them timed, into this thread's [`NodeCounters`].
/// `repr(transparent)`, so a slice of wrappers is a slice of the inner
/// nodes (see [`unwrap_nodes`]).
#[repr(transparent)]
#[derive(Clone, Debug)]
pub struct TimedNode<N>(pub N);

impl<N: Node> Node for TimedNode<N> {
    type Msg = N::Msg;

    fn poll(&mut self, round: u64) -> Option<Self::Msg> {
        count(|c| &mut c.poll, || self.0.poll(round))
    }

    fn receive(&mut self, round: u64, msg: &Self::Msg) {
        count(|c| &mut c.receive, || self.0.receive(round, msg));
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn collision_heard(&mut self, round: u64) {
        self.0.collision_heard(round);
    }

    fn next_activity(&self, round: u64) -> u64 {
        self.0.next_activity(round)
    }
}

/// Views wrapped nodes as the inner nodes.
#[must_use]
fn unwrap_nodes<N>(nodes: &[TimedNode<N>]) -> &[N] {
    // SAFETY: `TimedNode<N>` is `repr(transparent)` over its single
    // field `N`, so it has `N`'s size, alignment and layout; a slice of
    // `len` wrappers is therefore a valid slice of `len` `N`s, borrowed
    // for the same lifetime.
    unsafe { std::slice::from_raw_parts(nodes.as_ptr().cast::<N>(), nodes.len()) }
}

/// Per-round host times of one session's engine steps.
#[derive(Clone, Debug, Default)]
pub struct StepLog {
    /// Host nanoseconds per executed round (the step plus the
    /// session's observers), in round order.
    pub step_ns: Vec<u64>,
    /// Node `poll`/`receive` calls per executed round.
    pub calls: Vec<u64>,
    /// Awake nodes after each round.
    pub awake: Vec<u32>,
    /// When the session loop started and ended (the step times plus
    /// the bookkeeping between them).
    pub start: Option<Instant>,
    /// See [`StepLog::start`].
    pub end: Option<Instant>,
}

impl StepLog {
    /// Per-round step nanoseconds less the wrapper's cost.
    #[must_use]
    pub fn steps(&self, ov: &Overhead) -> Vec<f64> {
        self.step_ns
            .iter()
            .zip(&self.calls)
            .map(|(&ns, &calls)| ov.step(ns, calls))
            .collect()
    }

    /// Total step seconds less the wrapper's cost.
    #[must_use]
    pub fn secs(&self, ov: &Overhead) -> f64 {
        self.steps(ov).iter().sum::<f64>() / 1e9
    }
}

/// [`Engine::run_session`] with every round timed into `log`: runs
/// until every node is done or `cap` rounds pass. The stop rule and the
/// observer calls are the engine's own, so the session is the same as
/// an untimed `run_session`/`run_until_all_done` one; the bookkeeping
/// (including the O(n) awake count) happens between the timed steps.
pub fn run_timed<N, F, C, T, O>(
    engine: &mut Engine<N, F, C, T>,
    cap: u64,
    obs: &mut O,
    log: &mut StepLog,
) -> SessionEnd
where
    N: Node,
    F: FaultModel,
    C: CdModel,
    T: TopologyModel,
    O: Observer<N>,
{
    let n = engine.nodes().len();
    let mut started: Option<(Instant, NodeCounters)> = None;
    log.start = Some(Instant::now());
    let end = engine.run_session_with(cap, obs, |e| {
        let step_ns = started.map(|(t, _)| elapsed_ns(t));
        if let (Some(ns), Some((_, c0))) = (step_ns, started) {
            let c = counters();
            log.step_ns.push(ns);
            log.calls.push(c.calls() - c0.calls());
            let awake = (0..n).filter(|&i| e.is_awake(NodeId::new(i))).count();
            log.awake.push(u32::try_from(awake).unwrap_or(u32::MAX));
        }
        let control = if e.all_done() {
            SessionControl::Stop
        } else {
            SessionControl::Continue
        };
        started = Some((Instant::now(), counters()));
        control
    });
    log.end = Some(Instant::now());
    end
}

/// Adapts an observer of inner nodes to [`TimedNode`]s.
pub struct TimedObs<O>(pub O);

impl<N: Node, O: Observer<N>> Observer<TimedNode<N>> for TimedObs<O> {
    const DETAIL: bool = O::DETAIL;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[TimedNode<N>]) {
        self.0.on_round(events, unwrap_nodes(nodes));
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[TimedNode<N>]) {
        self.0.on_round_detail(detail, unwrap_nodes(nodes));
    }
}

struct CheckAdapter<N: Node>(Box<dyn Check<N>>);

impl<N: Node> Check<TimedNode<N>> for CheckAdapter<N> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_round(&mut self, events: &RoundEvents, nodes: &[TimedNode<N>]) {
        self.0.on_round(events, unwrap_nodes(nodes));
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[TimedNode<N>]) {
        self.0.on_round_detail(detail, unwrap_nodes(nodes));
    }

    fn on_session_end(&mut self, nodes: &[TimedNode<N>], end: &SessionEnd) {
        self.0.on_session_end(unwrap_nodes(nodes), end);
    }

    fn violations(&self) -> &[Violation] {
        self.0.violations()
    }

    fn total_violations(&self) -> usize {
        self.0.total_violations()
    }
}

struct ProbeAdapter<N>(Box<dyn StageProbe<N>>);

impl<N> StageProbe<TimedNode<N>> for ProbeAdapter<N> {
    fn sample(&mut self, events: &RoundEvents, nodes: &[TimedNode<N>]) -> StageSample {
        self.0.sample(events, unwrap_nodes(nodes))
    }
}

/// Runs protocol `P` through the real session driver with timed nodes
/// and timed steps. The step log of the last session is kept for
/// [`Timed::take_log`].
///
/// Only protocols that use the default [`BroadcastProtocol::drive`]
/// (run until all done) are supported — this wrapper's drive is that
/// loop with timing, not the inner protocol's override.
pub struct Timed<P> {
    /// The wrapped protocol.
    pub inner: P,
    log: RefCell<StepLog>,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            log: RefCell::new(StepLog::default()),
        }
    }

    /// The step log of the last session, leaving an empty one.
    pub fn take_log(&self) -> StepLog {
        self.log.take()
    }
}

impl<P: BroadcastProtocol> BroadcastProtocol for Timed<P>
where
    P::Node: 'static,
{
    type Node = TimedNode<P::Node>;
    type Cd = P::Cd;
    type Obs = TimedObs<P::Obs>;
    type Meta = P::Meta;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<Self::Node>, Vec<NodeId>) {
        let (nodes, awake) = self.inner.build(net, workload, seed);
        (nodes.into_iter().map(TimedNode).collect(), awake)
    }

    fn observer(&self, net: &NetParams) -> Self::Obs {
        TimedObs(self.inner.observer(net))
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        self.inner.round_cap(net, k)
    }

    fn expected_keys(&self, workload: &Workload) -> Vec<PacketKey> {
        self.inner.expected_keys(workload)
    }

    fn delivered(&self, node: &Self::Node) -> Vec<PacketKey> {
        self.inner.delivered(&node.0)
    }

    fn drive<F: FaultModel, T: TopologyModel, O: Observer<Self::Node>>(
        &self,
        engine: &mut Engine<Self::Node, F, Self::Cd, T>,
        cap: u64,
        obs: &mut O,
    ) -> SessionEnd {
        let mut log = StepLog::default();
        let end = run_timed(engine, cap, obs, &mut log);
        self.log.replace(log);
        end
    }

    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<Self::Node>> {
        Box::new(ProbeAdapter(self.inner.trace_probe(net)))
    }

    fn verify_checks(
        &self,
        net: &NetParams,
        workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn Check<Self::Node>>> {
        self.inner
            .verify_checks(net, workload, clean)
            .into_iter()
            .map(|c| Box::new(CheckAdapter(c)) as Box<dyn Check<Self::Node>>)
            .collect()
    }

    fn finish(&self, obs: Self::Obs, nodes: &[Self::Node], end: &SessionEnd) -> Self::Meta {
        self.inner.finish(obs.0, unwrap_nodes(nodes), end)
    }
}
