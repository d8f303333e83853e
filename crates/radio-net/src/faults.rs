//! Composable, deterministic fault injection for the radio channel.
//!
//! The paper's model is a *clean* synchronous channel: the only way to
//! lose a message is a collision. This module layers adversity on top —
//! i.i.d. reception loss, bursty per-edge loss, crash/recover
//! schedules, budgeted jamming, wake-up corruption — behind one
//! [`FaultModel`] trait with per-round hooks, so experiments can map
//! *where the w.h.p. guarantees break* without touching protocol code.
//!
//! ## One engine, a per-round flag
//!
//! Every session runs the engine over [`BuiltFaults`]. The engine reads
//! [`FaultModel::enabled`] once at the top of each round; when it is
//! `false` (an empty [`BuiltFaults`], the paper's clean channel) every
//! fault hook is skipped and deliveries take the word-parallel path,
//! exactly as if no fault model existed (`scripts/perf_gate.sh` holds
//! that path to its throughput floors).
//!
//! ## Determinism contract
//!
//! Every model draws all of its randomness from
//! [`crate::rng::stream`] with a model-specific salt
//! ([`crate::rng::salts`]), seeded at construction. Given the same
//! seed, graph and protocol schedule, a faulted run is bit-identical
//! across executions, thread counts and platforms — the same contract
//! the rest of the workspace upholds. Model state advances only inside
//! the engine's round loop (never lazily on harness queries), so the
//! query pattern cannot perturb the streams.
//!
//! ## Hook semantics (what the engine does with each answer)
//!
//! * [`FaultModel::begin_round`] — advance timelines; report
//!   crash/recover transitions into the round's [`FaultEvents`].
//! * [`FaultModel::is_crashed`] — a crashed node is not polled, cannot
//!   transmit, receives nothing and wakes from nothing; its protocol
//!   state is retained and resumes on recovery (fail-stop/recover).
//! * [`FaultModel::jam`] — given the round's transmitters, name the
//!   listeners silenced by jamming (they hear noise: no reception, no
//!   wake-up).
//! * [`FaultModel::drop_delivery`] — suppress one otherwise-successful
//!   reception (channel loss).
//! * [`FaultModel::corrupt_wakeup`] — a sleeping node's would-be first
//!   reception fizzles: it neither wakes nor receives.
//!
//! A session carries a [`FaultSpec`] (compact `kind:key=val,…`
//! strings composable with `+`, at most one per family) in `kbcast`'s
//! `RunOptions` and runs the [`BuiltFaults`] it builds.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::Error;
use crate::graph::{Graph, NodeId};
use crate::rng::{self, salts};
use crate::spec::{invalid, Args};

/// Per-round fault occurrences, reported by the engine alongside the
/// ordinary channel events (see [`crate::session::RoundEvents`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultEvents {
    /// Nodes that crashed at the start of this round.
    pub crashes: usize,
    /// Nodes that recovered at the start of this round.
    pub recoveries: usize,
    /// Successful receptions suppressed by channel loss — a model's
    /// [`FaultModel::drop_delivery`] (e.g. [`UniformLoss`]).
    pub dropped: usize,
    /// Listener-rounds silenced by jamming (the listener had at least
    /// one transmitting neighbor but heard only noise).
    pub jammed: usize,
    /// Would-be receptions lost because the listener was crashed.
    pub crashed_rx: usize,
    /// First receptions that failed to wake a sleeping node
    /// ([`FaultModel::corrupt_wakeup`]); the message is lost too.
    pub wakeups_suppressed: usize,
}

impl FaultEvents {
    /// Total receptions this round lost to faults (any cause).
    #[must_use]
    pub fn lost_receptions(&self) -> usize {
        self.dropped + self.jammed + self.crashed_rx + self.wakeups_suppressed
    }
}

/// The engine's read-only view of one round's channel activity, handed
/// to [`FaultModel::jam`] so a jammer can target neighborhoods.
#[derive(Debug)]
pub struct ChannelView<'a> {
    /// The simulated topology.
    pub graph: &'a Graph,
    /// Ids of this round's transmitters (deterministic engine order).
    pub transmitters: &'a [u32],
}

/// A composable per-round fault model driven by the engine.
///
/// All hooks default to benign no-ops, so a model implements only the
/// failure modes it cares about. See the [module docs](self) for the
/// exact engine semantics of each hook and the determinism contract.
pub trait FaultModel {
    /// Whether any hook below may fire. The engine reads this once per
    /// round and skips every hook while it is `false`, so a model that
    /// injects nothing costs nothing. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Called once at the start of every round, before any node is
    /// polled. Timeline models apply their scheduled transitions here
    /// and report them into `events`.
    fn begin_round(&mut self, round: u64, events: &mut FaultEvents) {
        let _ = (round, events);
    }

    /// Whether `node` is crashed during this round (checked after
    /// [`FaultModel::begin_round`]).
    fn is_crashed(&self, node: usize) -> bool {
        let _ = node;
        false
    }

    /// Names the listeners silenced by jamming this round, given the
    /// transmitter set. Append jammed node ids to `jammed` (duplicates
    /// are harmless).
    fn jam(&mut self, round: u64, view: &ChannelView<'_>, jammed: &mut Vec<u32>) {
        let _ = (round, view, jammed);
    }

    /// Whether to suppress the otherwise-successful delivery
    /// `from → to` this round. Called once per candidate delivery, in
    /// ascending listener order (the engine's deterministic phase-3
    /// order), so stream consumption is reproducible.
    fn drop_delivery(&mut self, round: u64, from: usize, to: usize) -> bool {
        let _ = (round, from, to);
        false
    }

    /// Whether the first reception that would wake sleeping `node`
    /// fizzles instead (no wake-up, message lost).
    fn corrupt_wakeup(&mut self, round: u64, node: usize) -> bool {
        let _ = (round, node);
        false
    }
}

/// I.i.d. reception loss: every successful delivery is independently
/// dropped with a fixed probability.
///
/// This is the engine's only loss channel. It keeps the salt and draw
/// order of the engine's original hard-coded loss path, so fixed-seed
/// lossy runs are bit-identical to the pre-subsystem behavior.
#[derive(Clone, Debug)]
pub struct UniformLoss {
    rate: f64,
    rng: SmallRng,
}

impl UniformLoss {
    /// A uniform-loss model dropping each delivery with probability
    /// `rate`, sampled from a stream derived from `seed`.
    ///
    /// # Errors
    ///
    /// Rejects NaN and rates outside `[0, 1)` (a rate of 1 would make
    /// every run trivially fail).
    pub fn new(rate: f64, seed: u64) -> Result<Self, Error> {
        if rate.is_nan() {
            return Err(Error::InvalidParameter {
                reason: format!("loss rate {rate} is NaN; must be in [0, 1)"),
            });
        }
        if !(0.0..1.0).contains(&rate) {
            return Err(Error::InvalidParameter {
                reason: format!("loss rate {rate} must be in [0, 1)"),
            });
        }
        Ok(UniformLoss {
            rate,
            rng: rng::stream(seed, salts::LOSS),
        })
    }

    /// The configured loss probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws one drop decision. Zero-rate models never touch the
    /// stream, so a zero rate is exactly no loss.
    pub(crate) fn sample(&mut self) -> bool {
        self.rate > 0.0 && self.rng.gen_bool(self.rate)
    }
}

impl FaultModel for UniformLoss {
    fn drop_delivery(&mut self, _round: u64, _from: usize, _to: usize) -> bool {
        self.sample()
    }
}

/// Samples a geometric sojourn time: the number of rounds until a
/// transition that fires each round with probability `p`. `p <= 0`
/// means "never" (`u64::MAX`).
fn sojourn(rng: &mut SmallRng, p: f64) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 1;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    // Inverse-transform geometric: ceil(ln(1-u) / ln(1-p)) >= 1.
    let t = ((1.0 - u).ln() / (1.0 - p).ln()).ceil();
    if t.is_finite() && t < 9e18 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (t as u64).max(1)
        }
    } else {
        u64::MAX
    }
}

/// One edge's two-state Markov channel, evolved lazily but pinned to
/// absolute rounds: state flips are presampled as "next flip round"
/// sojourns, so when a flip happens never depends on when the edge is
/// queried.
#[derive(Clone, Debug)]
struct EdgeChannel {
    rng: SmallRng,
    bad: bool,
    next_flip: u64,
}

impl EdgeChannel {
    fn new(seed: u64, edge_salt: u64, p_bad: f64) -> Self {
        let mut rng = rng::stream(seed, salts::GILBERT ^ edge_salt);
        let first = sojourn(&mut rng, p_bad);
        EdgeChannel {
            rng,
            bad: false,
            next_flip: first,
        }
    }

    fn advance(&mut self, round: u64, p_bad: f64, p_good: f64) {
        while self.next_flip != u64::MAX && round >= self.next_flip {
            self.bad = !self.bad;
            let p = if self.bad { p_good } else { p_bad };
            let s = sojourn(&mut self.rng, p);
            self.next_flip = self.next_flip.saturating_add(s);
        }
    }
}

/// Bursty per-edge loss: each undirected edge is an independent
/// Gilbert–Elliott channel, a two-state Markov chain alternating
/// between a *good* state (loss `loss_good`) and a *bad* state (loss
/// `loss_bad`), entering bad with per-round probability `p_bad` and
/// leaving it with `p_good`. Mean burst length is `1 / p_good` rounds.
///
/// Each edge derives its own RNG stream from the seed and the edge
/// key, so the set of edges actually exercised does not perturb the
/// other edges' burst timelines.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    seed: u64,
    p_bad: f64,
    p_good: f64,
    loss_good: f64,
    loss_bad: f64,
    edges: HashMap<(u32, u32), EdgeChannel>,
}

impl GilbertElliott {
    /// A bursty-loss model; see the type docs for the parameters.
    ///
    /// # Errors
    ///
    /// Rejects NaN anywhere, transition probabilities outside `[0, 1]`
    /// and loss rates outside `[0, 1)`.
    pub fn new(
        p_bad: f64,
        p_good: f64,
        loss_good: f64,
        loss_bad: f64,
        seed: u64,
    ) -> Result<Self, Error> {
        for (name, v) in [("p_bad", p_bad), ("p_good", p_good)] {
            if v.is_nan() || !(0.0..=1.0).contains(&v) {
                return Err(Error::InvalidParameter {
                    reason: format!("Gilbert-Elliott {name} = {v} must be in [0, 1]"),
                });
            }
        }
        for (name, v) in [("loss_good", loss_good), ("loss_bad", loss_bad)] {
            if v.is_nan() || !(0.0..1.0).contains(&v) {
                return Err(Error::InvalidParameter {
                    reason: format!("Gilbert-Elliott {name} = {v} must be in [0, 1)"),
                });
            }
        }
        Ok(GilbertElliott {
            seed,
            p_bad,
            p_good,
            loss_good,
            loss_bad,
            edges: HashMap::new(),
        })
    }
}

impl FaultModel for GilbertElliott {
    fn drop_delivery(&mut self, round: u64, from: usize, to: usize) -> bool {
        let (lo, hi) = if from < to { (from, to) } else { (to, from) };
        let key = (lo as u32, hi as u32);
        let edge_salt = (u64::from(key.0) << 32) | u64::from(key.1);
        let (seed, p_bad, p_good) = (self.seed, self.p_bad, self.p_good);
        let ch = self
            .edges
            .entry(key)
            .or_insert_with(|| EdgeChannel::new(seed, edge_salt, p_bad));
        ch.advance(round, p_bad, p_good);
        let p = if ch.bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        p > 0.0 && ch.rng.gen_bool(p)
    }
}

/// Deterministic seeded crash/recover timelines: a seeded fraction of
/// the nodes crash at seeded rounds inside a window, each recovering
/// after a fixed downtime (or never). Crashed nodes are fail-stop with
/// retained state — see [`FaultModel::is_crashed`] for the engine
/// semantics.
#[derive(Clone, Debug)]
pub struct CrashSchedule {
    crashed: Vec<bool>,
    /// `(round, node, crash?)` sorted by round; applied in
    /// [`FaultModel::begin_round`].
    timeline: Vec<(u64, u32, bool)>,
    next: usize,
}

impl CrashSchedule {
    /// Builds a timeline for `n` nodes: `round(fraction · n)` distinct
    /// victims (chosen by a seeded shuffle) each crash at a seeded
    /// round in `[from, until)` and recover `downtime` rounds later
    /// (`None` = never).
    ///
    /// # Errors
    ///
    /// Rejects NaN or out-of-`[0, 1]` fractions, empty windows
    /// (`until <= from`) and a zero downtime.
    pub fn new(
        n: usize,
        fraction: f64,
        from: u64,
        until: u64,
        downtime: Option<u64>,
        seed: u64,
    ) -> Result<Self, Error> {
        if fraction.is_nan() || !(0.0..=1.0).contains(&fraction) {
            return Err(Error::InvalidParameter {
                reason: format!("crash fraction {fraction} must be in [0, 1]"),
            });
        }
        if until <= from {
            return Err(Error::InvalidParameter {
                reason: format!("crash window [{from}, {until}) is empty"),
            });
        }
        if downtime == Some(0) {
            return Err(Error::InvalidParameter {
                reason: "crash downtime must be at least 1 round (use None for never)".into(),
            });
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let count = ((fraction * n as f64).round() as usize).min(n);
        let mut ids: Vec<u32> = (0..n)
            .map(|i| u32::try_from(i).expect("node count fits u32"))
            .collect();
        let mut rng = rng::stream(seed, salts::CRASH);
        ids.shuffle(&mut rng);
        let mut timeline = Vec::with_capacity(2 * count);
        for &id in &ids[..count] {
            let crash_at = rng.gen_range(from..until);
            timeline.push((crash_at, id, true));
            if let Some(d) = downtime {
                timeline.push((crash_at.saturating_add(d), id, false));
            }
        }
        timeline.sort_unstable();
        Ok(CrashSchedule {
            crashed: vec![false; n],
            timeline,
            next: 0,
        })
    }

    /// The scheduled `(round, node, crash?)` transitions, in round
    /// order (harness-side inspection).
    #[must_use]
    pub fn timeline(&self) -> &[(u64, u32, bool)] {
        &self.timeline
    }
}

impl FaultModel for CrashSchedule {
    fn begin_round(&mut self, round: u64, events: &mut FaultEvents) {
        while let Some(&(at, node, crash)) = self.timeline.get(self.next) {
            if at > round {
                break;
            }
            self.next += 1;
            if self.crashed[node as usize] != crash {
                self.crashed[node as usize] = crash;
                if crash {
                    events.crashes += 1;
                } else {
                    events.recoveries += 1;
                }
            }
        }
    }

    fn is_crashed(&self, node: usize) -> bool {
        self.crashed[node]
    }
}

/// A budgeted adversarial jammer: each round it may spend one unit of
/// budget to jam the *densest transmitting neighborhood* — the
/// transmitter whose neighbors contain the most would-be-successful
/// receptions (ties broken toward the lowest transmitter id). Every
/// non-transmitting neighbor of the chosen transmitter hears noise
/// that round. Budget is only spent when at least one reception would
/// actually be disrupted.
#[derive(Clone, Debug)]
pub struct AdversarialJammer {
    budget: u64,
    is_tx: Vec<bool>,
    heard: HashMap<u32, u32>,
}

impl AdversarialJammer {
    /// A jammer allowed to jam for `budget` rounds in total.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        AdversarialJammer {
            budget,
            is_tx: Vec::new(),
            heard: HashMap::new(),
        }
    }

    /// Budget not yet spent.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.budget
    }
}

impl FaultModel for AdversarialJammer {
    fn jam(&mut self, _round: u64, view: &ChannelView<'_>, jammed: &mut Vec<u32>) {
        if self.budget == 0 || view.transmitters.is_empty() {
            return;
        }
        if self.is_tx.len() < view.graph.len() {
            self.is_tx.resize(view.graph.len(), false);
        }
        for &t in view.transmitters {
            self.is_tx[t as usize] = true;
        }
        // Per-listener transmitting-neighbor counts, confined to the
        // transmitters' neighborhoods (mirrors the engine's own
        // phase-2 cost bound).
        self.heard.clear();
        for &t in view.transmitters {
            for &v in view.graph.neighbors(NodeId::new(t as usize)) {
                *self
                    .heard
                    .entry(u32::try_from(v.index()).expect("node fits u32"))
                    .or_insert(0) += 1;
            }
        }
        // The target: the transmitter whose neighborhood holds the
        // most would-be receptions; lowest id wins ties. Iterating the
        // deterministic transmitter list keeps this reproducible.
        let mut best: Option<(u32, usize)> = None;
        for &t in view.transmitters {
            let mut score = 0usize;
            for &v in view.graph.neighbors(NodeId::new(t as usize)) {
                let vi = u32::try_from(v.index()).expect("node fits u32");
                if !self.is_tx[v.index()] && self.heard.get(&vi) == Some(&1) {
                    score += 1;
                }
            }
            best = match best {
                None => Some((t, score)),
                Some((bt, bs)) if score > bs || (score == bs && t < bt) => Some((t, score)),
                keep => keep,
            };
        }
        for &t in view.transmitters {
            self.is_tx[t as usize] = false;
        }
        if let Some((t, score)) = best {
            if score > 0 {
                self.budget -= 1;
                jammed.extend(
                    view.graph
                        .neighbors(NodeId::new(t as usize))
                        .iter()
                        .map(|v| u32::try_from(v.index()).expect("node fits u32")),
                );
            }
        }
    }
}

/// Wake-up corruption: each first reception that would wake a sleeping
/// node instead fizzles with a fixed probability (the node stays
/// asleep and the message is lost). Models the paper's wake-on-first-
/// reception rule failing — e.g. a radio missing its own wake
/// interrupt.
#[derive(Clone, Debug)]
pub struct WakeupCorrupt {
    rate: f64,
    rng: SmallRng,
}

impl WakeupCorrupt {
    /// Corrupts each would-be wake-up independently with probability
    /// `rate` (1 = radio-triggered wake-ups never succeed).
    ///
    /// # Errors
    ///
    /// Rejects NaN and rates outside `[0, 1]`.
    pub fn new(rate: f64, seed: u64) -> Result<Self, Error> {
        if rate.is_nan() || !(0.0..=1.0).contains(&rate) {
            return Err(Error::InvalidParameter {
                reason: format!("wakeup corruption rate {rate} must be in [0, 1]"),
            });
        }
        Ok(WakeupCorrupt {
            rate,
            rng: rng::stream(seed, salts::WAKEUP),
        })
    }
}

impl FaultModel for WakeupCorrupt {
    fn corrupt_wakeup(&mut self, _round: u64, _node: usize) -> bool {
        self.rate > 0.0 && self.rng.gen_bool(self.rate)
    }
}

/// A runtime-chosen fault model: one optional slot per family, built
/// from a [`FaultSpec`]. Each present model answers the hooks its
/// family implements, in the fixed family order uniform, ge, crash,
/// jam, wakeup, and a delivery (or wake-up) survives only if none of
/// them suppresses it. No hook short-circuits — both loss models draw
/// on every candidate delivery — so each model's RNG stream advances
/// identically whether or not another one fired. The default (every
/// slot empty) is the clean channel: not [`FaultModel::enabled`], so
/// the engine skips every hook.
#[derive(Clone, Debug, Default)]
pub struct BuiltFaults {
    /// [`UniformLoss`].
    pub uniform: Option<UniformLoss>,
    /// [`GilbertElliott`].
    pub ge: Option<GilbertElliott>,
    /// [`CrashSchedule`].
    pub crash: Option<CrashSchedule>,
    /// [`AdversarialJammer`].
    pub jam: Option<AdversarialJammer>,
    /// [`WakeupCorrupt`].
    pub wakeup: Option<WakeupCorrupt>,
}

impl FaultModel for BuiltFaults {
    fn enabled(&self) -> bool {
        // Destructured so that a new family fails to compile until it
        // is counted here.
        let BuiltFaults {
            uniform,
            ge,
            crash,
            jam,
            wakeup,
        } = self;
        uniform.is_some() || ge.is_some() || crash.is_some() || jam.is_some() || wakeup.is_some()
    }

    fn begin_round(&mut self, round: u64, events: &mut FaultEvents) {
        if let Some(m) = &mut self.crash {
            m.begin_round(round, events);
        }
    }

    fn is_crashed(&self, node: usize) -> bool {
        self.crash.as_ref().is_some_and(|m| m.is_crashed(node))
    }

    fn jam(&mut self, round: u64, view: &ChannelView<'_>, jammed: &mut Vec<u32>) {
        if let Some(m) = &mut self.jam {
            m.jam(round, view, jammed);
        }
    }

    fn drop_delivery(&mut self, round: u64, from: usize, to: usize) -> bool {
        let uniform = self
            .uniform
            .as_mut()
            .is_some_and(|m| m.drop_delivery(round, from, to));
        let ge = self
            .ge
            .as_mut()
            .is_some_and(|m| m.drop_delivery(round, from, to));
        uniform | ge
    }

    fn corrupt_wakeup(&mut self, round: u64, node: usize) -> bool {
        self.wakeup
            .as_mut()
            .is_some_and(|m| m.corrupt_wakeup(round, node))
    }
}

/// Parameters of a [`GilbertElliott`] channel in a [`FaultSpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertSpec {
    /// Per-round probability of an edge entering its bad state.
    pub p_bad: f64,
    /// Per-round probability of leaving the bad state.
    pub p_good: f64,
    /// Loss probability while good.
    pub loss_good: f64,
    /// Loss probability while bad.
    pub loss_bad: f64,
}

/// Parameters of a [`CrashSchedule`] in a [`FaultSpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashSpec {
    /// Fraction of nodes that crash, in `[0, 1]`.
    pub fraction: f64,
    /// Crash rounds are drawn from `[from, until)`.
    pub from: u64,
    /// Exclusive end of the crash window.
    pub until: u64,
    /// Rounds until recovery (`None` = never).
    pub downtime: Option<u64>,
}

/// A declarative, parse-and-printable fault configuration — the form
/// `RunOptions`, experiment binaries and the serve `init` request carry
/// around. [`FaultSpec::build`] turns it into runnable [`BuiltFaults`] for a
/// concrete network size and seed.
///
/// One optional slot per family; the default (every slot empty) is the
/// clean channel. `Copy`, so it rides inside copyable option structs.
///
/// The text format is `kind:key=val,key=val`, composable with `+`:
///
/// * `none`
/// * `uniform:rate=0.1` (or shorthand `uniform:0.1`)
/// * `ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9`
/// * `crash:frac=0.25,from=0,until=4000,down=2000` (`down` omitted =
///   crashed nodes never recover; shorthand `crash:0.25` uses the
///   given fraction with window `[0, u64::MAX)` and no recovery)
/// * `jam:budget=500` (or shorthand `jam:500`)
/// * `wakeup:rate=0.5` (or shorthand `wakeup:0.5`)
/// * `uniform:rate=0.05+crash:frac=0.1,from=0,until=1000` (stacked)
///
/// A key the kind does not take, or a key given twice, is an error.
/// A family may appear at most once: each one draws from one fixed
/// salt per seed, so a second copy would replay the first one's stream
/// and add no independent fault. `none` components add nothing. The
/// printed form lists the families in the fixed order uniform, ge,
/// crash, jam, wakeup (the order [`BuiltFaults`] runs its hooks in),
/// whatever order they were parsed in.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// I.i.d. loss at this per-delivery drop probability in `[0, 1)` —
    /// see [`UniformLoss`].
    pub uniform: Option<f64>,
    /// Bursty per-edge loss — see [`GilbertElliott`].
    pub ge: Option<GilbertSpec>,
    /// Seeded crash/recover timeline — see [`CrashSchedule`].
    pub crash: Option<CrashSpec>,
    /// Budgeted neighborhood jamming for at most this many rounds — see
    /// [`AdversarialJammer`].
    pub jam: Option<u64>,
    /// Wake-up corruption at this per-wake-up probability in `[0, 1]` —
    /// see [`WakeupCorrupt`].
    pub wakeup: Option<f64>,
}

impl FaultSpec {
    /// `true` if this spec injects nothing.
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == FaultSpec::default()
    }

    /// Builds the runnable model for an `n`-node network, all streams
    /// derived from `seed`. Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for out-of-range parameters
    /// (see each model's constructor).
    pub fn build(&self, n: usize, seed: u64) -> Result<BuiltFaults, Error> {
        Ok(BuiltFaults {
            uniform: self
                .uniform
                .map(|rate| UniformLoss::new(rate, seed))
                .transpose()?,
            ge: self
                .ge
                .map(|g| GilbertElliott::new(g.p_bad, g.p_good, g.loss_good, g.loss_bad, seed))
                .transpose()?,
            crash: self
                .crash
                .map(|c| CrashSchedule::new(n, c.fraction, c.from, c.until, c.downtime, seed))
                .transpose()?,
            jam: self.jam.map(AdversarialJammer::new),
            wakeup: self
                .wakeup
                .map(|rate| WakeupCorrupt::new(rate, seed))
                .transpose()?,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut sep = "";
        if let Some(rate) = self.uniform {
            write!(f, "uniform:rate={rate}")?;
            sep = "+";
        }
        if let Some(GilbertSpec {
            p_bad,
            p_good,
            loss_good,
            loss_bad,
        }) = self.ge
        {
            write!(
                f,
                "{sep}ge:p_bad={p_bad},p_good={p_good},loss_good={loss_good},loss_bad={loss_bad}"
            )?;
            sep = "+";
        }
        if let Some(CrashSpec {
            fraction,
            from,
            until,
            downtime,
        }) = self.crash
        {
            write!(f, "{sep}crash:frac={fraction},from={from},until={until}")?;
            if let Some(d) = downtime {
                write!(f, ",down={d}")?;
            }
            sep = "+";
        }
        if let Some(budget) = self.jam {
            write!(f, "{sep}jam:budget={budget}")?;
            sep = "+";
        }
        if let Some(rate) = self.wakeup {
            write!(f, "{sep}wakeup:rate={rate}")?;
        }
        Ok(())
    }
}

/// Fills `slot` with one parsed family, refusing a second copy.
fn fill<T>(slot: &mut Option<T>, kind: &str, value: T) -> Result<(), Error> {
    if slot.replace(value).is_some() {
        return Err(invalid(format!(
            "fault spec names {kind} twice (each family may appear once)"
        )));
    }
    Ok(())
}

/// Parses one `kind:args` component (no `+`) into its slot of `spec`.
fn parse_one(part: &str, spec: &mut FaultSpec) -> Result<(), Error> {
    let part = part.trim();
    let (kind, args) = match part.split_once(':') {
        Some((k, a)) => (k.trim(), a.trim()),
        None => (part, ""),
    };
    let mut args = Args::new(format!("fault spec {kind}"), args);
    match kind {
        "none" => {}
        "uniform" => fill(&mut spec.uniform, kind, args.primary("rate")?)?,
        "ge" => {
            let ge = GilbertSpec {
                p_bad: args.get("p_bad")?,
                p_good: args.get("p_good")?,
                loss_good: args.get("loss_good")?,
                loss_bad: args.get("loss_bad")?,
            };
            fill(&mut spec.ge, kind, ge)?;
        }
        "crash" => {
            let crash = CrashSpec {
                fraction: args.primary("frac")?,
                from: args.opt("from")?.unwrap_or(0),
                until: args.opt("until")?.unwrap_or(u64::MAX),
                downtime: args.opt("down")?,
            };
            fill(&mut spec.crash, kind, crash)?;
        }
        "jam" => fill(&mut spec.jam, kind, args.primary("budget")?)?,
        "wakeup" => fill(&mut spec.wakeup, kind, args.primary("rate")?)?,
        other => {
            return Err(invalid(format!(
                "unknown fault kind {other:?} (expected none/uniform/ge/crash/jam/wakeup)"
            )))
        }
    }
    args.finish()
}

impl FromStr for FaultSpec {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        let s = s.trim();
        if s.is_empty() {
            return Err(invalid("empty fault spec".into()));
        }
        let mut spec = FaultSpec::default();
        for part in s.split('+') {
            parse_one(part, &mut spec)?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyntopo::TopologyModel;

    #[test]
    fn empty_models_are_disabled_and_inert() {
        let mut f = BuiltFaults::default();
        assert!(!f.enabled());
        let mut ev = FaultEvents::default();
        f.begin_round(0, &mut ev);
        assert!(!f.is_crashed(0));
        assert!(!f.drop_delivery(0, 0, 1));
        assert!(!f.corrupt_wakeup(0, 1));
        assert_eq!(ev, FaultEvents::default());
        // Every single-family example of `FaultSpec`'s docs is enabled.
        for s in [
            "uniform:rate=0.1",
            "uniform:0.1",
            "ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9",
            "crash:frac=0.25,from=0,until=4000,down=2000",
            "crash:0.25",
            "jam:budget=500",
            "jam:500",
            "wakeup:rate=0.5",
            "wakeup:0.5",
        ] {
            let spec: FaultSpec = s.parse().unwrap();
            assert!(spec.build(16, 0).unwrap().enabled(), "{s}");
        }
        assert!(!"none"
            .parse::<FaultSpec>()
            .unwrap()
            .build(16, 0)
            .unwrap()
            .enabled());
        // The frozen graph never reshapes.
        let g = crate::topology::path(3).unwrap();
        let mut t = crate::dyntopo::BuiltTopology::Static;
        assert!((0..64).all(|r| t.reshape(r, &g).is_none()));
    }

    #[test]
    fn uniform_loss_validates_and_matches_seed() {
        assert!(UniformLoss::new(f64::NAN, 0).is_err());
        assert!(UniformLoss::new(1.0, 0).is_err());
        assert!(UniformLoss::new(-0.1, 0).is_err());
        let mut a = UniformLoss::new(0.5, 7).unwrap();
        let mut b = UniformLoss::new(0.5, 7).unwrap();
        let da: Vec<bool> = (0..64).map(|_| a.sample()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.sample()).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&d| d) && da.iter().any(|&d| !d));
        // Zero rate never draws (and never drops).
        let mut z = UniformLoss::new(0.0, 7).unwrap();
        assert!((0..64).all(|_| !z.sample()));
    }

    #[test]
    fn gilbert_elliott_bursts_and_is_deterministic() {
        // Certain loss while bad, none while good: the drop pattern on
        // one edge is exactly the bad-state indicator.
        let run = |seed: u64| -> Vec<bool> {
            let mut ge = GilbertElliott::new(0.05, 0.2, 0.0, 0.999_999, seed).unwrap();
            (0..400).map(|r| ge.drop_delivery(r, 0, 1)).collect()
        };
        let a = run(3);
        assert_eq!(a, run(3));
        assert_ne!(a, run(4));
        // Bursty: drops cluster — count state switches; i.i.d. loss of
        // the same mean would switch far more often.
        let switches = a.windows(2).filter(|w| w[0] != w[1]).count();
        let drops = a.iter().filter(|&&d| d).count();
        assert!(drops > 0, "bad state never entered");
        assert!(
            switches < drops,
            "no burstiness: {switches} switches for {drops} drops"
        );
    }

    #[test]
    fn gilbert_elliott_is_direction_symmetric() {
        let mut ge = GilbertElliott::new(0.5, 0.5, 0.0, 0.999_999, 1).unwrap();
        let mut ge2 = GilbertElliott::new(0.5, 0.5, 0.0, 0.999_999, 1).unwrap();
        let a: Vec<bool> = (0..100).map(|r| ge.drop_delivery(r, 2, 9)).collect();
        let b: Vec<bool> = (0..100).map(|r| ge2.drop_delivery(r, 9, 2)).collect();
        assert_eq!(a, b, "undirected edge must be one channel");
    }

    #[test]
    fn gilbert_validates() {
        assert!(GilbertElliott::new(1.5, 0.1, 0.0, 0.5, 0).is_err());
        assert!(GilbertElliott::new(0.1, f64::NAN, 0.0, 0.5, 0).is_err());
        assert!(GilbertElliott::new(0.1, 0.1, 0.0, 1.0, 0).is_err());
    }

    #[test]
    fn crash_schedule_applies_timeline_and_recovers() {
        // All nodes crash in [5, 6) (i.e. at round 5), down for 10.
        let mut cs = CrashSchedule::new(4, 1.0, 5, 6, Some(10), 0).unwrap();
        let mut ev = FaultEvents::default();
        cs.begin_round(4, &mut ev);
        assert_eq!(ev.crashes, 0);
        assert!(!cs.is_crashed(2));
        cs.begin_round(5, &mut ev);
        assert_eq!(ev.crashes, 4);
        assert!((0..4).all(|i| cs.is_crashed(i)));
        cs.begin_round(14, &mut ev);
        assert_eq!(ev.recoveries, 0);
        cs.begin_round(15, &mut ev);
        assert_eq!(ev.recoveries, 4);
        assert!((0..4).all(|i| !cs.is_crashed(i)));
    }

    #[test]
    fn crash_schedule_fraction_and_determinism() {
        let a = CrashSchedule::new(100, 0.25, 0, 1000, None, 9).unwrap();
        assert_eq!(a.timeline().len(), 25);
        let b = CrashSchedule::new(100, 0.25, 0, 1000, None, 9).unwrap();
        assert_eq!(a.timeline(), b.timeline());
        let c = CrashSchedule::new(100, 0.25, 0, 1000, None, 10).unwrap();
        assert_ne!(a.timeline(), c.timeline());
        assert!(CrashSchedule::new(4, 2.0, 0, 10, None, 0).is_err());
        assert!(CrashSchedule::new(4, 0.5, 10, 10, None, 0).is_err());
        assert!(CrashSchedule::new(4, 0.5, 0, 10, Some(0), 0).is_err());
    }

    #[test]
    fn jammer_targets_densest_neighborhood_within_budget() {
        // Star with center 0: leaf 1 transmits, so the center is the
        // only would-be receiver and leaf 1 the best (only) target.
        let g = crate::topology::star(5).unwrap();
        let mut j = AdversarialJammer::new(2);
        let tx = [1u32];
        let mut jammed = Vec::new();
        j.jam(
            0,
            &ChannelView {
                graph: &g,
                transmitters: &tx,
            },
            &mut jammed,
        );
        assert_eq!(jammed, vec![0], "leaf's only neighbor is the center");
        assert_eq!(j.remaining(), 1);
        // No transmitters: no budget spent.
        jammed.clear();
        j.jam(
            1,
            &ChannelView {
                graph: &g,
                transmitters: &[],
            },
            &mut jammed,
        );
        assert!(jammed.is_empty());
        assert_eq!(j.remaining(), 1);
        // Budget exhausts.
        jammed.clear();
        j.jam(
            2,
            &ChannelView {
                graph: &g,
                transmitters: &tx,
            },
            &mut jammed,
        );
        assert_eq!(j.remaining(), 0);
        jammed.clear();
        j.jam(
            3,
            &ChannelView {
                graph: &g,
                transmitters: &tx,
            },
            &mut jammed,
        );
        assert!(jammed.is_empty(), "no budget left");
    }

    #[test]
    fn jammer_spends_nothing_on_all_collided_rounds() {
        // Star center 0; two leaves transmit → the center is collided
        // anyway, no reception to disrupt, budget kept.
        let g = crate::topology::star(4).unwrap();
        let mut j = AdversarialJammer::new(1);
        let mut jammed = Vec::new();
        j.jam(
            0,
            &ChannelView {
                graph: &g,
                transmitters: &[1, 2],
            },
            &mut jammed,
        );
        assert!(jammed.is_empty());
        assert_eq!(j.remaining(), 1);
    }

    #[test]
    fn wakeup_corrupt_validates_and_is_deterministic() {
        assert!(WakeupCorrupt::new(f64::NAN, 0).is_err());
        assert!(WakeupCorrupt::new(1.5, 0).is_err());
        let mut a = WakeupCorrupt::new(0.5, 3).unwrap();
        let mut b = WakeupCorrupt::new(0.5, 3).unwrap();
        let da: Vec<bool> = (0..32).map(|r| a.corrupt_wakeup(r, 0)).collect();
        let db: Vec<bool> = (0..32).map(|r| b.corrupt_wakeup(r, 0)).collect();
        assert_eq!(da, db);
        let mut always = WakeupCorrupt::new(1.0, 3).unwrap();
        assert!((0..8).all(|r| always.corrupt_wakeup(r, 0)));
    }

    #[test]
    fn built_faults_consult_every_family_without_short_circuit() {
        // Certain loss while bad: the bursty channel drops often, so the
        // uniform stream only stays in step with its solo twin if it is
        // drawn on every call, dropped by the other family or not.
        let spec: FaultSpec =
            "uniform:rate=0.5+ge:p_bad=0.3,p_good=0.3,loss_good=0,loss_bad=0.999999+jam:budget=3"
                .parse()
                .unwrap();
        let mut built = spec.build(5, 11).unwrap();
        let mut uniform = UniformLoss::new(0.5, 11).unwrap();
        let mut ge = GilbertElliott::new(0.3, 0.3, 0.0, 0.999_999, 11).unwrap();
        let mut jammer = AdversarialJammer::new(3);
        let g = crate::topology::star(5).unwrap();
        let view = ChannelView {
            graph: &g,
            transmitters: &[1],
        };
        let (mut both, mut only_one) = (0, 0);
        for r in 0..64 {
            let (a, b) = (uniform.sample(), ge.drop_delivery(r, 0, 1));
            assert_eq!(built.drop_delivery(r, 0, 1), a | b, "round {r}");
            both += usize::from(a && b);
            only_one += usize::from(a != b);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            built.jam(r, &view, &mut got);
            jammer.jam(r, &view, &mut want);
            assert_eq!(got, want, "round {r}");
        }
        assert!(both > 0 && only_one > 0, "both families fired");
        assert_eq!(
            built.jam.as_ref().map(AdversarialJammer::remaining),
            Some(0)
        );
        assert!(built.enabled());
    }

    #[test]
    fn spec_rejects_a_repeated_family() {
        let err = "uniform:rate=0.1+uniform:rate=0.2"
            .parse::<FaultSpec>()
            .unwrap_err();
        assert!(err.to_string().contains("uniform"), "{err}");
        assert!("jam:5+crash:0.1+jam:6".parse::<FaultSpec>().is_err());
    }

    #[test]
    fn spec_prints_families_in_fixed_order() {
        let spec: FaultSpec = "wakeup:0.5+jam:10+uniform:0.05".parse().unwrap();
        assert_eq!(
            spec.to_string(),
            "uniform:rate=0.05+jam:budget=10+wakeup:rate=0.5"
        );
    }

    #[test]
    fn spec_parses_round_trips_and_builds() {
        let cases = [
            "none",
            "uniform:rate=0.1",
            "ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9",
            "crash:frac=0.25,from=0,until=4000,down=2000",
            "crash:frac=0.5,from=10,until=20",
            "jam:budget=500",
            "wakeup:rate=0.5",
            "uniform:rate=0.05+jam:budget=10",
        ];
        for s in cases {
            let spec: FaultSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            let back: FaultSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, back, "{s} must round-trip");
            spec.build(16, 0).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
        // Parses but fails validation at build time.
        let spec: FaultSpec = "uniform:rate=1.5".parse().unwrap();
        assert!(spec.build(8, 0).is_err());
    }

    #[test]
    fn spec_shorthands() {
        assert_eq!(
            "uniform:0.1".parse::<FaultSpec>().unwrap(),
            FaultSpec {
                uniform: Some(0.1),
                ..FaultSpec::default()
            }
        );
        assert_eq!(
            "jam:500".parse::<FaultSpec>().unwrap(),
            FaultSpec {
                jam: Some(500),
                ..FaultSpec::default()
            }
        );
        assert_eq!(
            "crash:0.5".parse::<FaultSpec>().unwrap(),
            FaultSpec {
                crash: Some(CrashSpec {
                    fraction: 0.5,
                    from: 0,
                    until: u64::MAX,
                    downtime: None
                }),
                ..FaultSpec::default()
            }
        );
    }

    #[test]
    fn spec_is_none_sees_through_stacks() {
        assert!(FaultSpec::default().is_none());
        assert!("none+none".parse::<FaultSpec>().unwrap().is_none());
        assert!(!"uniform:0.1".parse::<FaultSpec>().unwrap().is_none());
    }

    #[test]
    fn built_faults_delegate() {
        let spec: FaultSpec = "crash:frac=1.0,from=0,until=1".parse().unwrap();
        let mut built = spec.build(3, 0).unwrap();
        let mut ev = FaultEvents::default();
        built.begin_round(0, &mut ev);
        assert_eq!(ev.crashes, 3);
        assert!(built.is_crashed(0) && built.is_crashed(2));
        assert!(!built.drop_delivery(0, 0, 1));
    }

    #[test]
    fn sojourn_edge_cases() {
        let mut rng = rng::stream(0, 0);
        assert_eq!(sojourn(&mut rng, 0.0), u64::MAX);
        assert_eq!(sojourn(&mut rng, 1.0), 1);
        for _ in 0..100 {
            assert!(sojourn(&mut rng, 0.5) >= 1);
        }
    }

    #[test]
    fn parse_errors_pin_their_messages() {
        for (input, reason) in [
            ("", "empty fault spec"),
            ("uniform", "fault spec uniform: missing rate"),
            (
                "uniform:rate=lots",
                "fault spec uniform: rate=lots is not a number",
            ),
            ("uniform:0.1,0.2", "fault spec uniform: missing rate"),
            ("ge:p_bad=0.1", "fault spec ge: missing p_good"),
            (
                "ge:p_bad=0.1,p_good=x",
                "fault spec ge: p_good=x is not a number",
            ),
            ("crash:from=3", "fault spec crash: missing frac"),
            (
                "crash:frac=0.2,until=soon",
                "fault spec crash: until=soon is not an integer",
            ),
            (
                "crash:frac=0.2,down=-1",
                "fault spec crash: down=-1 is not an integer",
            ),
            (
                "jam:budget=-3",
                "fault spec jam: budget=-3 is not an integer",
            ),
            ("wakeup", "fault spec wakeup: missing rate"),
            (
                "jam:5+jam:6",
                "fault spec names jam twice (each family may appear once)",
            ),
            (
                "flood:everything",
                "unknown fault kind \"flood\" (expected none/uniform/ge/crash/jam/wakeup)",
            ),
            // Every key must be known, and given once.
            (
                "crash:frac=0.25,unti=4000",
                r#"fault spec crash: unknown key "unti""#,
            ),
            (
                "uniform:rate=0.1,rat=0.5",
                r#"fault spec uniform: unknown key "rat""#,
            ),
            (
                "uniform:rate=0.1,rate=0.2",
                r#"fault spec uniform: key "rate" given twice"#,
            ),
            (
                "crash:frac=0.25,4000",
                r#"fault spec crash: value "4000" has no key"#,
            ),
            ("none:x=1", r#"fault spec none: unknown key "x""#),
        ] {
            let err = input.parse::<FaultSpec>().unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid parameter: {reason}"),
                "{input:?}"
            );
        }
    }
}
