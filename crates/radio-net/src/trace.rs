//! Structured round tracing: a flight recorder for sessions.
//!
//! Production radio stacks do not debug from end-of-run aggregates —
//! they keep a bounded in-memory trace of recent activity plus cheap
//! always-on counters, and export both in machine-readable formats.
//! This module is that layer for the simulator:
//!
//! * [`TraceCollector`] is an [`Observer`]-side recorder (installed via
//!   the [`Traced`] tee) that keeps per-round counter samples in a
//!   fixed-capacity **ring buffer** (old rounds are evicted, never
//!   reallocated), aggregates them per protocol **stage**, and tracks a
//!   protocol-progress **gauge** (e.g. summed GF(2) decoder rank) as a
//!   bounded change-point curve.
//! * A [`StageProbe`] labels each executed round with the protocol
//!   stage it belongs to — protocols supply one, the collector turns
//!   consecutive equal labels into [`Span`]s.
//! * [`TraceReport`] is the frozen result: per-stage metrics
//!   ([`StageSummary`]), the span timeline, the retained samples, and
//!   exporters — [`TraceReport::to_jsonl`] (one JSON object per line)
//!   and [`TraceReport::to_chrome_trace`] (the Chrome `chrome://tracing`
//!   / Perfetto JSON array format, with one `ts` unit = one round).
//! * [`TraceSummary`] is the compact cross-run aggregate: summaries
//!   [`TraceSummary::merge`] deterministically in seed order, so sweep
//!   output is independent of worker-thread count.
//!
//! Tracing follows the same zero-cost discipline as [`crate::verify`]:
//! it only exists on the opt-in path (a harness
//! wraps its observer in [`Traced`]); a session driven without the tee
//! monomorphizes to the exact pre-trace hot loop, bit for bit.

use std::borrow::Cow;

use crate::engine::Node;
use crate::session::{Observer, RoundDetail, RoundEvents};

/// Default ring-buffer capacity of a [`TraceCollector`] (retained
/// per-round samples; older rounds are evicted but still counted).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Cap on stored gauge change-points; on overflow the curve is
/// deterministically thinned (every second point dropped), so memory is
/// bounded but endpoints survive.
const GAUGE_CURVE_CAPACITY: usize = 1024;

/// A bounded change-point recorder for one scalar time series: stores
/// `(round, value)` points, skips repeats of the current value, and —
/// once `GAUGE_CURVE_CAPACITY` (1024) points are stored — compacts by keeping every
/// second point and doubling the sampling stride. The retained subset
/// is a pure function of the pushed change sequence, so curves are
/// thread-invariant and reproducible.
///
/// This is the recording machinery behind the protocol-progress gauge,
/// generalized so streaming sessions can record queue-depth and
/// in-flight curves with identical bounds and determinism.
#[derive(Clone, Debug)]
pub struct CurveRec {
    points: Vec<(u64, u64)>,
    /// Only every `stride`-th change-point is recorded after a
    /// compaction (starts at 1 = record every change).
    stride: u64,
    seen: u64,
}

impl Default for CurveRec {
    fn default() -> Self {
        Self::new()
    }
}

impl CurveRec {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        CurveRec {
            points: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }

    /// Records a change-point, deterministically thinning the curve when
    /// it outgrows its cap. Pushes with the current last value are
    /// ignored (the curve stores changes, not samples).
    pub fn push(&mut self, round: u64, value: u64) {
        if self.points.last().is_some_and(|&(_, v)| v == value) {
            return;
        }
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(self.stride) {
            return;
        }
        self.points.push((round, value));
        if self.points.len() >= GAUGE_CURVE_CAPACITY {
            let mut keep = 0;
            for i in (0..self.points.len()).step_by(2) {
                self.points[keep] = self.points[i];
                keep += 1;
            }
            self.points.truncate(keep);
            self.stride *= 2;
        }
    }

    /// The recorded points, chronological.
    #[must_use]
    pub fn points(&self) -> &[(u64, u64)] {
        &self.points
    }

    /// Consumes the recorder into its point list.
    #[must_use]
    pub fn into_points(self) -> Vec<(u64, u64)> {
        self.points
    }
}

/// Exact aggregate of a per-round scalar (queue depth, in-flight count)
/// kept alongside its thinned [`CurveRec`] curve: the curve is for
/// plotting, these scalars are for asserting — the max and the
/// round-weighted mean are computed from every reported sample, so
/// thinning never skews a bound check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeStats {
    /// Largest value reported.
    pub max: u64,
    /// Sum of all reported values (one per reporting round).
    pub sum: u64,
    /// Rounds that reported a value.
    pub rounds: u64,
}

impl GaugeStats {
    fn record(&mut self, value: u64) {
        self.max = self.max.max(value);
        self.sum += value;
        self.rounds += 1;
    }

    /// Mean over reporting rounds (0 if none reported).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum as f64 / self.rounds as f64
        }
    }
}

/// Cumulative channel counters, mirroring the per-round fields of
/// [`RoundEvents`] (and hence the corresponding
/// [`crate::stats::SimStats`] fields).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterTotals {
    /// Transmissions.
    pub transmissions: u64,
    /// Successful receptions.
    pub receptions: u64,
    /// Listener-rounds lost to collisions.
    pub collisions: u64,
    /// Radio wake-ups.
    pub wakeups: u64,
    /// Receptions dropped by the fault model's loss.
    pub dropped: u64,
    /// Listener-rounds silenced by jamming.
    pub jammed: u64,
    /// Would-be receptions lost to crashed listeners.
    pub crashed_rx: u64,
    /// First receptions that failed to wake a sleeping node.
    pub wakeups_suppressed: u64,
}

impl CounterTotals {
    /// Accumulates one round's events.
    pub fn add_events(&mut self, ev: &RoundEvents) {
        self.transmissions += ev.transmissions as u64;
        self.receptions += ev.receptions as u64;
        self.collisions += ev.collisions as u64;
        self.wakeups += ev.wakeups as u64;
        self.dropped += ev.faults.dropped as u64;
        self.jammed += ev.faults.jammed as u64;
        self.crashed_rx += ev.faults.crashed_rx as u64;
        self.wakeups_suppressed += ev.faults.wakeups_suppressed as u64;
    }

    /// Accumulates another totals record (summary merging).
    pub fn merge(&mut self, other: &CounterTotals) {
        self.transmissions += other.transmissions;
        self.receptions += other.receptions;
        self.collisions += other.collisions;
        self.wakeups += other.wakeups;
        self.dropped += other.dropped;
        self.jammed += other.jammed;
        self.crashed_rx += other.crashed_rx;
        self.wakeups_suppressed += other.wakeups_suppressed;
    }

    /// Receptions lost to injected faults (all four fault outcomes).
    #[must_use]
    pub fn fault_lost(&self) -> u64 {
        self.dropped + self.jammed + self.crashed_rx + self.wakeups_suppressed
    }
}

/// One retained per-round sample: the round's channel events, the stage
/// it was attributed to (index into [`TraceReport::stages`]) and the
/// protocol-progress gauge, if the probe reports one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundSample {
    /// The executed round.
    pub round: u64,
    /// Index into the per-stage summaries.
    pub stage: u32,
    /// Transmissions this round.
    pub transmissions: u32,
    /// Successful receptions this round.
    pub receptions: u32,
    /// Collision-silenced listeners this round.
    pub collisions: u32,
    /// Radio wake-ups this round.
    pub wakeups: u32,
    /// Receptions lost to injected faults this round (dropped + jammed
    /// + crashed + wake-up-suppressed).
    pub fault_lost: u32,
    /// Protocol-progress gauge after this round ([`u64::MAX`] = the
    /// probe reported none).
    pub gauge: u64,
}

impl RoundSample {
    /// Sentinel for "no gauge reported".
    pub const NO_GAUGE: u64 = u64::MAX;
}

/// A maximal run of consecutive rounds attributed to one stage:
/// half-open round interval `[start, end)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Stage label.
    pub name: String,
    /// First round of the span.
    pub start: u64,
    /// One past the last round of the span.
    pub end: u64,
}

/// What a [`StageProbe`] reports for one executed round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSample {
    /// Stage label for this round (`Cow` so static protocols pay no
    /// allocation; per-batch labels can be owned).
    pub stage: Cow<'static, str>,
    /// Optional protocol-progress gauge — a monotone-ish scalar such as
    /// summed decoder rank or delivered-packet count.
    pub gauge: Option<u64>,
    /// Optional queue-depth gauge — packets waiting at their origins
    /// for a batch/epoch to pick them up, summed over all nodes. The
    /// load signal of a streaming session: bounded below the saturation
    /// knee, divergent above it.
    pub queue_depth: Option<u64>,
    /// Optional in-flight gauge — packets injected but not yet
    /// delivered at every node (queued, being collected, or being
    /// disseminated).
    pub in_flight: Option<u64>,
}

impl StageSample {
    /// A sample with only a stage label; chain the `with_*` builders
    /// for the optional gauges.
    #[must_use]
    pub fn new(stage: impl Into<Cow<'static, str>>) -> Self {
        StageSample {
            stage: stage.into(),
            gauge: None,
            queue_depth: None,
            in_flight: None,
        }
    }

    /// Sets the protocol-progress gauge.
    #[must_use]
    pub fn with_gauge(mut self, gauge: u64) -> Self {
        self.gauge = Some(gauge);
        self
    }

    /// Sets the queue-depth gauge.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: u64) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Sets the in-flight gauge.
    #[must_use]
    pub fn with_in_flight(mut self, in_flight: u64) -> Self {
        self.in_flight = Some(in_flight);
        self
    }
}

/// Labels each executed round with the protocol stage it belongs to,
/// from the same omniscient view an [`Observer`] has. Implementations
/// must be deterministic functions of the observed rounds so traced
/// runs stay reproducible.
pub trait StageProbe<N> {
    /// Called once per executed round, in round order.
    fn sample(&mut self, events: &RoundEvents, nodes: &[N]) -> StageSample;
}

/// The trivial probe: every round belongs to one fixed stage, no gauge.
#[derive(Clone, Copy, Debug)]
pub struct SingleStage(pub &'static str);

impl<N> StageProbe<N> for SingleStage {
    fn sample(&mut self, _events: &RoundEvents, _nodes: &[N]) -> StageSample {
        StageSample::new(self.0)
    }
}

/// Per-stage aggregate over one traced session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage label.
    pub name: String,
    /// Number of disjoint spans that carried this label.
    pub spans: u64,
    /// Rounds attributed to this stage.
    pub rounds: u64,
    /// Channel counters accumulated over those rounds.
    pub totals: CounterTotals,
    /// Last gauge value observed in this stage ([`None`] if the probe
    /// never reported one here).
    pub gauge_end: Option<u64>,
}

/// Ring-buffered trace recorder; see the [module docs](self). Build one
/// per session, feed it via [`Traced`], then [`TraceCollector::finish`]
/// it into a [`TraceReport`].
pub struct TraceCollector<N> {
    probe: Box<dyn StageProbe<N>>,
    capacity: usize,
    ring: Vec<RoundSample>,
    /// Index of the oldest retained sample once the ring wrapped.
    ring_head: usize,
    /// Total samples ever pushed (`- ring.len()` = evicted).
    pushed: u64,
    stages: Vec<StageSummary>,
    spans: Vec<Span>,
    /// Currently open span: `(stage index, start round)`.
    open: Option<(u32, u64)>,
    totals: CounterTotals,
    rounds: u64,
    /// One past the last observed round.
    end_round: u64,
    gauge_curve: CurveRec,
    queue_curve: CurveRec,
    in_flight_curve: CurveRec,
    queue_stats: Option<GaugeStats>,
    in_flight_stats: Option<GaugeStats>,
}

impl<N> std::fmt::Debug for TraceCollector<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("rounds", &self.rounds)
            .field("stages", &self.stages.len())
            .field("retained", &self.ring.len())
            .finish()
    }
}

impl<N: Node> TraceCollector<N> {
    /// A collector with the [`DEFAULT_RING_CAPACITY`].
    #[must_use]
    pub fn new(probe: Box<dyn StageProbe<N>>) -> Self {
        Self::with_capacity(probe, DEFAULT_RING_CAPACITY)
    }

    /// A collector retaining at most `capacity` per-round samples
    /// (capacity 0 keeps only aggregates — counters, stages, spans).
    #[must_use]
    pub fn with_capacity(probe: Box<dyn StageProbe<N>>, capacity: usize) -> Self {
        TraceCollector {
            probe,
            capacity,
            ring: Vec::new(),
            ring_head: 0,
            pushed: 0,
            stages: Vec::new(),
            spans: Vec::new(),
            open: None,
            totals: CounterTotals::default(),
            rounds: 0,
            end_round: 0,
            gauge_curve: CurveRec::new(),
            queue_curve: CurveRec::new(),
            in_flight_curve: CurveRec::new(),
            queue_stats: None,
            in_flight_stats: None,
        }
    }

    fn stage_index(&mut self, name: &str) -> u32 {
        if let Some(i) = self.stages.iter().position(|s| s.name == name) {
            return u32::try_from(i).expect("stage count fits u32");
        }
        self.stages.push(StageSummary {
            name: name.to_string(),
            ..StageSummary::default()
        });
        u32::try_from(self.stages.len() - 1).expect("stage count fits u32")
    }

    /// Records one executed round. Called by [`Traced::on_round`].
    pub fn record(&mut self, events: &RoundEvents, nodes: &[N]) {
        let s = self.probe.sample(events, nodes);
        let idx = self.stage_index(&s.stage);
        let round = events.round;

        // Span transitions: consecutive equal labels extend the open
        // span, a new label closes it.
        match self.open {
            Some((cur, _)) if cur == idx => {}
            Some((cur, start)) => {
                self.close_span(cur, start, round);
                self.open = Some((idx, round));
            }
            None => self.open = Some((idx, round)),
        }

        let stage = &mut self.stages[idx as usize];
        stage.rounds += 1;
        stage.totals.add_events(events);
        if s.gauge.is_some() {
            stage.gauge_end = s.gauge;
        }
        self.totals.add_events(events);
        self.rounds += 1;
        self.end_round = round + 1;

        if let Some(g) = s.gauge {
            self.gauge_curve.push(round, g);
        }
        if let Some(q) = s.queue_depth {
            self.queue_curve.push(round, q);
            self.queue_stats
                .get_or_insert_with(GaugeStats::default)
                .record(q);
        }
        if let Some(fl) = s.in_flight {
            self.in_flight_curve.push(round, fl);
            self.in_flight_stats
                .get_or_insert_with(GaugeStats::default)
                .record(fl);
        }

        if self.capacity > 0 {
            let fault_lost = events.faults.lost_receptions();
            let sample = RoundSample {
                round,
                stage: idx,
                transmissions: u32::try_from(events.transmissions).expect("fits u32"),
                receptions: u32::try_from(events.receptions).expect("fits u32"),
                collisions: u32::try_from(events.collisions).expect("fits u32"),
                wakeups: u32::try_from(events.wakeups).expect("fits u32"),
                fault_lost: u32::try_from(fault_lost).expect("fits u32"),
                gauge: s.gauge.unwrap_or(RoundSample::NO_GAUGE),
            };
            if self.ring.len() < self.capacity {
                self.ring.push(sample);
            } else {
                // Overwrite the oldest slot; the ring never reallocates
                // in steady state.
                self.ring[self.ring_head] = sample;
                self.ring_head = (self.ring_head + 1) % self.capacity;
            }
            self.pushed += 1;
        }
    }

    fn close_span(&mut self, stage: u32, start: u64, end: u64) {
        self.stages[stage as usize].spans += 1;
        self.spans.push(Span {
            name: self.stages[stage as usize].name.clone(),
            start,
            end,
        });
    }

    /// A [`TraceSummary`] of everything recorded so far, without
    /// freezing the collector — the live-snapshot counterpart of
    /// [`TraceReport::summary`] for long-running sessions (e.g. a
    /// service answering a `snapshot` request mid-run). The currently
    /// open span, if any, is counted as if it closed at the last
    /// observed round; recording may continue afterwards.
    #[must_use]
    pub fn snapshot_summary(&self) -> TraceSummary {
        let open_stage = self.open.map(|(stage, _)| stage as usize);
        TraceSummary {
            runs: 1,
            rounds: self.rounds,
            totals: self.totals,
            stages: self
                .stages
                .iter()
                .enumerate()
                .map(|(i, s)| StageAgg {
                    name: s.name.clone(),
                    runs: 1,
                    spans: s.spans + u64::from(open_stage == Some(i)),
                    rounds: s.rounds,
                    totals: s.totals,
                })
                .collect(),
        }
    }

    /// Closes the open span and freezes the trace.
    #[must_use]
    pub fn finish(mut self) -> TraceReport {
        if let Some((stage, start)) = self.open.take() {
            let end = self.end_round;
            self.close_span(stage, start, end);
        }
        // Unroll the ring into chronological order.
        let mut samples = Vec::with_capacity(self.ring.len());
        samples.extend_from_slice(&self.ring[self.ring_head..]);
        samples.extend_from_slice(&self.ring[..self.ring_head]);
        TraceReport {
            rounds: self.rounds,
            totals: self.totals,
            stages: self.stages,
            spans: self.spans,
            samples_dropped: self.pushed - samples.len() as u64,
            samples,
            gauge_curve: self.gauge_curve.into_points(),
            queue_curve: self.queue_curve.into_points(),
            in_flight_curve: self.in_flight_curve.into_points(),
            queue_stats: self.queue_stats,
            in_flight_stats: self.in_flight_stats,
        }
    }
}

/// Observer tee that forwards every hook to the protocol's own observer
/// and records the round into a [`TraceCollector`] — the tracing
/// counterpart of [`crate::verify::Verified`]. `DETAIL` is inherited
/// from the inner observer, so tracing alone never turns on the
/// engine's per-listener recording path.
pub struct Traced<'a, O, N: Node> {
    /// The protocol's own observer.
    pub inner: &'a mut O,
    /// The trace recorder run alongside it.
    pub collector: &'a mut TraceCollector<N>,
}

impl<O: Observer<N>, N: Node> Observer<N> for Traced<'_, O, N> {
    const DETAIL: bool = O::DETAIL;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[N]) {
        self.inner.on_round(events, nodes);
        self.collector.record(events, nodes);
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[N]) {
        if O::DETAIL {
            self.inner.on_round_detail(detail, nodes);
        }
    }
}

/// The frozen trace of one session.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Rounds observed.
    pub rounds: u64,
    /// Whole-run channel counters.
    pub totals: CounterTotals,
    /// Per-stage aggregates, in first-appearance order.
    pub stages: Vec<StageSummary>,
    /// Stage span timeline (contiguous, non-overlapping, covering every
    /// observed round exactly once).
    pub spans: Vec<Span>,
    /// Retained per-round samples, chronological (the ring keeps the
    /// most recent [`DEFAULT_RING_CAPACITY`] rounds by default).
    pub samples: Vec<RoundSample>,
    /// Samples evicted from the ring (0 if the run fit).
    pub samples_dropped: u64,
    /// Bounded change-point curve of the protocol-progress gauge.
    pub gauge_curve: Vec<(u64, u64)>,
    /// Bounded change-point curve of the queue-depth gauge (empty if
    /// the probe never reported one — all one-shot probes).
    pub queue_curve: Vec<(u64, u64)>,
    /// Bounded change-point curve of the in-flight gauge (empty if the
    /// probe never reported one).
    pub in_flight_curve: Vec<(u64, u64)>,
    /// Exact max/mean of the queue-depth gauge over reporting rounds
    /// (`None` if never reported). Computed from every sample, not the
    /// thinned curve, so bound checks are exact.
    pub queue_stats: Option<GaugeStats>,
    /// Exact max/mean of the in-flight gauge over reporting rounds.
    pub in_flight_stats: Option<GaugeStats>,
}

impl TraceReport {
    /// The machine-readable event stream: one JSON object per line — a
    /// `meta` header, every retained `round` sample, then the `span`
    /// timeline. Parse each line independently; the schema is pinned by
    /// `tests/trace_props.rs` and the `scripts/check.sh` smoke stage.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let names: Vec<String> = self
            .stages
            .iter()
            .map(|s| format!("\"{}\"", escape(&s.name)))
            .collect();
        let _ = writeln!(
            out,
            "{{\"type\": \"meta\", \"rounds\": {}, \"samples\": {}, \"samples_dropped\": {}, \
             \"stages\": [{}]}}",
            self.rounds,
            self.samples.len(),
            self.samples_dropped,
            names.join(", ")
        );
        for s in &self.samples {
            let _ = write!(
                out,
                "{{\"type\": \"round\", \"round\": {}, \"stage\": \"{}\", \"tx\": {}, \
                 \"rx\": {}, \"collisions\": {}, \"wakeups\": {}, \"fault_lost\": {}",
                s.round,
                escape(&self.stages[s.stage as usize].name),
                s.transmissions,
                s.receptions,
                s.collisions,
                s.wakeups,
                s.fault_lost
            );
            if s.gauge != RoundSample::NO_GAUGE {
                let _ = write!(out, ", \"gauge\": {}", s.gauge);
            }
            out.push_str("}\n");
        }
        for sp in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\": \"span\", \"stage\": \"{}\", \"start\": {}, \"end\": {}}}",
                escape(&sp.name),
                sp.start,
                sp.end
            );
        }
        // Streaming gauges: optional trailing sections, absent for
        // one-shot probes so their pinned output is unchanged.
        for &(round, depth) in &self.queue_curve {
            let _ = writeln!(
                out,
                "{{\"type\": \"queue\", \"round\": {round}, \"depth\": {depth}}}"
            );
        }
        for &(round, count) in &self.in_flight_curve {
            let _ = writeln!(
                out,
                "{{\"type\": \"in_flight\", \"round\": {round}, \"count\": {count}}}"
            );
        }
        out
    }

    /// The Chrome trace-event JSON array (load in `chrome://tracing` or
    /// <https://ui.perfetto.dev>): each stage span is a complete (`X`)
    /// event and the gauge curve a counter (`C`) track, with one
    /// microsecond of trace time per simulated round.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \
             \"args\": {\"name\": \"radio-kbcast session\"}}"
                .to_string(),
        );
        for sp in &self.spans {
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 0, \"tid\": 0}}",
                escape(&sp.name),
                sp.start,
                sp.end - sp.start
            ));
        }
        for &(round, gauge) in &self.gauge_curve {
            events.push(format!(
                "{{\"name\": \"gauge\", \"ph\": \"C\", \"ts\": {round}, \"pid\": 0, \
                 \"args\": {{\"value\": {gauge}}}}}"
            ));
        }
        for &(round, depth) in &self.queue_curve {
            events.push(format!(
                "{{\"name\": \"queue_depth\", \"ph\": \"C\", \"ts\": {round}, \"pid\": 0, \
                 \"args\": {{\"value\": {depth}}}}}"
            ));
        }
        for &(round, count) in &self.in_flight_curve {
            events.push(format!(
                "{{\"name\": \"in_flight\", \"ph\": \"C\", \"ts\": {round}, \"pid\": 0, \
                 \"args\": {{\"value\": {count}}}}}"
            ));
        }
        let mut out = String::from("[\n");
        let _ = write!(out, "  {}", events.join(",\n  "));
        out.push_str("\n]\n");
        out
    }

    /// The compact cross-run aggregate of this trace.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            runs: 1,
            rounds: self.rounds,
            totals: self.totals,
            stages: self
                .stages
                .iter()
                .map(|s| StageAgg {
                    name: s.name.clone(),
                    runs: 1,
                    spans: s.spans,
                    rounds: s.rounds,
                    totals: s.totals,
                })
                .collect(),
        }
    }
}

/// Per-stage slice of a [`TraceSummary`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageAgg {
    /// Stage label.
    pub name: String,
    /// Runs in which this stage appeared.
    pub runs: u64,
    /// Spans summed over those runs.
    pub spans: u64,
    /// Rounds summed over those runs.
    pub rounds: u64,
    /// Channel counters summed over those runs.
    pub totals: CounterTotals,
}

/// Compact aggregate of one or more traced runs, embedded in sweep
/// output. Merging is associative and performed in seed order by the
/// sweep layer, so the result is independent of worker-thread count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Runs aggregated.
    pub runs: u64,
    /// Rounds summed over all runs.
    pub rounds: u64,
    /// Channel counters summed over all runs.
    pub totals: CounterTotals,
    /// Per-stage aggregates; stages are aligned by name, ordered by
    /// first appearance across the merge sequence.
    pub stages: Vec<StageAgg>,
}

impl TraceSummary {
    /// Folds another summary in (stage alignment by name).
    pub fn merge(&mut self, other: &TraceSummary) {
        self.runs += other.runs;
        self.rounds += other.rounds;
        self.totals.merge(&other.totals);
        for o in &other.stages {
            if let Some(s) = self.stages.iter_mut().find(|s| s.name == o.name) {
                s.runs += o.runs;
                s.spans += o.spans;
                s.rounds += o.rounds;
                s.totals.merge(&o.totals);
            } else {
                self.stages.push(o.clone());
            }
        }
    }

    /// Deterministic JSON rendering (object; stages in stored order).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut stages = Vec::new();
        for s in &self.stages {
            stages.push(format!(
                "{{\"stage\": \"{}\", \"runs\": {}, \"spans\": {}, \"rounds\": {}, \
                 \"tx\": {}, \"rx\": {}, \"collisions\": {}, \"wakeups\": {}, \
                 \"fault_lost\": {}}}",
                escape(&s.name),
                s.runs,
                s.spans,
                s.rounds,
                s.totals.transmissions,
                s.totals.receptions,
                s.totals.collisions,
                s.totals.wakeups,
                s.totals.fault_lost()
            ));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"runs\": {}, \"rounds\": {}, \"tx\": {}, \"rx\": {}, \"collisions\": {}, \
             \"wakeups\": {}, \"fault_lost\": {}, \"per_stage\": [{}]}}",
            self.runs,
            self.rounds,
            self.totals.transmissions,
            self.totals.receptions,
            self.totals.collisions,
            self.totals.wakeups,
            self.totals.fault_lost(),
            stages.join(", ")
        );
        out
    }
}

/// Minimal JSON string escaping for stage labels.
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Node};
    use crate::graph::NodeId;
    use crate::session::NoopObserver;
    use crate::topology;

    struct Chatty(u64);
    impl Node for Chatty {
        type Msg = u32;
        fn poll(&mut self, round: u64) -> Option<u32> {
            (round % 2 == self.0 % 2).then_some(self.0 as u32)
        }
        fn receive(&mut self, _round: u64, _msg: &u32) {}
    }

    /// Alternates two labels, gauge = round number.
    struct Alternating;
    impl StageProbe<Chatty> for Alternating {
        fn sample(&mut self, events: &RoundEvents, _nodes: &[Chatty]) -> StageSample {
            StageSample::new(if events.round % 4 < 2 { "even" } else { "odd" })
                .with_gauge(events.round)
        }
    }

    fn traced_run(rounds: u64, capacity: usize) -> (TraceReport, crate::stats::SimStats) {
        let g = topology::path(3).unwrap();
        let nodes = (0..3).map(Chatty).collect();
        let mut e = Engine::new(g, nodes, (0..3).map(NodeId::new)).unwrap();
        let mut tc = TraceCollector::with_capacity(Box::new(Alternating), capacity);
        let mut inner = NoopObserver;
        for _ in 0..rounds {
            let mut tee = Traced {
                inner: &mut inner,
                collector: &mut tc,
            };
            e.step_observed(&mut tee);
        }
        (tc.finish(), *e.stats())
    }

    #[test]
    fn totals_match_engine_stats() {
        let (report, stats) = traced_run(12, 64);
        assert_eq!(report.rounds, stats.rounds);
        assert_eq!(report.totals.transmissions, stats.transmissions);
        assert_eq!(report.totals.receptions, stats.receptions);
        assert_eq!(report.totals.collisions, stats.collisions);
        assert_eq!(report.totals.wakeups, stats.wakeups);
    }

    #[test]
    fn spans_tile_the_run_and_alternate() {
        let (report, _) = traced_run(12, 64);
        assert_eq!(report.spans.len(), 6, "{:?}", report.spans);
        let mut covered = 0;
        for (i, sp) in report.spans.iter().enumerate() {
            assert_eq!(
                sp.start, covered,
                "span {i} must start where the last ended"
            );
            assert!(sp.end > sp.start);
            covered = sp.end;
        }
        assert_eq!(covered, 12);
        let stage_rounds: u64 = report.stages.iter().map(|s| s.rounds).sum();
        assert_eq!(stage_rounds, report.rounds);
    }

    #[test]
    fn snapshot_summary_matches_finished_summary() {
        let g = topology::path(3).unwrap();
        let nodes = (0..3).map(Chatty).collect();
        let mut e = Engine::new(g, nodes, (0..3).map(NodeId::new)).unwrap();
        let mut tc = TraceCollector::with_capacity(Box::new(Alternating), 64);
        let mut inner = NoopObserver;
        for _ in 0..12 {
            let mut tee = Traced {
                inner: &mut inner,
                collector: &mut tc,
            };
            e.step_observed(&mut tee);
        }
        // The snapshot must equal the frozen summary: the open span is
        // counted as-if closed at the last observed round.
        let snap = tc.snapshot_summary();
        assert_eq!(snap, tc.finish().summary());
        assert_eq!(snap.rounds, 12);
        let spans: u64 = snap.stages.iter().map(|s| s.spans).sum();
        assert_eq!(spans, 6);
    }

    #[test]
    fn ring_keeps_the_most_recent_rounds() {
        let (report, _) = traced_run(20, 8);
        assert_eq!(report.samples.len(), 8);
        assert_eq!(report.samples_dropped, 12);
        let rounds: Vec<u64> = report.samples.iter().map(|s| s.round).collect();
        assert_eq!(rounds, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn zero_capacity_keeps_aggregates_only() {
        let (report, stats) = traced_run(10, 0);
        assert!(report.samples.is_empty());
        assert_eq!(report.samples_dropped, 0);
        assert_eq!(report.totals.transmissions, stats.transmissions);
        assert_eq!(report.stages.len(), 2);
    }

    #[test]
    fn gauge_curve_records_changes_in_order() {
        let (report, _) = traced_run(12, 64);
        // Gauge = round number: one change-point per round.
        assert_eq!(report.gauge_curve.len(), 12);
        assert!(report.gauge_curve.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn jsonl_has_meta_rounds_and_spans() {
        let (report, _) = traced_run(6, 64);
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"type\": \"meta\""));
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"type\": \"round\""))
                .count(),
            6
        );
        assert!(lines.iter().any(|l| l.contains("\"type\": \"span\"")));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn chrome_trace_is_an_array_of_x_events() {
        let (report, _) = traced_run(6, 64);
        let chrome = report.to_chrome_trace();
        assert!(chrome.trim_start().starts_with('['));
        assert!(chrome.trim_end().ends_with(']'));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"ph\": \"C\""));
    }

    #[test]
    fn summary_merge_aligns_stages_by_name() {
        let (a, _) = traced_run(12, 64);
        let (b, _) = traced_run(8, 64);
        let mut m = a.summary();
        m.merge(&b.summary());
        assert_eq!(m.runs, 2);
        assert_eq!(m.rounds, 20);
        assert_eq!(m.stages.len(), 2);
        let even = m.stages.iter().find(|s| s.name == "even").unwrap();
        assert_eq!(even.runs, 2);
        let total: u64 = m.stages.iter().map(|s| s.rounds).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn merge_is_deterministic_in_fold_order() {
        let parts: Vec<TraceSummary> = (0..4).map(|i| traced_run(4 + i, 16).0.summary()).collect();
        let fold = |xs: &[TraceSummary]| {
            let mut m = TraceSummary::default();
            for x in xs {
                m.merge(x);
            }
            m
        };
        assert_eq!(fold(&parts), fold(&parts));
        assert_eq!(fold(&parts).to_json(), fold(&parts).to_json());
    }

    /// Like [`Alternating`], plus streaming gauges: queue depth is a
    /// triangle wave, in-flight a constant.
    struct Streaming;
    impl StageProbe<Chatty> for Streaming {
        fn sample(&mut self, events: &RoundEvents, _nodes: &[Chatty]) -> StageSample {
            StageSample::new("steady")
                .with_queue_depth(events.round % 5)
                .with_in_flight(3)
        }
    }

    fn streaming_run(rounds: u64) -> TraceReport {
        let g = topology::path(3).unwrap();
        let nodes = (0..3).map(Chatty).collect();
        let mut e = Engine::new(g, nodes, (0..3).map(NodeId::new)).unwrap();
        let mut tc = TraceCollector::with_capacity(Box::new(Streaming), 64);
        let mut inner = NoopObserver;
        for _ in 0..rounds {
            let mut tee = Traced {
                inner: &mut inner,
                collector: &mut tc,
            };
            e.step_observed(&mut tee);
        }
        tc.finish()
    }

    #[test]
    fn curve_rec_skips_repeats_and_stays_bounded() {
        let mut c = CurveRec::new();
        for r in 0..10 {
            c.push(r, r / 2); // values 0 0 1 1 2 2 ...
        }
        assert_eq!(c.points(), &[(0, 0), (2, 1), (4, 2), (6, 3), (8, 4)]);
        // Drive far past capacity: stays bounded, stays chronological.
        for r in 10..100_000 {
            c.push(r, r);
        }
        assert!(c.points().len() < GAUGE_CURVE_CAPACITY);
        assert!(c.points().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn queue_and_in_flight_gauges_are_recorded_exactly() {
        let report = streaming_run(10);
        let qs = report.queue_stats.expect("probe reports queue depth");
        // round % 5 over 10 rounds: two periods of 0+1+2+3+4.
        assert_eq!(qs.max, 4);
        assert_eq!(qs.sum, 20);
        assert_eq!(qs.rounds, 10);
        assert!((qs.mean() - 2.0).abs() < 1e-12);
        let fs = report.in_flight_stats.expect("probe reports in-flight");
        assert_eq!((fs.max, fs.sum, fs.rounds), (3, 30, 10));
        // The in-flight curve has one change-point (constant value).
        assert_eq!(report.in_flight_curve, vec![(0, 3)]);
        assert!(!report.queue_curve.is_empty());
    }

    #[test]
    fn streaming_gauges_appear_in_exports_only_when_reported() {
        let streaming = streaming_run(6);
        assert!(streaming.to_jsonl().contains("\"type\": \"queue\""));
        assert!(streaming.to_jsonl().contains("\"type\": \"in_flight\""));
        assert!(streaming
            .to_chrome_trace()
            .contains("\"name\": \"queue_depth\""));
        // One-shot probes never report them; their exports are unchanged.
        let (oneshot, _) = traced_run(6, 64);
        assert!(oneshot.queue_curve.is_empty());
        assert!(oneshot.queue_stats.is_none());
        assert!(!oneshot.to_jsonl().contains("\"type\": \"queue\""));
        assert!(!oneshot.to_chrome_trace().contains("queue_depth"));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }
}
