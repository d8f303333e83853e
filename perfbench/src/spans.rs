//! In-memory span recorder for the traced run.
//!
//! A span is a named host-time interval around one call into a layer,
//! with the span that caused it as parent. Spans stay in memory and are
//! written out as JSON lines when the run ends. A span's self time is
//! its duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::clock::RefClock;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `"topology.build"`.
    pub name: &'static str,
    /// Unit (session) index the span belongs to.
    pub unit: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// The recorder: a span arena plus the stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    unit: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the unit index stamped on spans opened from now on.
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = u32::try_from(unit).unwrap_or(u32::MAX);
    }

    /// Records a finished interval as a child of the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) -> SpanId {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            unit: self.unit,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        });
        SpanId(id)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let now = Instant::now();
        let id = self.record(name, now, now);
        self.open.push(id.0);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Durations of every span named `name`, in seconds at the
    /// clock's reference speed.
    #[must_use]
    pub fn secs(&self, name: &str, clock: &RefClock) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ns_to_s(s.dur_ns()) * self.scale(s, clock))
            .collect()
    }

    /// Self times of every span named `name`, in seconds at the clock's
    /// reference speed.
    #[must_use]
    pub fn self_secs(&self, name: &str, clock: &RefClock) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(s, ns)| ns_to_s(ns) * self.scale(s, clock))
            .collect()
    }

    fn scale(&self, span: &Span, clock: &RefClock) -> f64 {
        clock.scale_at(self.origin + Duration::from_nanos(span.end_ns))
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// I/O failures creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"unit\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            )
            .expect("write to string");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Nanoseconds to seconds.
#[must_use]
pub fn ns_to_s(ns: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let s = ns as f64 / 1e9;
    s
}
