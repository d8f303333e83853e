//! Metric registry and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (pinned by
//! `tests/names.rs`). A run reports every end-to-end metric with
//! `--trace 0` and every per-layer metric with `--trace 1`; a per-layer
//! metric of a layer the workload never calls reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("session_s_p50", "s"),
    ("rounds_per_s", "1/s"),
    ("pkt_per_s", "1/s"),
    ("rounds_per_packet", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_s", "s"),
    ("graph.probe_s", "s"),
    ("protocol.build_s", "s"),
    ("engine.new_s", "s"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("engine.step_samples", "count"),
    ("engine.self_s", "s"),
    ("engine.polls_per_round", "1/round"),
    ("engine.awake_frac", "ratio"),
    ("engine.rx_per_tx", "ratio"),
    ("engine.collisions_per_round", "1/round"),
    ("node.poll_calls", "count"),
    ("node.poll_s", "s"),
    ("node.receive_calls", "count"),
    ("node.receive_s", "s"),
    ("stage.leader_s", "s"),
    ("stage.bfs_s", "s"),
    ("stage.collect_s", "s"),
    ("stage.disseminate_s", "s"),
    ("stage.leader_rounds", "rounds"),
    ("stage.bfs_rounds", "rounds"),
    ("stage.collect_rounds", "rounds"),
    ("stage.disseminate_rounds", "rounds"),
    ("gf2.insert_ns", "ns"),
    ("gf2.decode_us", "us"),
    ("observer.verify_x", "ratio"),
    ("observer.trace_x", "ratio"),
    ("session.driver_s", "s"),
    ("serve.parse_us_p50", "us"),
    ("serve.encode_us_p50", "us"),
    ("serve.inject_us_p50", "us"),
    ("serve.tick_us_p50", "us"),
    ("serve.tick_us_p99", "us"),
    ("serve.drain_s", "s"),
    ("serve.req_us_p50", "us"),
    ("serve.req_us_p99", "us"),
    ("serve.requests", "count"),
    ("serve.latency_rounds_p50", "rounds"),
    ("serve.latency_rounds_p99", "rounds"),
    ("serve.sim_pkt_per_round", "1/round"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "oneshot-coded",
    "bii-udg",
    "serve-stream",
    "oneshot-checked",
];

/// One run's outcome: the counts of the result line plus the metric
/// values by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Units (sessions) attempted.
    pub attempted: u64,
    /// Units that failed their output check.
    pub failed: u64,
    /// Set when a cross-check (traced vs untraced simulated counts)
    /// did not hold.
    pub mismatch: bool,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is recorded twice.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} recorded twice"
        );
    }

    /// Records zero for every metric of `registry` not yet set.
    pub fn zero_rest(&mut self, registry: &[(&'static str, &str)]) {
        for &(name, _) in registry {
            self.values.entry(name).or_insert(0.0);
        }
    }

    /// Adds a human-readable note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.mismatch && self.attempted > 0
    }

    /// The result line over `registry`.
    ///
    /// # Errors
    ///
    /// Names a registry metric that was never recorded, a recorded
    /// metric outside the registry, or a non-finite value.
    pub fn to_json(&self, registry: &[(&'static str, &str)]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !registry.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the registry"));
        }
        let mut metrics = String::new();
        for (i, &(name, unit)) in registry.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to string");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
