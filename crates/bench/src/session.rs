//! The shared protocol-sweep driver: every experiment binary repeats
//! "build the seed's topology, shape a workload, run a
//! [`BroadcastProtocol`] session" over a seed range. This module owns
//! that plumbing — seed fan-out across worker threads, per-seed graph
//! and workload construction, the session driver call — so an
//! experiment is reduced to picking a [`SweepSpec`] (or an arrival
//! schedule for [`sweep_dynamic`]) and aggregating the returned
//! [`SessionReport`]s, for adversity sweeps through [`Summary::of`].

use kbcast::dynamic::{Arrival, DynamicMeta, DynamicProtocol};
use kbcast::runner::{RunOptions, Workload};
use kbcast::session::{run_protocol_on_graph, BroadcastProtocol, NetParams, SessionReport};
use radio_net::topology::Topology;
use radio_net::trace::TraceSummary;

use crate::parallel::par_map_indexed;

/// How each seed's `k`-packet workload is placed on the nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// `k` packets at uniformly random (seeded) nodes — the default
    /// experiment family.
    Random,
    /// Packet `i` at node `i % n`.
    RoundRobin,
    /// All `k` packets at one node.
    SingleSource(usize),
}

impl WorkloadSpec {
    /// Materializes the workload for one seed.
    #[must_use]
    pub fn build(&self, n: usize, k: usize, seed: u64) -> Workload {
        match *self {
            WorkloadSpec::Random => Workload::random(n, k, seed),
            WorkloadSpec::RoundRobin => Workload::round_robin(n, k),
            WorkloadSpec::SingleSource(source) => Workload::single_source(n, source, k),
        }
    }
}

/// One protocol sweep: `seeds` independent sessions of a protocol on
/// per-seed builds of `topology` with `k`-packet workloads.
#[derive(Clone, Copy, Debug)]
pub struct SweepSpec<'a> {
    /// Topology family (rebuilt per seed).
    pub topology: &'a Topology,
    /// Packets per session.
    pub k: usize,
    /// Seeds `0..seeds`.
    pub seeds: u64,
    /// Workload placement.
    pub workload: WorkloadSpec,
    /// Harness knobs (round-cap override, verify, trace, churn,
    /// faults). Each seed builds its own fault and churn models from the
    /// specs with that seed, so adverse sweeps are as reproducible as
    /// clean ones.
    pub options: RunOptions,
}

impl<'a> SweepSpec<'a> {
    /// A sweep with random workloads and default options — the shape
    /// of almost every experiment.
    #[must_use]
    pub fn new(topology: &'a Topology, k: usize, seeds: u64) -> Self {
        SweepSpec {
            topology,
            k,
            seeds,
            workload: WorkloadSpec::Random,
            options: RunOptions::default(),
        }
    }
}

/// Probes the seed-0 build of `topology` for its network parameters
/// (experiments report `n`, `D`, `Δ` of the family's representative).
///
/// # Panics
///
/// Panics if the topology fails to build.
#[must_use]
pub fn probe(topology: &Topology) -> NetParams {
    NetParams::of_graph(&topology.build(0).expect("topology builds"))
}

/// Runs the sweep: one session of `protocol` per seed, fanned out
/// across [`crate::parallel::thread_count`] worker threads and
/// collected back in seed order, so every aggregate computed from the
/// returned reports is bit-identical to a sequential run.
///
/// # Panics
///
/// Panics if a topology fails to build or a session errors.
#[must_use]
pub fn sweep_protocol<P>(protocol: &P, spec: &SweepSpec) -> Vec<SessionReport<P::Meta>>
where
    P: BroadcastProtocol + Sync,
    P::Meta: Send,
{
    let seeds = usize::try_from(spec.seeds).expect("seed count fits usize");
    par_map_indexed(seeds, |i| {
        let seed = i as u64;
        let graph = spec.topology.build(seed).expect("topology builds");
        let workload = spec.workload.build(graph.len(), spec.k, seed);
        run_protocol_on_graph(protocol, graph, &workload, seed, spec.options).expect("session runs")
    })
}

/// Runs the dynamic-arrival protocol once per seed on per-seed builds of
/// `topology`, fanned out like [`sweep_protocol`] and returned in seed
/// order. `arrivals(seed, n)` is the seed's full schedule on its
/// `n`-node graph; its round-0 arrivals form the initial workload
/// ([`DynamicProtocol::initial_workload`]) and the rest are injected
/// mid-session. Such sweeps cannot be a [`SweepSpec`]: the protocol
/// value borrows the per-seed schedule.
///
/// # Panics
///
/// Panics if a topology fails to build or a session errors.
#[must_use]
pub fn sweep_dynamic(
    topology: &Topology,
    seeds: u64,
    horizon: u64,
    options: RunOptions,
    arrivals: impl Fn(u64, usize) -> Vec<Arrival> + Sync,
) -> Vec<SessionReport<DynamicMeta>> {
    let seeds = usize::try_from(seeds).expect("seed count fits usize");
    par_map_indexed(seeds, |i| {
        let seed = i as u64;
        let graph = topology.build(seed).expect("topology builds");
        let n = graph.len();
        let arrivals = arrivals(seed, n);
        let protocol = DynamicProtocol {
            arrivals: &arrivals,
            config: None,
            horizon,
        };
        let workload = protocol.initial_workload(n);
        run_protocol_on_graph(&protocol, graph, &workload, seed, options).expect("session runs")
    })
}

/// A round-0 wave of four packets (wakes the network, elects the
/// leader) plus a late wave of four at round 1500 that must ride a
/// subsequent batch; the same on every seed.
#[must_use]
pub fn two_wave_arrivals(_seed: u64, n: usize) -> Vec<Arrival> {
    let mut arrivals: Vec<Arrival> = (0..4)
        .map(|j| Arrival {
            round: 0,
            node: (j * 3) % n,
            payload: vec![0, j as u8],
        })
        .collect();
    arrivals.extend((0..4).map(|j| Arrival {
        round: 1500,
        node: (j * 7 + 1) % n,
        payload: vec![1, j as u8],
    }));
    arrivals
}

/// The row an adversity sweep (faults, churn, collision detection)
/// reports per protocol: how many seeds succeeded, the median rounds
/// over the successes, the mean delivered fraction and the receptions
/// lost to injected faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Successful seeds.
    pub ok: u64,
    /// Seeds run.
    pub seeds: u64,
    /// Median `rounds_total` over the successful seeds (0 if none).
    pub median_rounds: f64,
    /// Mean `delivered_fraction` over all seeds.
    pub mean_delivered: f64,
    /// Receptions lost to faults (dropped, jammed, crashed listener,
    /// suppressed wake-up), summed over all seeds.
    pub lost_receptions: u64,
}

impl Summary {
    /// Summarizes a sweep's reports.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn of<M>(reports: &[SessionReport<M>]) -> Self {
        Summary {
            ok: successes(reports).count() as u64,
            seeds: reports.len() as u64,
            median_rounds: median_over(reports, |r| r.rounds_total as f64),
            mean_delivered: reports.iter().map(|r| r.delivered_fraction).sum::<f64>()
                / reports.len().max(1) as f64,
            lost_receptions: reports.iter().map(|r| r.stats.fault_lost()).sum(),
        }
    }
}

/// Folds the traces of a sweep into one [`TraceSummary`], merging in
/// seed order — the reports come back seed-ordered regardless of the
/// worker-thread count, so the merged summary (including its stage
/// order) is `KBCAST_THREADS`-invariant. Reports without a trace
/// (sweeps run without [`RunOptions::trace`]) contribute nothing.
#[must_use]
pub fn merge_traces<M>(reports: &[SessionReport<M>]) -> TraceSummary {
    let mut merged = TraceSummary::default();
    for r in reports {
        if let Some(trace) = &r.trace {
            merged.merge(&trace.summary());
        }
    }
    merged
}

/// Successful reports of a sweep, in seed order.
pub fn successes<M>(reports: &[SessionReport<M>]) -> impl Iterator<Item = &SessionReport<M>> {
    reports.iter().filter(|r| r.success)
}

/// Median of `f` over the successful reports (0 if none).
pub fn median_over<M>(reports: &[SessionReport<M>], f: impl Fn(&SessionReport<M>) -> f64) -> f64 {
    let vals: Vec<f64> = successes(reports).map(f).collect();
    crate::stats::median(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbcast::baseline::BiiProtocol;
    use kbcast::runner::CodedProtocol;
    use kbcast::session::run_protocol;

    #[test]
    fn sweep_runs_all_seeds_in_order() {
        let topo = Topology::Path { n: 6 };
        let spec = SweepSpec::new(&topo, 4, 3);
        let reports = sweep_protocol(&CodedProtocol::default(), &spec);
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.success && r.n == 6 && r.k == 4));
    }

    #[test]
    fn sweep_matches_sequential_sessions_bitwise() {
        let topo = Topology::Gnp { n: 20, p: 0.3 };
        let spec = SweepSpec::new(&topo, 6, 4);
        let swept = sweep_protocol(&BiiProtocol::default(), &spec);
        for (seed, r) in swept.iter().enumerate() {
            let w = Workload::random(20, 6, seed as u64);
            let seq = run_protocol(
                &BiiProtocol::default(),
                &topo,
                &w,
                seed as u64,
                RunOptions::default(),
            )
            .expect("session runs");
            assert_eq!(r.success, seq.success);
            assert_eq!(r.rounds_total, seq.rounds_total);
            assert_eq!(r.stats, seq.stats);
        }
    }

    #[test]
    fn workload_spec_shapes() {
        assert_eq!(
            WorkloadSpec::Random.build(10, 7, 1),
            Workload::random(10, 7, 1)
        );
        assert_eq!(
            WorkloadSpec::RoundRobin.build(4, 6, 9),
            Workload::round_robin(4, 6)
        );
        assert_eq!(
            WorkloadSpec::SingleSource(2).build(5, 3, 0),
            Workload::single_source(5, 2, 3)
        );
    }

    #[test]
    fn median_over_skips_failures() {
        let topo = Topology::Path { n: 5 };
        let mut spec = SweepSpec::new(&topo, 3, 2);
        // A 1-round cap guarantees failure; medians over successes
        // then collapse to the empty-slice default while the reports
        // themselves survive.
        spec.options.max_rounds = Some(1);
        let reports = sweep_protocol(&CodedProtocol::default(), &spec);
        assert_eq!(reports.len(), 2);
        assert_eq!(successes(&reports).count(), 0);
        assert_eq!(median_over(&reports, |r| r.rounds_total as f64), 0.0);
    }
}
