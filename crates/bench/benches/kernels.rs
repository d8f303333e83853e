//! Criterion wall-clock benchmarks of the computational kernels and of
//! end-to-end simulations. Round-count results (the paper's metric) come
//! from the `exp_*` binaries; these benches track the *simulator's* own
//! performance so regressions in the hot paths are caught.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gf2::bitvec::BitVec;
use gf2::decoder::Decoder;
use gf2::matrix::BitMatrix;
use kbcast::baseline::BiiProtocol;
use kbcast::runner::{CodedProtocol, RunOptions, Workload};
use kbcast::session::run_protocol;
use kbcast::stage3::schedule;
use kbcast::Config;
use kbcast_bench::micro::forward_once;
use protocols::epidemic::EpidemicNode;
use radio_net::engine::Engine;
use radio_net::graph::NodeId;
use radio_net::rng;
use radio_net::topology::Topology;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_gf2(c: &mut Criterion) {
    let mut g = c.benchmark_group("gf2");
    g.bench_function("rank_64x64", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter_batched(
            || BitMatrix::random(64, 64, &mut rng),
            |m| m.rank(),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("decoder_fill_w16", |b| {
        let mut rng = SmallRng::seed_from_u64(2);
        let group: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 64]).collect();
        b.iter(|| {
            let mut d = Decoder::new(16, 64);
            while !d.is_complete() {
                let coeffs = BitVec::random_nonzero(16, &mut rng);
                let mut payload = vec![0u8; 64];
                for i in coeffs.iter_ones() {
                    for (a, b) in payload.iter_mut().zip(&group[i]) {
                        *a ^= b;
                    }
                }
                d.insert(coeffs, payload);
            }
            d.decode().unwrap()
        });
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    // Raw round throughput: epidemic broadcast on G(256, ·).
    g.bench_function("epidemic_gnp256_64rounds", |b| {
        let topo = Topology::Gnp { n: 256, p: 0.04 };
        let graph = topo.build(1).unwrap();
        let delta = graph.max_degree();
        b.iter_batched(
            || {
                let nodes: Vec<EpidemicNode> = (0..256)
                    .map(|i| {
                        EpidemicNode::new(delta, (i == 0).then_some(7), rng::stream(1, i as u64))
                    })
                    .collect();
                Engine::new(graph.clone(), nodes, [NodeId::new(0)]).unwrap()
            },
            |mut e| {
                e.run(64);
                e.stats().receptions
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("kbcast_n32_k64", |b| {
        let topo = Topology::Gnp { n: 32, p: 0.22 };
        let w = Workload::random(32, 64, 3);
        b.iter(|| {
            let r = run_protocol(
                &CodedProtocol::default(),
                &topo,
                &w,
                3,
                RunOptions::default(),
            )
            .unwrap();
            assert!(r.success);
            r.rounds_total
        });
    });
    g.bench_function("bii_n32_k64", |b| {
        let topo = Topology::Gnp { n: 32, p: 0.22 };
        let w = Workload::random(32, 64, 3);
        b.iter(|| {
            run_protocol(&BiiProtocol::default(), &topo, &w, 3, RunOptions::default())
                .unwrap()
                .rounds_total
        });
    });
    g.bench_function("forward_layer_t8_m8", |b| {
        b.iter(|| forward_once(8, 8, 8, 32, 40, 8, 1).decoded_fraction);
    });
    g.finish();
}

fn bench_schedule_and_topology(c: &mut Criterion) {
    let cfg = Config::for_network(1 << 16, 64, 32);
    c.bench_function("grab_schedule_x1M", |b| {
        b.iter(|| schedule::grab_schedule(1 << 20, &cfg).len());
    });
    c.bench_function("topology_gnp_512", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            Topology::Gnp { n: 512, p: 0.03 }
                .build(seed)
                .unwrap()
                .edge_count()
        });
    });
}

criterion_group!(
    benches,
    bench_gf2,
    bench_engine,
    bench_end_to_end,
    bench_schedule_and_topology
);
criterion_main!(benches);
