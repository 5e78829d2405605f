//! Criterion benchmarks, one group per figure/table of the paper.
//!
//! The groups measure the wall-clock time of serving a representative
//! workload with each algorithm (the quantity behind every cost plot), at a
//! reduced scale so that `cargo bench` finishes in minutes. The full-scale
//! measurements (the actual figures) are produced by the `experiments`
//! binary; see EXPERIMENTS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use satn_bench::{measure_once, ExperimentConfig};
use satn_core::{AlgorithmKind, RotorPush, SelfAdjustingTree};
use satn_tree::{CompleteTree, Occupancy};
use satn_workloads::{corpus, synthetic};
use std::time::Duration;

const NODES: u32 = 2_047; // 11 levels
const REQUESTS: usize = 10_000;

fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        nodes: NODES,
        requests: REQUESTS,
        repetitions: 1,
        seed: 2022,
        corpus_scale: 0.02,
        output_dir: None,
        parallelism: satn_exec::Parallelism::Auto,
    }
}

fn tree() -> CompleteTree {
    CompleteTree::with_nodes(u64::from(NODES)).unwrap()
}

/// Table 1 / core operation: a single Rotor-Push round at increasing depths.
fn bench_table1_pushdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_rotor_push_round");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for levels in [7u32, 11, 15] {
        group.bench_with_input(
            BenchmarkId::from_parameter(levels),
            &levels,
            |b, &levels| {
                let tree = CompleteTree::with_levels(levels).unwrap();
                let requests: Vec<satn_tree::ElementId> = (0..tree.num_nodes())
                    .rev()
                    .take(512)
                    .map(satn_tree::ElementId::new)
                    .collect();
                b.iter(|| {
                    let mut alg = RotorPush::new(Occupancy::identity(tree));
                    alg.serve_sequence(&requests).unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Figure 2 (Q1): the size sweep under high temporal locality.
fn bench_q1_size_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure2_q1_size_sweep");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for nodes in [255u32, 1_023, 4_095] {
        let tree = CompleteTree::with_nodes(u64::from(nodes)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let workload = synthetic::temporal(nodes, REQUESTS, 0.9, &mut rng);
        group.bench_with_input(BenchmarkId::new("rotor-push", nodes), &nodes, |b, _| {
            b.iter(|| measure_once(AlgorithmKind::RotorPush, tree, &workload, 1, 2));
        });
        group.bench_with_input(
            BenchmarkId::new("static-oblivious", nodes),
            &nodes,
            |b, _| {
                b.iter(|| measure_once(AlgorithmKind::StaticOblivious, tree, &workload, 1, 2));
            },
        );
    }
    group.finish();
}

/// Figure 3 (Q2): every algorithm on a high-temporal-locality workload.
fn bench_q2_temporal(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure3_q2_temporal");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(2);
    let workload = synthetic::temporal(NODES, REQUESTS, 0.75, &mut rng);
    for kind in AlgorithmKind::EVALUATED {
        group.bench_function(kind.name(), |b| {
            b.iter(|| measure_once(kind, tree(), &workload, 3, 4));
        });
    }
    group.finish();
}

/// Figure 4 (Q3): every algorithm on a skewed (Zipf) workload.
fn bench_q3_spatial(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_q3_spatial");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(3);
    let workload = synthetic::zipf(NODES, REQUESTS, 1.9, &mut rng);
    for kind in AlgorithmKind::EVALUATED {
        group.bench_function(kind.name(), |b| {
            b.iter(|| measure_once(kind, tree(), &workload, 5, 6));
        });
    }
    group.finish();
}

/// Figure 5a (Q4): Rotor-Push on the combined-locality grid corners.
fn bench_q4_combined(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure5a_q4_combined");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for (p, a) in [(0.0, 1.001), (0.9, 1.001), (0.0, 2.2), (0.9, 2.2)] {
        let mut rng = StdRng::seed_from_u64(4);
        let workload = synthetic::combined(NODES, REQUESTS, a, p, &mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p{p}_a{a}")),
            &workload,
            |b, workload| {
                b.iter(|| measure_once(AlgorithmKind::RotorPush, tree(), workload, 7, 8));
            },
        );
    }
    group.finish();
}

/// Figure 5b (Q4): per-request comparison of Rotor-Push and Random-Push.
fn bench_q4_histogram(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure5b_q4_rotor_vs_random");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(5);
    let workload = synthetic::uniform(NODES, REQUESTS, &mut rng);
    group.bench_function("rotor-and-random", |b| {
        b.iter(|| {
            let initial = Occupancy::identity(tree());
            let mut rotor = RotorPush::new(initial.clone());
            let mut random = satn_core::RandomPush::with_seed(initial, 9);
            satn_analysis::access_cost_differences(&mut rotor, &mut random, workload.requests())
                .unwrap()
        });
    });
    group.finish();
}

/// Figures 6 and 7 (Q5): corpus preprocessing, complexity map and serving.
fn bench_q5_corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures6_7_q5_corpus");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(6);
    let text = corpus::MarkovTextGenerator::new().text(5_000, &mut rng);
    group.bench_function("preprocess-3grams", |b| {
        b.iter(|| corpus::from_text("bench", &text));
    });
    let book = corpus::from_text("bench", &text);
    let trace: Vec<u32> = book.requests().iter().map(|e| e.index()).collect();
    group.bench_function("complexity-map", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            satn_analysis::complexity_point(&trace, &mut rng)
        });
    });
    let levels = satn_workloads::fit_tree_levels(book.num_elements());
    let corpus_tree = CompleteTree::with_levels(levels).unwrap();
    group.bench_function("rotor-push-on-corpus", |b| {
        b.iter(|| measure_once(AlgorithmKind::RotorPush, corpus_tree, &book, 11, 12));
    });
    group.finish();
}

/// Lemma 8, the amortized audit and the ablation of the rotor mechanism.
fn bench_theory_and_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("theory_and_ablation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("lemma8-adversary", |b| {
        b.iter(|| satn_analysis::run_lemma8(9, 2_000).unwrap());
    });
    group.bench_function("theorem7-audit", |b| {
        // The audit recomputes an O(n) credit sum per round, so it gets its
        // own small configuration.
        let mut config = bench_config();
        config.nodes = 255;
        config.requests = 2_000;
        b.iter(|| satn_bench::experiments::audit_experiment(&config));
    });
    // Ablation: Rotor-Push with frozen pointers versus the real algorithm on
    // a skewed workload (quantifies what toggling the rotors buys).
    let mut rng = StdRng::seed_from_u64(8);
    let workload = synthetic::zipf(NODES, REQUESTS, 1.6, &mut rng);
    group.bench_function("ablation-rotor-push", |b| {
        b.iter(|| {
            let mut alg = RotorPush::new(Occupancy::identity(tree()));
            alg.serve_sequence(workload.requests()).unwrap()
        });
    });
    group.bench_function("ablation-frozen-rotor", |b| {
        b.iter(|| {
            let mut alg = RotorPush::without_flipping(Occupancy::identity(tree()));
            alg.serve_sequence(workload.requests()).unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_table1_pushdown,
    bench_q1_size_sweep,
    bench_q2_temporal,
    bench_q3_spatial,
    bench_q4_combined,
    bench_q4_histogram,
    bench_q5_corpus,
    bench_theory_and_ablation
);
criterion_main!(figures);
