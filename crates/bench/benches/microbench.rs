//! Micro-benchmarks of the building blocks: tree substrate operations, rotor
//! machinery, the augmented push-down, per-algorithm serve throughput, and
//! the general-graph rotor walk.
//!
//! These do not correspond to a figure of the paper; they document the cost
//! of the primitives the figure-level experiments are built from.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use satn_core::pushdown::augmented_push_down;
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_rotor::{RotorGraph, RotorState};
use satn_tree::{
    placement, CompleteTree, CostSummary, ElementId, MarkScratch, MarkedRound, NodeId, Occupancy,
};
use satn_workloads::synthetic;

const LEVELS: u32 = 10; // 1023 nodes
const REQUESTS: usize = 10_000;

fn bench_tree_primitives(c: &mut Criterion) {
    let tree = CompleteTree::with_levels(LEVELS).unwrap();
    let mut group = c.benchmark_group("tree-primitives");

    // The allocating walk vs. the allocation-free iterator over the same
    // nodes: the delta between these two benchmarks is the per-path heap
    // traffic removed from the serve hot path (both fold the path's node
    // indices so neither can cheat via a size shortcut).
    group.bench_function("node-root-path", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for node in tree.nodes() {
                total += black_box(
                    node.path_from_root()
                        .iter()
                        .map(|n| n.usize())
                        .sum::<usize>(),
                );
            }
            total
        })
    });

    group.bench_function("node-ancestors", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for node in tree.nodes() {
                total += black_box(node.ancestors().map(|n| n.usize()).sum::<usize>());
            }
            total
        })
    });

    group.bench_function("occupancy-swap-pairs", |b| {
        let mut occupancy = Occupancy::identity(tree);
        b.iter(|| {
            for index in 0..(tree.num_nodes() - 1) {
                let node = NodeId::new(index + 1);
                occupancy.swap_nodes(node, node.parent().unwrap()).unwrap();
            }
            black_box(occupancy.is_consistent())
        })
    });

    group.bench_function("marked-round-bubble-to-root", |b| {
        let mut occupancy = Occupancy::identity(tree);
        let leaf = NodeId::new(tree.num_nodes() - 1);
        b.iter(|| {
            let element = occupancy.element_at(leaf);
            let mut round = MarkedRound::access(&mut occupancy, element).unwrap();
            let node = round.occupancy().node_of(element);
            round.bubble_to_root(node).unwrap();
            black_box(round.finish())
        })
    });

    // Same round as above but opened through a reused MarkScratch — the
    // allocation-free hot path of the serve loop.
    group.bench_function("marked-round-reused-scratch", |b| {
        let mut occupancy = Occupancy::identity(tree);
        let leaf = NodeId::new(tree.num_nodes() - 1);
        let mut scratch = MarkScratch::new();
        b.iter(|| {
            let element = occupancy.element_at(leaf);
            let mut round =
                MarkedRound::access_reusing(&mut occupancy, element, &mut scratch).unwrap();
            let node = round.occupancy().node_of(element);
            round.bubble_to_root(node).unwrap();
            black_box(round.finish())
        })
    });

    group.finish();
}

fn bench_rotor_machinery(c: &mut Criterion) {
    let tree = CompleteTree::with_levels(LEVELS).unwrap();
    let mut group = c.benchmark_group("rotor-machinery");

    group.bench_function("flip-max-level", |b| {
        let mut rotors = RotorState::new(tree);
        b.iter(|| {
            rotors.flip(tree.max_level());
            black_box(rotors.global_path_node(tree.max_level()))
        })
    });

    group.bench_function("flip-rank-all-leaves", |b| {
        let rotors = RotorState::new(tree);
        b.iter(|| {
            let mut total = 0u64;
            for leaf in tree.leaves() {
                total += black_box(rotors.flip_rank(leaf));
            }
            total
        })
    });

    group.bench_function("graph-rotor-walk-10k-steps", |b| {
        let mut rotor = RotorGraph::complete_binary_tree(LEVELS);
        b.iter(|| black_box(rotor.walk(0, 10_000)))
    });

    group.finish();
}

fn bench_push_down(c: &mut Criterion) {
    let tree = CompleteTree::with_levels(LEVELS).unwrap();
    let mut group = c.benchmark_group("augmented-push-down");
    let leftmost = NodeId::from_level_offset(tree.max_level(), 0);
    let rightmost =
        NodeId::from_level_offset(tree.max_level(), tree.nodes_at_level(tree.max_level()) - 1);

    group.bench_function("leaf-to-opposite-leaf", |b| {
        let mut occupancy = Occupancy::identity(tree);
        b.iter(|| {
            let element = occupancy.element_at(leftmost);
            let mut round = MarkedRound::access(&mut occupancy, element).unwrap();
            let u = round.occupancy().node_of(element);
            augmented_push_down(&mut round, u, rightmost).unwrap();
            black_box(round.finish())
        })
    });

    group.finish();
}

/// The fused batch drain with its prefetch-ahead prologue (`serve_batch`)
/// against the same requests served one `serve` call at a time — the only
/// difference on self-adjusting trees being the batch-local next-request
/// path touch and the per-call dispatch.
fn bench_serve_batch_prefetch(c: &mut Criterion) {
    let tree = CompleteTree::with_levels(16).unwrap();
    let mut rng = StdRng::seed_from_u64(2022);
    let workload = synthetic::combined(tree.num_nodes(), REQUESTS, 1.6, 0.75, &mut rng);
    let mut group = c.benchmark_group("serve-batch-prefetch");
    group.sample_size(10);

    for (name, batched) in [("on-serve-batch", true), ("off-serve-loop", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                let initial = placement::random_occupancy(tree, &mut rng);
                let mut algorithm = AlgorithmKind::RotorPush
                    .instantiate(initial, 7, workload.requests())
                    .unwrap();
                let mut summary = CostSummary::new();
                if batched {
                    algorithm
                        .serve_batch(workload.requests(), &mut summary)
                        .unwrap();
                } else {
                    for &request in workload.requests() {
                        summary.record(algorithm.serve(request).unwrap());
                    }
                }
                black_box(summary)
            })
        });
    }

    group.finish();
}

fn bench_serve_throughput(c: &mut Criterion) {
    let tree = CompleteTree::with_levels(LEVELS).unwrap();
    let mut rng = StdRng::seed_from_u64(2022);
    let workload = synthetic::combined(tree.num_nodes(), REQUESTS, 1.6, 0.75, &mut rng);
    let mut group = c.benchmark_group("serve-throughput");
    group.sample_size(20);

    for kind in AlgorithmKind::EVALUATED {
        group.bench_with_input(
            BenchmarkId::new("combined-workload", kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    let initial = placement::random_occupancy(tree, &mut rng);
                    let mut algorithm = kind.instantiate(initial, 7, workload.requests()).unwrap();
                    black_box(algorithm.serve_sequence(workload.requests()).unwrap())
                })
            },
        );
    }

    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload-generation");
    group.sample_size(20);
    let nodes = (1u32 << LEVELS) - 1;

    group.bench_function("zipf", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(synthetic::zipf(nodes, REQUESTS, 1.9, &mut rng))
        })
    });
    group.bench_function("temporal", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(synthetic::temporal(nodes, REQUESTS, 0.9, &mut rng))
        })
    });
    group.bench_function("working-set-ranks", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let workload = synthetic::zipf(nodes, REQUESTS, 1.6, &mut rng);
        b.iter(|| black_box(satn_analysis::working_set_ranks(nodes, workload.requests())))
    });
    group.bench_function("single-request-ids", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for index in 0..nodes {
                total += u64::from(black_box(ElementId::new(index)).index());
            }
            total
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_tree_primitives,
    bench_rotor_machinery,
    bench_push_down,
    bench_serve_batch_prefetch,
    bench_serve_throughput,
    bench_workload_generation
);
criterion_main!(benches);
