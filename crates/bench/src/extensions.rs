//! Experiments that go beyond the paper's evaluation: the rotor-mechanism
//! ablation, convergence tracking, entropy bounds, and the multi-source
//! network composition. These are the "optional / future work" studies listed
//! in DESIGN.md §7; the paper's own figures live in [`crate::experiments`].

use crate::config::ExperimentConfig;
use crate::measure::{cost_of, measure_algorithms};
use crate::report::{fmt, FigureResult, TextTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use satn_analysis::{
    entropy, entropy_static_lower_bound, static_optimal_expected_cost, track_convergence,
};
use satn_core::ablation::AblationKind as RotorAblation;
use satn_core::{AlgorithmKind, RotorPush, SelfAdjustingTree, StaticOblivious};
use satn_network::{traffic, SelfAdjustingNetwork};
use satn_tree::{CompleteTree, Occupancy};
use satn_workloads::{nonstationary, synthetic, Workload};

use crate::experiments::ZIPF_A_VALUES;

fn tree_for(nodes: u32) -> CompleteTree {
    CompleteTree::with_nodes(u64::from(nodes)).expect("experiment sizes are complete-tree sizes")
}

/// Ablation of the rotor mechanism: the full algorithm, lazy flipping with
/// several periods, the frozen rotor and the re-randomized rotor, each on a
/// combined-locality workload, a uniform workload and the round-robin path
/// adversary of Section 1.1.
pub fn ablation_experiment(config: &ExperimentConfig) -> FigureResult {
    let nodes = config.nodes.min(4_095);
    let tree = tree_for(nodes);
    let requests = config.requests.min(200_000);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let combined = synthetic::combined(nodes, requests, 1.6, 0.75, &mut rng);
    let uniform = synthetic::uniform(nodes, requests, &mut rng);
    // The leftmost leaf (heap index n/2): with the identity initial placement
    // its root path coincides with the frozen rotor's global path, which is
    // exactly the regime where the missing flips hurt.
    let path = synthetic::round_robin_path(nodes, nodes / 2, requests / tree.num_levels() as usize);

    let mut table = TextTable::new([
        "variant",
        "combined locality (mean total)",
        "uniform (mean total)",
        "round-robin path (mean total)",
    ]);
    for variant in RotorAblation::SWEEP {
        let mut row = vec![variant.label()];
        for workload in [&combined, &uniform, &path] {
            let mut algorithm = variant.instantiate(Occupancy::identity(tree), config.seed);
            let summary = algorithm
                .serve_sequence(workload.requests())
                .expect("workloads fit the tree");
            row.push(fmt(summary.mean_total()));
        }
        table.push_row(row);
    }
    FigureResult::new(
        "extension-ablation",
        "Ablation of the rotor mechanism (lower is better; the frozen rotor degrades on the adversarial path workload)",
        table,
    )
}

/// Convergence of Rotor-Push towards the MRU / frequency-optimal layouts on a
/// phase-shifting workload, compared against the never-adjusting initial
/// tree.
pub fn convergence_experiment(config: &ExperimentConfig) -> FigureResult {
    let nodes = config.nodes.min(4_095);
    let tree = tree_for(nodes);
    let requests = config.requests.min(200_000);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let workload = nonstationary::shifting_hotspot(nodes, requests, 4, 1.9, &mut rng);

    let checkpoints = 8;
    let mut rotor = RotorPush::new(Occupancy::identity(tree));
    let mut oblivious = StaticOblivious::new(Occupancy::identity(tree));
    let rotor_points = track_convergence(&mut rotor, workload.requests(), checkpoints)
        .expect("workload fits the tree");
    let static_points = track_convergence(&mut oblivious, workload.requests(), checkpoints)
        .expect("workload fits the tree");

    let mut table = TextTable::new([
        "requests served",
        "rotor MRU displacement",
        "rotor frequency displacement",
        "rotor window cost",
        "oblivious window cost",
    ]);
    for (rotor_point, static_point) in rotor_points.iter().zip(&static_points) {
        table.push_row([
            rotor_point.requests_served.to_string(),
            fmt(rotor_point.mru_displacement),
            fmt(rotor_point.frequency_displacement),
            fmt(rotor_point.window_mean_cost),
            fmt(static_point.window_mean_cost),
        ]);
    }
    FigureResult::new(
        "extension-convergence",
        "Convergence on a shifting-hotspot workload: distance to the ideal layouts and per-window cost",
        table,
    )
}

/// Entropy bounds versus measured costs for the Zipf workloads of Q3: the
/// workload entropy, the Shannon lower bound for static layouts, the optimal
/// static expected access cost, and the measured costs of Static-Opt and
/// Rotor-Push.
pub fn entropy_experiment(config: &ExperimentConfig) -> FigureResult {
    let nodes = config.nodes;
    let tree = tree_for(nodes);
    let mut table = TextTable::new([
        "zipf a",
        "entropy (bits)",
        "static lower bound",
        "optimal static cost",
        "Static_opt measured access",
        "Rotor measured total",
    ]);
    for &a in &ZIPF_A_VALUES {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let workload: Workload = synthetic::zipf(nodes, config.requests, a, &mut rng);
        let weights = workload.weights();
        let kinds = [AlgorithmKind::StaticOpt, AlgorithmKind::RotorPush];
        let costs = measure_algorithms(&kinds, tree, &workload, config);
        table.push_row([
            a.to_string(),
            fmt(entropy(&weights)),
            fmt(entropy_static_lower_bound(&weights, tree.num_levels())),
            fmt(static_optimal_expected_cost(&weights)),
            fmt(cost_of(&costs, AlgorithmKind::StaticOpt).mean_access),
            fmt(cost_of(&costs, AlgorithmKind::RotorPush).mean_total()),
        ]);
    }
    FigureResult::new(
        "extension-entropy",
        "Entropy lower bounds vs. measured costs on the Q3 Zipf workloads",
        table,
    )
}

/// The multi-source composition: every host runs its own ego-tree and the
/// network serves hotspot traffic. Reports mean route cost and the physical
/// degree statistics per algorithm.
pub fn network_experiment(config: &ExperimentConfig) -> FigureResult {
    let num_hosts = 64u32.min(config.nodes.max(8));
    let pairs = (config.requests / 10).max(2_000);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let demand = traffic::hotspot(num_hosts, pairs, num_hosts as usize / 4, 0.85, &mut rng);

    let kinds = [
        AlgorithmKind::RotorPush,
        AlgorithmKind::RandomPush,
        AlgorithmKind::MoveHalf,
        AlgorithmKind::MaxPush,
        AlgorithmKind::StaticOblivious,
    ];
    let mut table = TextTable::new([
        "algorithm",
        "mean route cost",
        "mean access",
        "mean adjustment",
        "max degree",
        "mean degree",
    ]);
    for kind in kinds {
        let mut network =
            SelfAdjustingNetwork::new(num_hosts, kind, config.seed).expect("valid host count");
        let summary = network
            .serve_trace(demand.pairs())
            .expect("traffic fits the network");
        table.push_row([
            kind.name().to_owned(),
            fmt(summary.mean_total()),
            fmt(summary.mean_access()),
            fmt(summary.mean_adjustment()),
            network.max_degree().to_string(),
            fmt(network.mean_degree()),
        ]);
    }
    FigureResult::new(
        "extension-network",
        "Multi-source composition: 64 ego-trees serving hotspot traffic (route cost and physical degree)",
        table,
    )
}

/// Runs all extension experiments.
pub fn run_extensions(config: &ExperimentConfig) -> Vec<FigureResult> {
    vec![
        ablation_experiment(config),
        convergence_experiment(config),
        entropy_experiment(config),
        network_experiment(config),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            nodes: 255,
            requests: 3_000,
            repetitions: 1,
            seed: 13,
            corpus_scale: 0.02,
            output_dir: None,
            parallelism: satn_exec::Parallelism::Auto,
        }
    }

    #[test]
    fn ablation_covers_every_variant_and_punishes_the_frozen_rotor_on_the_path() {
        let figure = ablation_experiment(&tiny_config());
        assert_eq!(figure.table.rows().len(), RotorAblation::SWEEP.len());
        let column = figure.table.header().len() - 1; // round-robin path column
        let value = |label: &str| -> f64 {
            figure
                .table
                .rows()
                .iter()
                .find(|row| row[0] == label)
                .unwrap()[column]
                .parse()
                .unwrap()
        };
        assert!(value("frozen") > value("rotor"));
    }

    #[test]
    fn convergence_reports_monotone_checkpoints() {
        let figure = convergence_experiment(&tiny_config());
        assert!(figure.table.rows().len() >= 2);
        let served: Vec<u64> = figure
            .table
            .rows()
            .iter()
            .map(|row| row[0].parse().unwrap())
            .collect();
        assert!(served.windows(2).all(|pair| pair[0] < pair[1]));
        assert_eq!(*served.last().unwrap(), 3_000);
    }

    #[test]
    fn entropy_bounds_sandwich_the_measured_static_opt_cost() {
        let figure = entropy_experiment(&tiny_config());
        for row in figure.table.rows() {
            let lower: f64 = row[2].parse().unwrap();
            let optimal: f64 = row[3].parse().unwrap();
            let measured: f64 = row[4].parse().unwrap();
            assert!(optimal + 1e-9 >= lower, "{row:?}");
            // The measured Static-Opt access cost uses the same layout as the
            // analytic optimum, up to the random initial placement of ties.
            assert!((measured - optimal).abs() < 0.75, "{row:?}");
        }
    }

    #[test]
    fn network_experiment_reports_every_algorithm_with_sane_degrees() {
        let figure = network_experiment(&tiny_config());
        assert_eq!(figure.table.rows().len(), 5);
        for row in figure.table.rows() {
            let max_degree: u32 = row[4].parse().unwrap();
            assert!(max_degree >= 1);
        }
        // Self-adjusting networks serve the hotspot traffic cheaper than the
        // oblivious static composition.
        let cost = |name: &str| -> f64 {
            figure
                .table
                .rows()
                .iter()
                .find(|row| row[0] == name)
                .unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(cost("rotor-push") < cost("static-oblivious"));
    }
}
