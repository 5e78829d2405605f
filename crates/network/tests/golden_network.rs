//! Golden-file regression test for the multi-source network: every source's
//! cost summary and placement fingerprint, for the six deterministic
//! algorithms, must match the checked-in snapshot under `tests/golden/`.
//! Any change to how a host pair reaches its source's tree — the destination
//! numbering, the tree size, the initial placement, the per-source seeds of
//! the deterministic rules — shifts a number here.
//!
//! The cases cover a large skewed network, a uniform one, and the smallest
//! sizes: two hosts (a one-node tree per source) and five hosts (four
//! destinations in a seven-node tree, so three placeholder slots). The small
//! cases are served pair by pair, the large ones as one trace.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p satn-network --test golden_network
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use satn_core::AlgorithmKind;
use satn_network::{traffic, Host, SelfAdjustingNetwork, Traffic};
use satn_tree::CostSummary;
use std::fmt::Write as _;
use std::path::PathBuf;

const DETERMINISTIC: [AlgorithmKind; 6] = [
    AlgorithmKind::RotorPush,
    AlgorithmKind::MaxPush,
    AlgorithmKind::MoveHalf,
    AlgorithmKind::MoveToFront,
    AlgorithmKind::StaticOblivious,
    AlgorithmKind::StaticOpt,
];

/// `(label, traffic, served pair by pair)`.
fn cases() -> Vec<(&'static str, Traffic, bool)> {
    vec![
        (
            "hotspot-48",
            traffic::hotspot(48, 30_000, 6, 0.9, &mut StdRng::seed_from_u64(3)),
            false,
        ),
        (
            "uniform-24",
            traffic::uniform(24, 5_000, &mut StdRng::seed_from_u64(5)),
            false,
        ),
        (
            "uniform-2",
            traffic::uniform(2, 300, &mut StdRng::seed_from_u64(7)),
            true,
        ),
        (
            "hotspot-5",
            traffic::hotspot(5, 2_000, 3, 0.8, &mut StdRng::seed_from_u64(11)),
            true,
        ),
    ]
}

fn summary_line(out: &mut String, label: &str, summary: CostSummary) {
    let total = summary.total();
    writeln!(
        out,
        "{label} requests={} access={} adjustment={} max_access={} max_total={}",
        summary.requests(),
        total.access,
        total.adjustment,
        summary.max_access(),
        summary.max_total()
    )
    .unwrap();
}

/// One line per source (its summary and fingerprint) plus the network
/// total, for every case and algorithm.
fn golden_text() -> String {
    let mut out = String::new();
    for (label, demand, pairwise) in cases() {
        for kind in DETERMINISTIC {
            let mut network = if kind == AlgorithmKind::StaticOpt {
                SelfAdjustingNetwork::with_trace(demand.num_hosts(), kind, 1, demand.pairs())
            } else {
                SelfAdjustingNetwork::new(demand.num_hosts(), kind, 1)
            }
            .unwrap();
            if pairwise {
                for pair in demand.pairs() {
                    network.serve(pair.source, pair.destination).unwrap();
                }
            } else {
                network.serve_trace(demand.pairs()).unwrap();
            }
            for source in (0..demand.num_hosts()).map(Host::new) {
                let prefix = format!("{label} {kind} {source}");
                summary_line(&mut out, &prefix, *network.cost_of_source(source));
                writeln!(out, "{prefix} fingerprint={}", network.fingerprint(source)).unwrap();
            }
            summary_line(
                &mut out,
                &format!("{label} {kind} total"),
                network.total_cost(),
            );
        }
    }
    out
}

#[test]
fn per_source_costs_and_fingerprints_match_the_golden_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/network.txt");
    let text = golden_text();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {}; run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    // Compare line by line so a divergence names its case, algorithm and
    // source instead of dumping the whole file.
    for (number, (got, want)) in text.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} diverged from the golden snapshot; if the change is \
             intentional, regenerate with UPDATE_GOLDEN=1",
            number + 1
        );
    }
    assert_eq!(text.lines().count(), expected.lines().count());
    assert_eq!(text, expected);
}
