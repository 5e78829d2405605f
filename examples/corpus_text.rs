//! The paper's Q5 experiment on a text corpus: slide a 3-letter window over a
//! book, treat every distinct triple as an element, and compare the
//! self-adjusting tree networks on the resulting request stream.
//!
//! By default a synthetic English-like book is generated; pass a path to a
//! real text file (e.g. a Canterbury-corpus book) to reproduce the paper's
//! setting exactly:
//!
//! ```text
//! cargo run --release --example corpus_text [-- /path/to/book.txt]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use satn::analysis::complexity_point;
use satn::workloads::corpus;
use satn::{fit_tree_levels, AlgorithmKind, CompleteTree, SelfAdjustingTree};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)?;
            corpus::from_text(path, &text)
        }
        None => {
            let mut rng = StdRng::seed_from_u64(5);
            let text = corpus::MarkovTextGenerator::new().text(40_000, &mut rng);
            corpus::from_text("synthetic-book", &text)
        }
    };

    println!(
        "dataset {:?}: {} requests over {} distinct letter triples",
        workload.name(),
        workload.len(),
        workload.num_elements()
    );

    // Where does the dataset sit on the complexity map (Figure 6)?
    let trace: Vec<u32> = workload.requests().iter().map(|e| e.index()).collect();
    let mut rng = StdRng::seed_from_u64(1);
    let point = complexity_point(&trace, &mut rng).clamped(1.5);
    println!(
        "complexity map position: temporal {:.2}, non-temporal {:.2}",
        point.temporal, point.non_temporal
    );

    // Figure 7: per-request cost of every algorithm on this dataset.
    let levels = fit_tree_levels(workload.num_elements());
    let tree = CompleteTree::with_levels(levels)?;
    let mut rng = StdRng::seed_from_u64(2);
    let initial = satn::tree::placement::random_occupancy(tree, &mut rng);
    println!(
        "\n{:<18} {:>12} {:>12} {:>12}",
        "algorithm", "access/req", "adjust/req", "total/req"
    );
    for kind in AlgorithmKind::EVALUATED {
        let mut algorithm = kind.instantiate(initial.clone(), 3, workload.requests())?;
        let summary = algorithm.serve_sequence(workload.requests())?;
        println!(
            "{:<18} {:>12.3} {:>12.3} {:>12.3}",
            kind.name(),
            summary.mean_access(),
            summary.mean_adjustment(),
            summary.mean_total()
        );
    }
    Ok(())
}
