//! Golden-file regression test for the experiments harness: a small
//! deterministic Q1–Q4 configuration runs through the `satn-sim` engine, and
//! the Q5 complexity map (Figure 6) runs over the synthetic corpus books; their
//! CSV output must match the checked-in snapshots under `tests/golden/`,
//! so any change to the serving pipeline, the seed derivations, or the
//! workload streams that shifts a reported number is caught. The snapshots
//! pin the outputs as of the engine port (which also redefined the
//! `temporal`/`combined` generators as collected streams).
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p satn-bench --test golden_experiments
//! ```

use satn_bench::{experiments, ExperimentConfig, FigureResult};
use std::path::PathBuf;

fn golden_config() -> ExperimentConfig {
    ExperimentConfig {
        nodes: 255,
        requests: 2_000,
        repetitions: 2,
        seed: 11,
        corpus_scale: 0.02,
        output_dir: None,
        parallelism: satn_exec::Parallelism::Auto,
    }
}

fn golden_figures() -> Vec<FigureResult> {
    let config = golden_config();
    let mut figures = experiments::q1_size_sweep(&config);
    figures.push(experiments::q2_temporal(&config));
    figures.push(experiments::q3_spatial(&config));
    figures.push(experiments::q4_combined_grid(&config));
    figures.push(experiments::q4_rotor_vs_random_histogram(&config));
    figures.push(experiments::q5_complexity_map(&config));
    figures
}

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.csv"))
}

#[test]
fn q1_to_q4_match_their_golden_csv_snapshots() {
    let figures = golden_figures();
    assert_eq!(
        figures.len(),
        7,
        "Q1 (two figures) + Q2 + Q3 + Q4 + Q4b + Q5 complexity map"
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_path("x").parent().unwrap()).unwrap();
        for figure in &figures {
            std::fs::write(golden_path(&figure.id), figure.table.to_csv()).unwrap();
        }
        return;
    }

    for figure in &figures {
        let path = golden_path(&figure.id);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden snapshot {}; run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            figure.table.to_csv(),
            expected,
            "{} diverged from its golden snapshot; if the change is intentional, \
             regenerate with UPDATE_GOLDEN=1",
            figure.id
        );
    }
}
