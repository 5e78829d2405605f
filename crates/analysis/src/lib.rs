//! # satn-analysis
//!
//! Analysis toolkit for self-adjusting single-source tree networks: the
//! theoretical quantities of the paper turned into executable checks.
//!
//! * [`WorkingSetTracker`] / [`working_set_bound`] — working-set ranks and the
//!   working-set lower bound of Section 2,
//! * [`RotorPushAuditor`] / [`RandomPushAuditor`] — per-round verification of
//!   the amortized analyses behind Theorem 7 (12-competitiveness) and
//!   Theorem 11 (16-competitiveness),
//! * [`Lemma8Adversary`] / [`run_lemma8`] — the adaptive adversary showing
//!   that Rotor-Push lacks the working-set property,
//! * [`access_cost_differences`] / [`Histogram`] / [`competitive_report`] —
//!   the cross-algorithm comparisons of the empirical section,
//! * [`complexity_point`] / [`ComplexityPoint`] — the trace complexity map of
//!   the Q5 experiment (Figure 6): every trace is placed on a two-dimensional
//!   map whose axes are temporal complexity (how much of its compressibility
//!   stems from request ordering) and non-temporal complexity (how much stems
//!   from frequency skew), measured with the dependency-free LZW compressor
//!   [`compress`] / [`decompress`].
//!
//! ```
//! use satn_analysis::working_set_bound;
//! use satn_tree::ElementId;
//!
//! let requests: Vec<ElementId> = [0u32, 1, 0, 2, 1].iter().map(|&i| ElementId::new(i)).collect();
//! let bound = working_set_bound(4, &requests);
//! assert!(bound > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod adversary;
mod comparison;
mod complexity;
mod convergence;
mod credits;
mod entropy;
mod fenwick;
mod lzw;
mod working_set;

pub use adversary::{run_lemma8, Lemma8Adversary, Lemma8Report};
pub use comparison::{access_cost_differences, competitive_report, CompetitiveReport, Histogram};
pub use complexity::{complexity_point, ComplexityPoint};
pub use convergence::{
    frequency_displacement, mru_displacement, track_convergence, ConvergencePoint,
};
pub use credits::{
    flip_rank_weight, level_weight, AuditReport, AuditRound, RandomPushAuditor, RotorPushAuditor,
    RANDOM_COMPETITIVE_RATIO, RANDOM_CREDIT_FACTOR, ROTOR_COMPETITIVE_RATIO, ROTOR_CREDIT_FACTOR,
};
pub use entropy::{entropy, entropy_static_lower_bound, static_optimal_expected_cost};
pub use fenwick::FenwickTree;
pub use lzw::{compress, compressed_size, decompress};
pub use working_set::{working_set_bound, working_set_ranks, WorkingSetTracker};
