//! Rotor-router walks on arbitrary directed graphs.
//!
//! The rotor mechanism the paper uses on complete binary trees is an instance
//! of the general *rotor-router* (Propp machine) model: every vertex cycles
//! through its outgoing edges in a fixed order, and a walk repeatedly leaves
//! the current vertex along the next edge of its rotor. Rotor walks imitate
//! random walks deterministically and are used for discrete load balancing
//! (Akbari & Berenbrink, SPAA 2013 — reference 2 of the paper). This module
//! provides a small general-graph implementation so the tree-specific rotor
//! machinery can be compared against the textbook model, and so the
//! load-balancing application can be exercised in examples and benches.

use rand::Rng;
use std::fmt;

/// An error produced while constructing a [`RotorGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// The adjacency list is empty.
    Empty,
    /// A vertex has no outgoing edges, so a walk would get stuck.
    Sink {
        /// The vertex without outgoing edges.
        vertex: usize,
    },
    /// An edge points to a vertex outside the graph.
    EdgeOutOfRange {
        /// The vertex whose adjacency list contains the bad edge.
        vertex: usize,
        /// The target of the bad edge.
        target: usize,
        /// The number of vertices in the graph.
        num_vertices: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "the graph has no vertices"),
            GraphError::Sink { vertex } => {
                write!(f, "vertex {vertex} has no outgoing edges")
            }
            GraphError::EdgeOutOfRange {
                vertex,
                target,
                num_vertices,
            } => write!(
                f,
                "edge {vertex} -> {target} leaves the graph of {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// A rotor-router on a directed graph given by adjacency lists.
///
/// Every vertex keeps an index into its adjacency list; each time the walk
/// leaves the vertex it uses the indexed edge and advances the index
/// cyclically.
///
/// # Examples
///
/// ```
/// use satn_rotor::graph::RotorGraph;
///
/// // A directed 4-cycle with chords.
/// let adjacency = vec![vec![1, 2], vec![2, 3], vec![3, 0], vec![0, 1]];
/// let mut rotor = RotorGraph::new(adjacency)?;
/// let visits = rotor.walk(0, 1_000);
/// assert_eq!(visits.iter().sum::<u64>(), 1_000);
/// # Ok::<(), satn_rotor::graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotorGraph {
    adjacency: Vec<Vec<usize>>,
    pointer: Vec<usize>,
}

impl RotorGraph {
    /// Builds a rotor-router for the given adjacency lists.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for an empty graph, [`GraphError::Sink`]
    /// if some vertex has no outgoing edge, and
    /// [`GraphError::EdgeOutOfRange`] for dangling edges.
    pub fn new(adjacency: Vec<Vec<usize>>) -> Result<Self, GraphError> {
        if adjacency.is_empty() {
            return Err(GraphError::Empty);
        }
        let num_vertices = adjacency.len();
        for (vertex, neighbours) in adjacency.iter().enumerate() {
            if neighbours.is_empty() {
                return Err(GraphError::Sink { vertex });
            }
            for &target in neighbours {
                if target >= num_vertices {
                    return Err(GraphError::EdgeOutOfRange {
                        vertex,
                        target,
                        num_vertices,
                    });
                }
            }
        }
        let pointer = vec![0; num_vertices];
        Ok(RotorGraph { adjacency, pointer })
    }

    /// Builds the rotor-router for the complete binary tree with `levels`
    /// levels, where every internal vertex alternates between its two
    /// children and every leaf returns to the root — the graph on which the
    /// paper's tree rotor walk lives.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero.
    pub fn complete_binary_tree(levels: u32) -> Self {
        assert!(levels >= 1, "a tree needs at least one level");
        let num_vertices = (1usize << levels) - 1;
        let adjacency: Vec<Vec<usize>> = (0..num_vertices)
            .map(|v| {
                let left = 2 * v + 1;
                if left < num_vertices {
                    vec![left, left + 1]
                } else {
                    vec![0] // leaves send the walk back to the root
                }
            })
            .collect();
        RotorGraph::new(adjacency).expect("the binary-tree adjacency is always valid")
    }

    /// The number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// The adjacency list of `vertex`.
    ///
    /// # Panics
    ///
    /// Panics if `vertex` is outside the graph.
    pub fn neighbours(&self, vertex: usize) -> &[usize] {
        &self.adjacency[vertex]
    }

    /// Performs one rotor step out of `vertex`: returns the neighbour the
    /// rotor points at and advances the rotor.
    ///
    /// # Panics
    ///
    /// Panics if `vertex` is outside the graph.
    pub fn step(&mut self, vertex: usize) -> usize {
        let neighbours = &self.adjacency[vertex];
        let next = neighbours[self.pointer[vertex]];
        self.pointer[vertex] = (self.pointer[vertex] + 1) % neighbours.len();
        next
    }

    /// Runs a rotor walk of `steps` steps starting at `start` and returns how
    /// often each vertex was visited (the start vertex counts as visited).
    ///
    /// # Panics
    ///
    /// Panics if `start` is outside the graph.
    pub fn walk(&mut self, start: usize, steps: u64) -> Vec<u64> {
        assert!(
            start < self.num_vertices(),
            "start vertex outside the graph"
        );
        let mut visits = vec![0u64; self.num_vertices()];
        let mut current = start;
        visits[current] += 1;
        for _ in 1..steps {
            current = self.step(current);
            visits[current] += 1;
        }
        visits
    }
}

/// The random-walk counterpart of [`RotorGraph::walk`]: a uniform random
/// out-neighbour is chosen at every step.
///
/// # Panics
///
/// Panics if `start` is outside the graph.
pub fn random_walk_visits<R: Rng + ?Sized>(
    graph: &RotorGraph,
    start: usize,
    steps: u64,
    rng: &mut R,
) -> Vec<u64> {
    assert!(
        start < graph.num_vertices(),
        "start vertex outside the graph"
    );
    let mut visits = vec![0u64; graph.num_vertices()];
    let mut current = start;
    visits[current] += 1;
    for _ in 1..steps {
        let neighbours = graph.neighbours(current);
        current = neighbours[rng.gen_range(0..neighbours.len())];
        visits[current] += 1;
    }
    visits
}

/// The largest per-vertex difference between two visit-count vectors,
/// normalised by the total number of steps. Rotor walks are known to stay
/// close to the random-walk expectation; this statistic is what the
/// rotor-walk discrepancy example and bench report.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn visit_discrepancy(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "visit vectors must have the same length");
    let total: u64 = a.iter().sum::<u64>().max(1);
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x.abs_diff(y) as f64 / total as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_the_adjacency_lists() {
        assert!(matches!(RotorGraph::new(vec![]), Err(GraphError::Empty)));
        assert!(matches!(
            RotorGraph::new(vec![vec![1], vec![]]),
            Err(GraphError::Sink { vertex: 1 })
        ));
        assert!(matches!(
            RotorGraph::new(vec![vec![5]]),
            Err(GraphError::EdgeOutOfRange { target: 5, .. })
        ));
    }

    #[test]
    fn rotor_steps_cycle_through_the_neighbours_in_order() {
        let mut rotor = RotorGraph::new(vec![vec![1, 2, 3], vec![0], vec![0], vec![0]]).unwrap();
        assert_eq!(rotor.step(0), 1);
        assert_eq!(rotor.step(0), 2);
        assert_eq!(rotor.step(0), 3);
        assert_eq!(rotor.step(0), 1);
    }

    #[test]
    fn walks_count_every_step_exactly_once() {
        let mut rotor = RotorGraph::complete_binary_tree(4);
        let visits = rotor.walk(0, 10_000);
        assert_eq!(visits.iter().sum::<u64>(), 10_000);
        assert!(visits[0] > 0);
    }

    #[test]
    fn rotor_walk_on_a_cycle_visits_vertices_evenly() {
        // On a directed cycle the rotor walk is the cycle itself.
        let mut rotor = RotorGraph::new(vec![vec![1], vec![2], vec![3], vec![0]]).unwrap();
        let visits = rotor.walk(0, 4_000);
        assert!(visits.iter().all(|&count| count == 1_000));
    }

    #[test]
    fn rotor_and_random_walks_agree_on_long_tree_walks() {
        let mut rotor = RotorGraph::complete_binary_tree(5);
        let reference = rotor.clone();
        let steps = 200_000u64;
        let rotor_visits = rotor.walk(0, steps);
        let mut rng = StdRng::seed_from_u64(7);
        let random_visits = random_walk_visits(&reference, 0, steps, &mut rng);
        let discrepancy = visit_discrepancy(&rotor_visits, &random_visits);
        // Both walks spend roughly the same fraction of time at every vertex.
        assert!(discrepancy < 0.01, "discrepancy {discrepancy}");
    }

    #[test]
    fn discrepancy_is_zero_for_identical_vectors_and_symmetric() {
        let a = vec![5, 10, 15];
        let b = vec![10, 10, 10];
        assert_eq!(visit_discrepancy(&a, &a), 0.0);
        assert!((visit_discrepancy(&a, &b) - visit_discrepancy(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn error_messages_name_the_offending_vertex() {
        assert!(RotorGraph::new(vec![vec![1], vec![]])
            .unwrap_err()
            .to_string()
            .contains("vertex 1"));
        assert!(RotorGraph::new(vec![vec![7]])
            .unwrap_err()
            .to_string()
            .contains("7"));
    }
}
