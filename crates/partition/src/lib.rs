//! Graph partitioning utilities for the Ecmas reproduction.
//!
//! The paper leans on three pieces of partitioning machinery, all rebuilt
//! here without external solvers:
//!
//! * [`ParityDsu`] — union–find with parity, the incremental-bipartiteness
//!   primitive behind the cut-type initialization (§IV-C1) and the
//!   bipartite-prefix batching of Algorithm 2 (§IV-C3). Lemma 1 of the
//!   paper (any two layers form a bipartite graph) is property-tested on
//!   top of it.
//! * [`bisect`] / [`place`] — a weighted Kernighan–Lin bisectioner and a
//!   recursive-bisection 2-D placer with pairwise-swap refinement. These
//!   substitute for Metis \[21\] in the *mapping establishing* step: the
//!   paper generates several randomized mappings and keeps the one with the
//!   lowest communication cost `f = Σ γ_ij · l_ij`, which is exactly what
//!   [`place`] does with `restarts`.
//! * [`max_cut_one_exchange`] — the NetworkX-style one-exchange local
//!   search used as a cut-type-initialization baseline in Table III.
//!
//! # Example
//!
//! ```
//! use ecmas_partition::ParityDsu;
//!
//! // A 4-cycle is bipartite: all four "endpoints differ" edges are
//! // consistent.
//! let mut dsu = ParityDsu::new(4);
//! assert!(dsu.union_different(0, 1));
//! assert!(dsu.union_different(1, 2));
//! assert!(dsu.union_different(2, 3));
//! assert!(dsu.union_different(3, 0));
//! // …but closing a triangle is not.
//! assert!(!dsu.union_different(0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod dsu;
mod graph;
mod maxcut;
mod placement;

pub use bisect::bisect;
pub use dsu::ParityDsu;
pub use graph::WeightedGraph;
pub use maxcut::max_cut_one_exchange;
pub use placement::{place, Placement};
