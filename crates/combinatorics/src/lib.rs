//! Combinatorial substrate for the DAG limited-preemption response-time
//! analysis.
//!
//! The analysis of Serrano et al. (DATE 2016) leans on a handful of classic
//! combinatorial objects that this crate provides from scratch:
//!
//! * [`BitSet`] — a compact dynamic bitset used for node sets, transitive
//!   closures and "can execute in parallel" adjacency in `rta-model`;
//! * [`partitions`](mod@partitions) — enumeration of the *execution scenarios* `e_m` of the
//!   paper (Section IV-B), which are exactly the integer partitions of the
//!   core count `m`, together with the pentagonal-number-theorem counter
//!   [`partitions::partition_count`];
//! * [`assignment`] — maximum-weight assignment (Hungarian algorithm), the
//!   combinatorial equivalent of the paper's ILP formulation for the overall
//!   worst-case workload `ρ_k[s_l]` (Section V-B) of one scenario;
//! * [`antichain`] — the per-task worst-case workloads `µ_i[c]` (Section
//!   V-A2) of every cardinality at once: maximum-weight antichains of the
//!   DAG's precedence order, searched word-parallel over bit rows and
//!   capped at the order's Dilworth width (`n` minus a maximum bipartite
//!   matching), the combinatorial equivalent of the paper's ILP;
//! * [`clique`] — maximum-weight clique of prescribed cardinality over an
//!   arbitrary graph, with members, and an exhaustive reference solver:
//!   the test oracles of the antichain kernel.
//!
//! The analysis hot path enumerates no scenarios: `rta-analysis` reads the
//! maximum over `e_m` from a group-knapsack table over lower-priority tasks
//! × cores (`rta_analysis::cache::DeltaTable`), polynomial in `m`.
//! Partition enumeration and the assignment solver serve the paper's
//! per-scenario tables (Tables II and III) and the analysis crate's
//! enumerating oracle.
//!
//! Everything here is exact integer arithmetic; there is no floating point
//! and no `unsafe`.
//!
//! # Example
//!
//! ```
//! use rta_combinatorics::partitions::{partitions, partition_count};
//!
//! // Table II of the paper: e_4 has p(4) = 5 execution scenarios.
//! let scenarios: Vec<_> = partitions(4).collect();
//! assert_eq!(scenarios.len(), 5);
//! assert_eq!(partition_count(4), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antichain;
pub mod assignment;
pub mod bitset;
pub mod clique;
pub mod partitions;

pub use antichain::WeightedPoset;
pub use assignment::{max_weight_assignment, Assignment};
pub use bitset::BitSet;
pub use clique::{max_weight_clique_of_size, CliqueSolution};
pub use partitions::{partition_count, partitions, Partition, Partitions};
