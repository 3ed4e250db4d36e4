//! Sporadic DAG task model with non-preemptive regions (NPRs).
//!
//! This crate implements the task model of Serrano et al., *"Response-Time
//! Analysis of DAG Tasks under Fixed Priority Scheduling with Limited
//! Preemptions"* (DATE 2016), Section III-A:
//!
//! * a task `τ_k` is a directed acyclic graph `G_k = (V_k, E_k)` whose nodes
//!   are **non-preemptive regions** of code labelled with a worst-case
//!   execution time (WCET) `C_{k,j}`, and whose edges are precedence
//!   constraints — see [`Dag`] and [`DagBuilder`];
//! * a [`DagTask`] adds the sporadic parameters: minimum inter-arrival time
//!   `T_k` and constrained relative deadline `D_k ≤ T_k`;
//! * a [`TaskSet`] is a priority-ordered collection of tasks (`τ_i` has
//!   higher priority than `τ_j` iff `i < j`) scheduled by global fixed
//!   priority on `m` identical cores.
//!
//! The crate also provides the graph analyses the RTA needs: volume,
//! longest path, transitive closures, and the *parallel-NPR sets* `Par(v)`
//! of the paper's **Algorithm 1** ([`parallel`]), plus DOT export
//! ([`dot`]), dependency-free JSON persistence ([`json`]) and the
//! reconstructed DAGs of the paper's Figure 1 ([`examples`]).
//!
//! # Example
//!
//! ```
//! use rta_model::{DagBuilder, DagTask};
//!
//! # fn main() -> Result<(), rta_model::ModelError> {
//! // A fork-join task: v1 -> {v2, v3} -> v4.
//! let mut b = DagBuilder::new();
//! let v1 = b.add_node(2);
//! let v2 = b.add_node(4);
//! let v3 = b.add_node(3);
//! let v4 = b.add_node(1);
//! b.add_edge(v1, v2)?;
//! b.add_edge(v1, v3)?;
//! b.add_edge(v2, v4)?;
//! b.add_edge(v3, v4)?;
//! let dag = b.build()?;
//! assert_eq!(dag.volume(), 10);
//! assert_eq!(dag.longest_path(), 7); // v1, v2, v4
//!
//! let task = DagTask::new(dag, 20, 20)?;
//! assert!((task.utilization() - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod dot;
pub mod error;
pub mod examples;
pub mod ids;
pub mod json;
pub mod parallel;
pub mod task;
pub mod taskset;
pub mod time;

pub use dag::{Dag, DagBuilder};
pub use error::ModelError;
pub use ids::{NodeId, TaskId};
pub use parallel::{parallel_sets_algorithm1, parallel_sets_exact};
pub use task::DagTask;
pub use taskset::TaskSet;
pub use time::Time;
