//! Per-task-set precomputation: the analysis cache.
//!
//! The paper stresses that the per-task worst-case workloads `µ_i[c]` are a
//! property of the task alone, computable "at compile time" (Section V-A) —
//! independent of which task is under analysis, of the platform slice and
//! of the analysis method. The same holds for every other quantity the
//! fixed-point iteration touches repeatedly: longest paths, volumes,
//! preemption-point counts, the LP-max WCET pools of Eq. (5) and the
//! scenario maxima behind `Δ^m` / `Δ^{m−1}` (Eq. (8)).
//!
//! [`TaskSetCache`] materializes all of them **once per task set**:
//!
//! * cheap per-task facts (longest path, volume, preemption points, periods,
//!   deadlines, the single-sink WCET used by the final-NPR refinement) are
//!   captured eagerly at construction;
//! * everything combinatorial — µ-arrays, LP-max prefix sums, long-path
//!   decompositions and the [`DeltaTable`] of LP-ILP blocking terms — sits behind
//!   [`OnceCell`]s and is computed on first use, then shared by every
//!   subsequent query. An unschedulable set that dies at the
//!   highest-priority task therefore pays no more than the uncached
//!   analysis did, while a batched [`crate::analyze_all`] over all three
//!   methods pays the combinatorial cost exactly once.
//!
//! µ-arrays are computed at the cache's `max_cores` and *sliced* for
//! smaller platform slices (each entry is an independent fixed-cardinality
//! search, so the array at `m` restricts to the array at any `c ≤ m`).
//! The solver is the word-parallel kernel
//! [`rta_combinatorics::WeightedPoset`], fed straight from the DAG's
//! descendant closure: it relabels the nodes by descending WCET, searches
//! each cardinality over `u64` candidate rows, and stops at the DAG's
//! Dilworth width (`n` minus a maximum bipartite matching on the order),
//! so a 16-core array of a task at most 6 wide runs six searches and
//! writes ten zeros. Its few working rows are allocated per µ-array; no
//! adjacency or scratch outlives the call.
//!
//! # Δ as a group knapsack
//!
//! Eq. (8) maximizes `ρ_k[s]` over the execution scenarios `s ∈ e_c` — the
//! integer partitions of `c` — and each `ρ_k[s]` (Eq. (7)) assigns the
//! parts of `s` to distinct tasks of `lp(k)`. A scenario together with its
//! assignment is exactly a choice of `c_i ≥ 0` cores per lower-priority
//! task with `Σ c_i = c`, worth `Σ µ_i[c_i]` (with `µ_i[0] = 0` and `µ`
//! past the end of its array 0). So `max_{s ∈ e_c} ρ_k[s]` is a group
//! knapsack, and because `lp(k)` shrinks by one task per priority level
//! the knapsacks of all tasks under analysis are suffixes of one another.
//! [`DeltaTable::knapsack`] walks the tasks from lowest to highest
//! priority, `f_i[c] = max_{j ≤ c} f_{i+1}[c − j] + µ_i[j]`, and after
//! adding task `k + 1` holds `lp(k)`'s full `max ρ` column. One pass per
//! solver pair yields `Δ^m` and `Δ^{m−1}` of every task under both
//! [`ScenarioSpace`]s (`Extended` is the running maximum over `c' ≤ c`),
//! in `O(n · m · w)` time, where `w ≤ m` is the last core count with a
//! positive µ entry (the widest lower-priority DAG). The exponential
//! scenario enumeration of [`crate::blocking::scenarios`] stays as the
//! Table III printer and as the oracle of [`crate::analyze_uncached`]; the
//! cache's [`RhoSolver::PaperIlp`] table (a configuration knob, never on
//! the wire) is still filled through it.
//!
//! The cache is deliberately **single-threaded** (interior mutability via
//! [`OnceCell`]): sweep campaigns parallelize over task sets,
//! with each worker building its own cache, so nothing here needs
//! synchronization.
//!
//! # Example
//!
//! ```
//! use rta_analysis::cache::TaskSetCache;
//! use rta_analysis::{AnalysisRequest, MuSolver};
//! use rta_model::examples::figure1_task_set;
//!
//! let task_set = figure1_task_set();
//! let cache = TaskSetCache::new(&task_set, 4);
//! // µ of τ3 (Table I), computed once and shared by every query below.
//! assert_eq!(cache.mu(3, MuSolver::default()), &[6, 7, 9, 11]);
//! // All six methods answered from the shared tables in one request.
//! let outcome = AnalysisRequest::new(4).with_bounds(true).evaluate_with(&cache);
//! assert!(outcome.verdicts().iter().all(|&ok| ok));
//! ```

use crate::blocking::scenarios;
use crate::blocking::sound::SoundBlocking;
use crate::blocking::{mu, BlockingBounds};
use crate::config::{AnalysisConfig, Method, MuSolver, RhoSolver, ScenarioSpace};
use rta_model::{TaskSet, Time};
use std::cell::OnceCell;

/// `max_{s ∈ e_c} ρ_k[s]` for every task under analysis `k` and every
/// platform slice `c ≤ max_cores`: the LP-ILP blocking terms of a whole
/// task set, stored as one `rows × (max_cores + 1)` table. Row `k` reads 0
/// throughout when `lp(k)` is empty, as does column 0.
///
/// # Example
///
/// Table III of the paper: τ0 of Figure 1 has `Δ⁴ = 19` and `Δ³ = 15`.
///
/// ```
/// use rta_analysis::cache::DeltaTable;
/// use rta_analysis::ScenarioSpace;
/// use rta_model::examples::TABLE_I;
///
/// let lower: Vec<&[u64]> = TABLE_I.iter().map(|row| &row[..]).collect();
/// let table = DeltaTable::knapsack(&lower, 4);
/// assert_eq!(table.delta(0, 4, ScenarioSpace::PaperExact), 19);
/// assert_eq!(table.delta(0, 3, ScenarioSpace::PaperExact), 15);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaTable {
    /// `max_cores + 1`: the length of one row.
    width: usize,
    /// `cells[k * width + c]`: `max_{s ∈ e_c} ρ_k[s]`.
    cells: Vec<Time>,
}

impl DeltaTable {
    /// Solves the group knapsack of the [module docs](self) for every
    /// suffix of `lower` at once. `lower[i]` is the µ-array (`µ[c]` at
    /// index `c − 1`; entries past its end read 0) of the task at priority
    /// `i + 1`, so row `k` of the result has `lower[k..]` as `lp(k)`. The
    /// table has `lower.len() + 1` rows; the last one, with an empty
    /// `lp`, is all 0.
    pub fn knapsack(lower: &[&[Time]], max_cores: usize) -> Self {
        let width = max_cores + 1;
        let mu_at = |mu: &[Time], j: usize| match j {
            0 => 0,
            _ => mu.get(j - 1).copied().unwrap_or(0),
        };
        let mut cells = vec![0; (lower.len() + 1) * width];
        for (k, mu) in lower.iter().enumerate().rev() {
            let (upper, below) = cells.split_at_mut((k + 1) * width);
            let row = &mut upper[k * width..];
            if k + 1 == lower.len() {
                // A single task takes all `c` cores: the one scenario `{c}`.
                for (c, cell) in row.iter_mut().enumerate() {
                    *cell = mu_at(mu, c);
                }
                continue;
            }
            // Task `k + 1` takes `j` cores, `lp(k + 1)` the other `c − j`.
            // Past its last positive entry µ adds nothing, so every
            // `j > len` reduces to the best of `below[..c − len]`: a
            // running maximum keeps the pass at O(width · len).
            let below = &below[..width];
            let len = mu.iter().rposition(|&w| w > 0).map_or(0, |p| p + 1);
            let mut best_idle = 0;
            for (c, cell) in row.iter_mut().enumerate() {
                let best = (0..=c.min(len))
                    .map(|j| below[c - j] + mu_at(mu, j))
                    .max()
                    .unwrap_or(0);
                if c > len {
                    best_idle = best_idle.max(below[c - len - 1]);
                }
                *cell = best.max(best_idle);
            }
        }
        Self { width, cells }
    }

    /// The table of the enumerating oracle: row `k`, column `c` is
    /// [`scenarios::delta`] over the partitions of exactly `c` with
    /// `lower[k..]` as `lp(k)`, solved by `solver`.
    fn enumerated(lower: &[Vec<Time>], max_cores: usize, solver: RhoSolver) -> Self {
        let width = max_cores + 1;
        let cells = (0..=lower.len())
            .flat_map(|k| {
                (0..width).map(move |c| {
                    scenarios::delta(&lower[k..], c, ScenarioSpace::PaperExact, solver)
                })
            })
            .collect();
        Self { width, cells }
    }

    /// `max_{s ∈ e_cores} ρ_k[s]`: the best scenario over the partitions
    /// of exactly `cores`; 0 when no scenario is feasible.
    ///
    /// # Panics
    ///
    /// Panics if `k` is past the last row or `cores > max_cores`.
    pub fn max_rho(&self, k: usize, cores: usize) -> Time {
        self.row(k)[cores]
    }

    /// `Δ^cores_k` (Eq. (8)) over the chosen scenario space: the cell
    /// itself under [`ScenarioSpace::PaperExact`], the maximum over every
    /// `c ≤ cores` under [`ScenarioSpace::Extended`].
    ///
    /// # Panics
    ///
    /// As [`max_rho`](Self::max_rho).
    pub fn delta(&self, k: usize, cores: usize, space: ScenarioSpace) -> Time {
        match space {
            ScenarioSpace::PaperExact => self.max_rho(k, cores),
            ScenarioSpace::Extended => self.row(k)[..=cores].iter().copied().max().unwrap_or(0),
        }
    }

    fn row(&self, k: usize) -> &[Time] {
        &self.cells[k * self.width..(k + 1) * self.width]
    }
}

/// Quantities of one task that every analysis reads, captured eagerly.
#[derive(Clone, Debug)]
struct TaskFacts {
    longest_path: Time,
    volume: Time,
    preemption_points: usize,
    period: Time,
    deadline: Time,
    /// WCET of the sole sink when the DAG has exactly one (the final-NPR
    /// preemption-window refinement applies only then).
    single_sink_wcet: Option<Time>,
}

/// Lazily-computed µ-arrays for one `µ` solver choice. The cell vector
/// itself is allocated on first touch, so untouched solver combinations
/// (and FP-ideal-only analyses) cost nothing at construction.
struct MuSlot {
    solver: MuSolver,
    /// `per_task[i]`: `µ_i[1..=max_cores]` of task `i`.
    per_task: OnceCell<Vec<OnceCell<Vec<Time>>>>,
}

/// The [`DeltaTable`] of one solver pair, built on the first Δ query.
struct DeltaSlot {
    mu_solver: MuSolver,
    rho_solver: RhoSolver,
    table: OnceCell<DeltaTable>,
}

/// Everything about a [`TaskSet`] that the response-time analysis can
/// precompute and share across tasks under analysis, platform slices and
/// methods. See the [module docs](self) for what is cached and when.
pub struct TaskSetCache<'ts> {
    task_set: &'ts TaskSet,
    max_cores: usize,
    facts: Vec<TaskFacts>,
    mu: Vec<MuSlot>,
    deltas: Vec<DeltaSlot>,
    /// `lp_max[k]`: prefix sums of the pooled, descending lower-priority
    /// NPR WCETs — `prefix[c]` is Eq. (5)'s `Δ^c` for `c` up to the pool
    /// size (clamped at `max_cores`).
    lp_max: Vec<OnceCell<Vec<Time>>>,
    /// `long_paths[k]`: the vertex-disjoint chain decomposition of task
    /// `k`'s DAG ([`rta_model::Dag::long_path_decomposition`]) — the
    /// platform-independent input of [`Method::LongPaths`], computed on
    /// first use and shared across core slices.
    long_paths: Vec<OnceCell<Vec<Time>>>,
}

impl<'ts> TaskSetCache<'ts> {
    /// Builds the cache for platform slices of up to `max_cores` cores.
    ///
    /// Captures the cheap per-task facts immediately; the combinatorial
    /// tables (for **every** solver combination — they cost nothing until
    /// queried) fill in lazily.
    ///
    /// # Panics
    ///
    /// Panics if `max_cores == 0`.
    pub fn new(task_set: &'ts TaskSet, max_cores: usize) -> Self {
        assert!(max_cores >= 1, "at least one core required");
        let n = task_set.len();
        let facts = task_set
            .tasks()
            .iter()
            .map(|t| {
                let dag = t.dag();
                // The sole sink and its WCET, without materializing the
                // sink list (this runs for every generated set, also under
                // methods that never read it).
                let mut sinks = dag.nodes().filter(|&v| dag.successors(v).is_empty());
                let single_sink_wcet = match (sinks.next(), sinks.next()) {
                    (Some(only), None) => Some(dag.wcet(only)),
                    _ => None,
                };
                TaskFacts {
                    longest_path: dag.longest_path(),
                    volume: dag.volume(),
                    preemption_points: dag.preemption_points(),
                    period: t.period(),
                    deadline: t.deadline(),
                    single_sink_wcet,
                }
            })
            .collect();
        let mu_slots = [MuSolver::Clique, MuSolver::PaperIlp]
            .into_iter()
            .map(|solver| MuSlot {
                solver,
                per_task: OnceCell::new(),
            })
            .collect();
        let mut delta_slots = Vec::with_capacity(4);
        for mu_solver in [MuSolver::Clique, MuSolver::PaperIlp] {
            for rho_solver in [RhoSolver::Hungarian, RhoSolver::PaperIlp] {
                delta_slots.push(DeltaSlot {
                    mu_solver,
                    rho_solver,
                    table: OnceCell::new(),
                });
            }
        }
        crate::metrics::CACHE_BUILDS.inc();
        Self {
            task_set,
            max_cores,
            facts,
            mu: mu_slots,
            deltas: delta_slots,
            lp_max: (0..n).map(|_| OnceCell::new()).collect(),
            long_paths: (0..n).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Builds a cache sized for every configuration in `configs` (the
    /// largest core count wins; defaults to 1 when `configs` is empty).
    pub fn for_configs(task_set: &'ts TaskSet, configs: &[AnalysisConfig]) -> Self {
        let max_cores = configs.iter().map(|c| c.cores).max().unwrap_or(1);
        Self::new(task_set, max_cores)
    }

    /// The task set this cache was built over.
    pub fn task_set(&self) -> &'ts TaskSet {
        self.task_set
    }

    /// The largest platform slice the cache serves; every query must stay
    /// at or below it.
    pub fn max_cores(&self) -> usize {
        self.max_cores
    }

    /// Longest (critical) path `L_k` of task `k`.
    pub fn longest_path(&self, k: usize) -> Time {
        self.facts[k].longest_path
    }

    /// Volume `vol(G_k)` of task `k`.
    pub fn volume(&self, k: usize) -> Time {
        self.facts[k].volume
    }

    /// Preemption-point count `q_k = |V_k| − 1` of task `k`.
    pub fn preemption_points(&self, k: usize) -> usize {
        self.facts[k].preemption_points
    }

    /// Period `T_k` of task `k`.
    pub fn period(&self, k: usize) -> Time {
        self.facts[k].period
    }

    /// Relative deadline `D_k` of task `k`.
    pub fn deadline(&self, k: usize) -> Time {
        self.facts[k].deadline
    }

    /// WCET of the sole sink of task `k`'s DAG, when it has exactly one —
    /// the quantity the final-NPR preemption-window refinement subtracts.
    pub fn single_sink_wcet(&self, k: usize) -> Option<Time> {
        self.facts[k].single_sink_wcet
    }

    /// The long-chain decomposition `ℓ1 ≥ … ≥ ℓp` of task `k`'s DAG,
    /// computed on first use — what [`Method::LongPaths`]'s stall bound
    /// consumes. Platform-independent, so one cell serves every core slice.
    pub fn long_path_decomposition(&self, k: usize) -> &[Time] {
        self.long_paths[k].get_or_init(|| self.task_set.task(k).dag().long_path_decomposition())
    }

    /// The µ-array `µ_k[1..=max_cores]` of task `k`, computed on first use
    /// with `solver` and shared by every later query. For a platform slice
    /// of `c < max_cores` cores, use the first `c` entries.
    pub fn mu(&self, k: usize, solver: MuSolver) -> &[Time] {
        let slot = self
            .mu
            .iter()
            .find(|s| s.solver == solver)
            .expect("every µ solver has a slot");
        let per_task = slot
            .per_task
            .get_or_init(|| (0..self.task_set.len()).map(|_| OnceCell::new()).collect());
        per_task[k].get_or_init(|| {
            crate::metrics::CACHE_MU_BUILDS.inc();
            mu::mu_array(self.task_set.task(k).dag(), self.max_cores, solver)
        })
    }

    /// The [`DeltaTable`] of every task under analysis for one solver
    /// pair, built on first use and shared by every later Δ query: one
    /// knapsack pass over the lower-priority µ-arrays for
    /// [`RhoSolver::Hungarian`], the enumerating oracle for
    /// [`RhoSolver::PaperIlp`].
    fn delta_table(&self, mu_solver: MuSolver, rho_solver: RhoSolver) -> &DeltaTable {
        let slot = self
            .deltas
            .iter()
            .find(|s| s.mu_solver == mu_solver && s.rho_solver == rho_solver)
            .expect("every solver pair has a slot");
        slot.table.get_or_init(|| {
            crate::metrics::CACHE_RHO_BUILDS.inc();
            // The highest-priority task blocks no one: its µ is never read.
            let lower = 1..self.task_set.len();
            match rho_solver {
                RhoSolver::Hungarian => {
                    let lower: Vec<&[Time]> = lower.map(|i| self.mu(i, mu_solver)).collect();
                    DeltaTable::knapsack(&lower, self.max_cores)
                }
                RhoSolver::PaperIlp => {
                    let lower: Vec<Vec<Time>> =
                        lower.map(|i| self.mu(i, mu_solver).to_vec()).collect();
                    DeltaTable::enumerated(&lower, self.max_cores, rho_solver)
                }
            }
        })
    }

    /// `max_{s_l ∈ e_cores} ρ_k[s_l]`: the best scenario over the partitions
    /// of exactly `cores`, with `lp(k)` as the candidate tasks; 0 when no
    /// scenario is feasible. One cell of the solver pair's [`DeltaTable`].
    ///
    /// # Panics
    ///
    /// Panics if `cores > max_cores`.
    pub fn max_rho(
        &self,
        k: usize,
        cores: usize,
        mu_solver: MuSolver,
        rho_solver: RhoSolver,
    ) -> Time {
        self.check_cores(cores);
        self.delta_table(mu_solver, rho_solver).max_rho(k, cores)
    }

    /// `Δ^cores_k` (Eq. (8)) over the chosen scenario space, read from the
    /// solver pair's [`DeltaTable`].
    ///
    /// # Panics
    ///
    /// Panics if `cores > max_cores`.
    pub fn delta(
        &self,
        k: usize,
        cores: usize,
        space: ScenarioSpace,
        mu_solver: MuSolver,
        rho_solver: RhoSolver,
    ) -> Time {
        self.check_cores(cores);
        self.delta_table(mu_solver, rho_solver)
            .delta(k, cores, space)
    }

    fn check_cores(&self, cores: usize) {
        assert!(
            cores <= self.max_cores,
            "cores = {cores} exceeds the cache's max_cores = {}",
            self.max_cores
        );
    }

    /// The precedence-aware blocking bounds of task `k` (Eqs. (6)–(8)),
    /// from the cached [`DeltaTable`].
    pub fn lp_ilp_blocking(
        &self,
        k: usize,
        cores: usize,
        mu_solver: MuSolver,
        rho_solver: RhoSolver,
        space: ScenarioSpace,
    ) -> BlockingBounds {
        BlockingBounds {
            delta_m: self.delta(k, cores, space, mu_solver, rho_solver),
            delta_m_minus_one: if cores >= 2 {
                self.delta(k, cores - 1, space, mu_solver, rho_solver)
            } else {
                0
            },
        }
    }

    /// Prefix sums of the pooled descending lower-priority NPR WCETs of
    /// task `k` — `prefix[c]` is Eq. (5)'s sum of the `c` largest.
    fn lp_max_prefix(&self, k: usize) -> &[Time] {
        self.lp_max[k].get_or_init(|| {
            let mut pool: Vec<Time> = self
                .task_set
                .lower_priority(k)
                .iter()
                .flat_map(|t| t.dag().largest_wcets(self.max_cores))
                .collect();
            pool.sort_unstable_by(|a, b| b.cmp(a));
            pool.truncate(self.max_cores);
            let mut prefix = Vec::with_capacity(pool.len() + 1);
            prefix.push(0);
            for w in pool {
                prefix.push(prefix.last().copied().unwrap_or(0) + w);
            }
            prefix
        })
    }

    /// The LP-max blocking bounds of task `k` (Eq. (5)), from the cached
    /// prefix sums.
    ///
    /// # Panics
    ///
    /// Panics if `cores > max_cores` or `cores == 0`.
    pub fn lp_max_blocking(&self, k: usize, cores: usize) -> BlockingBounds {
        assert!(
            (1..=self.max_cores).contains(&cores),
            "cores = {cores} outside the cache's 1..={}",
            self.max_cores
        );
        let prefix = self.lp_max_prefix(k);
        let sum_of_largest = |count: usize| prefix[count.min(prefix.len() - 1)];
        BlockingBounds {
            delta_m: sum_of_largest(cores),
            delta_m_minus_one: sum_of_largest(cores - 1),
        }
    }

    /// The blocking bounds of task `k` under `config` — the cached
    /// equivalent of the per-method dispatch in [`crate::analyze`].
    pub fn blocking_for(&self, k: usize, config: &AnalysisConfig) -> Option<BlockingBounds> {
        match config.method {
            // LP-sound's corrected term is window-dependent, not a
            // (Δ^m, Δ^{m−1}) pair: see [`Self::sound_blocking_for`]. The
            // fully-preemptive competitor methods carry no blocking at all.
            Method::FpIdeal | Method::LpSound | Method::LongPaths | Method::GenSporadic => None,
            Method::LpMax => Some(self.lp_max_blocking(k, config.cores)),
            Method::LpIlp => Some(self.lp_ilp_blocking(
                k,
                config.cores,
                config.mu_solver,
                config.rho_solver,
                config.scenario_space,
            )),
        }
    }

    /// The sound, window-dependent lower-priority term of task `k`
    /// ([`crate::blocking::sound`]), assembled from the eagerly-captured
    /// per-task facts — no DAG is re-walked. `None` unless the
    /// configuration's method is [`Method::LpSound`].
    pub fn sound_blocking_for(&self, k: usize, config: &AnalysisConfig) -> Option<SoundBlocking> {
        (config.method == Method::LpSound).then(|| {
            SoundBlocking::from_parts(
                self.facts[k + 1..]
                    .iter()
                    .map(|f| (f.volume, f.period, f.deadline)),
                config.cores,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::lpmax::lp_max_blocking;
    use crate::blocking::mu::mu_array;
    use crate::blocking::scenarios::blocking_from_mu;
    use rta_model::examples::{figure1_task_set, TABLE_I};

    #[test]
    fn mu_matches_direct_computation_and_slices() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 8);
        for solver in [MuSolver::Clique, MuSolver::PaperIlp] {
            for k in 0..ts.len() {
                let full = cache.mu(k, solver);
                for c in 1..=8 {
                    assert_eq!(
                        full[..c],
                        mu_array(ts.task(k).dag(), c, solver),
                        "task {k}, c = {c}, {solver:?}"
                    );
                }
            }
        }
        // Tasks 1..=4 are the Figure 1 DAGs; their 4-core prefixes are Table I.
        for (i, row) in TABLE_I.iter().enumerate() {
            assert_eq!(&cache.mu(i + 1, MuSolver::Clique)[..4], row);
        }
    }

    #[test]
    fn deltas_match_uncached_blocking() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 8);
        for cores in 1..=8usize {
            for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
                for k in 0..ts.len() {
                    let mu_arrays: Vec<Vec<Time>> = ts
                        .lower_priority(k)
                        .iter()
                        .map(|t| mu_array(t.dag(), cores, MuSolver::Clique))
                        .collect();
                    let uncached = blocking_from_mu(&mu_arrays, cores, RhoSolver::Hungarian, space);
                    let cached = cache.lp_ilp_blocking(
                        k,
                        cores,
                        MuSolver::Clique,
                        RhoSolver::Hungarian,
                        space,
                    );
                    assert_eq!(cached, uncached, "task {k}, m = {cores}, {space:?}");
                }
            }
        }
    }

    #[test]
    fn lp_max_matches_uncached_blocking() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 8);
        for cores in 1..=8usize {
            for k in 0..ts.len() {
                assert_eq!(
                    cache.lp_max_blocking(k, cores),
                    lp_max_blocking(ts.lower_priority(k), cores),
                    "task {k}, m = {cores}"
                );
            }
        }
    }

    #[test]
    fn facts_match_the_model() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 4);
        for (k, t) in ts.tasks().iter().enumerate() {
            assert_eq!(cache.longest_path(k), t.dag().longest_path());
            assert_eq!(cache.volume(k), t.dag().volume());
            assert_eq!(cache.preemption_points(k), t.dag().preemption_points());
            assert_eq!(cache.period(k), t.period());
            assert_eq!(cache.deadline(k), t.deadline());
            let sinks = t.dag().sinks();
            match cache.single_sink_wcet(k) {
                Some(w) => {
                    assert_eq!(sinks.len(), 1);
                    assert_eq!(w, t.dag().wcet(sinks[0]));
                }
                None => assert_ne!(sinks.len(), 1),
            }
        }
    }

    #[test]
    fn mu_is_computed_once_per_task() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 4);
        let before = mu::mu_array_computations();
        // Query blocking for every task, core slice, and space, repeatedly.
        for _ in 0..3 {
            for k in 0..ts.len() {
                for cores in 1..=4 {
                    for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
                        let _ = cache.lp_ilp_blocking(
                            k,
                            cores,
                            MuSolver::Clique,
                            RhoSolver::Hungarian,
                            space,
                        );
                    }
                }
            }
        }
        // Only the lower-priority tasks' arrays are ever needed (the
        // highest-priority task blocks no one), each exactly once.
        assert_eq!(
            mu::mu_array_computations() - before,
            ts.len() as u64 - 1,
            "µ must be computed once per (lower-priority) task"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the cache's max_cores")]
    fn querying_beyond_max_cores_panics() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 2);
        let _ = cache.max_rho(0, 3, MuSolver::Clique, RhoSolver::Hungarian);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_cache_panics() {
        let ts = figure1_task_set();
        let _ = TaskSetCache::new(&ts, 0);
    }
}
