//! Optimization substrate for the Hare reproduction.
//!
//! The paper leans on commercial solvers (CPLEX/Gurobi) for its relaxed
//! scheduling problem and on min-cost bipartite matching for the AlloX
//! baseline. This crate provides those pieces from scratch:
//!
//! * [`lp`] — sparse revised simplex with warm-started constraint
//!   generation;
//! * [`matching`] — Hungarian min-cost bipartite matching;
//! * [`instance`] — the task-level scheduling instance both solvers consume;
//! * [`relax`] — the `Hare_Sched_RL` relaxation (LP + Queyranne cuts for
//!   small instances, a combinatorial sweep for large ones) plus a
//!   certified lower bound on the optimum;
//! * [`bb`] — exact branch-and-bound ground truth for tiny instances;
//! * [`budget`] — cooperative solve budgets and cancellation, honored by
//!   every solver above so a solve can be bounded or aborted mid-flight;
//! * [`trace`] — deterministic work-unit span recording for the
//!   observability layer (cut rounds, B&B branches, ladder rungs).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod bb;
pub mod budget;
pub mod instance;
pub mod lp;
pub mod matching;
pub mod relax;
pub mod trace;

pub use bb::{solve_exact, solve_exact_budgeted, ExactSolution};
pub use budget::{CancelToken, SolveBudget};
pub use instance::{
    fig1_instance, Instance, InstanceBuilder, JobMeta, ProblemError, Row, TaskMeta,
};
pub use lp::{Cmp, Constraint, LinearProgram, LpOutcome, RevisedSimplex};
pub use matching::{min_cost_matching, Matching};
pub use relax::{
    base_program, certified_lower_bound, combinatorial_work, midpoints, min_max, solve_budgeted,
    solve_traced, RelaxMode, RelaxOptions, RelaxSolution, SolveStats,
};
pub use trace::{SolveSpan, SolveTrace};
