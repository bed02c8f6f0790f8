//! Work-budgeted anytime scheduling: the graceful-degradation ladder.
//!
//! A production control plane must produce *some* plan inside its replan
//! window regardless of optimizer health (the discipline of Gavel's
//! round-based policy loop and AlloX's greedy fallback). This module wraps
//! the solvers in `hare-solver` into a four-rung ladder, each rung cheaper
//! and usually worse than the one above:
//!
//! 1. **Exact** — budgeted branch-and-bound (tiny instances, opt-in);
//! 2. **Relaxation** — the warm-started LP/cut (or combinatorial) solve
//!    behind Algorithm 1's midpoint priorities;
//! 3. **StalePlan** — the previous plan's priorities, incrementally
//!    repaired for newly arrived tasks;
//! 4. **Greedy** — the heterogeneity-aware Smith-ratio list order; pure
//!    arithmetic, it cannot fail, so the pipeline always returns a plan.
//!
//! Every rung that completes yields a priority vector; the pipeline
//! list-schedules each and returns the plan with the best *planned*
//! objective, ties going to the highest rung. Rungs are all-or-nothing and
//! deterministic under pivot/node caps, so a bigger budget can only *add*
//! completed rungs — hence the returned objective is monotone in the
//! budget, a property the `anytime_ladder` property tests pin down. The
//! output names the chosen rung, so reports can attribute quality loss to
//! solver degradation, and carries the ladder's deterministic work total,
//! which the simulator charges as solver latency.

use crate::algorithm::{list_schedule, smith_priorities, AssignmentRule};
use crate::problem::SchedProblem;
use crate::schedule::Schedule;
use hare_solver::relax::{self, RelaxMode, RelaxOptions};
use hare_solver::{bb, midpoints, SolveBudget, SolveTrace};
use serde::{Deserialize, Serialize};

/// Options for the anytime pipeline.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AnytimeOptions {
    /// Relaxation rung options.
    pub relax: RelaxOptions,
    /// GPU selection rule used to list-schedule every rung's priorities.
    pub assignment: AssignmentRule,
    /// Attempt the exact branch-and-bound rung when the instance has at
    /// most this many tasks (clamped to [`bb::MAX_TASKS`]). `0` — the
    /// default — disables the rung, making the relaxation the top rung,
    /// exactly like [`crate::HareScheduler`].
    pub exact_task_limit: usize,
}

/// One rung of the degradation ladder, highest quality first.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Rung {
    /// Budgeted exact branch-and-bound.
    Exact,
    /// Budgeted relaxation (Algorithm 1's midpoints).
    Relaxation,
    /// Previous plan's priorities, incrementally repaired.
    StalePlan,
    /// Smith-ratio greedy list order (never fails).
    Greedy,
}

impl Rung {
    /// All rungs, ladder order.
    pub const ALL: [Rung; 4] = [Rung::Exact, Rung::Relaxation, Rung::StalePlan, Rung::Greedy];

    /// Stable lowercase name for reports and journals.
    pub fn name(&self) -> &'static str {
        match self {
            Rung::Exact => "exact",
            Rung::Relaxation => "relaxation",
            Rung::StalePlan => "stale-plan",
            Rung::Greedy => "greedy",
        }
    }
}

/// Priorities carried over from a previous plan for the StalePlan rung:
/// `h[i]` is the stale priority of task `i` of the *current* problem, or
/// `f64::INFINITY` where no stale information exists (newly arrived jobs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StalePlan {
    /// Stale priority per current task (`INFINITY` = unknown).
    pub h: Vec<f64>,
}

/// The anytime pipeline's product — the same plan shape as
/// [`crate::HareOutput`], plus the rung that produced it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnytimeOutput {
    /// The selected plan's schedule.
    pub schedule: Schedule,
    /// The selected plan's priorities (the currency online Hare dispatches
    /// by).
    pub h: Vec<f64>,
    /// The rung whose plan was selected.
    pub chosen: Rung,
    /// Planned Σ wₙCₙ of the selected plan.
    pub objective: f64,
    /// Deterministic work units the whole ladder consumed — the simulator
    /// charges this as solver latency. A rung that ran is charged its B&B
    /// nodes or simplex pivots, an exhausted one its full cap (it spent
    /// it), the bottom two rungs a flat per-task charge, and a skipped
    /// rung nothing.
    pub work: u64,
}

/// Flat work charge for the StalePlan and Greedy rungs: one linear pass
/// over the tasks, in the same units as pivots/nodes.
fn flat_work(p: &SchedProblem) -> u64 {
    p.n_tasks() as u64
}

/// Span detail of a rung that completed, was skipped, or ran out of
/// budget.
const COMPLETED: u64 = 0;
const SKIPPED: u64 = 1;
const EXHAUSTED: u64 = 2;

/// Run the degradation ladder. Never fails: the Greedy rung is pure
/// arithmetic and ignores the budget, so even a zero budget yields a valid
/// plan — degraded in quality, not in availability.
///
/// With an unlimited `budget` and default `opts` this reproduces
/// [`crate::HareScheduler`]'s relaxation midpoints bit-for-bit whenever the
/// relaxation's plan wins selection (ties go to the higher rung).
///
/// Solver-phase spans are recorded into `trace` on its deterministic
/// work-unit clock: the Exact and Relaxation rungs emit their own
/// fine-grained spans (`"bb_root"`, `"lp_round"`, ...) through the solvers'
/// `trace` argument, and every other rung — skipped, exhausted, or one
/// of the flat-cost rungs — then gets one span named after it, in ladder
/// order (detail: 0 = completed, 1 = skipped, 2 = exhausted).
pub fn anytime_schedule(
    p: &SchedProblem,
    opts: &AnytimeOptions,
    budget: &SolveBudget,
    stale: Option<&StalePlan>,
    trace: Option<&SolveTrace>,
) -> AnytimeOutput {
    p.validate().expect("invalid problem");
    let inst = p.to_instance();
    let greedy = smith_priorities(p, &inst);
    // List-schedule a completed rung's priorities and keep its plan when
    // it beats the best so far: rungs complete in ladder order and the
    // comparison is strict, so ties keep the higher rung.
    let mut best: Option<AnytimeOutput> = None;
    let mut complete = |rung: Rung, h: Vec<f64>| {
        let (schedule, _) = list_schedule(p, &h, opts.assignment);
        let objective = schedule.weighted_completion(p);
        if best.as_ref().is_none_or(|b| objective < b.objective) {
            best = Some(AnytimeOutput {
                schedule,
                h,
                chosen: rung,
                objective,
                work: 0,
            });
        }
    };
    // Each rung's work units and span detail, ladder order.
    let mut ends = [(0u64, SKIPPED); 4];

    // Rung 1: exact branch-and-bound (node_cap axis).
    if p.n_tasks() <= opts.exact_task_limit.min(bb::MAX_TASKS) {
        ends[0] = match bb::solve_exact_budgeted(&inst, budget, trace) {
            Some(sol) => {
                // The exact start times are folded back into the ladder's
                // common currency — midpoint priorities — so dispatch
                // handles every rung uniformly.
                complete(Rung::Exact, midpoints(&inst, &sol.start));
                (sol.nodes, COMPLETED)
            }
            None => (budget.node_cap, EXHAUSTED),
        };
    }

    // Rung 2: the relaxation (pivot_cap axis).
    ends[1] = match relax::solve_budgeted(&inst, &opts.relax, budget, trace) {
        Some(sol) => {
            let work = match sol.mode {
                RelaxMode::Lp { .. } => sol.stats.revised_pivots,
                RelaxMode::Combinatorial => relax::combinatorial_work(&inst, &opts.relax),
            };
            complete(Rung::Relaxation, sol.h);
            (work, COMPLETED)
        }
        None => (budget.pivot_cap, EXHAUSTED),
    };

    // Rung 3: stale-plan reuse with incremental repair. It needs one
    // stale entry per task, at least one of them finite.
    if let Some(s) = stale.filter(|s| s.h.len() == p.n_tasks()) {
        let known_max =
            s.h.iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
        if known_max.is_finite() {
            // Repair: tasks with no stale priority (newly arrived jobs)
            // slot in after every stale task, ordered among themselves by
            // the greedy key.
            let h =
                s.h.iter()
                    .zip(&greedy)
                    .map(|(&v, &g)| {
                        if v.is_finite() {
                            v
                        } else {
                            known_max + 1.0 + g
                        }
                    })
                    .collect();
            complete(Rung::StalePlan, h);
            ends[2] = (flat_work(p), COMPLETED);
        }
    }

    // Rung 4: greedy — always completes.
    complete(Rung::Greedy, greedy);
    ends[3] = (flat_work(p), COMPLETED);

    // Rung-level spans for every rung whose work the traced solvers did
    // not already record.
    if let Some(tr) = trace {
        for (rung, &(work, detail)) in Rung::ALL.iter().zip(&ends) {
            let inner_traced =
                detail == COMPLETED && matches!(rung, Rung::Exact | Rung::Relaxation);
            if !inner_traced {
                tr.record(rung.name(), work, detail);
            }
        }
    }
    AnytimeOutput {
        work: ends
            .iter()
            .fold(0, |total, &(work, _)| total.saturating_add(work)),
        ..best.expect("the Greedy rung always completes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::hare_schedule;
    use crate::sync::SyncMode;

    fn fig1() -> SchedProblem {
        SchedProblem::fig1()
    }

    /// A heterogeneous 4-GPU instance on which the relaxation's midpoint
    /// plan strictly beats the greedy Smith order (on Fig. 1 the greedy
    /// order happens to win, so selection would mask the relaxation).
    fn hetero4() -> SchedProblem {
        use crate::problem::JobInfo;
        use hare_cluster::{SimDuration, SimTime};
        let secs = |v: &[f64]| -> Vec<SimDuration> {
            v.iter().map(|&s| SimDuration::from_secs_f64(s)).collect()
        };
        SchedProblem::new(
            4,
            vec![
                JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 2,
                    sync_scale: 2,
                    train: secs(&[2.0, 1.0, 3.0, 1.5]),
                    sync: secs(&[0.5, 0.25, 0.5, 0.25]),
                },
                JobInfo {
                    weight: 2.0,
                    arrival: SimTime::ZERO,
                    rounds: 1,
                    sync_scale: 3,
                    train: secs(&[1.0, 2.0, 1.0, 2.0]),
                    sync: secs(&[0.5, 0.5, 0.5, 0.5]),
                },
                JobInfo {
                    weight: 1.5,
                    arrival: SimTime::from_secs(1),
                    rounds: 2,
                    sync_scale: 1,
                    train: secs(&[3.0, 1.5, 2.0, 1.0]),
                    sync: secs(&[0.5, 0.5, 0.5, 0.5]),
                },
            ],
        )
    }

    /// The rung-level spans a traced run records, as `(rung, detail)`.
    fn rung_spans(trace: &SolveTrace) -> Vec<(&'static str, u64)> {
        trace
            .drain()
            .into_iter()
            .filter(|s| Rung::ALL.iter().any(|r| r.name() == s.phase))
            .map(|s| (s.phase, s.detail))
            .collect()
    }

    #[test]
    fn zero_budget_still_returns_a_valid_plan() {
        let p = fig1();
        let trace = SolveTrace::new();
        let out = anytime_schedule(
            &p,
            &AnytimeOptions::default(),
            &SolveBudget::capped(0, 0),
            None,
            Some(&trace),
        );
        assert!(out.schedule.validate(&p, SyncMode::Relaxed).is_ok());
        assert_eq!(out.chosen, Rung::Greedy);
        // The skipped and exhausted rungs are on record, in ladder order.
        assert_eq!(
            rung_spans(&trace),
            [
                ("exact", SKIPPED),
                ("relaxation", EXHAUSTED),
                ("stale-plan", SKIPPED),
                ("greedy", COMPLETED)
            ]
        );
    }

    #[test]
    fn unlimited_budget_reproduces_hare_scheduler_bit_for_bit() {
        let p = hetero4();
        let today = hare_schedule(&p);
        let out = anytime_schedule(
            &p,
            &AnytimeOptions::default(),
            &SolveBudget::UNLIMITED,
            None,
            None,
        );
        assert_eq!(out.chosen, Rung::Relaxation);
        assert_eq!(out.h, today.h);
        assert_eq!(out.schedule, today.schedule);
    }

    #[test]
    fn stale_plan_rung_reuses_and_repairs() {
        let p = fig1();
        // Stale priorities from a full previous solve, with one task's
        // entry poked out as "newly arrived".
        let mut stale_h = hare_schedule(&p).h;
        stale_h[3] = f64::INFINITY;
        let trace = SolveTrace::new();
        let out = anytime_schedule(
            &p,
            &AnytimeOptions::default(),
            &SolveBudget::capped(0, 0), // upper rungs cannot run
            Some(&StalePlan { h: stale_h.clone() }),
            Some(&trace),
        );
        assert!(out.schedule.validate(&p, SyncMode::Relaxed).is_ok());
        assert!(rung_spans(&trace).contains(&("stale-plan", COMPLETED)));
        // The repaired entry lands after every stale priority.
        if out.chosen == Rung::StalePlan {
            let max_known = stale_h
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(out.h[3] > max_known);
        }
    }

    #[test]
    fn enabling_the_exact_rung_never_raises_the_planned_objective() {
        let p = fig1();
        let without = anytime_schedule(
            &p,
            &AnytimeOptions::default(),
            &SolveBudget::UNLIMITED,
            None,
            None,
        );
        let opts = AnytimeOptions {
            exact_task_limit: 16,
            ..AnytimeOptions::default()
        };
        let trace = SolveTrace::new();
        let with = anytime_schedule(&p, &opts, &SolveBudget::UNLIMITED, None, Some(&trace));
        // The exact rung completed: the solver traced it, so it has no
        // rung-level span.
        assert!(!rung_spans(&trace).iter().any(|&(rung, _)| rung == "exact"));
        // Selection is best-of over a larger candidate set.
        assert!(with.objective <= without.objective);
        assert!(with.work > without.work);
    }

    #[test]
    fn ladder_is_deterministic_and_monotone_in_budget() {
        let p = fig1();
        let opts = AnytimeOptions::default();
        let mut last_objective = f64::INFINITY;
        for cap in [0u64, 10, 100, 1_000, 100_000] {
            let budget = SolveBudget::capped(cap, cap);
            let a = anytime_schedule(&p, &opts, &budget, None, None);
            let b = anytime_schedule(&p, &opts, &budget, None, None);
            assert_eq!(a.chosen, b.chosen, "cap {cap}");
            assert_eq!(a.h, b.h, "cap {cap}");
            assert!(
                a.objective <= last_objective + 1e-12,
                "objective regressed at cap {cap}"
            );
            last_objective = a.objective;
        }
    }
}
