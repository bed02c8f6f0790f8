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
//! budget, a property the `anytime_ladder` property tests pin down.
//! [`PlanProvenance`] records why each rung ended the way it did, so
//! reports can attribute quality loss to solver degradation, and its
//! deterministic work total is what the simulator charges as solver
//! latency.

use crate::algorithm::{list_schedule, smith_priorities, AssignmentRule};
use crate::problem::{SchedProblem, TaskIdx};
use crate::schedule::Schedule;
use hare_solver::relax::{self, RelaxMode, RelaxOptions};
use hare_solver::{bb, midpoints, SolveBudget, SolveStats, SolveTrace};
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

/// How one rung ended.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RungOutcome {
    /// The rung produced a plan.
    Completed {
        /// Planned Σ wₙCₙ of the rung's list schedule.
        objective: f64,
    },
    /// The rung did not apply; the reason is recorded.
    Skipped(String),
    /// The rung started but its budget tripped before completion.
    Exhausted,
}

/// One ladder step's record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RungAttempt {
    /// The rung.
    pub rung: Rung,
    /// How it ended.
    pub outcome: RungOutcome,
    /// Deterministic work units charged: B&B nodes or simplex pivots when
    /// the rung ran, a flat per-task charge for the bottom two rungs. An
    /// exhausted rung is charged its full cap — it spent it.
    pub work: u64,
}

/// Why the returned plan is what it is.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanProvenance {
    /// The rung whose plan was selected.
    pub chosen: Rung,
    /// Every rung's record, ladder order.
    pub attempts: Vec<RungAttempt>,
    /// Relaxation work counters (zeros unless that rung completed).
    pub stats: SolveStats,
    /// Planned objective of the selected plan.
    pub objective: f64,
    /// Total work units consumed by the pipeline — the simulator charges
    /// this as solver latency.
    pub work: u64,
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
/// [`crate::HareOutput`], plus provenance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnytimeOutput {
    /// The selected plan's schedule.
    pub schedule: Schedule,
    /// The selected plan's priorities (the currency online Hare dispatches
    /// by).
    pub h: Vec<f64>,
    /// Dispatch order of the selected plan.
    pub pi: Vec<TaskIdx>,
    /// Ladder record.
    pub provenance: PlanProvenance,
}

/// A completed rung's plan, before selection.
struct Candidate {
    rung: Rung,
    h: Vec<f64>,
    schedule: Schedule,
    pi: Vec<TaskIdx>,
    objective: f64,
}

/// List-schedule a completed rung's priorities and record it.
fn finish(
    p: &SchedProblem,
    opts: &AnytimeOptions,
    rung: Rung,
    h: Vec<f64>,
    work: u64,
    attempts: &mut Vec<RungAttempt>,
    candidates: &mut Vec<Candidate>,
) {
    let (schedule, pi) = list_schedule(p, &h, opts.assignment);
    let objective = schedule.weighted_completion(p);
    attempts.push(RungAttempt {
        rung,
        outcome: RungOutcome::Completed { objective },
        work,
    });
    candidates.push(Candidate {
        rung,
        h,
        schedule,
        pi,
        objective,
    });
}

/// Flat work charge for the StalePlan and Greedy rungs: one linear pass
/// over the tasks, in the same units as pivots/nodes.
fn flat_work(p: &SchedProblem) -> u64 {
    p.n_tasks() as u64
}

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
/// `trace` argument, and every other attempt — skipped, exhausted, or one
/// of the flat-cost rungs — gets one span named after its rung (detail:
/// 0 = completed, 1 = skipped, 2 = exhausted).
pub fn anytime_schedule(
    p: &SchedProblem,
    opts: &AnytimeOptions,
    budget: &SolveBudget,
    stale: Option<&StalePlan>,
    trace: Option<&SolveTrace>,
) -> AnytimeOutput {
    p.validate().expect("invalid problem");
    let inst = p.to_instance();
    let mut attempts: Vec<RungAttempt> = Vec::with_capacity(Rung::ALL.len());
    let mut candidates: Vec<Candidate> = Vec::with_capacity(Rung::ALL.len());
    let mut stats = SolveStats::default();
    let greedy = smith_priorities(p, &inst);

    // Rung 1: exact branch-and-bound (node_cap axis).
    let exact_limit = opts.exact_task_limit.min(bb::MAX_TASKS);
    if p.n_tasks() > exact_limit {
        attempts.push(RungAttempt {
            rung: Rung::Exact,
            outcome: RungOutcome::Skipped(format!(
                "{} tasks over the exact limit {exact_limit}",
                p.n_tasks()
            )),
            work: 0,
        });
    } else {
        match bb::solve_exact_budgeted(&inst, budget, trace) {
            Some(sol) => {
                // The exact start times are folded back into the ladder's
                // common currency — midpoint priorities — so dispatch
                // handles every rung uniformly.
                let h = midpoints(&inst, &sol.start);
                finish(
                    p,
                    opts,
                    Rung::Exact,
                    h,
                    sol.nodes,
                    &mut attempts,
                    &mut candidates,
                );
            }
            None => attempts.push(RungAttempt {
                rung: Rung::Exact,
                outcome: RungOutcome::Exhausted,
                work: budget.node_cap,
            }),
        }
    }

    // Rung 2: the relaxation (pivot_cap axis).
    match relax::solve_budgeted(&inst, &opts.relax, budget, trace) {
        Some(sol) => {
            stats = sol.stats;
            let work = match sol.mode {
                RelaxMode::Lp { .. } => stats.revised_pivots,
                RelaxMode::Combinatorial => relax::combinatorial_work(&inst, &opts.relax),
            };
            finish(
                p,
                opts,
                Rung::Relaxation,
                sol.h,
                work,
                &mut attempts,
                &mut candidates,
            );
        }
        None => attempts.push(RungAttempt {
            rung: Rung::Relaxation,
            outcome: RungOutcome::Exhausted,
            work: budget.pivot_cap,
        }),
    }

    // Rung 3: stale-plan reuse with incremental repair.
    match stale {
        None => attempts.push(RungAttempt {
            rung: Rung::StalePlan,
            outcome: RungOutcome::Skipped("no previous plan".into()),
            work: 0,
        }),
        Some(s) if s.h.len() != p.n_tasks() => attempts.push(RungAttempt {
            rung: Rung::StalePlan,
            outcome: RungOutcome::Skipped(format!(
                "stale plan covers {} tasks, problem has {}",
                s.h.len(),
                p.n_tasks()
            )),
            work: 0,
        }),
        Some(s) => {
            let known_max =
                s.h.iter()
                    .copied()
                    .filter(|v| v.is_finite())
                    .fold(f64::NEG_INFINITY, f64::max);
            if !known_max.is_finite() {
                attempts.push(RungAttempt {
                    rung: Rung::StalePlan,
                    outcome: RungOutcome::Skipped("no usable stale entries".into()),
                    work: 0,
                });
            } else {
                // Repair: tasks with no stale priority (newly arrived
                // jobs) slot in after every stale task, ordered among
                // themselves by the greedy key.
                let h: Vec<f64> =
                    s.h.iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            if v.is_finite() {
                                v
                            } else {
                                known_max + 1.0 + greedy[i]
                            }
                        })
                        .collect();
                finish(
                    p,
                    opts,
                    Rung::StalePlan,
                    h,
                    flat_work(p),
                    &mut attempts,
                    &mut candidates,
                );
            }
        }
    }

    // Rung 4: greedy — always completes.
    finish(
        p,
        opts,
        Rung::Greedy,
        greedy,
        flat_work(p),
        &mut attempts,
        &mut candidates,
    );

    // Selection: best planned objective; candidates are in ladder order
    // and the comparison is strict, so ties keep the higher rung.
    let best = candidates
        .into_iter()
        .reduce(|best, c| {
            if c.objective < best.objective {
                c
            } else {
                best
            }
        })
        .expect("the Greedy rung always completes");
    let work = attempts.iter().fold(0u64, |a, r| a.saturating_add(r.work));

    if let Some(tr) = trace {
        // Rung-level spans for every attempt whose work isn't already
        // covered by fine-grained inner spans (a completed Exact or
        // Relaxation rung recorded those through the traced solvers).
        for a in &attempts {
            let inner_traced = matches!(a.rung, Rung::Exact | Rung::Relaxation)
                && matches!(a.outcome, RungOutcome::Completed { .. });
            if !inner_traced {
                let detail = match a.outcome {
                    RungOutcome::Completed { .. } => 0,
                    RungOutcome::Skipped(_) => 1,
                    RungOutcome::Exhausted => 2,
                };
                tr.record(a.rung.name(), a.work, detail);
            }
        }
    }

    AnytimeOutput {
        provenance: PlanProvenance {
            chosen: best.rung,
            attempts,
            stats,
            objective: best.objective,
            work,
        },
        schedule: best.schedule,
        h: best.h,
        pi: best.pi,
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

    #[test]
    fn zero_budget_still_returns_a_valid_plan() {
        let p = fig1();
        let out = anytime_schedule(
            &p,
            &AnytimeOptions::default(),
            &SolveBudget::capped(0, 0),
            None,
            None,
        );
        assert!(out.schedule.validate(&p, SyncMode::Relaxed).is_ok());
        assert_eq!(out.provenance.chosen, Rung::Greedy);
        // The exhausted relaxation and the skipped rungs are on record.
        assert!(out
            .provenance
            .attempts
            .iter()
            .any(|a| a.rung == Rung::Relaxation && a.outcome == RungOutcome::Exhausted));
        assert_eq!(out.provenance.attempts.len(), Rung::ALL.len());
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
        assert_eq!(out.provenance.chosen, Rung::Relaxation);
        assert_eq!(out.h, today.h);
        assert_eq!(out.pi, today.pi);
        assert_eq!(out.schedule, today.schedule);
    }

    #[test]
    fn stale_plan_rung_reuses_and_repairs() {
        let p = fig1();
        // Stale priorities from a full previous solve, with one task's
        // entry poked out as "newly arrived".
        let mut stale_h = hare_schedule(&p).h;
        stale_h[3] = f64::INFINITY;
        let out = anytime_schedule(
            &p,
            &AnytimeOptions::default(),
            &SolveBudget::capped(0, 0), // upper rungs cannot run
            Some(&StalePlan { h: stale_h.clone() }),
            None,
        );
        assert!(out.schedule.validate(&p, SyncMode::Relaxed).is_ok());
        let stale_attempt = out
            .provenance
            .attempts
            .iter()
            .find(|a| a.rung == Rung::StalePlan)
            .expect("stale rung recorded");
        assert!(
            matches!(stale_attempt.outcome, RungOutcome::Completed { .. }),
            "{stale_attempt:?}"
        );
        // The repaired entry lands after every stale priority.
        if out.provenance.chosen == Rung::StalePlan {
            let max_known = stale_h
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(out.h[3] > max_known);
        }
    }

    #[test]
    fn exact_rung_runs_when_enabled_and_wins_selection() {
        let p = fig1();
        let opts = AnytimeOptions {
            exact_task_limit: 16,
            ..AnytimeOptions::default()
        };
        let out = anytime_schedule(&p, &opts, &SolveBudget::UNLIMITED, None, None);
        let exact = out
            .provenance
            .attempts
            .iter()
            .find(|a| a.rung == Rung::Exact)
            .expect("exact rung recorded");
        assert!(matches!(exact.outcome, RungOutcome::Completed { .. }));
        // Selection is best-of: the chosen plan is no worse than any
        // completed rung's plan.
        for a in &out.provenance.attempts {
            if let RungOutcome::Completed { objective } = a.outcome {
                assert!(out.provenance.objective <= objective + 1e-12);
            }
        }
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
            assert_eq!(a.provenance.chosen, b.provenance.chosen, "cap {cap}");
            assert_eq!(a.h, b.h, "cap {cap}");
            assert!(
                a.provenance.objective <= last_objective + 1e-12,
                "objective regressed at cap {cap}"
            );
            last_objective = a.provenance.objective;
        }
    }
}
