//! Property tests for the anytime degradation ladder
//! ([`hare_core::anytime_schedule`]): on arbitrary small healthy
//! instances the ladder is
//!
//! 1. **total** — any budget, even zero, yields a valid plan;
//! 2. **deterministic** — identical inputs produce identical outputs,
//!    bit for bit (the property online replay and the experiment journal
//!    both rely on);
//! 3. **monotone in budget** — a larger budget never yields a worse
//!    planned objective, because each rung is all-or-nothing: raising
//!    the caps only grows the candidate set the best-of selection
//!    minimizes over.

use hare_cluster::{SimDuration, SimTime};
use hare_core::{anytime_schedule, AnytimeOptions, JobInfo, SchedProblem, SyncMode};
use hare_solver::{SolveBudget, SolveTrace};
use proptest::prelude::*;

/// Small random healthy problems: 2–4 GPUs, 1–3 jobs, ≤ 2 rounds × ≤ 2
/// tasks per round (≤ 12 tasks, inside the exact rung's task limit).
fn problems() -> impl Strategy<Value = SchedProblem> {
    (2usize..5).prop_flat_map(|n_gpus| {
        prop::collection::vec(
            (
                0.5f64..4.0,
                0u64..4,
                1u32..3,
                1u32..3,
                prop::collection::vec(1.0f64..5.0, n_gpus),
                prop::collection::vec(0.1f64..1.0, n_gpus),
            ),
            1usize..4,
        )
        .prop_map(move |jobs| {
            SchedProblem::new(
                n_gpus,
                jobs.into_iter()
                    .map(
                        |(weight, arrival, rounds, sync_scale, train, sync)| JobInfo {
                            weight,
                            arrival: SimTime::from_secs(arrival),
                            rounds,
                            sync_scale,
                            train: train.into_iter().map(SimDuration::from_secs_f64).collect(),
                            sync: sync.into_iter().map(SimDuration::from_secs_f64).collect(),
                        },
                    )
                    .collect(),
            )
        })
    })
}

/// The budget ladder the monotonicity property walks, weakest first.
fn budgets() -> Vec<SolveBudget> {
    let mut b: Vec<SolveBudget> = [0u64, 10, 100, 1_000, 100_000]
        .iter()
        .map(|&c| SolveBudget::capped(c, c / 2))
        .collect();
    b.push(SolveBudget::UNLIMITED);
    b
}

fn opts() -> AnytimeOptions {
    AnytimeOptions {
        // Enable the exact rung: generated problems stay within its limit.
        exact_task_limit: 16,
        ..AnytimeOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ladder_is_total_and_deterministic(p in problems()) {
        for budget in budgets() {
            let trace = SolveTrace::new();
            let a = anytime_schedule(&p, &opts(), &budget, None, Some(&trace));
            let b = anytime_schedule(&p, &opts(), &budget, None, None);
            prop_assert_eq!(&a, &b, "identical inputs must replay bit for bit");
            // Totality: whatever the budget, the plan is valid, and the
            // ladder ends on the stale-plan rung (skipped: no previous
            // plan) and the greedy rung, whose flat charge is in the work.
            prop_assert!(a.schedule.validate(&p, SyncMode::Relaxed).is_ok());
            prop_assert!(a.objective.is_finite());
            prop_assert!(a.work >= p.n_tasks() as u64);
            let spans: Vec<(&str, u64)> =
                trace.drain().iter().map(|s| (s.phase, s.detail)).collect();
            prop_assert_eq!(&spans[spans.len() - 2..], &[("stale-plan", 1), ("greedy", 0)]);
            prop_assert_eq!(a.h.len(), p.n_tasks());
        }
    }

    #[test]
    fn planned_objective_is_monotone_in_budget(p in problems()) {
        let mut prev = f64::INFINITY;
        for budget in budgets() {
            let out = anytime_schedule(&p, &opts(), &budget, None, None);
            let obj = out.objective;
            // Each rung is all-or-nothing, so a larger budget only grows
            // the candidate set: the selected minimum cannot regress.
            prop_assert!(
                obj <= prev + 1e-9,
                "objective regressed from {prev} to {obj} as the budget grew"
            );
            prev = obj;
        }
    }
}
