//! Property tests on the relaxation solver: structural feasibility of x̂,
//! lower-bound validity against greedy feasible schedules, the one-pass
//! lower bound against the rescanning formula it replaced, the rows'
//! cached reductions against the folds they replaced, and mode agreement
//! on shared invariants.

use hare_solver::{certified_lower_bound, relax, Instance, JobMeta, RelaxOptions, Row, TaskMeta};
use proptest::prelude::*;

fn instances() -> impl Strategy<Value = Instance> {
    let job = (1u32..=3, 1usize..=2, 1u32..=5, 0.0f64..5.0);
    (1usize..=3, prop::collection::vec(job, 1..=4)).prop_flat_map(|(n_machines, jobs_meta)| {
        // Per-task machine times in [0.5, 8.0].
        let total_tasks: usize = jobs_meta
            .iter()
            .map(|&(rounds, scale, _, _)| rounds as usize * scale)
            .sum();
        let times =
            prop::collection::vec(prop::collection::vec(0.5f64..8.0, n_machines), total_tasks);
        times.prop_map(move |times| {
            let mut tasks = Vec::new();
            let mut rows = Vec::new();
            let mut jobs = Vec::new();
            for (j, &(rounds, scale, weight, release)) in jobs_meta.iter().enumerate() {
                jobs.push(JobMeta {
                    weight: weight as f64,
                    release,
                    rounds,
                });
                for r in 0..rounds {
                    for _ in 0..scale {
                        // Every task draws its own times, so gets its own row.
                        tasks.push(TaskMeta {
                            job: j,
                            round: r,
                            row: rows.len(),
                        });
                        rows.push(Row::new(times[rows.len()].clone(), vec![0.1; n_machines]));
                    }
                }
            }
            Instance {
                n_machines,
                jobs,
                rows,
                tasks,
            }
        })
    })
}

/// A trivially feasible schedule: every task on machine 0, in topological
/// order, back to back. Returns its Σ wC.
fn greedy_feasible_objective(inst: &Instance) -> f64 {
    let mut clock: f64 = 0.0;
    let mut completion = vec![0.0f64; inst.jobs.len()];
    // Jobs one after another, rounds in order.
    for (j, job) in inst.jobs.iter().enumerate() {
        clock = clock.max(job.release);
        for r in 0..job.rounds {
            let mut round_done = clock;
            for t in inst.round_tasks(j, r) {
                let start = clock;
                clock = start + inst.row(t).p()[0];
                round_done = round_done.max(clock + inst.row(t).s()[0]);
            }
            clock = round_done;
        }
        completion[j] = clock;
    }
    inst.jobs
        .iter()
        .zip(&completion)
        .map(|(job, &c)| job.weight * c)
        .sum()
}

/// The certified lower bound as it was computed before becoming one pass:
/// every round and every job rescans all tasks. Kept as the bit-exact
/// reference for [`certified_lower_bound`].
fn rescanning_lower_bound(inst: &Instance) -> f64 {
    let mut path_bound = 0.0;
    for (j_idx, job) in inst.jobs.iter().enumerate() {
        let mut c = job.release;
        for r in 0..job.rounds {
            let round_min = inst
                .round_tasks(j_idx, r)
                .into_iter()
                .map(|i| inst.ps_min(i))
                .fold(0.0, f64::max);
            c += round_min;
        }
        path_bound += job.weight * c;
    }

    let m = inst.n_machines as f64;
    let min_release = inst.jobs.iter().map(|j| j.release).fold(f64::MAX, f64::min);
    let mut lens: Vec<(f64, f64)> = inst
        .jobs
        .iter()
        .enumerate()
        .map(|(j_idx, job)| {
            let work: f64 = inst
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.job == j_idx)
                .map(|(i, _)| inst.p_min(i))
                .sum();
            (work / m, job.weight)
        })
        .collect();
    lens.sort_by(|a, b| (b.1 / b.0.max(1e-12)).total_cmp(&(a.1 / a.0.max(1e-12))));
    let mut clock = min_release.max(0.0);
    let mut wspt = 0.0;
    for (len, w) in lens {
        clock += len;
        wspt += w * clock;
    }

    path_bound.max(wspt)
}

/// Task `t`'s `(p_min, p_max, ps_min)`, folded over its row's machines:
/// the reference for the values `Row::new` caches.
fn folded_reductions(inst: &Instance, t: usize) -> (f64, f64, f64) {
    let (p, s) = (inst.row(t).p(), inst.row(t).s());
    (
        p.iter().cloned().fold(f64::MAX, f64::min),
        p.iter().cloned().fold(f64::MIN, f64::max),
        p.iter()
            .zip(s)
            .map(|(&p, &s)| p + s)
            .fold(f64::MAX, f64::min),
    )
}

/// α folded over every task's row: the reference for `Instance::alpha`,
/// which scans rows.
fn folded_alpha(inst: &Instance) -> f64 {
    let mut alpha: f64 = 1.0;
    for t in 0..inst.n_tasks() {
        let (p, s) = (inst.row(t).p(), inst.row(t).s());
        let pmax = p.iter().cloned().fold(f64::MIN, f64::max);
        let pmin = p.iter().cloned().fold(f64::MAX, f64::min);
        alpha = alpha.max(pmax / pmin);
        let smax = s.iter().cloned().fold(f64::MIN, f64::max);
        let smin = s.iter().cloned().fold(f64::MAX, f64::min);
        if smin > 0.0 {
            alpha = alpha.max(smax / smin);
        }
    }
    alpha
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_reductions_equal_the_folds_they_replace(inst in instances()) {
        let mut reversed = inst.clone();
        reversed.tasks.reverse();
        for inst in [inst, reversed] {
            for t in 0..inst.n_tasks() {
                let (p_min, p_max, ps_min) = folded_reductions(&inst, t);
                prop_assert_eq!(inst.p_min(t).to_bits(), p_min.to_bits());
                prop_assert_eq!(inst.p_max(t).to_bits(), p_max.to_bits());
                prop_assert_eq!(inst.ps_min(t).to_bits(), ps_min.to_bits());
            }
            prop_assert_eq!(inst.alpha().to_bits(), folded_alpha(&inst).to_bits());
        }
    }

    #[test]
    fn relaxed_starts_respect_release_and_precedence(inst in instances()) {
        for opts in [
            RelaxOptions::default(),
            RelaxOptions { lp_task_limit: 0, ..RelaxOptions::default() },
        ] {
            let sol = relax::solve(&inst, &opts);
            prop_assert_eq!(sol.x_hat.len(), inst.n_tasks());
            for (i, task) in inst.tasks.iter().enumerate() {
                prop_assert!(sol.x_hat[i] >= inst.jobs[task.job].release - 1e-6);
                prop_assert!(sol.h[i] >= sol.x_hat[i]);
            }
            for (j, job) in inst.jobs.iter().enumerate() {
                for r in 1..job.rounds {
                    let prev_done = inst
                        .round_tasks(j, r - 1)
                        .into_iter()
                        .map(|i| sol.x_hat[i] + inst.ps_min(i))
                        .fold(0.0f64, f64::max);
                    for i in inst.round_tasks(j, r) {
                        prop_assert!(
                            sol.x_hat[i] >= prev_done - 1e-6,
                            "precedence violated in mode {:?}", sol.mode
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lower_bound_is_below_any_feasible_schedule(inst in instances()) {
        let lb = certified_lower_bound(&inst);
        let feasible = greedy_feasible_objective(&inst);
        prop_assert!(lb <= feasible + 1e-6, "LB {} above a feasible value {}", lb, feasible);
        prop_assert!(lb > 0.0);
    }

    #[test]
    fn one_pass_lower_bound_matches_the_rescanning_formula(inst in instances()) {
        // Tasks may come in any order; reversing them reorders every
        // per-job sum, which both formulas take in task-index order.
        let mut reversed = inst.clone();
        reversed.tasks.reverse();
        for inst in [inst, reversed] {
            prop_assert_eq!(
                certified_lower_bound(&inst).to_bits(),
                rescanning_lower_bound(&inst).to_bits()
            );
        }
    }

    #[test]
    fn alpha_is_at_least_one_and_finite(inst in instances()) {
        let a = inst.alpha();
        prop_assert!(a >= 1.0 && a.is_finite());
    }
}
