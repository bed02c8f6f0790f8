//! Cross-validation of the two LP solvers and the warm-started cut loop.
//!
//! * The sparse revised simplex and the dense two-phase tableau must agree
//!   (objective within 1e-6) on randomized relaxation-shaped LPs — the
//!   exact row structure `relax`'s LP mode emits (release rows, completion
//!   rows, precedence rows, volume cuts: 1–2 structural nonzeros each).
//! * Warm-started cut rounds (basis kept alive across Queyranne cuts) must
//!   produce the same midpoint priority order `Hᵢ` as cold re-solves on
//!   the seed instances, since Algorithm 1 consumes only that order.

use hare_solver::{
    fig1_instance, relax, Cmp, Instance, InstanceBuilder, JobMeta, LinearProgram, LpOutcome,
    RelaxOptions, Row, TaskMeta,
};
use proptest::prelude::*;

/// Random relaxation-shaped instances (small enough for LP mode).
fn instances() -> impl Strategy<Value = Instance> {
    let job = (1u32..=3, 1usize..=2, 1u32..=5, 0.0f64..5.0);
    (1usize..=4, prop::collection::vec(job, 1..=5)).prop_flat_map(|(n_machines, jobs_meta)| {
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

/// The LP `relax`'s LP mode builds: task starts then job completions, with
/// release / completion / precedence rows, plus an optional volume cut.
fn relaxation_lp(inst: &Instance, with_cut: bool) -> LinearProgram {
    let t = inst.n_tasks();
    let n = inst.jobs.len();
    let mut objective = vec![0.0; t + n];
    for (j, job) in inst.jobs.iter().enumerate() {
        objective[t + j] = job.weight;
    }
    let mut lp = LinearProgram::minimize(objective);
    for (i, task) in inst.tasks.iter().enumerate() {
        let rel = inst.jobs[task.job].release;
        if rel > 0.0 {
            lp.constrain(vec![(i, 1.0)], Cmp::Ge, rel);
        }
    }
    for (i, task) in inst.tasks.iter().enumerate() {
        lp.constrain(
            vec![(t + task.job, 1.0), (i, -1.0)],
            Cmp::Ge,
            inst.ps_min(i),
        );
    }
    for (j_idx, job) in inst.jobs.iter().enumerate() {
        for r in 1..job.rounds {
            for i in inst.round_tasks(j_idx, r - 1) {
                let dur = inst.ps_min(i);
                for j in inst.round_tasks(j_idx, r) {
                    lp.constrain(vec![(j, 1.0), (i, -1.0)], Cmp::Ge, dur);
                }
            }
        }
    }
    if with_cut {
        // Aggregated Queyranne volume cut over all tasks.
        let m = inst.n_machines as f64;
        let sum_pmin: f64 = (0..t).map(|i| inst.p_min(i)).sum();
        let sum_pmax_sq: f64 = (0..t).map(|i| inst.p_max(i) * inst.p_max(i)).sum();
        let rhs = sum_pmin * sum_pmin / (2.0 * m) - 0.5 * sum_pmax_sq;
        lp.constrain((0..t).map(|i| (i, inst.p_max(i))).collect(), Cmp::Ge, rhs);
    }
    lp
}

/// Task indices ordered by midpoint priority, ties broken by index — the
/// order Algorithm 1 actually consumes.
fn midpoint_order(h: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..h.len()).collect();
    order.sort_by(|&a, &b| h[a].total_cmp(&h[b]).then(a.cmp(&b)));
    order
}

fn assert_same_priority_order(inst: &Instance, label: &str) {
    let warm = relax::solve(inst, &RelaxOptions::default());
    let cold = relax::solve(
        inst,
        &RelaxOptions {
            warm_start: false,
            ..RelaxOptions::default()
        },
    );
    assert_eq!(warm.mode, cold.mode, "{label}: cut counts diverged");
    for (i, (a, b)) in warm.x_hat.iter().zip(&cold.x_hat).enumerate() {
        assert!(
            (a - b).abs() < 1e-6,
            "{label}: x̂[{i}] diverged: warm {a} vs cold {b}"
        );
    }
    assert_eq!(
        midpoint_order(&warm.h),
        midpoint_order(&cold.h),
        "{label}: midpoint priority order diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn revised_and_dense_agree_on_relaxation_lps(
        inst in instances(),
        with_cut in any::<bool>(),
    ) {
        let lp = relaxation_lp(&inst, with_cut);
        match (lp.solve(), lp.solve_dense()) {
            (
                LpOutcome::Optimal { objective: r, x: rx },
                LpOutcome::Optimal { objective: d, x: dx },
            ) => {
                prop_assert!(
                    (r - d).abs() < 1e-6,
                    "objectives diverged: revised {} vs dense {}", r, d
                );
                prop_assert_eq!(rx.len(), dx.len());
            }
            (a, b) => prop_assert!(false, "outcomes diverged: {:?} vs {:?}", a, b),
        }
    }
}

#[test]
fn warm_cut_rounds_preserve_midpoint_order_on_seed_instances() {
    assert_same_priority_order(&fig1_instance(), "fig1");

    // The contended single-machine seed instance that forces cuts
    // (mirrors `lp_mode_adds_cuts_on_contended_instances`).
    let mut b = InstanceBuilder::new(1);
    for _ in 0..8 {
        let j = b.job(1.0, 0.0);
        b.round(j, &[vec![1.0]]);
    }
    assert_same_priority_order(&b.build(), "contended_8");

    // Heterogeneous two-machine seed instance with rounds and releases
    // (mirrors `heavier_jobs_do_not_change_validity`).
    let mut b = InstanceBuilder::new(2);
    let j1 = b.job(5.0, 0.0);
    let j2 = b.job(1.0, 3.0);
    b.round(j1, &[vec![2.0, 3.0], vec![2.0, 3.0]]);
    b.round(j1, &[vec![2.0, 3.0]]);
    b.round(j2, &[vec![1.0, 4.0]]);
    assert_same_priority_order(&b.build(), "weighted_hetero");
}
