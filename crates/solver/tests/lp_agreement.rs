//! The sparse revised simplex against the dense two-phase tableau in
//! `support/dense.rs`, an independent oracle:
//!
//! * on randomized instances of the program the relaxation's LP mode
//!   solves ([`relax::base_program`]), with and without an aggregated
//!   Queyranne volume cut (1–2 structural nonzeros per row, plus the dense
//!   cut row), objectives within 1e-6;
//! * on classic hand-checked programs — phase I, equalities, negative
//!   right-hand sides, infeasible, unbounded and degenerate programs — on
//!   warm cut sequences, and on runs long enough to refactorize.

mod support;

use hare_solver::{relax, Cmp, LinearProgram, LpOutcome, RevisedSimplex};
use proptest::prelude::*;
use support::dense;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn revised_and_dense_agree_on_relaxation_lps(
        inst in support::instances(4, 5),
        with_cut in any::<bool>(),
    ) {
        let mut lp = relax::base_program(&inst);
        if with_cut {
            // Aggregated Queyranne volume cut over all tasks.
            let t = inst.n_tasks();
            let m = inst.n_machines as f64;
            let sum_pmin: f64 = (0..t).map(|i| inst.p_min(i)).sum();
            let sum_pmax_sq: f64 = (0..t).map(|i| inst.p_max(i) * inst.p_max(i)).sum();
            let rhs = sum_pmin * sum_pmin / (2.0 * m) - 0.5 * sum_pmax_sq;
            lp.constrain((0..t).map(|i| (i, inst.p_max(i))).collect(), Cmp::Ge, rhs);
        }
        match (lp.solve(), dense::solve(&lp)) {
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

fn assert_opt(outcome: &LpOutcome, want_obj: f64, want_x: Option<&[f64]>) {
    match outcome {
        LpOutcome::Optimal { x, objective } => {
            assert!(
                (objective - want_obj).abs() < 1e-6,
                "objective {objective} != {want_obj}"
            );
            if let Some(w) = want_x {
                for (a, b) in x.iter().zip(w) {
                    assert!((a - b).abs() < 1e-6, "x={x:?} want {w:?}");
                }
            }
        }
        other => panic!("expected optimal, got {other:?}"),
    }
}

/// Run every classic case through the revised simplex and the oracle.
fn solve_both(lp: &LinearProgram) -> (LpOutcome, LpOutcome) {
    (lp.solve(), dense::solve(lp))
}

#[test]
fn simple_maximization_as_min() {
    // max 3a + 5b st a<=4, 2b<=12, 3a+2b<=18  (classic; opt 36 at (2,6))
    let mut lp = LinearProgram::minimize(vec![-3.0, -5.0]);
    lp.constrain(vec![(0, 1.0)], Cmp::Le, 4.0);
    lp.constrain(vec![(1, 2.0)], Cmp::Le, 12.0);
    lp.constrain(vec![(0, 3.0), (1, 2.0)], Cmp::Le, 18.0);
    let (revised, oracle) = solve_both(&lp);
    assert_opt(&revised, -36.0, Some(&[2.0, 6.0]));
    assert_opt(&oracle, -36.0, Some(&[2.0, 6.0]));
}

#[test]
fn ge_constraints_need_phase1() {
    // min x+y st x+2y>=4, 3x+y>=6 -> opt at intersection (1.6, 1.2), obj 2.8
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
    lp.constrain(vec![(0, 1.0), (1, 2.0)], Cmp::Ge, 4.0);
    lp.constrain(vec![(0, 3.0), (1, 1.0)], Cmp::Ge, 6.0);
    let (revised, oracle) = solve_both(&lp);
    assert_opt(&revised, 2.8, Some(&[1.6, 1.2]));
    assert_opt(&oracle, 2.8, Some(&[1.6, 1.2]));
}

#[test]
fn equality_constraints() {
    // min 2x+3y st x+y=10, x<=4 -> x=4,y=6, obj 26
    let mut lp = LinearProgram::minimize(vec![2.0, 3.0]);
    lp.constrain(vec![(0, 1.0), (1, 1.0)], Cmp::Eq, 10.0);
    lp.constrain(vec![(0, 1.0)], Cmp::Le, 4.0);
    let (revised, oracle) = solve_both(&lp);
    assert_opt(&revised, 26.0, Some(&[4.0, 6.0]));
    assert_opt(&oracle, 26.0, Some(&[4.0, 6.0]));
}

#[test]
fn detects_infeasibility() {
    let mut lp = LinearProgram::minimize(vec![1.0]);
    lp.constrain(vec![(0, 1.0)], Cmp::Ge, 5.0);
    lp.constrain(vec![(0, 1.0)], Cmp::Le, 3.0);
    assert_eq!(lp.solve(), LpOutcome::Infeasible);
    assert_eq!(dense::solve(&lp), LpOutcome::Infeasible);
}

#[test]
fn detects_unboundedness() {
    // min -x with only x >= 1: unbounded below.
    let mut lp = LinearProgram::minimize(vec![-1.0]);
    lp.constrain(vec![(0, 1.0)], Cmp::Ge, 1.0);
    assert_eq!(lp.solve(), LpOutcome::Unbounded);
    assert_eq!(dense::solve(&lp), LpOutcome::Unbounded);
}

#[test]
fn negative_rhs_is_normalized() {
    // x - y <= -2 with min x+y: best is x=0, y=2.
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
    lp.constrain(vec![(0, 1.0), (1, -1.0)], Cmp::Le, -2.0);
    let (revised, oracle) = solve_both(&lp);
    assert_opt(&revised, 2.0, Some(&[0.0, 2.0]));
    assert_opt(&oracle, 2.0, Some(&[0.0, 2.0]));
}

#[test]
fn degenerate_program_terminates() {
    // Multiple redundant constraints through one vertex; Bland's rule
    // must not cycle.
    let mut lp = LinearProgram::minimize(vec![-1.0, -1.0]);
    lp.constrain(vec![(0, 1.0), (1, 1.0)], Cmp::Le, 1.0);
    lp.constrain(vec![(0, 1.0)], Cmp::Le, 1.0);
    lp.constrain(vec![(1, 1.0)], Cmp::Le, 1.0);
    lp.constrain(vec![(0, 2.0), (1, 2.0)], Cmp::Le, 2.0);
    assert_opt(&lp.solve(), -1.0, None);
    assert_opt(&dense::solve(&lp), -1.0, None);
}

#[test]
fn redundant_equalities_are_fine() {
    // x + y = 4 stated twice.
    let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
    lp.constrain(vec![(0, 1.0), (1, 1.0)], Cmp::Eq, 4.0);
    lp.constrain(vec![(0, 1.0), (1, 1.0)], Cmp::Eq, 4.0);
    assert_opt(&lp.solve(), 4.0, Some(&[4.0, 0.0]));
    assert_opt(&dense::solve(&lp), 4.0, Some(&[4.0, 0.0]));
}

#[test]
fn scheduling_shaped_lp() {
    // min w1*C1 + w2*C2 with C >= x + p, x >= release, and a "machine
    // volume" cut p1*x1 + p2*x2 >= v — the exact shape relax.rs emits.
    // w=(2,1), p=(3,5), releases (0,1), cut 3x1+5x2 >= 7.5.
    let mut lp = LinearProgram::minimize(vec![0.0, 0.0, 2.0, 1.0]); // x1 x2 c1 c2
    lp.constrain(vec![(0, 1.0)], Cmp::Ge, 0.0);
    lp.constrain(vec![(1, 1.0)], Cmp::Ge, 1.0);
    lp.constrain(vec![(2, 1.0), (0, -1.0)], Cmp::Ge, 3.0);
    lp.constrain(vec![(3, 1.0), (1, -1.0)], Cmp::Ge, 5.0);
    lp.constrain(vec![(0, 3.0), (1, 5.0)], Cmp::Ge, 7.5);
    for outcome in [lp.solve(), dense::solve(&lp)] {
        match outcome {
            LpOutcome::Optimal { x, objective } => {
                // Cheapest way to satisfy the cut is pushing x2 (weight 1):
                // x1=0, x2=1.5 -> obj = 2*3 + 1*(1.5+5) = 12.5.
                assert!((objective - 12.5).abs() < 1e-6, "obj={objective}");
                assert!((x[0]).abs() < 1e-6 && (x[1] - 1.5).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn capped_solve_aborts_and_dense_oracle_agrees() {
    let mut lp = LinearProgram::minimize(vec![0.0, 0.0, 2.0, 1.0]);
    lp.constrain(vec![(0, 1.0)], Cmp::Ge, 0.0);
    lp.constrain(vec![(1, 1.0)], Cmp::Ge, 1.0);
    lp.constrain(vec![(2, 1.0), (0, -1.0)], Cmp::Ge, 3.0);
    lp.constrain(vec![(3, 1.0), (1, -1.0)], Cmp::Ge, 5.0);
    lp.constrain(vec![(0, 3.0), (1, 5.0)], Cmp::Ge, 7.5);

    // Zero cap: the solve cannot pivot at all.
    let mut s = RevisedSimplex::new(&lp);
    assert_eq!(s.solve_under(0), None);
    // The oracle solves the same program.
    assert_opt(&dense::solve(&lp), 12.5, None);
    // A generous cap behaves exactly like the uncapped solve.
    let mut s = RevisedSimplex::new(&lp);
    let capped = s.solve_under(1_000_000).expect("cap is plenty");
    assert_opt(&capped, 12.5, None);
    let mut u = RevisedSimplex::new(&lp);
    assert_eq!(u.solve(), capped);
}

#[test]
fn many_warm_cuts_stay_consistent() {
    // Covering LP over 6 vars; add tightening cuts one at a time and
    // verify against cold dense solves at every step.
    let n = 6;
    let mut lp = LinearProgram::minimize(vec![1.0; n]);
    for i in 0..n {
        lp.constrain(vec![(i, 1.0), ((i + 1) % n, 2.0)], Cmp::Ge, 3.0);
    }
    let mut warm = RevisedSimplex::new(&lp);
    warm.solve();
    for round in 0..8 {
        let i = round % n;
        let j = (round + 2) % n;
        let rhs = 2.5 + round as f64 * 0.5;
        let terms = vec![(i, 1.0), (j, 1.5)];
        warm.add_constraint(terms.clone(), Cmp::Ge, rhs);
        let warm_out = warm.solve();
        lp.constrain(terms, Cmp::Ge, rhs);
        let cold_out = dense::solve(&lp);
        match (warm_out, cold_out) {
            (LpOutcome::Optimal { objective: a, .. }, LpOutcome::Optimal { objective: b, .. }) => {
                assert!((a - b).abs() < 1e-6, "round {round}: warm {a} vs cold {b}")
            }
            (a, b) => panic!("round {round}: {a:?} vs {b:?}"),
        }
    }
}

/// The banded covering program over `n` variables:
/// `x_i + 2x_{i+1} + 0.5x_{i+7} ≥ 3 + i mod 5` (indices mod n).
fn banded_cover(n: usize) -> LinearProgram {
    let mut lp = LinearProgram::minimize(vec![1.0; n]);
    for i in 0..n {
        let j = (i + 1) % n;
        let k = (i + 7) % n;
        lp.constrain(
            vec![(i, 1.0), (j, 2.0), (k, 0.5)],
            Cmp::Ge,
            3.0 + (i % 5) as f64,
        );
    }
    lp
}

#[test]
fn refactorization_keeps_long_runs_accurate() {
    // Banded covering programs. The 30-row one finishes in 60 pivots,
    // inside the refactorization interval (`max(REFACTOR_FLOOR, m)` in
    // lp.rs, 64 here); the 64-row one crosses it twice, so the rebuilt
    // basis inverse must stay as accurate as the product form.
    for (n, refactors) in [(30, 0), (64, 2)] {
        let lp = banded_cover(n);
        let mut s = RevisedSimplex::new(&lp);
        let LpOutcome::Optimal { objective, .. } = s.solve() else {
            panic!()
        };
        assert_eq!(s.refactorizations(), refactors, "n={n}");
        let LpOutcome::Optimal {
            objective: dense_obj,
            ..
        } = dense::solve(&lp)
        else {
            panic!()
        };
        assert!(
            (objective - dense_obj).abs() < 1e-6,
            "n={n}: revised {objective} vs dense {dense_obj} (pivots {}, refactors {})",
            s.pivots(),
            s.refactorizations()
        );
    }
}

#[test]
fn ill_conditioned_band_is_an_outcome_not_a_panic() {
    // At 90 rows the band's Phase I finds no leaving row although its
    // objective is bounded below by 0: the accuracy is gone. Both entry
    // points say so; the relaxation's cut loop hands such a solve to its
    // combinatorial sweep, as it does when the per-solve cap trips. The
    // dense tableau still solves the program.
    let lp = banded_cover(90);
    assert_opt(&dense::solve(&lp), 131.048_780_48, None);
    assert_eq!(RevisedSimplex::new(&lp).solve(), LpOutcome::IllConditioned);
    assert_eq!(
        RevisedSimplex::new(&lp).solve_under(u64::MAX),
        Some(LpOutcome::IllConditioned)
    );
}
