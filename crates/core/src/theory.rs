//! Theoretical machinery of Section 5.3.
//!
//! * α — the per-task heterogeneity factor of Lemma 3;
//! * the Theorem-4 approximation bound `α(2+α)`;
//! * empirical certificates: Lemma-2 prefix-load checks, Lemma-3 idle-time
//!   checks, the per-task Eq.-(22) check `x̃ᵢ + T̃ᵢ ≤ (2+α)Hᵢ`, and the
//!   end-to-end ratio against the relaxation's certified lower bound (or an
//!   exact optimum when one is available).
//!
//! The integration tests use these to certify that Algorithm 1 stays inside
//! the published bound on exhaustively-solved instances.

use crate::algorithm::HareOutput;
use crate::problem::SchedProblem;
use serde::{Deserialize, Serialize};

/// Theorem 4's approximation ratio for a heterogeneity factor α.
pub fn approx_ratio_bound(alpha: f64) -> f64 {
    assert!(alpha >= 1.0, "alpha is a max of ratios, so >= 1");
    alpha * (2.0 + alpha)
}

/// Empirical certificate of one Algorithm-1 run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TheoryReport {
    /// Heterogeneity factor α of the instance.
    pub alpha: f64,
    /// Theorem-4 bound α(2+α).
    pub ratio_bound: f64,
    /// Achieved objective Σ wₙCₙ (seconds).
    pub objective: f64,
    /// Certified lower bound on the optimum.
    pub lower_bound: f64,
    /// objective / lower_bound (≥ 1; ∞ if the bound is 0).
    pub ratio_vs_lower_bound: f64,
    /// Max over tasks of `(x̃ᵢ + T̃ᵢ) / Hᵢ` — Eq. (22) predicts ≤ 2+α.
    pub max_finish_over_h: f64,
    /// Fraction of (GPU, prefix) pairs satisfying Lemma 2's `load ≤ 2H`.
    pub lemma2_satisfaction: f64,
    /// Max over tasks of `idle-before-task / Hᵢ` — Lemma 3 predicts ≤ α.
    pub max_idle_over_h: f64,
}

/// Build the certificate for an Algorithm-1 output.
pub fn certify(p: &SchedProblem, out: &HareOutput) -> TheoryReport {
    let alpha = p.alpha();
    let objective = out.schedule.weighted_completion(p);
    let lower_bound = out.lower_bound;

    // Eq. (22): x̃ + T̃ (training only, as in the proof) vs H.
    let mut max_finish_over_h = 0.0f64;
    for i in 0..p.n_tasks() {
        let finish = (out.schedule.start[i] + p.train(i, out.schedule.gpu[i])).as_secs_f64();
        let h = out.h[i].max(1e-12);
        max_finish_over_h = max_finish_over_h.max(finish / h);
    }

    // Lemma 2: for each GPU m and each position j in π, the total training
    // load Algorithm 1 has placed on m among π's first j tasks is ≤ 2H_{π(j)}.
    let mut checks = 0u64;
    let mut satisfied = 0u64;
    {
        let mut load = vec![0.0f64; p.n_gpus];
        for &i in &out.pi {
            let m = out.schedule.gpu[i];
            load[m] += p.train(i, m).as_secs_f64();
            checks += 1;
            if load[m] <= 2.0 * out.h[i] + 1e-9 {
                satisfied += 1;
            }
        }
    }
    let lemma2_satisfaction = if checks == 0 {
        1.0
    } else {
        satisfied as f64 / checks as f64
    };

    // Lemma 3: idle time before each task on its GPU vs αH_i. The lemma
    // bounds the *total* idle before task j on its machine.
    let mut max_idle_over_h = 0.0f64;
    for seq in out.schedule.gpu_sequences(p) {
        let mut cum_idle = 0.0f64;
        let mut release = 0.0f64;
        for &i in &seq {
            let start = out.schedule.start[i].as_secs_f64();
            cum_idle += (start - release).max(0.0);
            release = out.schedule.gpu_release(p, i).as_secs_f64();
            let h = out.h[i].max(1e-12);
            max_idle_over_h = max_idle_over_h.max(cum_idle / h);
        }
    }

    TheoryReport {
        alpha,
        ratio_bound: approx_ratio_bound(alpha),
        objective,
        lower_bound,
        ratio_vs_lower_bound: if lower_bound > 0.0 {
            objective / lower_bound
        } else {
            f64::INFINITY
        },
        max_finish_over_h,
        lemma2_satisfaction,
        max_idle_over_h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::hare_schedule;

    #[test]
    fn bound_grows_with_alpha() {
        assert!((approx_ratio_bound(1.0) - 3.0).abs() < 1e-12);
        assert!((approx_ratio_bound(2.0) - 8.0).abs() < 1e-12);
        assert!(approx_ratio_bound(8.0) > approx_ratio_bound(3.0));
    }

    #[test]
    fn fig1_certificate() {
        let p = SchedProblem::fig1();
        let out = hare_schedule(&p);
        let report = certify(&p, &out);
        assert!((report.alpha - 3.0).abs() < 1e-12);
        assert!((report.ratio_bound - 15.0).abs() < 1e-12);
        assert!(report.ratio_vs_lower_bound >= 1.0 - 1e-9);
        assert!(
            report.ratio_vs_lower_bound <= report.ratio_bound + 1e-6,
            "ratio {} exceeds bound {}",
            report.ratio_vs_lower_bound,
            report.ratio_bound
        );
        // Empirical statistic: our heuristic relaxation does not formally
        // guarantee Lemma 2's premise, but most prefixes satisfy it.
        assert!(report.lemma2_satisfaction > 0.6);
        // Eq. (22): x̃ + T̃ <= (2+α)H must hold comfortably here.
        assert!(report.max_finish_over_h <= 2.0 + report.alpha + 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn sub_one_alpha_rejected() {
        approx_ratio_bound(0.5);
    }
}
