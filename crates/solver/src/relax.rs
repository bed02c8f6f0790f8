//! The `Hare_Sched_RL` relaxation (Section 5.2, Step 1).
//!
//! The paper relaxes the non-preemption constraint (8) into Queyranne's
//! mean-busy-time inequality (9) and solves the resulting mixed-integer
//! quadratic program with CPLEX/Gurobi. Algorithm 1 consumes only the
//! relaxed start times `x̂ᵢ` through the midpoints
//! `Hᵢ = maxₘ (x̂ᵢ + ½T^c_{i,m})`, so any relaxation solution respecting
//! constraints (4)–(7) and the aggregated form of (9) yields a valid
//! priority order.
//!
//! This module provides two interchangeable modes:
//!
//! * **LP mode** (small instances): a real linear program,
//!   [`base_program`], solved with the in-repo revised simplex, with
//!   aggregated Queyranne *cuts* added by iterative separation
//!   (sorted-prefix heuristic) and re-optimized warm from the previous
//!   basis. Each cut
//!   `Σ_{i∈S} p_i^max x_i ≥ (Σ_{i∈S} p_i^min)²/(2M) − ½ Σ_{i∈S} (p_i^max)²`
//!   is valid for every feasible schedule (derivation in DESIGN.md), so the
//!   LP optimum is a certified lower bound on `Hare_Sched`.
//! * **Combinatorial mode** (large instances): a fixed-point sweep that
//!   alternates precedence propagation with an aggregated volume push
//!   mirroring Lemma 2 — O(passes · n log n) for n tasks, independent of
//!   the machine count because every task reads its row's cached
//!   reductions; used for the 10⁴-task simulator experiments where a dense
//!   simplex would not scale.
//!
//! [`certified_lower_bound`] is a certified lower bound on the optimal
//! Σ wₙCₙ combining a per-job critical-path bound with the preemptive
//! fast-single-machine (WSPT) bound. Algorithm 1 does not read it, so no
//! solve computes it: `hare-core` computes it once per plan, and its tests
//! check Algorithm 1 against it and against exact branch-and-bound optima.

use crate::budget::{CancelToken, SolveBudget};
use crate::instance::Instance;
use crate::lp::{Cmp, LinearProgram, LpOutcome, RevisedSimplex};
use crate::trace::SolveTrace;
use serde::{Deserialize, Serialize};

/// Options controlling the relaxation solver.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RelaxOptions {
    /// Use the LP + cut-generation mode when the instance has at most this
    /// many tasks; larger instances use the combinatorial sweep.
    pub lp_task_limit: usize,
    /// Maximum cut-generation iterations in LP mode.
    pub max_cut_rounds: usize,
    /// Sweep passes in combinatorial mode.
    pub passes: usize,
}

impl Default for RelaxOptions {
    fn default() -> Self {
        RelaxOptions {
            lp_task_limit: 120,
            max_cut_rounds: 12,
            passes: 4,
        }
    }
}

/// Work counters from one relaxation solve's cut loop (zeros when the
/// instance went straight to the combinatorial sweep).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Queyranne cuts added to the program.
    pub cuts: usize,
    /// Revised-simplex pivots across the initial solve and every cut
    /// re-solve, including a round that hit the per-solve cap before the
    /// sweep took over.
    pub revised_pivots: u64,
    /// LP solves that reached optimality: 1 + cuts, unless a round hit the
    /// per-solve cap.
    pub lp_solves: usize,
}

/// Which mode produced a solution.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RelaxMode {
    /// Simplex + Queyranne cuts.
    Lp {
        /// Cuts added before convergence.
        cuts: usize,
    },
    /// Fixed-point sweep.
    Combinatorial,
}

/// Solution of the relaxed problem.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RelaxSolution {
    /// Relaxed start time `x̂ᵢ` per task.
    pub x_hat: Vec<f64>,
    /// Midpoint priority `Hᵢ = maxₘ (x̂ᵢ + ½T^c_{i,m})` per task.
    pub h: Vec<f64>,
    /// Mode used.
    pub mode: RelaxMode,
    /// Work counters (pivots/cuts) from the solve.
    pub stats: SolveStats,
}

/// Solve the relaxation.
pub fn solve(inst: &Instance, opts: &RelaxOptions) -> RelaxSolution {
    solve_traced(inst, opts, None)
}

/// [`solve`] with per-phase work spans recorded into `trace`: one span
/// per LP cut round (work = pivots spent, detail = cut index), or one
/// flat-cost span for the combinatorial sweep.
pub fn solve_traced(
    inst: &Instance,
    opts: &RelaxOptions,
    trace: Option<&SolveTrace>,
) -> RelaxSolution {
    solve_budgeted(
        inst,
        opts,
        &SolveBudget::UNLIMITED,
        &CancelToken::new(),
        trace,
    )
    .expect("an unlimited, uncancelled solve cannot abort")
}

/// Solve the relaxation under a [`SolveBudget`] and [`CancelToken`],
/// recording per-phase work spans into `trace` (see [`solve_traced`]).
///
/// `None` means the budget ran out (or cancellation / the deadline fired)
/// before a solution existed; the spans of the rounds that did complete
/// stay in `trace`, which shows where the budget ran out.
///
/// Budget accounting is in simplex-pivot units, and the budget decides
/// the one branch of the LP cut loop that differs:
///
/// * **unlimited** (what [`solve`] runs): each LP solve gets a per-solve
///   safety cap far above anything a healthy round needs. A solve that
///   hits it (cycling, or a pathological cut sequence) hands the instance
///   to the combinatorial sweep, the path every instance above
///   `lp_task_limit` takes: the result is [`RelaxMode::Combinatorial`],
///   whose start times still give Algorithm 1 a valid midpoint order. The
///   aborted round's pivots stay in [`SolveStats`] and in its
///   `"lp_round"` span, followed by one `"combinatorial"` span;
/// * **finite**: `budget.pivot_cap` is a *total* allowance across the
///   initial solve and every cut re-solve, and running out returns `None`:
///   a budgeted caller wants bounded latency, and the degradation ladder
///   in `hare-core` supplies the next-best plan instead.
///
/// Combinatorial mode charges the flat, deterministic
/// [`combinatorial_work`] cost against `budget.pivot_cap` up front.
pub fn solve_budgeted(
    inst: &Instance,
    opts: &RelaxOptions,
    budget: &SolveBudget,
    cancel: &CancelToken,
    trace: Option<&SolveTrace>,
) -> Option<RelaxSolution> {
    if cancel.is_cancelled() || budget.deadline_passed() {
        return None;
    }
    inst.validate().expect("invalid instance");
    let (x_hat, mode, stats) = if inst.n_tasks() <= opts.lp_task_limit {
        lp_mode(inst, opts, budget, cancel, trace, SOLVE_PIVOT_CAP)?
    } else if combinatorial_work(inst, opts) > budget.pivot_cap {
        return None;
    } else {
        (
            combinatorial_mode(inst, opts, trace),
            RelaxMode::Combinatorial,
            SolveStats::default(),
        )
    };
    let h = midpoints(inst, &x_hat);
    Some(RelaxSolution {
        x_hat,
        h,
        mode,
        stats,
    })
}

/// Deterministic work charge for one combinatorial-mode sweep, in the same
/// units as simplex pivots: each of the `passes` sweeps plus the final
/// precedence pass touches every task once.
pub fn combinatorial_work(inst: &Instance, opts: &RelaxOptions) -> u64 {
    inst.n_tasks() as u64 * (opts.passes as u64 + 1)
}

/// Single-pass, NaN-defensive min/max: one traversal, NaN entries ignored.
/// Returns `None` when `values` is empty or all-NaN.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    values.iter().fold(None, |acc, &v| {
        if v.is_nan() {
            return acc;
        }
        Some(match acc {
            None => (v, v),
            Some((lo, hi)) => (lo.min(v), hi.max(v)),
        })
    })
}

/// `Hᵢ = maxₘ (x̂ᵢ + ½ T^c_{i,m}) = x̂ᵢ + ½ pᵢ^max`.
pub fn midpoints(inst: &Instance, x_hat: &[f64]) -> Vec<f64> {
    x_hat
        .iter()
        .enumerate()
        .map(|(i, &x)| x + 0.5 * inst.p_max(i))
        .collect()
}

// ---------------------------------------------------------------------
// LP mode
// ---------------------------------------------------------------------

/// The relaxation program LP mode starts from, before any cut: minimize
/// Σ wₙCₙ over task starts `x_0..x_{T-1}` (variables `0..T`) then job
/// completions `C_0..C_{N-1}` (variables `T..T+N`), subject to release
/// times (4), job completion after each of its tasks (6) and round
/// precedence (7), every duration taken at its machine minimum so the
/// program relaxes every assignment.
pub fn base_program(inst: &Instance) -> LinearProgram {
    let t = inst.n_tasks();
    let n = inst.jobs.len();
    let mut objective = vec![0.0; t + n];
    for (j, job) in inst.jobs.iter().enumerate() {
        objective[t + j] = job.weight;
    }

    let mut lp = LinearProgram::minimize(objective);
    // (4) release times.
    for (i, task) in inst.tasks.iter().enumerate() {
        let rel = inst.jobs[task.job].release;
        if rel > 0.0 {
            lp.constrain(vec![(i, 1.0)], Cmp::Ge, rel);
        }
    }
    // (6) job completion: C_n - x_i >= min_m (p+s); using the machine
    // minimum keeps the program a relaxation of every assignment.
    for (i, task) in inst.tasks.iter().enumerate() {
        lp.constrain(
            vec![(t + task.job, 1.0), (i, -1.0)],
            Cmp::Ge,
            inst.ps_min(i),
        );
    }
    // (7) round precedence: x_j - x_i >= min_m (p_i + s_i).
    for (j_idx, job) in inst.jobs.iter().enumerate() {
        for r in 1..job.rounds {
            let prev = inst.round_tasks(j_idx, r - 1);
            let cur = inst.round_tasks(j_idx, r);
            for &i in &prev {
                let dur = inst.ps_min(i);
                for &j in &cur {
                    lp.constrain(vec![(j, 1.0), (i, -1.0)], Cmp::Ge, dur);
                }
            }
        }
    }
    lp
}

/// Most violated aggregated Queyranne cut at `x_hat`, found by the
/// sorted-prefix separation heuristic: sort tasks by x̂ and test prefixes
/// of that order. Returns the cut as `(terms, rhs)` for `terms · x ≥ rhs`,
/// or `None` when every prefix is satisfied within tolerance.
fn separate_cut(inst: &Instance, x_hat: &[f64]) -> Option<(Vec<(usize, f64)>, f64)> {
    let t = inst.n_tasks();
    let m = inst.n_machines as f64;
    let mut order: Vec<usize> = (0..t).collect();
    order.sort_by(|&a, &b| x_hat[a].total_cmp(&x_hat[b]));
    let mut sum_pmin = 0.0;
    let mut sum_pmax_sq = 0.0;
    let mut lhs = 0.0;
    let mut best: Option<(usize, f64, f64)> = None; // (prefix length, violation, rhs)
    for (k, &i) in order.iter().enumerate() {
        sum_pmin += inst.p_min(i);
        sum_pmax_sq += inst.p_max(i) * inst.p_max(i);
        lhs += inst.p_max(i) * x_hat[i];
        let rhs = sum_pmin * sum_pmin / (2.0 * m) - 0.5 * sum_pmax_sq;
        let violation = rhs - lhs;
        if violation > 1e-6 && best.is_none_or(|(_, v, _)| violation > v) {
            best = Some((k + 1, violation, rhs));
        }
    }
    let (len, _, rhs) = best?;
    let terms: Vec<(usize, f64)> = order[..len].iter().map(|&i| (i, inst.p_max(i))).collect();
    Some((terms, rhs))
}

/// Per-solve pivot cap of the cut loop under an unlimited budget: far
/// above anything a healthy cut round needs, so it only trips on cycling
/// or a pathological cut sequence — in which case the combinatorial sweep
/// supplies the start times.
const SOLVE_PIVOT_CAP: u64 = 20_000;

/// The Queyranne cut loop under `budget` (see [`solve_budgeted`]): solve
/// the base program, then add the most violated cut and re-solve until
/// separation finds none or `opts.max_cut_rounds` cuts were added. Under
/// an unlimited budget each solve may spend `solve_cap` pivots, and a
/// solve that hits it hands over to the combinatorial sweep.
fn lp_mode(
    inst: &Instance,
    opts: &RelaxOptions,
    budget: &SolveBudget,
    cancel: &CancelToken,
    trace: Option<&SolveTrace>,
    solve_cap: u64,
) -> Option<(Vec<f64>, RelaxMode, SolveStats)> {
    let t = inst.n_tasks();
    let unlimited = budget.is_unlimited();
    // One incremental simplex for the whole cut loop: each added cut
    // re-optimizes from the previous basis, so the expensive Phase I runs
    // once, on the base program, and never again.
    let mut simplex = RevisedSimplex::new(&base_program(inst));
    let mut stats = SolveStats::default();
    let x_hat = loop {
        let before = simplex.pivots();
        // Both caps are absolute positions of the simplex's pivot counter.
        let cap = if unlimited {
            before.saturating_add(solve_cap)
        } else {
            budget.pivot_cap
        };
        let outcome = simplex.solve_under(cap, budget, cancel);
        // A finite budget, the deadline or cancellation aborts the solve;
        // only the per-solve cap of an unlimited one falls through to the
        // sweep below.
        if outcome.is_none() && (!unlimited || cancel.is_cancelled()) {
            return None;
        }
        // One span per LP solve: work = pivots spent, detail = cuts so far.
        let work = simplex.pivots() - before;
        stats.revised_pivots += work;
        if let Some(tr) = trace {
            tr.record("lp_round", work, stats.cuts as u64);
        }
        let x_hat = match outcome {
            Some(LpOutcome::Optimal { x, .. }) => x[..t].to_vec(),
            // The per-solve cap tripped: Algorithm 1 needs only a midpoint
            // order, which the sweep supplies as it does for every instance
            // above `lp_task_limit`.
            None => {
                return Some((
                    combinatorial_mode(inst, opts, trace),
                    RelaxMode::Combinatorial,
                    stats,
                ))
            }
            Some(other) => panic!("relaxation LP must be solvable, got {other:?}"),
        };
        stats.lp_solves += 1;
        if stats.cuts == opts.max_cut_rounds {
            break x_hat;
        }
        if cancel.is_cancelled() || budget.deadline_passed() {
            return None;
        }
        let Some((terms, rhs)) = separate_cut(inst, &x_hat) else {
            break x_hat;
        };
        stats.cuts += 1;
        simplex.add_constraint(terms, Cmp::Ge, rhs);
    };
    Some((x_hat, RelaxMode::Lp { cuts: stats.cuts }, stats))
}

// ---------------------------------------------------------------------
// Combinatorial mode
// ---------------------------------------------------------------------

/// The combinatorial sweep's start times; its flat [`combinatorial_work`]
/// is recorded as one `"combinatorial"` span.
fn combinatorial_mode(
    inst: &Instance,
    opts: &RelaxOptions,
    trace: Option<&SolveTrace>,
) -> Vec<f64> {
    if let Some(tr) = trace {
        tr.record("combinatorial", combinatorial_work(inst, opts), 0);
    }
    let t = inst.n_tasks();
    let mut x = vec![0.0f64; t];
    for (i, task) in inst.tasks.iter().enumerate() {
        x[i] = inst.jobs[task.job].release;
    }

    // Pre-index rounds for fast precedence propagation.
    let mut rounds: Vec<Vec<Vec<usize>>> = inst
        .jobs
        .iter()
        .map(|j| vec![Vec::new(); j.rounds as usize])
        .collect();
    for (i, task) in inst.tasks.iter().enumerate() {
        rounds[task.job][task.round as usize].push(i);
    }

    let m = inst.n_machines as f64;
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(t);
    for _ in 0..opts.passes {
        push_precedence(inst, &rounds, &mut x);

        // Aggregated volume push mirroring Lemma 2: the j-th smallest
        // midpoint satisfies H_(j) >= (Σ_{k<=j} p̂_k) / (2M), so lift
        // x_i up to that level where the current solution undercuts it.
        // The sweep order carries a Smith-ratio (p/w) tilt: the weighted
        // LP optimum schedules high-weight-density jobs earlier on the
        // aggregated machine, and the tilt reproduces that ordering
        // without solving the LP. Each key is computed once per pass;
        // ties go to the lower task index.
        order.clear();
        order.extend(inst.tasks.iter().enumerate().map(|(i, task)| {
            let p_min = inst.p_min(i);
            (x[i] + 0.5 * p_min + p_min / inst.jobs[task.job].weight, i)
        }));
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut volume = 0.0;
        for &(_, i) in &order {
            volume += inst.p_min(i);
            let lift = volume / (2.0 * m) - 0.5 * inst.p_max(i);
            if x[i] < lift {
                x[i] = lift;
            }
        }
    }

    // Final precedence pass so the output always satisfies (4)+(7).
    push_precedence(inst, &rounds, &mut x);
    x
}

/// (4)+(7): forward precedence propagation with machine-minimum durations
/// (a relaxation of any concrete assignment). Each task of a round starts
/// no earlier than its job's release and every earlier round's finish;
/// `rounds` lists each job's task ids round by round.
fn push_precedence(inst: &Instance, rounds: &[Vec<Vec<usize>>], x: &mut [f64]) {
    for (job, job_rounds) in inst.jobs.iter().zip(rounds) {
        let mut frontier = job.release;
        for round in job_rounds {
            for &i in round {
                if x[i] < frontier {
                    x[i] = frontier;
                }
            }
            frontier = round
                .iter()
                .map(|&i| x[i] + inst.ps_min(i))
                .fold(frontier, f64::max);
        }
    }
}

// ---------------------------------------------------------------------
// Certified lower bound
// ---------------------------------------------------------------------

/// A lower bound on the optimal Σ wₙCₙ that holds for *every* feasible
/// schedule: the max of
///
/// 1. the **critical-path bound** — job `n` cannot complete before its
///    release plus, per round, the largest machine-minimum task duration;
/// 2. the **fast-single-machine bound** — any M-machine schedule maps to a
///    preemptive schedule on one machine of speed M (processor sharing)
///    with identical completion times, and WSPT is optimal for
///    1|pmtn|ΣwC, so the WSPT value with job lengths Σᵢ pᵢ^min / M bounds
///    the optimum from below (releases relaxed to the common minimum).
///
/// One pass over the tasks, in index order, gathers both bounds' inputs.
pub fn certified_lower_bound(inst: &Instance) -> f64 {
    // Largest machine-minimum duration per (job, round), and fastest-
    // machine work per job.
    let mut round_max: Vec<Vec<f64>> = inst
        .jobs
        .iter()
        .map(|job| vec![0.0; job.rounds as usize])
        .collect();
    let mut work = vec![0.0; inst.jobs.len()];
    for (i, task) in inst.tasks.iter().enumerate() {
        let slot = &mut round_max[task.job][task.round as usize];
        *slot = slot.max(inst.ps_min(i));
        work[task.job] += inst.p_min(i);
    }

    // (1) critical path.
    let mut path_bound = 0.0;
    for (job, rounds) in inst.jobs.iter().zip(&round_max) {
        let c = rounds.iter().fold(job.release, |c, &round| c + round);
        path_bound += job.weight * c;
    }

    // (2) fast single machine + WSPT.
    let m = inst.n_machines as f64;
    let min_release = inst.jobs.iter().map(|j| j.release).fold(f64::MAX, f64::min);
    let mut lens: Vec<(f64, f64)> = inst
        .jobs
        .iter()
        .zip(&work)
        .map(|(job, &w)| (w / m, job.weight))
        .collect();
    // WSPT: descending weight/length.
    lens.sort_by(|a, b| (b.1 / b.0.max(1e-12)).total_cmp(&(a.1 / a.0.max(1e-12))));
    let mut clock = min_release.max(0.0);
    let mut wspt = 0.0;
    for (len, w) in lens {
        clock += len;
        wspt += w * clock;
    }

    path_bound.max(wspt)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::instance::{fig1_instance, InstanceBuilder};

    #[test]
    fn both_modes_satisfy_release_and_precedence() {
        let inst = fig1_instance();
        for opts in [
            RelaxOptions::default(), // LP mode (small instance)
            RelaxOptions {
                lp_task_limit: 0, // force combinatorial
                ..RelaxOptions::default()
            },
        ] {
            let sol = solve(&inst, &opts);
            for (i, task) in inst.tasks.iter().enumerate() {
                assert!(
                    sol.x_hat[i] >= inst.jobs[task.job].release - 1e-9,
                    "release violated"
                );
            }
            for (j_idx, job) in inst.jobs.iter().enumerate() {
                for r in 1..job.rounds {
                    let prev_done = inst
                        .round_tasks(j_idx, r - 1)
                        .into_iter()
                        .map(|i| sol.x_hat[i] + inst.ps_min(i))
                        .fold(0.0, f64::max);
                    for j in inst.round_tasks(j_idx, r) {
                        assert!(
                            sol.x_hat[j] >= prev_done - 1e-6,
                            "precedence violated in {:?}",
                            sol.mode
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lp_mode_adds_cuts_on_contended_instances() {
        // Many unit tasks on one machine: without cuts every x̂ = 0; the
        // volume cuts must push starts apart.
        let mut b = InstanceBuilder::new(1);
        for _ in 0..8 {
            let j = b.job(1.0, 0.0);
            b.round(j, &[vec![1.0]]);
        }
        let inst = b.build();
        let sol = solve(&inst, &RelaxOptions::default());
        match sol.mode {
            RelaxMode::Lp { cuts } => assert!(cuts >= 1, "expected cuts"),
            m => panic!("expected LP mode, got {m:?}"),
        }
        // Midpoints must spread: not all equal.
        let (lo, hi) = min_max(&sol.h).expect("non-empty midpoints");
        let spread = hi - lo;
        assert!(spread > 0.5, "midpoints should spread, got {spread}");
    }

    #[test]
    fn lower_bound_below_any_feasible_schedule_value() {
        // Hand-verifiable: 2 unit-weight jobs, single machine, 1 task each
        // of length 2 and 4. OPT = 2 + 6 = 8 (short first).
        let mut b = InstanceBuilder::new(1);
        let a = b.job(1.0, 0.0);
        let c = b.job(1.0, 0.0);
        b.round(a, &[vec![2.0]]);
        b.round(c, &[vec![4.0]]);
        let inst = b.build();
        let lb = certified_lower_bound(&inst);
        assert!(lb <= 8.0 + 1e-9, "lb {lb} exceeds OPT 8");
        // And it is not trivially zero: the WSPT part gives exactly 8 here.
        assert!((lb - 8.0).abs() < 1e-9, "lb {lb}");
    }

    #[test]
    fn lower_bound_accounts_for_rounds() {
        // One job, 3 rounds of a 1-task round, each 2s on the only machine:
        // C >= 6.
        let mut b = InstanceBuilder::new(1);
        let j = b.job(2.0, 1.0);
        for _ in 0..3 {
            b.round(j, &[vec![2.0]]);
        }
        let inst = b.build();
        let lb = certified_lower_bound(&inst);
        // Path bound: 2 * (1 + 6) = 14.
        assert!((lb - 14.0).abs() < 1e-9, "lb {lb}");
    }

    #[test]
    fn combinatorial_mode_spreads_contended_tasks() {
        let mut b = InstanceBuilder::new(2);
        for _ in 0..40 {
            let j = b.job(1.0, 0.0);
            b.round(j, &[vec![1.0, 1.0]]);
        }
        let inst = b.build();
        let sol = solve(
            &inst,
            &RelaxOptions {
                lp_task_limit: 0,
                ..RelaxOptions::default()
            },
        );
        assert_eq!(sol.mode, RelaxMode::Combinatorial);
        let (_, max_h) = min_max(&sol.h).expect("non-empty midpoints");
        // 40 unit tasks on 2 machines: someone's midpoint must be ≥ ~10
        // (aggregate volume 40 / (2*2)).
        assert!(max_h >= 40.0 / 4.0 - 1e-9, "max midpoint {max_h}");
    }

    #[test]
    fn min_max_is_nan_defensive() {
        assert_eq!(min_max(&[]), None);
        assert_eq!(min_max(&[f64::NAN, f64::NAN]), None);
        assert_eq!(min_max(&[3.0]), Some((3.0, 3.0)));
        assert_eq!(min_max(&[2.0, f64::NAN, -1.0, 5.0]), Some((-1.0, 5.0)));
        assert_eq!(
            min_max(&[f64::NEG_INFINITY, 0.0, f64::INFINITY]),
            Some((f64::NEG_INFINITY, f64::INFINITY))
        );
    }

    /// The cut loop with a cold re-solve per round: a fresh simplex over
    /// the base program plus the cuts so far. The warm loop in [`lp_mode`]
    /// must reproduce it with fewer pivots. Returns x̂, the cut count and
    /// the pivots summed over every round's simplex.
    fn cold_cut_loop(inst: &Instance, opts: &RelaxOptions) -> (Vec<f64>, usize, u64) {
        let mut lp = base_program(inst);
        let (mut cuts, mut pivots) = (0, 0);
        loop {
            let mut simplex = RevisedSimplex::new(&lp);
            let LpOutcome::Optimal { x, .. } = simplex.solve() else {
                panic!("relaxation LP must be solvable");
            };
            pivots += simplex.pivots();
            let x_hat = x[..inst.n_tasks()].to_vec();
            if cuts == opts.max_cut_rounds {
                return (x_hat, cuts, pivots);
            }
            let Some((terms, rhs)) = separate_cut(inst, &x_hat) else {
                return (x_hat, cuts, pivots);
            };
            lp.constrain(terms, Cmp::Ge, rhs);
            cuts += 1;
        }
    }

    /// Task indices ordered by midpoint priority, ties broken by index —
    /// the order Algorithm 1 actually consumes.
    fn midpoint_order(h: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..h.len()).collect();
        order.sort_by(|&a, &b| h[a].total_cmp(&h[b]).then(a.cmp(&b)));
        order
    }

    /// The warm loop against [`cold_cut_loop`]: the same cut count, x̂
    /// within 1e-6 and the same midpoint order. Returns the warm solution
    /// and the cold loop's pivots.
    fn assert_warm_matches_cold(inst: &Instance, label: &str) -> (RelaxSolution, u64) {
        let opts = RelaxOptions::default();
        let warm = solve(inst, &opts);
        let (cold_x, cold_cuts, cold_pivots) = cold_cut_loop(inst, &opts);
        assert_eq!(
            warm.mode,
            RelaxMode::Lp { cuts: cold_cuts },
            "{label}: cut counts diverged"
        );
        for (i, (a, b)) in warm.x_hat.iter().zip(&cold_x).enumerate() {
            assert!(
                (a - b).abs() < 1e-6,
                "{label}: x̂[{i}] diverged: warm {a} vs cold {b}"
            );
        }
        assert_eq!(
            midpoint_order(&warm.h),
            midpoint_order(&midpoints(inst, &cold_x)),
            "{label}: midpoint priority order diverged"
        );
        (warm, cold_pivots)
    }

    #[test]
    fn warm_and_cold_cut_loops_agree_and_warm_pivots_less() {
        let mut b = InstanceBuilder::new(2);
        for k in 0..10 {
            let j = b.job(1.0 + (k % 3) as f64, 0.2 * k as f64);
            b.round(j, &[vec![1.0 + 0.3 * (k % 4) as f64, 2.0]]);
        }
        let inst = b.build();
        let (warm, cold) = assert_warm_matches_cold(&inst, "staggered_10");
        if warm.stats.cuts > 0 {
            let warm = warm.stats.revised_pivots;
            assert!(warm < cold, "warm {warm} pivots vs cold {cold}");
        }
    }

    #[test]
    fn warm_cut_rounds_preserve_midpoint_order_on_seed_instances() {
        assert_warm_matches_cold(&fig1_instance(), "fig1");

        // The contended single-machine seed instance that forces cuts
        // (mirrors `lp_mode_adds_cuts_on_contended_instances`).
        let mut b = InstanceBuilder::new(1);
        for _ in 0..8 {
            let j = b.job(1.0, 0.0);
            b.round(j, &[vec![1.0]]);
        }
        assert_warm_matches_cold(&b.build(), "contended_8");

        // Heterogeneous two-machine seed instance with rounds and releases
        // (mirrors `heavier_jobs_do_not_change_validity`).
        let mut b = InstanceBuilder::new(2);
        let j1 = b.job(5.0, 0.0);
        let j2 = b.job(1.0, 3.0);
        b.round(j1, &[vec![2.0, 3.0], vec![2.0, 3.0]]);
        b.round(j1, &[vec![2.0, 3.0]]);
        b.round(j2, &[vec![1.0, 4.0]]);
        assert_warm_matches_cold(&b.build(), "weighted_hetero");
    }

    #[test]
    fn unlimited_budget_reproduces_plain_solve_bit_for_bit() {
        let inst = fig1_instance();
        for opts in [
            RelaxOptions::default(),
            RelaxOptions {
                lp_task_limit: 0,
                ..RelaxOptions::default()
            },
        ] {
            let plain = solve(&inst, &opts);
            let budgeted = solve_budgeted(
                &inst,
                &opts,
                &SolveBudget::UNLIMITED,
                &CancelToken::new(),
                None,
            )
            .expect("unlimited budget cannot abort");
            assert_eq!(plain, budgeted);
        }
    }

    #[test]
    fn exhausted_budget_aborts_without_fallback() {
        let inst = fig1_instance();
        let opts = RelaxOptions::default();
        // One pivot is never enough for the relaxation LP.
        assert_eq!(
            solve_budgeted(
                &inst,
                &opts,
                &SolveBudget::capped(1, 0),
                &CancelToken::new(),
                None
            ),
            None
        );
        // A cancelled token aborts before any work.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(
            solve_budgeted(
                &inst,
                &opts,
                &SolveBudget::capped(u64::MAX - 1, 0),
                &cancelled,
                None
            ),
            None
        );
    }

    #[test]
    fn generous_finite_budget_matches_unbudgeted_lp_mode() {
        let inst = fig1_instance();
        let opts = RelaxOptions::default();
        let plain = solve(&inst, &opts);
        assert!(
            matches!(plain.mode, RelaxMode::Lp { .. }),
            "healthy instance"
        );
        let budgeted = solve_budgeted(
            &inst,
            &opts,
            &SolveBudget::capped(1_000_000, 0),
            &CancelToken::new(),
            None,
        )
        .expect("budget is plenty");
        // Same pivoting sequence — only the cap differs — so the solution
        // and work counters agree exactly.
        assert_eq!(plain, budgeted);
    }

    #[test]
    fn unlimited_and_generous_budgets_record_identical_spans() {
        // Contended unit tasks, so the cut loop runs several rounds.
        let mut b = InstanceBuilder::new(1);
        for _ in 0..8 {
            let j = b.job(1.0, 0.0);
            b.round(j, &[vec![1.0]]);
        }
        let inst = b.build();
        let opts = RelaxOptions::default();
        let (unlimited, finite) = (SolveTrace::new(), SolveTrace::new());
        let plain = solve_traced(&inst, &opts, Some(&unlimited));
        let budgeted = solve_budgeted(
            &inst,
            &opts,
            &SolveBudget::capped(1_000_000, 0),
            &CancelToken::new(),
            Some(&finite),
        )
        .expect("budget is plenty");
        assert_eq!(plain, budgeted);
        assert!(plain.stats.cuts >= 1, "the cut loop must run");
        let spans = unlimited.drain();
        assert_eq!(spans.len(), plain.stats.lp_solves);
        assert_eq!(spans, finite.drain());
    }

    #[test]
    fn capped_unlimited_solve_falls_back_to_the_sweep() {
        let inst = fig1_instance();
        let opts = RelaxOptions::default();
        let sweep = solve(
            &inst,
            &RelaxOptions {
                lp_task_limit: 0,
                ..opts
            },
        );
        // A zero per-solve cap trips on the first pivot of the first round.
        let trace = SolveTrace::new();
        let (x_hat, mode, stats) = lp_mode(
            &inst,
            &opts,
            &SolveBudget::UNLIMITED,
            &CancelToken::new(),
            Some(&trace),
            0,
        )
        .expect("an unlimited solve falls back instead of aborting");
        assert_eq!(mode, RelaxMode::Combinatorial);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x_hat), bits(&sweep.x_hat));
        assert_eq!(stats.lp_solves, 0);
        let spans = trace.drain();
        let phases: Vec<&str> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(phases, ["lp_round", "combinatorial"]);
        assert_eq!(
            spans[1].end - spans[1].start,
            combinatorial_work(&inst, &opts)
        );

        // Cancellation still aborts rather than falling back.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(
            lp_mode(&inst, &opts, &SolveBudget::UNLIMITED, &cancelled, None, 0),
            None
        );
    }

    #[test]
    fn combinatorial_budget_is_charged_deterministically() {
        let inst = fig1_instance();
        let opts = RelaxOptions {
            lp_task_limit: 0, // force combinatorial
            ..RelaxOptions::default()
        };
        let work = combinatorial_work(&inst, &opts);
        assert_eq!(
            work,
            inst.n_tasks() as u64 * (opts.passes as u64 + 1),
            "cost model"
        );
        let token = CancelToken::new();
        assert_eq!(
            solve_budgeted(
                &inst,
                &opts,
                &SolveBudget::capped(work - 1, 0),
                &token,
                None
            ),
            None,
            "under the charge: abort"
        );
        let sol = solve_budgeted(&inst, &opts, &SolveBudget::capped(work, 0), &token, None)
            .expect("exactly the charge: runs");
        assert_eq!(sol.mode, RelaxMode::Combinatorial);
        assert_eq!(sol, solve(&inst, &opts));
    }

    #[test]
    fn midpoints_use_worst_machine() {
        let inst = fig1_instance();
        let x = vec![0.0; inst.n_tasks()];
        let h = midpoints(&inst, &x);
        // First task of J1 has p = [1, 1.5, 2] -> H = 1.0.
        let t = inst.round_tasks(0, 0)[0];
        assert!((h[t] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heavier_jobs_do_not_change_validity() {
        let mut b = InstanceBuilder::new(2);
        let j1 = b.job(5.0, 0.0);
        let j2 = b.job(1.0, 3.0);
        b.round(j1, &[vec![2.0, 3.0], vec![2.0, 3.0]]);
        b.round(j1, &[vec![2.0, 3.0]]);
        b.round(j2, &[vec![1.0, 4.0]]);
        let inst = b.build();
        let sol = solve(&inst, &RelaxOptions::default());
        assert!(certified_lower_bound(&inst) > 0.0);
        assert_eq!(sol.x_hat.len(), inst.n_tasks());
        assert_eq!(sol.h.len(), inst.n_tasks());
    }
}
