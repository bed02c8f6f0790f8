//! Algorithm 1 — Hare's task scheduling algorithm (Section 5.2).
//!
//! Step 1 solves the `Hare_Sched_RL` relaxation (delegated to
//! `hare-solver`), producing relaxed starts `x̂ᵢ` and midpoints
//! `Hᵢ = maxₘ(x̂ᵢ + ½T^c_{i,m})`. Step 2 sorts tasks by `Hᵢ` and list-
//! schedules them: each task becomes available when its previous round
//! finishes (line 10), goes to the GPU with the earliest available time
//! `φₘ` (line 12), and the GPU is released after training only — the
//! synchronization overlaps the successor (line 16).
//!
//! One engineering note: the paper processes π strictly in `H` order and
//! assumes every predecessor precedes its successors in π. The relaxation
//! guarantees `x̂` respects precedence but not that midpoints do (a later
//! round's task on a much faster set of GPUs can have a smaller `Hᵢ` under
//! high heterogeneity), so this implementation consumes π through a
//! priority queue that releases a task only once its previous round is
//! fully scheduled — identical to the paper's loop whenever π is already
//! topological, and well-defined otherwise.

use crate::problem::{GpuIdx, SchedProblem, TaskIdx};
use crate::schedule::Schedule;
use hare_cluster::{SimDuration, SimTime};
use hare_solver::relax::{self, RelaxOptions};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Priority used to build the list-scheduling order π (ablations for the
/// DESIGN.md study; the paper's Hare uses [`PriorityOrder::Midpoint`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PriorityOrder {
    /// `Hᵢ` from the relaxation (the paper's Algorithm 1).
    #[default]
    Midpoint,
    /// Job arrival time, then job/round — FIFO-shaped ablation.
    Arrival,
    /// Smith ratio `pᵢ^min / wₙ` — WSPT-shaped ablation without the
    /// relaxation.
    Smith,
}

/// GPU selection rule (line 12).
///
/// Read literally, line 12 (`m* = argminₘ φₘ`) is heterogeneity-blind at
/// placement: on a lightly loaded cluster it parks tasks on K80s while
/// V100s free up microseconds later, and Hare then *loses* to plain
/// heterogeneity-aware FIFO — the opposite of every published result. The
/// published behaviour is reproduced when "earliest available" is read as
/// "earliest able to finish the task" (`argminₘ max(tᵢ, φₘ) + T^c_{i,m}`),
/// which is what this implementation defaults to; the literal rule is kept
/// as an ablation (`fig14 --order` / DESIGN.md §6) and is the variant the
/// Theorem-4 proof's Eq. (21) formally covers.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AssignmentRule {
    /// Line 12 read literally: `m* = argminₘ φₘ`.
    EarliestAvailable,
    /// Earliest-finish-time: `m* = argminₘ max(tᵢ, φₘ) + T^c_{i,m}`.
    #[default]
    EarliestFinish,
}

/// Hare's scheduler (Algorithm 1).
///
/// ```
/// use hare_core::{HareScheduler, SchedProblem, SyncMode};
///
/// let problem = SchedProblem::fig1(); // the paper's 3-job toy example
/// let out = HareScheduler::default().schedule(&problem);
/// assert!(out.schedule.validate(&problem, SyncMode::Relaxed).is_ok());
/// assert!(out.schedule.weighted_completion(&problem) >= out.lower_bound);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HareScheduler {
    /// Relaxation options (LP vs combinatorial threshold etc.).
    pub relax: RelaxOptions,
    /// Priority order for π.
    pub order: PriorityOrder,
    /// GPU selection rule.
    pub assignment: AssignmentRule,
}

/// Everything Algorithm 1 produced, for theory checks and replay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HareOutput {
    /// The schedule (x̃, ỹ).
    pub schedule: Schedule,
    /// Midpoint priorities `Hᵢ` (seconds), as used for ordering.
    pub h: Vec<f64>,
    /// The order π in which tasks were dispatched.
    pub pi: Vec<TaskIdx>,
    /// Certified lower bound on the optimal Σ wₙCₙ
    /// (`hare_solver::certified_lower_bound`).
    pub lower_bound: f64,
}

impl HareScheduler {
    /// Run Algorithm 1 on a problem.
    pub fn schedule(&self, p: &SchedProblem) -> HareOutput {
        self.schedule_traced(p, None)
    }

    /// [`HareScheduler::schedule`] with relaxation-phase work spans
    /// recorded into `trace` (cut rounds, dense fallbacks, combinatorial
    /// sweeps — see `hare_solver::trace`). The non-Midpoint priority
    /// orders do no solver work and record nothing.
    pub fn schedule_traced(
        &self,
        p: &SchedProblem,
        trace: Option<&hare_solver::SolveTrace>,
    ) -> HareOutput {
        p.validate().expect("invalid problem");
        let inst = p.to_instance();
        let priorities = self.priorities(p, &inst, trace);
        let (schedule, pi) = list_schedule(p, &priorities, self.assignment);
        HareOutput {
            schedule,
            h: priorities,
            pi,
            // Independent of x̂, so the relaxation does not compute it.
            lower_bound: hare_solver::certified_lower_bound(&inst),
        }
    }

    /// The priority vector driving π; `inst` is `p` as a solver instance.
    fn priorities(
        &self,
        p: &SchedProblem,
        inst: &hare_solver::Instance,
        trace: Option<&hare_solver::SolveTrace>,
    ) -> Vec<f64> {
        match self.order {
            PriorityOrder::Midpoint => relax::solve_traced(inst, &self.relax, trace).h,
            PriorityOrder::Arrival => p
                .tasks
                .iter()
                .map(|t| p.jobs[t.job].arrival.as_secs_f64() + t.round as f64 * 1e-6)
                .collect(),
            PriorityOrder::Smith => smith_priorities(p, inst),
        }
    }
}

/// Smith-ratio priorities `arrival + pᵢ^min/wₙ + round·10⁻⁶` — the
/// heterogeneity-aware greedy order (WSPT-shaped), shared by the
/// [`PriorityOrder::Smith`] ablation and the anytime pipeline's Greedy
/// rung (`crate::anytime`). `inst` is `p` as a solver instance.
pub(crate) fn smith_priorities(p: &SchedProblem, inst: &hare_solver::Instance) -> Vec<f64> {
    (0..p.n_tasks())
        .map(|i| {
            let t = &p.tasks[i];
            p.jobs[t.job].arrival.as_secs_f64()
                + inst.p_min(i) / p.jobs[t.job].weight
                + t.round as f64 * 1e-6
        })
        .collect()
}

/// The Step-2 list scheduler, shared by all priority orders (and by every
/// rung of the anytime pipeline in `crate::anytime`).
///
/// Maintains per-(job, round) scheduling state so a round's tasks become
/// dispatchable exactly when the previous round is fully scheduled; among
/// dispatchable tasks, always pick the smallest priority (ties: task index).
pub(crate) fn list_schedule(
    p: &SchedProblem,
    priority: &[f64],
    rule: AssignmentRule,
) -> (Schedule, Vec<TaskIdx>) {
    let n = p.n_tasks();
    let mut schedule = Schedule::with_capacity(n);
    let mut pi = Vec::with_capacity(n);

    // Per-job: how many tasks of the current round remain unscheduled, and
    // the completion frontier of the previous round (t_i of line 8/10).
    let mut current_round: Vec<u32> = vec![0; p.jobs.len()];
    let mut remaining: Vec<u32> = p.jobs.iter().map(|j| j.sync_scale).collect();
    let mut frontier: Vec<SimTime> = p.jobs.iter().map(|j| j.arrival).collect();

    // GPU available times φ_m.
    let mut phi: Vec<SimTime> = vec![SimTime::ZERO; p.n_gpus];

    // Ready heap keyed by (priority, task) — min-heap via Reverse.
    #[derive(PartialEq)]
    struct Key(f64, TaskIdx);
    impl Eq for Key {}
    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }
    let mut ready: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
    for j in 0..p.jobs.len() {
        for i in p.round_range(j, 0) {
            ready.push(Reverse(Key(priority[i], i)));
        }
    }

    while let Some(Reverse(Key(_, i))) = ready.pop() {
        let job = p.tasks[i].job;
        let train = &p.jobs[job].train;
        let t_i = frontier[job]; // lines 7–11

        // Line 12: GPU choice.
        let m = match rule {
            AssignmentRule::EarliestAvailable => (0..p.n_gpus)
                .min_by_key(|&m| (phi[m], m))
                .expect("at least one GPU"),
            AssignmentRule::EarliestFinish => earliest_finish(&phi, t_i, train),
        };

        // Lines 13–16.
        let start = t_i.max(phi[m]);
        schedule.start[i] = start;
        schedule.gpu[i] = m;
        phi[m] = start + train[m]; // sync overlaps the next task
        pi.push(i);

        // Round bookkeeping: when the round finishes scheduling, release
        // the next round with the real completion frontier.
        remaining[job] -= 1;
        if remaining[job] == 0 {
            let r = current_round[job];
            let done = p
                .round_range(job, r)
                .map(|k| schedule.task_completion(p, k))
                .max()
                .expect("every round has at least one task");
            frontier[job] = done;
            if r + 1 < p.jobs[job].rounds {
                current_round[job] = r + 1;
                remaining[job] = p.jobs[job].sync_scale;
                for k in p.round_range(job, r + 1) {
                    ready.push(Reverse(Key(priority[k], k)));
                }
            }
        }
    }

    debug_assert_eq!(pi.len(), n, "all tasks scheduled");
    (schedule, pi)
}

/// The earliest-finish GPU choice: the first `m` minimising
/// `max(φₘ, ready) + train[m]`, in one pass over the GPUs.
fn earliest_finish(phi: &[SimTime], ready: SimTime, train: &[SimDuration]) -> GpuIdx {
    assert_eq!(phi.len(), train.len(), "one availability per GPU");
    let mut best = 0;
    let mut best_finish = SimTime::MAX;
    for (m, (&free, &t)) in phi.iter().zip(train).enumerate() {
        let finish = free.max(ready) + t;
        if finish < best_finish {
            best = m;
            best_finish = finish;
        }
    }
    best
}

/// Run Algorithm 1 with default options (the paper's configuration).
pub fn hare_schedule(p: &SchedProblem) -> HareOutput {
    HareScheduler::default().schedule(p)
}

#[allow(unused)]
fn _assert_send_sync() {
    fn f<T: Send + Sync>() {}
    f::<HareScheduler>();
}

/// Greedy earliest-finish assignment of a single round of `k` identical
/// tasks given current GPU availabilities — used by baselines that exploit
/// relaxed sync without the relaxation (and by tests). Returns
/// `(start, gpu)` per task.
pub fn relaxed_round_assign(
    p: &SchedProblem,
    job: usize,
    ready: SimTime,
    phi: &mut [SimTime],
) -> Vec<(SimTime, GpuIdx)> {
    let k = p.jobs[job].sync_scale as usize;
    let train = &p.jobs[job].train;
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let m = earliest_finish(phi, ready, train);
        let start = phi[m].max(ready);
        phi[m] = start + train[m];
        out.push((start, m));
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sync::SyncMode;
    use hare_cluster::SimDuration;

    #[test]
    fn fig1_schedule_is_valid_and_near_optimal() {
        let p = SchedProblem::fig1();
        let out = hare_schedule(&p);
        assert!(out.schedule.validate(&p, SyncMode::Relaxed).is_ok());
        let obj = out.schedule.weighted_completion(&p);
        // Exact optimum is 8.5 (Fig. 1(c)); heterogeneity-oblivious
        // scheduling gives 10.5. Algorithm 1 must land well under the
        // oblivious result and within the theorem's bound.
        assert!(obj <= 10.5 + 1e-9, "objective {obj}");
        let alpha = p.alpha();
        assert!(
            obj <= alpha * (2.0 + alpha) * 8.5 + 1e-6,
            "Theorem 4 violated: {obj}"
        );
    }

    #[test]
    fn all_orders_produce_valid_schedules() {
        let p = SchedProblem::fig1();
        for order in [
            PriorityOrder::Midpoint,
            PriorityOrder::Arrival,
            PriorityOrder::Smith,
        ] {
            for assignment in [
                AssignmentRule::EarliestAvailable,
                AssignmentRule::EarliestFinish,
            ] {
                let s = HareScheduler {
                    order,
                    assignment,
                    ..HareScheduler::default()
                };
                let out = s.schedule(&p);
                assert!(
                    out.schedule.validate(&p, SyncMode::Relaxed).is_ok(),
                    "{order:?}/{assignment:?}"
                );
                assert_eq!(out.pi.len(), p.n_tasks());
            }
        }
    }

    #[test]
    fn pi_is_topological_per_job() {
        let p = SchedProblem::fig1();
        let out = hare_schedule(&p);
        let mut pos = vec![0usize; p.n_tasks()];
        for (k, &i) in out.pi.iter().enumerate() {
            pos[i] = k;
        }
        for (j, job) in p.jobs.iter().enumerate() {
            for r in 1..job.rounds {
                let max_prev = p
                    .round_tasks(j, r - 1)
                    .into_iter()
                    .map(|i| pos[i])
                    .max()
                    .unwrap();
                let min_cur = p
                    .round_tasks(j, r)
                    .into_iter()
                    .map(|i| pos[i])
                    .min()
                    .unwrap();
                assert!(max_prev < min_cur, "round order violated for job {j}");
            }
        }
    }

    #[test]
    fn sync_overlap_allows_back_to_back_training() {
        // One GPU, one job with 2 rounds and nonzero sync: the GPU may not
        // start round 1 before round 0's sync completes (precedence), but
        // a *different* job's task may use the sync window.
        let sec = |s: f64| SimDuration::from_secs_f64(s);
        let p = SchedProblem::new(
            1,
            vec![
                crate::problem::JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 2,
                    sync_scale: 1,
                    train: vec![sec(2.0)],
                    sync: vec![sec(1.0)],
                },
                crate::problem::JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 1,
                    sync_scale: 1,
                    train: vec![sec(1.0)],
                    sync: vec![sec(0.0)],
                },
            ],
        );
        let out = hare_schedule(&p);
        assert!(out.schedule.validate(&p, SyncMode::Relaxed).is_ok());
        // Total weighted completion: optimal interleaving fills job 0's
        // sync window with job 1 -> C0 = 6, C1 = 3 (obj 9).
        let obj = out.schedule.weighted_completion(&p);
        assert!(
            obj <= 9.0 + 1e-9,
            "expected the sync window used, got {obj}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = SchedProblem::fig1();
        let a = hare_schedule(&p);
        let b = hare_schedule(&p);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.pi, b.pi);
    }

    #[test]
    fn relaxed_round_assign_spreads_and_stacks() {
        let p = SchedProblem::fig1();
        // J3 (job 2) has 2 tasks; with GPU0 free now and others busy far
        // out, both stack on GPU0 sequentially.
        let far = SimTime::from_secs(100);
        let mut phi = vec![SimTime::ZERO, far, far];
        let placed = relaxed_round_assign(&p, 2, SimTime::ZERO, &mut phi);
        assert_eq!(placed.len(), 2);
        assert_eq!(placed[0].1, 0);
        assert_eq!(placed[1].1, 0);
        assert!(placed[1].0 > placed[0].0);
    }
}
