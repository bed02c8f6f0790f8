//! Exact branch-and-bound for small `Hare_Sched` instances.
//!
//! `Hare_Sched` is NP-hard (Theorem 1), but instances with a handful of
//! tasks can be solved exactly by depth-first search over *active*
//! schedules: repeatedly pick any task whose predecessor round is fully
//! scheduled, try every machine, and start it at
//! `max(machine available, task ready)`. Every optimal schedule is
//! reachable this way (left-shifting within machines normalizes any
//! schedule to an active one).
//!
//! One sequential search walks the root-level branches — each (ready
//! task, machine) pair surviving symmetry breaking — in index order, so
//! the schedule, the node count, the abort point under a node cap and the
//! `bb_root` spans all replay bit for bit. Each branch starts with its own
//! incumbent and prunes ties against it; the best objective of the earlier
//! branches prunes only subtrees *strictly* worse (with `1e-12` slack), so
//! the first branch with a strictly smaller objective wins. Two symmetry
//! rules shrink the tree:
//!
//! * **identical machines** — machines whose processing/sync columns agree
//!   on every time row are interchangeable whenever their availability is
//!   also equal, so only the lowest-indexed representative is branched;
//! * **identical tasks** — tasks of the same job and round that share a
//!   time row are interchangeable, so they are forced into index order.
//!   [`crate::InstanceBuilder`] interns equal rows, so tasks with equal
//!   `p`/`s` vectors share one.
//!
//! The tests and benches use this as ground truth: Algorithm 1's value is
//! compared against the exact optimum to certify the α(2+α) approximation
//! bound of Theorem 4, and [`crate::relax::certified_lower_bound`] is
//! checked to sit below the optimum.

use crate::budget::{CancelToken, SolveBudget};
use crate::instance::Instance;
use crate::trace::SolveTrace;
use serde::{Deserialize, Serialize};

/// Hard safety limit on instance size for the exact search.
pub const MAX_TASKS: usize = 16;

/// An exact optimal schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExactSolution {
    /// Start time per task.
    pub start: Vec<f64>,
    /// Machine per task.
    pub machine: Vec<usize>,
    /// Optimal Σ wₙCₙ.
    pub objective: f64,
    /// Search nodes explored, the root included; reproducible run to run.
    pub nodes: u64,
}

/// Solve exactly. Exponential — intended for ≤ ~14 tasks and ≤ 4 machines;
/// panics above a hard safety limit of [`MAX_TASKS`] tasks.
pub fn solve_exact(inst: &Instance) -> ExactSolution {
    solve_exact_budgeted(inst, &SolveBudget::UNLIMITED, &CancelToken::new(), None)
        .expect("an unlimited, uncancelled search cannot abort")
}

/// [`solve_exact`] under a [`SolveBudget`] and [`CancelToken`], recording
/// one `"bb_root"` span per completed root branch into `trace` (work =
/// nodes explored, detail = branch index), in branch-index order.
///
/// Aborts with `None` once `budget.node_cap` search nodes have been
/// explored in total, or at the first (periodic) check finding the
/// deadline passed or the token cancelled; the spans of the branches that
/// completed stay in `trace`. Every budget runs the same search, so a
/// generous cap returns exactly what an unlimited budget does, node count
/// included, and a node cap aborts at a reproducible point.
pub fn solve_exact_budgeted(
    inst: &Instance,
    budget: &SolveBudget,
    cancel: &CancelToken,
    trace: Option<&SolveTrace>,
) -> Option<ExactSolution> {
    if cancel.is_cancelled() || budget.deadline_passed() {
        return None;
    }
    inst.validate().expect("invalid instance");
    assert!(
        inst.n_tasks() <= MAX_TASKS,
        "branch-and-bound limited to {MAX_TASKS} tasks; got {}",
        inst.n_tasks()
    );

    let sym = Symmetry::analyze(inst);
    let mut s = Search::new(inst, &sym, budget, cancel);
    let branches = s.root_branches();
    assert!(!branches.is_empty(), "instance has no schedulable task");
    for (bi, (task, machine)) in branches.into_iter().enumerate() {
        let before = s.nodes;
        let ready = s.ready_time(task).expect("root branch task is ready");
        let saved = s.place(task, machine, ready);
        s.branch_best = f64::INFINITY;
        s.dfs(1);
        if s.aborted {
            return None;
        }
        s.unplace(task, machine, saved);
        if let Some(tr) = trace {
            tr.record("bb_root", s.nodes - before, bi as u64);
        }
    }
    assert!(s.best.is_finite(), "search must find at least one schedule");
    Some(ExactSolution {
        start: s.best_start,
        machine: s.best_machine,
        objective: s.best,
        nodes: s.nodes,
    })
}

/// Precomputed symmetry structure of an instance.
struct Symmetry {
    /// For each machine, the smallest machine index with identical `p`/`s`
    /// columns across every row (its symmetry-class representative).
    machine_class: Vec<usize>,
    /// For each task, the lower-indexed tasks of the same job and round
    /// on the same row (its interchangeable twins).
    ident_pred: Vec<Vec<usize>>,
}

impl Symmetry {
    fn analyze(inst: &Instance) -> Symmetry {
        let m = inst.n_machines;
        let machine_class = (0..m)
            .map(|a| {
                (0..a)
                    .find(|&b| {
                        inst.rows
                            .iter()
                            .all(|r| r.p()[a] == r.p()[b] && r.s()[a] == r.s()[b])
                    })
                    .unwrap_or(a)
            })
            .collect();
        let ident_pred = inst
            .tasks
            .iter()
            .enumerate()
            .map(|(i, ti)| {
                (0..i)
                    .filter(|&k| {
                        let tk = &inst.tasks[k];
                        tk.job == ti.job && tk.round == ti.round && tk.row == ti.row
                    })
                    .collect()
            })
            .collect();
        Symmetry {
            machine_class,
            ident_pred,
        }
    }
}

struct Search<'a> {
    inst: &'a Instance,
    sym: &'a Symmetry,
    start: Vec<f64>,
    machine: Vec<usize>,
    scheduled: Vec<bool>,
    machine_avail: Vec<f64>,
    /// Incumbent of the current root branch; prunes ties.
    branch_best: f64,
    /// Best objective over every branch so far, and its schedule; prunes
    /// only strictly worse subtrees.
    best: f64,
    best_start: Vec<f64>,
    best_machine: Vec<usize>,
    /// Search nodes explored so far, the root included.
    nodes: u64,
    /// Node cap, deadline and cancellation sources.
    budget: &'a SolveBudget,
    cancel: &'a CancelToken,
    /// Set when the budget tripped; the search result is then meaningless.
    aborted: bool,
}

impl<'a> Search<'a> {
    fn new(
        inst: &'a Instance,
        sym: &'a Symmetry,
        budget: &'a SolveBudget,
        cancel: &'a CancelToken,
    ) -> Search<'a> {
        let t = inst.n_tasks();
        Search {
            inst,
            sym,
            start: vec![f64::NAN; t],
            machine: vec![usize::MAX; t],
            scheduled: vec![false; t],
            machine_avail: vec![0.0; inst.n_machines],
            branch_best: f64::INFINITY,
            best: f64::INFINITY,
            best_start: vec![f64::NAN; t],
            best_machine: vec![usize::MAX; t],
            nodes: 1,
            budget,
            cancel,
            aborted: false,
        }
    }

    /// Cooperative budget check at one search node. The node cap is exact;
    /// cancellation and the wall-clock deadline are polled every 512 nodes
    /// to keep the per-node cost a counter comparison.
    fn over_budget(&self) -> bool {
        if self.nodes > self.budget.node_cap {
            return true;
        }
        self.nodes.is_multiple_of(512)
            && (self.cancel.is_cancelled() || self.budget.deadline_passed())
    }

    /// Enumerate the root's (task, machine) branches after symmetry
    /// breaking, in search order.
    fn root_branches(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.inst.n_tasks() {
            if self.skip_task(i) || self.ready_time(i).is_none() {
                continue;
            }
            for m in 0..self.inst.n_machines {
                if !self.skip_machine(m) {
                    out.push((i, m));
                }
            }
        }
        out
    }

    /// Identical-task symmetry: skip `i` while an interchangeable twin with
    /// a smaller index is still unscheduled (twins go in index order).
    fn skip_task(&self, i: usize) -> bool {
        self.sym.ident_pred[i].iter().any(|&k| !self.scheduled[k])
    }

    /// Identical-machine symmetry: skip `m` when a lower-indexed machine of
    /// the same class is equally available — placing the task there instead
    /// yields a schedule of identical value.
    fn skip_machine(&self, m: usize) -> bool {
        (0..m).any(|b| {
            self.sym.machine_class[b] == self.sym.machine_class[m]
                && self.machine_avail[b] == self.machine_avail[m]
        })
    }

    /// Start task `i` on machine `m`; returns the machine's previous
    /// availability for [`Search::unplace`].
    fn place(&mut self, i: usize, m: usize, ready: f64) -> f64 {
        let start = self.machine_avail[m].max(ready);
        let saved_avail = self.machine_avail[m];
        self.start[i] = start;
        self.machine[i] = m;
        self.scheduled[i] = true;
        // Training occupies the machine; sync overlaps the next task
        // (Algorithm 1 line 16 and the problem's semantics).
        self.machine_avail[m] = start + self.inst.row(i).p()[m];
        saved_avail
    }

    fn unplace(&mut self, i: usize, m: usize, saved_avail: f64) {
        self.machine_avail[m] = saved_avail;
        self.scheduled[i] = false;
        self.start[i] = f64::NAN;
        self.machine[i] = usize::MAX;
    }

    fn dfs(&mut self, scheduled_count: usize) {
        self.nodes += 1;
        if self.over_budget() {
            self.aborted = true;
            return;
        }
        if scheduled_count == self.inst.n_tasks() {
            let obj = self.objective();
            if obj < self.branch_best {
                self.branch_best = obj;
                if obj < self.best {
                    self.best = obj;
                    self.best_start.copy_from_slice(&self.start);
                    self.best_machine.copy_from_slice(&self.machine);
                }
            }
            return;
        }
        // Ties prune against this branch's incumbent, but only strictly
        // worse subtrees against earlier branches: each branch still
        // reaches its own optimum whenever that ties the best so far.
        let lb = self.lower_bound();
        if lb >= self.branch_best - 1e-12 || lb >= self.best + 1e-12 {
            return;
        }

        for i in 0..self.inst.n_tasks() {
            if self.scheduled[i] || self.skip_task(i) {
                continue;
            }
            let Some(ready) = self.ready_time(i) else {
                continue;
            };
            for m in 0..self.inst.n_machines {
                if self.skip_machine(m) {
                    continue;
                }
                let saved = self.place(i, m, ready);
                self.dfs(scheduled_count + 1);
                self.unplace(i, m, saved);
                if self.aborted {
                    return;
                }
            }
        }
    }

    /// Ready time of task `i`: release for round 0, else the max completion
    /// (x+p+s) of the previous round — `None` while that round is not fully
    /// scheduled.
    fn ready_time(&self, i: usize) -> Option<f64> {
        let task = &self.inst.tasks[i];
        let release = self.inst.jobs[task.job].release;
        if task.round == 0 {
            return Some(release);
        }
        let mut ready = release;
        for (k, other) in self.inst.tasks.iter().enumerate() {
            if other.job == task.job && other.round == task.round - 1 {
                if !self.scheduled[k] {
                    return None;
                }
                let (m, row) = (self.machine[k], self.inst.row(k));
                ready = ready.max(self.start[k] + row.p()[m] + row.s()[m]);
            }
        }
        Some(ready)
    }

    fn objective(&self) -> f64 {
        let mut obj = 0.0;
        for (j, job) in self.inst.jobs.iter().enumerate() {
            let mut c = job.release;
            for (k, task) in self.inst.tasks.iter().enumerate() {
                if task.job == j {
                    let (m, row) = (self.machine[k], self.inst.row(k));
                    c = c.max(self.start[k] + row.p()[m] + row.s()[m]);
                }
            }
            obj += job.weight * c;
        }
        obj
    }

    /// Admissible bound on the completed objective via a per-round
    /// recurrence: round `r` completes no earlier than
    /// `max(done_r, c_{r-1} + rem_r)`, where `done_r` is the exact
    /// completion of its already-scheduled tasks, `rem_r` the largest
    /// machine-minimum duration among its unscheduled ones, and `c_{r-1}`
    /// the bound on the previous round. The `max` matters: remaining tasks
    /// of a *partially* scheduled round run in parallel with its scheduled
    /// part, never after it — adding `rem_r` onto the job frontier instead
    /// (as a naive critical path would) over-estimates and prunes optima.
    fn lower_bound(&self) -> f64 {
        let mut bound = 0.0;
        for (j, job) in self.inst.jobs.iter().enumerate() {
            let mut c = job.release;
            for r in 0..job.rounds {
                let mut done = f64::NEG_INFINITY;
                let mut rem = 0.0f64;
                for (k, task) in self.inst.tasks.iter().enumerate() {
                    if task.job == j && task.round == r {
                        if self.scheduled[k] {
                            let (m, row) = (self.machine[k], self.inst.row(k));
                            done = done.max(self.start[k] + row.p()[m] + row.s()[m]);
                        } else {
                            rem = rem.max(self.inst.ps_min(k));
                        }
                    }
                }
                c = done.max(c + rem);
            }
            bound += job.weight * c;
        }
        bound
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::instance::{fig1_instance, InstanceBuilder};
    use crate::relax::certified_lower_bound;

    #[test]
    fn budgeted_search_aborts_and_matches_when_generous() {
        let inst = fig1_instance();
        let token = CancelToken::new();

        // A handful of nodes is nowhere near enough for Fig. 1.
        assert_eq!(
            solve_exact_budgeted(&inst, &SolveBudget::capped(0, 5), &token, None),
            None
        );
        // A pre-cancelled token aborts before any search.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(
            solve_exact_budgeted(&inst, &SolveBudget::capped(0, 1 << 40), &cancelled, None),
            None
        );

        // A generous finite cap runs the search an unlimited budget does:
        // the whole solution matches, node counter included.
        let budgeted = solve_exact_budgeted(&inst, &SolveBudget::capped(0, 1 << 40), &token, None)
            .expect("cap is plenty");
        let unlimited = solve_exact_budgeted(&inst, &SolveBudget::UNLIMITED, &token, None)
            .expect("unlimited cannot abort");
        assert_eq!(budgeted, unlimited);
    }

    #[test]
    fn budgeted_search_is_deterministic() {
        let inst = fig1_instance();
        let token = CancelToken::new();
        let budget = SolveBudget::capped(0, 1 << 40);
        let a = solve_exact_budgeted(&inst, &budget, &token, None).expect("cap is plenty");
        for _ in 0..3 {
            let b = solve_exact_budgeted(&inst, &budget, &token, None).expect("cap is plenty");
            // Sequential search: even the node counter is reproducible.
            assert_eq!(a, b);
        }
        // And the abort point is too: the largest insufficient cap yields
        // None every time.
        let short = SolveBudget::capped(0, a.nodes - 1);
        assert_eq!(solve_exact_budgeted(&inst, &short, &token, None), None);
        assert_eq!(solve_exact_budgeted(&inst, &short, &token, None), None);
    }

    #[test]
    fn aborted_search_keeps_a_strict_prefix_of_the_generous_spans() {
        let inst = fig1_instance();
        let token = CancelToken::new();
        let run = |node_cap: u64| {
            let trace = SolveTrace::new();
            let budget = SolveBudget::capped(0, node_cap);
            let sol = solve_exact_budgeted(&inst, &budget, &token, Some(&trace));
            (sol, trace.drain())
        };
        let (sol, full) = run(1 << 40);
        let sol = sol.expect("cap is plenty");
        // One span per root branch, in branch order.
        assert!(full.len() > 1, "Fig. 1 has several root branches");
        for (k, span) in full.iter().enumerate() {
            assert_eq!((span.phase, span.detail), ("bb_root", k as u64));
        }
        // An unlimited budget records the very same spans.
        let trace = SolveTrace::new();
        solve_exact_budgeted(&inst, &SolveBudget::UNLIMITED, &token, Some(&trace))
            .expect("unlimited cannot abort");
        assert_eq!(trace.drain(), full);
        for cap in [1, sol.nodes / 2, sol.nodes - 1] {
            let (aborted, kept) = run(cap);
            assert_eq!(aborted, None, "cap {cap}");
            assert!(kept.len() < full.len(), "cap {cap}: prefix must be strict");
            assert_eq!(kept[..], full[..kept.len()], "cap {cap}");
        }
    }

    #[test]
    fn single_task_single_machine() {
        let mut b = InstanceBuilder::new(1);
        let j = b.job(2.0, 1.0);
        b.round(j, &[vec![3.0]]);
        let sol = solve_exact(&b.build());
        assert!((sol.objective - 2.0 * 4.0).abs() < 1e-9);
        assert_eq!(sol.machine, vec![0]);
        assert!((sol.start[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wspt_order_on_one_machine() {
        // Two jobs, lengths 2 and 4, weights 1: short first, OPT = 8.
        let mut b = InstanceBuilder::new(1);
        let a = b.job(1.0, 0.0);
        let c = b.job(1.0, 0.0);
        b.round(a, &[vec![4.0]]);
        b.round(c, &[vec![2.0]]);
        let sol = solve_exact(&b.build());
        assert!((sol.objective - 8.0).abs() < 1e-9);
        // The 2-long task (task index 1) goes first.
        assert!(sol.start[1] < sol.start[0]);
    }

    #[test]
    fn heterogeneous_machines_are_chosen_well() {
        // One task much faster on machine 1.
        let mut b = InstanceBuilder::new(2);
        let j = b.job(1.0, 0.0);
        b.round(j, &[vec![10.0, 1.0]]);
        let sol = solve_exact(&b.build());
        assert_eq!(sol.machine, vec![1]);
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_serialize_within_a_job() {
        // 2 rounds of 1 task on 2 machines; second round must wait for
        // first incl. sync.
        let mut b = InstanceBuilder::new(2);
        let j = b.job(1.0, 0.0);
        b.round_with_sync(j, &[vec![2.0, 2.0]], &[vec![1.0, 1.0]]);
        b.round_with_sync(j, &[vec![2.0, 2.0]], &[vec![1.0, 1.0]]);
        let sol = solve_exact(&b.build());
        // C = 2+1 (round 0) + 2+1 (round 1) = 6.
        assert!((sol.objective - 6.0).abs() < 1e-9);
        let second = 1; // task order: round 0 task, then round 1 task
        assert!((sol.start[second] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fig1_optimum_is_8_5() {
        // The paper's Fig. 1(c): jointly considering GPU heterogeneity and
        // intra-job parallelism gives total JCT 8.5 s — and the paper
        // presents it as the best schedule for the toy example.
        let sol = solve_exact(&fig1_instance());
        assert!(
            (sol.objective - 8.5).abs() < 1e-9,
            "Fig. 1 optimum should be 8.5, got {}",
            sol.objective
        );
    }

    #[test]
    fn parallel_tasks_can_share_a_machine() {
        // Relaxed scale-fixed semantics: a round's 2 tasks may run
        // sequentially on the single fast machine instead of using the
        // very slow second machine.
        let mut b = InstanceBuilder::new(2);
        let j = b.job(1.0, 0.0);
        b.round(j, &[vec![1.0, 100.0], vec![1.0, 100.0]]);
        let sol = solve_exact(&b.build());
        assert!((sol.objective - 2.0).abs() < 1e-9, "got {}", sol.objective);
        assert_eq!(sol.machine, vec![0, 0]);
    }

    #[test]
    fn release_times_are_respected() {
        let mut b = InstanceBuilder::new(1);
        let j = b.job(1.0, 5.0);
        b.round(j, &[vec![1.0]]);
        let sol = solve_exact(&b.build());
        assert!((sol.start[0] - 5.0).abs() < 1e-12);
        assert!((sol.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_does_not_lose_the_optimum() {
        // Cross-check: a 6-task instance solved with and without pruning
        // (pruning disabled by inflating best to infinity is not possible
        // directly, so compare against a brute-force via a permissive bound:
        // we simply verify monotonicity — fewer nodes than the unpruned
        // worst case and a value matching the known optimum).
        let mut b = InstanceBuilder::new(2);
        let j1 = b.job(3.0, 0.0);
        let j2 = b.job(1.0, 0.0);
        b.round(j1, &[vec![2.0, 3.0], vec![2.0, 3.0]]);
        b.round(j2, &[vec![1.0, 1.5]]);
        b.round(j2, &[vec![1.0, 1.5]]);
        let sol = solve_exact(&b.build());
        // j1's two tasks in parallel on both machines completes at 3
        // (machine 1) — or both on machine 0 at 4. Best total weighted:
        // run j2 round 0 on m1 (1.5) in parallel with j1...
        // We fix ground truth by hand-enumeration: the optimum is 3*3 + 1*4 = 13:
        // m0: j1.t0 [0,2), j2.r0 [2,3), j2.r1 [3,4); m1: j1.t1 [0,3).
        assert!((sol.objective - 13.0).abs() < 1e-9, "got {}", sol.objective);
    }

    #[test]
    fn determinism_across_repeated_runs() {
        // The whole solution replays, node counter included.
        let inst = fig1_instance();
        let a = solve_exact(&inst);
        for _ in 0..3 {
            assert_eq!(solve_exact(&inst), a);
        }
    }

    #[test]
    fn fourteen_tasks_with_symmetry_match_relaxation_bound() {
        // Beyond the old 12-task hard limit: 2 jobs × 7 rounds on two
        // *identical* machines. Round precedence serializes each job, so
        // the optimum runs each job on its own machine and equals the
        // critical-path part of the certified relaxation bound exactly.
        let mut b = InstanceBuilder::new(2);
        let j1 = b.job(2.0, 0.0);
        let j2 = b.job(1.0, 0.0);
        for _ in 0..7 {
            b.round(j1, &[vec![1.0, 1.0]]);
            b.round(j2, &[vec![1.5, 1.5]]);
        }
        let inst = b.build();
        assert_eq!(inst.n_tasks(), 14);
        let sol = solve_exact(&inst);
        // OPT = 2·7 + 1·10.5 = 24.5, which the relaxation bound certifies.
        let lb = certified_lower_bound(&inst);
        assert!(
            (sol.objective - lb).abs() < 1e-9,
            "exact {} vs relaxation bound {lb}",
            sol.objective
        );
        assert!((sol.objective - 24.5).abs() < 1e-9, "got {}", sol.objective);
    }

    #[test]
    fn symmetry_breaking_node_counts_are_pinned() {
        // Node counts are deterministic under a generous finite budget and
        // under solve_exact's unlimited one alike. Weaker symmetry
        // breaking explores more.
        let budgeted: fn(&Instance) -> u64 = |inst| {
            let budget = SolveBudget::capped(u64::MAX - 1, u64::MAX - 1);
            solve_exact_budgeted(inst, &budget, &CancelToken::new(), None)
                .expect("cap is plenty")
                .nodes
        };
        let unlimited: fn(&Instance) -> u64 = |inst| solve_exact(inst).nodes;
        for nodes in [budgeted, unlimited] {
            assert_eq!(nodes(&fig1_instance()), 716_404);
            // solver_report's symmetric instance: 2 jobs × 7 one-task
            // rounds on two identical machines.
            let mut b = InstanceBuilder::new(2);
            let j1 = b.job(2.0, 0.0);
            let j2 = b.job(1.0, 0.0);
            for _ in 0..7 {
                b.round(j1, &[vec![1.0, 1.0]]);
                b.round(j2, &[vec![1.5, 1.5]]);
            }
            assert_eq!(nodes(&b.build()), 490);
        }
    }

    #[test]
    fn identical_task_symmetry_preserves_optimum() {
        // 4 interchangeable tasks in one round on 2 identical machines:
        // symmetry breaking must still find the balanced 2+2 split.
        let mut b = InstanceBuilder::new(2);
        let j = b.job(1.0, 0.0);
        b.round(
            j,
            &[
                vec![2.0, 2.0],
                vec![2.0, 2.0],
                vec![2.0, 2.0],
                vec![2.0, 2.0],
            ],
        );
        let sol = solve_exact(&b.build());
        assert!((sol.objective - 4.0).abs() < 1e-9, "got {}", sol.objective);
    }

    #[test]
    #[should_panic(expected = "limited to 16 tasks")]
    fn size_guard() {
        let mut b = InstanceBuilder::new(1);
        let j = b.job(1.0, 0.0);
        for _ in 0..(MAX_TASKS + 1) {
            b.round(j, &[vec![1.0]]);
        }
        solve_exact(&b.build());
    }
}
