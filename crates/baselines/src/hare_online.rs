//! Online Hare — the extension the paper's limitation section calls for.
//!
//! The published Hare is offline: it assumes every job (including future
//! arrivals) is known when the task sequences are computed. This policy
//! removes that assumption: whenever new jobs arrive, it re-solves the
//! `Hare_Sched_RL` relaxation over the *remaining* work of all arrived
//! jobs and refreshes the midpoint priorities; dispatch then follows
//! Algorithm 1's discipline — smallest `Hᵢ` first onto the
//! earliest-finishing idle GPU — using only information available at the
//! current simulation time.
//!
//! Compared against clairvoyant offline Hare in the `online` experiment
//! binary, the regret from losing future knowledge is small (the
//! relaxation's priorities depend mostly on already-arrived work).
//!
//! ## Budgeted replanning
//!
//! By default every replan solves the relaxation to completion and the
//! solve is free in simulated time — the historical behaviour, preserved
//! bit-for-bit. Opting in with [`HareOnline::with_budget`] makes solver
//! latency a first-class simulated cost: each replan runs the anytime
//! degradation ladder ([`hare_core::anytime_schedule`]) under a
//! [`hare_solver::SolveBudget`] scaled by the live
//! [`SimView::solver_budget_frac`] (shrunk by
//! [`hare_sim::SolverDegradation`] windows), and the new priorities only
//! take effect once the plan's deterministic work, priced at
//! [`hare_sim::SECS_PER_WORK_UNIT`], has elapsed on the simulation clock.
//! Until then dispatch continues under the previous priorities — exactly
//! what a real control plane does while its solver is still thinking.

use hare_cluster::{SimDuration, SimTime};
use hare_core::{
    anytime_schedule, AnytimeOptions, HareScheduler, JobInfo, Rung, SchedProblem, StalePlan,
};
use hare_sim::{ChromeTraceSink, Policy, SimView, SECS_PER_WORK_UNIT};
use hare_solver::{SolveBudget, SolveTrace};
use std::sync::Arc;

/// Opt-in configuration for work-budgeted replanning.
#[derive(Copy, Clone, Debug)]
pub struct ReplanBudget {
    /// Per-replan budget at full control-plane health; the engine's live
    /// [`SimView::solver_budget_frac`] scales it before every solve.
    pub budget: SolveBudget,
    /// Anytime-pipeline options (ladder configuration).
    pub options: AnytimeOptions,
}

impl Default for ReplanBudget {
    fn default() -> Self {
        ReplanBudget {
            budget: SolveBudget::capped(200_000, 100_000),
            options: AnytimeOptions::default(),
        }
    }
}

/// Online variant of Hare's scheduler: replans on every arrival.
#[derive(Debug, Default)]
pub struct HareOnline {
    scheduler: HareScheduler,
    /// Midpoint priority per *global* task from the latest replan; lower
    /// dispatches first. Tasks outside the latest plan keep +inf.
    priority: Vec<f64>,
    /// Arrived-job count at the latest replan.
    planned_arrivals: usize,
    /// Set when the cluster changed shape (a GPU failed or recovered):
    /// the next dispatch re-solves even without a new arrival, since the
    /// relaxation's priorities were computed for a different GPU set.
    dirty: bool,
    /// Number of replans performed (observability for tests/experiments).
    replans: u32,
    /// Machines that already hold each job's checkpoint (the store caches
    /// per machine). Dispatch prefers these when they are near-fastest:
    /// migrating a job to a cold machine pays a shared-store fetch, which
    /// is wasted switching time in a healthy run and a stall under
    /// checkpoint-store faults.
    warm: Vec<std::collections::BTreeSet<hare_cluster::MachineId>>,
    /// Budgeted-replanning configuration; `None` = legacy free replans.
    budget: Option<ReplanBudget>,
    /// A computed plan whose solver latency has not elapsed yet: the new
    /// global priority vector and the simulated instant it becomes usable.
    pending: Option<(SimTime, Vec<f64>)>,
    /// Replans won by each ladder rung (indexed as [`Rung::ALL`]).
    rung_hits: [u64; 4],
    /// Total simulated solver latency charged across all replans.
    solver_latency: SimDuration,
    /// Observability sink for replan/solver-phase spans; `None` (default)
    /// keeps replanning span-free. The same sink can be shared with the
    /// simulation (`Simulation::with_trace`) so solver lanes line up with
    /// the task timeline in one exported trace.
    trace: Option<Arc<ChromeTraceSink>>,
    /// Work-unit span buffer drained into `trace` after every replan.
    solve_trace: SolveTrace,
}

impl HareOnline {
    /// New policy with the default Algorithm-1 configuration.
    pub fn new() -> Self {
        HareOnline::default()
    }

    /// With budgeted replanning: every replan runs the anytime ladder
    /// under `cfg.budget` (scaled by the live solver-degradation factor)
    /// and pays its solver latency on the simulation clock.
    pub fn with_budget(cfg: ReplanBudget) -> Self {
        HareOnline {
            budget: Some(cfg),
            ..HareOnline::default()
        }
    }

    /// Attach a [`ChromeTraceSink`]: every replan emits a `replan` span (its
    /// simulated solver latency — zero in legacy mode) plus the solver's
    /// fine-grained work-unit spans (cut rounds, B&B branches, ladder
    /// rungs), all anchored at the replan's simulation time. Share the
    /// same sink with `Simulation::with_trace` to get one merged trace.
    pub fn with_trace(mut self, sink: Arc<ChromeTraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Replans performed so far.
    pub fn replans(&self) -> u32 {
        self.replans
    }

    /// Replans won by each ladder rung, as `(rung name, count)` in ladder
    /// order. All zeros in legacy (unbudgeted) mode.
    pub fn rung_hits(&self) -> [(&'static str, u64); 4] {
        let mut out = [("", 0u64); 4];
        for (slot, (rung, &hits)) in out.iter_mut().zip(Rung::ALL.iter().zip(&self.rung_hits)) {
            *slot = (rung.name(), hits);
        }
        out
    }

    /// Total simulated solver latency charged so far.
    pub fn solver_latency(&self) -> SimDuration {
        self.solver_latency
    }

    /// Re-solve the relaxation over the remaining rounds of every arrived,
    /// unfinished job and refresh per-task priorities.
    fn replan(&mut self, view: &SimView<'_>) {
        let p = &view.workload.problem;
        self.priority.resize(p.n_tasks(), f64::INFINITY);

        // Sub-problem: one job per arrived job with remaining rounds;
        // remember the mapping back to global jobs.
        let mut sub_jobs = Vec::new();
        let mut global_job: Vec<usize> = Vec::new();
        for (j, info) in p.jobs.iter().enumerate() {
            if !view.arrived[j] {
                continue;
            }
            let done = view.synced_rounds[j];
            if done >= info.rounds {
                continue;
            }
            sub_jobs.push(JobInfo {
                weight: info.weight,
                // Everything included has arrived; release now (t=0 in the
                // sub-problem's frame).
                arrival: hare_cluster::SimTime::ZERO,
                rounds: info.rounds - done,
                sync_scale: info.sync_scale,
                train: info.train.clone(),
                sync: info.sync.clone(),
            });
            global_job.push(j);
        }
        if sub_jobs.is_empty() {
            return;
        }
        let sub = SchedProblem::new(p.n_gpus, sub_jobs);

        // Map sub-task indices to global task ids: sub round q of sub job
        // s is global round synced_rounds[g] + q of job g.
        let globals: Vec<usize> = sub
            .tasks
            .iter()
            .map(|task| {
                let g = global_job[task.job];
                let global_round = view.synced_rounds[g] + task.round;
                p.round_range(g, global_round).start + task.slot as usize
            })
            .collect();

        let solve_trace = self.trace.as_ref().map(|_| &self.solve_trace);
        match self.budget {
            None => {
                // Legacy path: a free, uncapped relaxation solve whose
                // priorities take effect immediately.
                let out = self.scheduler.schedule_traced(&sub, solve_trace);
                for (i, &global_task) in globals.iter().enumerate() {
                    self.priority[global_task] = out.h[i];
                }
                self.forward_spans(view.now, SimDuration::ZERO, "free", 0);
            }
            Some(cfg) => {
                // The previous plan's priorities, pulled into sub-problem
                // indexing, seed the ladder's stale-plan rung (INFINITY
                // marks tasks the previous plan never saw).
                let stale = StalePlan {
                    h: globals.iter().map(|&g| self.priority[g]).collect(),
                };
                let scaled = cfg.budget.scaled(view.solver_budget_frac);
                let out = anytime_schedule(&sub, &cfg.options, &scaled, Some(&stale), solve_trace);
                if let Some(i) = Rung::ALL.iter().position(|r| *r == out.chosen) {
                    self.rung_hits[i] += 1;
                }
                let latency = SimDuration::from_secs_f64(out.work as f64 * SECS_PER_WORK_UNIT);
                self.solver_latency += latency;
                self.forward_spans(view.now, latency, out.chosen.name(), out.work);
                // The plan is installed once its solve "finishes" on the
                // simulation clock; dispatch keeps the old priorities
                // until then.
                let mut next = self.priority.clone();
                for (i, &global_task) in globals.iter().enumerate() {
                    next[global_task] = out.h[i];
                }
                self.pending = Some((view.now + latency, next));
            }
        }
        self.replans += 1;
    }

    /// Drain the work-unit spans recorded by the last solve into the
    /// attached sink, anchored at the replan's simulation time, plus one
    /// enclosing `replan` span carrying the charged latency.
    fn forward_spans(&mut self, now: SimTime, latency: SimDuration, rung: &str, work: u64) {
        let Some(sink) = &self.trace else {
            return;
        };
        sink.replan(now, latency, rung, work);
        for span in self.solve_trace.drain() {
            sink.solver_span(span.phase, now, span.start, span.end, span.detail);
        }
    }

    /// Install a pending budgeted plan whose solver latency has elapsed.
    fn install_ready_plan(&mut self, now: SimTime) {
        if let Some((ready_at, _)) = self.pending {
            if now >= ready_at {
                let (_, h) = self.pending.take().expect("pending is Some");
                self.priority = h;
            }
        }
    }
}

impl Policy for HareOnline {
    fn name(&self) -> String {
        "Hare_Online".into()
    }

    /// The GPU set shrank: priorities are stale, replan at next dispatch.
    fn on_gpu_failure(&mut self, _gpu: usize, _requeued: &[usize]) {
        self.dirty = true;
    }

    /// The GPU set grew back: likewise.
    fn on_gpu_recovery(&mut self, _gpu: usize) {
        self.dirty = true;
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        self.install_ready_plan(view.now);
        let arrivals = view.arrived.iter().filter(|&&a| a).count();
        if self.dirty || arrivals > self.planned_arrivals {
            self.replan(view);
            self.planned_arrivals = arrivals;
            self.dirty = false;
            // A zero-latency plan (work priced at 0, or an empty replan)
            // is usable in this very dispatch round.
            self.install_ready_plan(view.now);
        }
        if self.priority.len() < view.workload.problem.n_tasks() {
            self.priority
                .resize(view.workload.problem.n_tasks(), f64::INFINITY);
        }

        // Algorithm-1 discipline over the live state: ready tasks by
        // ascending H, each onto the idle GPU finishing it earliest.
        let p = &view.workload.problem;
        if self.warm.len() < p.jobs.len() {
            self.warm.resize(p.jobs.len(), Default::default());
        }
        let mut ready: Vec<usize> = view.ready.iter().collect();
        ready.sort_by(|&a, &b| {
            self.priority[a]
                .total_cmp(&self.priority[b])
                .then(a.cmp(&b))
        });
        let mut idle: Vec<usize> = view.idle_gpus.iter().collect();
        for task in ready {
            if idle.is_empty() {
                break;
            }
            let job = p.tasks[task].job;
            let gpus = view.workload.cluster.gpus();
            let fastest = |g: usize| (p.train(task, g), g);
            let best = idle
                .iter()
                .map(|&g| p.train(task, g))
                .min()
                .expect("idle is non-empty: checked at loop top");
            // Warm-placement affinity: among idle GPUs within 20% of the
            // fastest, prefer one on a machine that already holds this
            // job's checkpoint. Migrating to a cold machine pays a
            // shared-store fetch, so the tie-break matters: equal-speed
            // GPUs would otherwise rotate by index and drag the job
            // across every machine in the cluster.
            let slack = best.as_secs_f64() * 1.2;
            let (pos, &gpu) = idle
                .iter()
                .enumerate()
                .filter(|&(_, &g)| {
                    self.warm[job].contains(&gpus[g].machine)
                        && p.train(task, g).as_secs_f64() <= slack
                })
                .min_by_key(|&(_, &g)| fastest(g))
                .or_else(|| idle.iter().enumerate().min_by_key(|&(_, &g)| fastest(g)))
                .expect("idle is non-empty: checked at loop top");
            self.warm[job].insert(gpus[gpu].machine);
            out.push((task, gpu));
            idle.remove(pos);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_cluster::Cluster;
    use hare_sim::{FaultPlan, GpuFault, SimWorkload, Simulation};
    use hare_workload::{testbed_trace, ProfileDb};

    fn workload(n: usize, seed: u64) -> SimWorkload {
        let db = ProfileDb::with_noise(seed, 0.0);
        let mut trace = testbed_trace(seed);
        trace.truncate(n);
        SimWorkload::build(Cluster::testbed15(), trace, &db)
    }

    #[test]
    fn completes_all_jobs_and_replans_per_arrival_burst() {
        let w = workload(12, 7);
        let mut policy = HareOnline::new();
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut policy)
            .expect("simulation");
        assert_eq!(report.completion.len(), 12);
        assert!(policy.replans() >= 1);
        assert!(
            policy.replans() <= 12,
            "at most one replan per arrival event"
        );
    }

    #[test]
    fn online_is_close_to_clairvoyant_offline() {
        let w = workload(20, 3);
        let offline = {
            let out = hare_core::HareScheduler::default().schedule(&w.problem);
            let mut replay = hare_sim::OfflineReplay::new("Hare", &w, &out.schedule);
            Simulation::new(&w)
                .with_noise(0.0)
                .run(&mut replay)
                .expect("simulation")
        };
        let online = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut HareOnline::new())
            .expect("simulation");
        let regret = online.weighted_jct / offline.weighted_jct;
        assert!(
            regret < 1.5,
            "online regret too large: {regret:.2} (online {:.0} vs offline {:.0})",
            online.weighted_jct,
            offline.weighted_jct
        );
    }

    #[test]
    fn online_beats_fifo() {
        let w = workload(20, 5);
        let online = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut HareOnline::new())
            .expect("simulation");
        let fifo = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut crate::GavelFifo::new())
            .expect("simulation");
        assert!(online.weighted_jct < fifo.weighted_jct);
    }

    /// A plan of GPU failures, each `(at_secs, gpu, down_secs)`.
    fn gpu_faults(faults: &[(u64, usize, Option<u64>)]) -> FaultPlan {
        let gpu_faults = faults
            .iter()
            .map(|&(at, gpu, down)| GpuFault {
                gpu,
                at: SimTime::from_secs(at),
                recover_after: down.map(SimDuration::from_secs),
            })
            .collect();
        FaultPlan {
            gpu_faults,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn survives_gpu_failures_without_a_migration_hook() {
        // HareOnline re-derives every decision from the live view, so the
        // default on_gpu_failure (no-op) suffices: the requeued task is in
        // the ready set and simply gets re-dispatched elsewhere.
        let w = workload(10, 21);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .with_fault_plan(&gpu_faults(&[(20, 0, None), (40, 8, None)]))
            .run(&mut HareOnline::new())
            .expect("simulation");
        assert_eq!(report.completion.len(), 10);
        assert!(report.gpus[0].busy <= hare_cluster::SimDuration::from_secs(25));
    }

    #[test]
    fn replans_on_failure_and_recovery() {
        let w = workload(10, 21);
        let baseline = {
            let mut policy = HareOnline::new();
            Simulation::new(&w)
                .with_noise(0.0)
                .run(&mut policy)
                .expect("simulation");
            policy.replans()
        };
        // A transient failure forces two extra replans (one for the
        // shrink, one for the rejoin) — the cluster-shape dirty flag.
        let mut policy = HareOnline::new();
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .with_fault_plan(&gpu_faults(&[(20, 0, Some(60))]))
            .run(&mut policy)
            .expect("simulation");
        assert_eq!(report.completion.len(), 10);
        assert_eq!(report.faults.gpu_recoveries, 1);
        assert!(
            policy.replans() > baseline,
            "failure/recovery must trigger replanning ({} vs baseline {})",
            policy.replans(),
            baseline
        );
        // The recovered GPU is used again after rejoining.
        assert!(!report.gpus[0].busy.is_zero());
    }

    #[test]
    fn deterministic() {
        let w = workload(10, 9);
        let a = Simulation::new(&w)
            .run(&mut HareOnline::new())
            .expect("simulation");
        let b = Simulation::new(&w)
            .run(&mut HareOnline::new())
            .expect("simulation");
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_budget_still_completes_every_plan() {
        // The acceptance test for graceful degradation: with a deliberately
        // tiny budget every replan must still produce a plan (lower rungs),
        // no panics, no missed replans, and all jobs finish.
        let w = workload(12, 7);
        let mut policy = HareOnline::with_budget(ReplanBudget {
            budget: hare_solver::SolveBudget::capped(1, 1),
            ..ReplanBudget::default()
        });
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut policy)
            .expect("simulation");
        assert_eq!(report.completion.len(), 12);
        assert!(policy.replans() >= 1);
        let hits = policy.rung_hits();
        assert_eq!(
            hits.iter().map(|(_, n)| n).sum::<u64>() as u32,
            policy.replans()
        );
        // The relaxation cannot run on one pivot: every replan fell to the
        // stale-plan or greedy rung.
        assert_eq!(hits[0].1 + hits[1].1, 0, "upper rungs impossible: {hits:?}");
        assert!(hits[2].1 + hits[3].1 > 0);
    }

    #[test]
    fn generous_budget_uses_the_relaxation_and_stays_competitive() {
        let w = workload(12, 7);
        let mut policy = HareOnline::with_budget(ReplanBudget::default());
        let budgeted = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut policy)
            .expect("simulation");
        assert_eq!(budgeted.completion.len(), 12);
        // Solver latency is charged on the simulation clock.
        assert!(policy.solver_latency() > hare_cluster::SimDuration::ZERO);
        // The degraded-mode result cannot beat physics: compare to legacy
        // online Hare within a loose factor (latency delays plans).
        let legacy = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut HareOnline::new())
            .expect("simulation");
        assert!(budgeted.weighted_jct < legacy.weighted_jct * 1.5);
    }

    #[test]
    fn solver_degradation_fault_pushes_replans_down_the_ladder() {
        let w = workload(12, 7);
        let run = |plan: hare_sim::FaultPlan| {
            let mut policy = HareOnline::with_budget(ReplanBudget::default());
            let report = Simulation::new(&w)
                .with_noise(0.0)
                .with_fault_plan(&plan)
                .run(&mut policy)
                .expect("simulation");
            (report, policy.rung_hits())
        };
        let (healthy, healthy_hits) = run(hare_sim::FaultPlan::default());
        // A brownout covering the whole run shrinks every replan's budget
        // to a sliver of the default caps.
        let (degraded, degraded_hits) = run(hare_sim::FaultPlan {
            solver_degradations: vec![hare_sim::SolverDegradation {
                from: hare_cluster::SimTime::ZERO,
                until: hare_cluster::SimTime::from_secs(1_000_000),
                factor: 1e-5,
            }],
            ..hare_sim::FaultPlan::default()
        });
        assert_eq!(healthy.completion.len(), 12);
        assert_eq!(degraded.completion.len(), 12);
        // Healthy replans run the relaxation; browned-out ones cannot.
        assert!(healthy_hits[1].1 > 0, "healthy: {healthy_hits:?}");
        assert_eq!(
            degraded_hits[0].1 + degraded_hits[1].1,
            0,
            "degraded: {degraded_hits:?}"
        );
        assert!(degraded_hits[2].1 + degraded_hits[3].1 > 0);
    }

    #[test]
    fn budgeted_mode_is_deterministic() {
        let w = workload(10, 9);
        let cfg = ReplanBudget {
            budget: hare_solver::SolveBudget::capped(5_000, 100),
            ..ReplanBudget::default()
        };
        let a = Simulation::new(&w)
            .run(&mut HareOnline::with_budget(cfg))
            .expect("simulation");
        let b = Simulation::new(&w)
            .run(&mut HareOnline::with_budget(cfg))
            .expect("simulation");
        assert_eq!(a, b);
    }
}
