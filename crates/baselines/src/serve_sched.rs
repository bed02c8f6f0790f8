//! Queue schedulers for the continuous-service loop
//! ([`hare_sim::ServeLoop`]): the anytime-ladder scheduler that the
//! brownout controller throttles, and an SRTF heuristic baseline.
//!
//! The serve loop schedules at *job* granularity: each pending job
//! becomes one single-task [`JobInfo`] (its whole remaining service as
//! one unit of work), so a planning window of `w` jobs is a `w`-task
//! [`SchedProblem`] — small enough that the exact branch-and-bound rung
//! is reachable at full budget, and the whole degradation ladder (exact →
//! relaxation → stale-plan → greedy) exercises as the
//! [`hare_sim::BudgetController`] shrinks the fraction.

use hare_cluster::{Cluster, GpuKind, SimDuration, SimTime};
use hare_core::{anytime_schedule, AnytimeOptions, JobInfo, SchedProblem, StalePlan};
use hare_sim::{PendingJob, PlanOutcome, QueueScheduler};
use hare_solver::SolveBudget;

/// Build the single-task-per-job sub-problem for one planning window.
///
/// `train[m]` is the job's full sequential service on GPU `m` (every task
/// back to back); `sync` is a negligible epsilon — the serve loop models
/// no cross-GPU synchronization at job granularity.
fn window_problem(window: &[&PendingJob], cluster: &Cluster) -> SchedProblem {
    let n_gpus = cluster.gpu_count();
    let jobs = window
        .iter()
        .map(|p| JobInfo {
            weight: p.spec.weight,
            arrival: SimTime::ZERO,
            rounds: 1,
            sync_scale: 1,
            train: cluster.per_kind(|kind| service(p, kind)),
            sync: vec![SimDuration::from_micros(1); n_gpus],
        })
        .collect();
    SchedProblem::new(n_gpus, jobs)
}

/// A pending job's full sequential service on one GPU of `kind`.
fn service(p: &PendingJob, kind: GpuKind) -> SimDuration {
    SimDuration::from_millis_f64(p.spec.task_ms(kind) * p.spec.task_count() as f64)
}

/// The anytime-ladder queue scheduler: each decision solves the window's
/// sub-problem under the budget fraction the pressure controller allows,
/// seeding the stale-plan rung with the priority each job earned in its
/// previous (richer) decision, which the job carries
/// ([`PendingJob::priority`]). Under brownout the plan falls down the
/// ladder instead of stalling — the serve loop's rung-hit counts make
/// the descent visible. The scheduler itself holds only its options.
#[derive(Debug)]
pub struct LadderServe {
    options: AnytimeOptions,
    budget: SolveBudget,
}

impl Default for LadderServe {
    fn default() -> Self {
        LadderServe {
            options: AnytimeOptions {
                // The plan window is small (≤ 16 jobs → as many tasks);
                // let the exact rung run on modest windows so the full
                // ladder is in play.
                exact_task_limit: 9,
                ..AnytimeOptions::default()
            },
            budget: SolveBudget::capped(200_000, 100_000),
        }
    }
}

impl LadderServe {
    /// A ladder scheduler with the default budget and options.
    pub fn new() -> Self {
        LadderServe::default()
    }
}

impl QueueScheduler for LadderServe {
    fn name(&self) -> &'static str {
        "Ladder"
    }

    fn plan(&mut self, window: &[&PendingJob], cluster: &Cluster, budget_frac: f64) -> PlanOutcome {
        let sub = window_problem(window, cluster);
        // One task per job, built in window order.
        debug_assert!(sub.tasks.iter().enumerate().all(|(i, t)| t.job == i));
        let stale = StalePlan {
            h: window.iter().map(|p| p.priority).collect(),
        };
        let scaled = self.budget.scaled(budget_frac);
        let out = anytime_schedule(&sub, &self.options, &scaled, Some(&stale), None);
        PlanOutcome {
            priority: out.h,
            work: out.work,
            rung: out.chosen.name(),
        }
    }
}

/// Shortest-remaining-time-first baseline: rank by best-case service time
/// (fastest GPU, in µs), ignore the budget fraction. Cheap and stable,
/// but blind to weights and to placement — the ladder's competition.
#[derive(Debug, Default)]
pub struct SrtfServe;

impl SrtfServe {
    /// A new SRTF queue scheduler.
    pub fn new() -> Self {
        SrtfServe
    }
}

impl QueueScheduler for SrtfServe {
    fn name(&self) -> &'static str {
        "SRTF"
    }

    fn plan(
        &mut self,
        window: &[&PendingJob],
        cluster: &Cluster,
        _budget_frac: f64,
    ) -> PlanOutcome {
        let kinds = cluster.kinds_present();
        let priority = window
            .iter()
            .map(|p| {
                kinds
                    .iter()
                    .map(|&kind| service(p, kind))
                    .min()
                    .unwrap_or(SimDuration::ZERO)
                    .as_micros() as f64
            })
            .collect();
        PlanOutcome {
            priority,
            // One pass over w jobs: flat, tiny work — SRTF never browns out.
            work: window.len() as u64 * 8,
            rung: "srtf",
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_sim::{AdmissionConfig, AdmissionController, ServeConfig, ServeLoop, TenantId};
    use hare_workload::{
        estimate_capacity_jobs_per_sec, JobId, JobSpec, ModelKind, OpenArrivalConfig,
    };

    /// Pending jobs can only be minted by an admission controller; an
    /// unthrottled one gives us a window to plan against.
    fn window_of(specs: Vec<JobSpec>) -> (AdmissionController, Vec<u64>) {
        let mut a = AdmissionController::new(AdmissionConfig::unthrottled());
        let n = specs.len();
        for (i, s) in specs.into_iter().enumerate() {
            a.offer(SimTime::from_secs(i as u64), TenantId(0), s);
        }
        let seqs = a.peek_window(n).iter().map(|p| p.seq).collect();
        (a, seqs)
    }

    fn spec(id: u32, model: ModelKind, rounds: u32) -> JobSpec {
        JobSpec::new(JobId(id), model, rounds, 1)
    }

    #[test]
    fn ladder_uses_the_exact_rung_at_full_budget_on_a_small_window() {
        let (a, _) = window_of(vec![
            spec(0, ModelKind::ResNet50, 2),
            spec(1, ModelKind::Vgg19, 3),
            spec(2, ModelKind::InceptionV3, 1),
        ]);
        let window = a.peek_window(3);
        let mut sched = LadderServe::new();
        let out = sched.plan(&window, &Cluster::testbed15(), 1.0);
        assert_eq!(out.priority.len(), 3);
        assert_eq!(out.rung, "exact", "3 tasks fit under the exact limit");
        assert!(out.work > 0);
    }

    /// `window`'s jobs carrying `priority`, as the serve loop leaves
    /// them after a plan.
    fn planned(window: &[&PendingJob], priority: &[f64]) -> Vec<PendingJob> {
        let mut jobs: Vec<PendingJob> = window.iter().map(|&p| p.clone()).collect();
        for (job, &h) in jobs.iter_mut().zip(priority) {
            job.priority = h;
        }
        jobs
    }

    #[test]
    fn ladder_descends_under_a_starved_budget() {
        let (a, _) = window_of((0..6).map(|i| spec(i, ModelKind::ResNet50, 2)).collect());
        let window = a.peek_window(6);
        let mut sched = LadderServe::new();
        // Warm plan at full budget, then a brownout sliver over the jobs
        // it planned: the ladder must fall to the stale-plan or greedy
        // rung, never stall.
        let full = sched.plan(&window, &Cluster::testbed15(), 1.0);
        let warmed = planned(&window, &full.priority);
        let warmed: Vec<&PendingJob> = warmed.iter().collect();
        let starved = sched.plan(&warmed, &Cluster::testbed15(), 0.0);
        assert!(
            matches!(starved.rung, "stale-plan" | "greedy"),
            "{}",
            starved.rung
        );
        assert!(starved.work < full.work, "brownout plans are cheaper");
        let rungs: Vec<&str> = hare_core::Rung::ALL.iter().map(|r| r.name()).collect();
        let returned = [full.rung, starved.rung];
        assert_eq!(
            returned.iter().filter(|r| rungs.contains(r)).count(),
            2,
            "each plan names the ladder rung that made it: {returned:?}"
        );
    }

    #[test]
    fn srtf_ranks_shortest_first_and_is_deterministic() {
        let (a, _) = window_of(vec![
            spec(0, ModelKind::Vgg19, 8),
            spec(1, ModelKind::ResNet50, 1),
            spec(2, ModelKind::Vgg19, 8),
        ]);
        let window = a.peek_window(3);
        let mut sched = SrtfServe::new();
        let out = sched.plan(&window, &Cluster::testbed15(), 1.0);
        let first = (0..3).min_by(|&a, &b| out.priority[a].total_cmp(&out.priority[b]));
        assert_eq!(first, Some(1), "the one-round job dispatches first");
        assert_eq!(
            out.priority,
            sched.plan(&window, &Cluster::testbed15(), 1.0).priority
        );
    }

    fn serve_config(load: f64, horizon_secs: u64) -> ServeConfig {
        let cluster = Cluster::testbed15();
        let mut arrivals = OpenArrivalConfig {
            load_factor: load,
            seed: 23,
            ..OpenArrivalConfig::default()
        };
        let counts: Vec<_> = cluster.count_by_kind().into_iter().collect();
        arrivals.capacity_jobs_per_sec =
            estimate_capacity_jobs_per_sec(&counts, &arrivals, OpenArrivalConfig::CAPACITY_SAMPLES);
        ServeConfig {
            arrivals,
            horizon: hare_cluster::SimTime::from_secs(horizon_secs),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn overloaded_serve_run_descends_the_ladder_and_stays_bounded() {
        let cfg = serve_config(2.0, 4_000);
        let cap = cfg.admission.queue_capacity;
        let report = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut LadderServe::new());
        assert!(report.queue_depth_max <= cap);
        assert!(report.counters.conserved(), "{:?}", report.counters);
        assert!(
            report.min_budget_level < 1.0,
            "sustained overload must brown the solver out"
        );
        let degraded: u64 = report
            .rung_hits
            .iter()
            .filter(|(r, _)| r.as_str() != "exact")
            .map(|(_, n)| n)
            .sum();
        assert!(degraded > 0, "rung hits: {:?}", report.rung_hits);
    }

    #[test]
    fn calm_serve_run_stays_on_the_exact_rung() {
        let cfg = serve_config(0.3, 3_000);
        let report = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut LadderServe::new());
        assert!(report.counters.conserved());
        assert_eq!(report.min_budget_level, 1.0, "no brownout at low load");
        let top = report.rung_hits.get("exact").copied().unwrap_or(0);
        let total: u64 = report.rung_hits.values().sum();
        assert!(
            top * 2 > total,
            "exact rung should dominate at low load: {:?}",
            report.rung_hits
        );
    }

    #[test]
    fn ladder_seeds_the_stale_plan_from_each_jobs_priority() {
        let (a, _) = window_of((0..6).map(|i| spec(i, ModelKind::ResNet50, 2)).collect());
        let window = a.peek_window(6);
        let cluster = Cluster::testbed15();
        let finite = planned(&window, &[3.0, 1.0, 4.0, 1.5, 5.0, 9.0]);
        let unknown = planned(&window, &[f64::INFINITY; 6]);
        let mut sched = LadderServe::new();
        let unseeded = sched.plan(&unknown.iter().collect::<Vec<_>>(), &cluster, 0.0);
        let seeded = sched.plan(&finite.iter().collect::<Vec<_>>(), &cluster, 0.0);
        // At budget 0 the solver rungs spend nothing, so the stale-plan
        // rung's flat work (one unit per task) is the only difference.
        assert_eq!(seeded.work, unseeded.work + window.len() as u64);
        assert_ne!(unseeded.rung, "stale-plan", "no job has a priority yet");
        // The scheduler keeps nothing between plans: a fresh one plans
        // the seeded window the same way.
        let fresh = LadderServe::new().plan(&finite.iter().collect::<Vec<_>>(), &cluster, 0.0);
        assert_eq!(
            (fresh.priority, fresh.work, fresh.rung),
            (seeded.priority, seeded.work, seeded.rung)
        );
    }

    #[test]
    fn ladder_serve_is_deterministic_end_to_end() {
        let cfg = serve_config(1.4, 2_000);
        let a = ServeLoop::new(Cluster::testbed15(), cfg.clone()).run(&mut LadderServe::new());
        let b = ServeLoop::new(Cluster::testbed15(), cfg).run(&mut LadderServe::new());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }
}
