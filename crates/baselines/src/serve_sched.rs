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

use hare_cluster::{Cluster, SimDuration, SimTime};
use hare_core::{anytime_schedule, AnytimeOptions, JobInfo, SchedProblem, StalePlan};
use hare_sim::snapshot::{Reader, Writer};
use hare_sim::{PendingJob, PlanOutcome, QueueScheduler};
use hare_solver::SolveBudget;
use std::collections::BTreeMap;

/// Build the single-task-per-job sub-problem for one planning window.
///
/// `train[m]` is the job's full sequential service on GPU `m` (every task
/// back to back); `sync` is a negligible epsilon — the serve loop models
/// no cross-GPU synchronization at job granularity.
fn window_problem(window: &[&PendingJob], cluster: &Cluster) -> SchedProblem {
    let gpus = cluster.gpus();
    let jobs = window
        .iter()
        .map(|p| {
            let total = p.spec.task_count() as f64;
            JobInfo {
                weight: p.spec.weight,
                arrival: SimTime::ZERO,
                rounds: 1,
                sync_scale: 1,
                train: gpus
                    .iter()
                    .map(|g| SimDuration::from_millis_f64(p.spec.task_ms(g.kind) * total))
                    .collect(),
                sync: vec![SimDuration::from_micros(1); gpus.len()],
            }
        })
        .collect();
    SchedProblem::new(gpus.len(), jobs)
}

/// The anytime-ladder queue scheduler: each decision solves the window's
/// sub-problem under the budget fraction the pressure controller allows,
/// seeding the stale-plan rung with the priorities jobs earned in
/// previous (richer) decisions. Under brownout the plan falls down the
/// ladder instead of stalling — the serve loop's rung-hit counts make
/// the descent visible.
#[derive(Debug)]
pub struct LadderServe {
    options: AnytimeOptions,
    budget: SolveBudget,
    /// Priority each job id earned in its most recent plan; seeds the
    /// stale-plan rung the next time the job is in the window.
    prev_h: BTreeMap<u32, f64>,
    /// Decisions won by each rung, ladder order (observability).
    rung_hits: [u64; 4],
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
            prev_h: BTreeMap::new(),
            rung_hits: [0; 4],
        }
    }
}

impl LadderServe {
    /// A ladder scheduler with the default budget and options.
    pub fn new() -> Self {
        LadderServe::default()
    }

    /// Decisions won by each rung, `(name, count)` in ladder order.
    pub fn rung_hits(&self) -> [(&'static str, u64); 4] {
        let mut out = [("", 0u64); 4];
        for (slot, (rung, &hits)) in out
            .iter_mut()
            .zip(hare_core::Rung::ALL.iter().zip(&self.rung_hits))
        {
            *slot = (rung.name(), hits);
        }
        out
    }
}

impl QueueScheduler for LadderServe {
    fn name(&self) -> &'static str {
        "Ladder"
    }

    /// The ladder's plans depend on the stale-plan cache (and the rung
    /// tallies feed reports), so both must survive a crash snapshot: the
    /// four tallies, then a `|` group of `job id:priority` items, in the
    /// grammar of [`hare_sim::snapshot`].
    fn save_state(&self) -> String {
        let mut w = Writer::default();
        for &hits in &self.rung_hits {
            w.int(hits);
        }
        w.group()
            .list(&self.prev_h, |w, (&id, &h)| w.int(id).f64(h));
        w.finish()
    }

    fn load_state(&mut self, state: &str) {
        let loaded = Reader::value(state, |r| {
            let mut hits = [0; 4];
            for h in &mut hits {
                *h = r.int("rung hits")?;
            }
            let prev_h = r
                .group()?
                .list(|r| Some((r.int("job id")?, r.f64("priority")?)))?;
            Some((hits, prev_h.into_iter().collect()))
        });
        (self.rung_hits, self.prev_h) =
            loaded.unwrap_or_else(|e| panic!("corrupt LadderServe snapshot state: {e}"));
    }

    fn plan(&mut self, window: &[&PendingJob], cluster: &Cluster, budget_frac: f64) -> PlanOutcome {
        let sub = window_problem(window, cluster);
        // One task per job, built in window order.
        debug_assert!(sub.tasks.iter().enumerate().all(|(i, t)| t.job == i));
        let stale = StalePlan {
            h: window
                .iter()
                .map(|p| {
                    self.prev_h
                        .get(&p.spec.id.0)
                        .copied()
                        .unwrap_or(f64::INFINITY)
                })
                .collect(),
        };
        let scaled = self.budget.scaled(budget_frac);
        let out = anytime_schedule(&sub, &self.options, &scaled, Some(&stale), None);
        if let Some(i) = hare_core::Rung::ALL
            .iter()
            .position(|r| *r == out.provenance.chosen)
        {
            self.rung_hits[i] += 1;
        }
        for (p, &h) in window.iter().zip(&out.h) {
            self.prev_h.insert(p.spec.id.0, h);
        }
        // Dispatch by ascending priority (ties by window position, i.e.
        // fair-queue order).
        let mut order: Vec<usize> = (0..window.len()).collect();
        order.sort_by(|&a, &b| out.h[a].total_cmp(&out.h[b]).then(a.cmp(&b)));
        PlanOutcome {
            order,
            work: out.provenance.work,
            rung: out.provenance.chosen.name(),
        }
    }
}

/// Shortest-remaining-time-first baseline: rank by best-case service time
/// (fastest GPU), ignore the budget fraction. Cheap and stable, but
/// blind to weights and to placement — the ladder's competition.
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
        let best: Vec<SimDuration> = window
            .iter()
            .map(|p| {
                let total = p.spec.task_count() as f64;
                cluster
                    .gpus()
                    .iter()
                    .map(|g| SimDuration::from_millis_f64(p.spec.task_ms(g.kind) * total))
                    .min()
                    .unwrap_or(SimDuration::ZERO)
            })
            .collect();
        let mut order: Vec<usize> = (0..window.len()).collect();
        order.sort_by(|&a, &b| best[a].cmp(&best[b]).then(a.cmp(&b)));
        PlanOutcome {
            order,
            // A sort over w jobs: flat, tiny work — SRTF never browns out.
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
        assert_eq!(out.order.len(), 3);
        assert_eq!(out.rung, "exact", "3 tasks fit under the exact limit");
        assert!(out.work > 0);
    }

    #[test]
    fn ladder_descends_under_a_starved_budget() {
        let (a, _) = window_of((0..6).map(|i| spec(i, ModelKind::ResNet50, 2)).collect());
        let window = a.peek_window(6);
        let mut sched = LadderServe::new();
        // Warm plan at full budget, then a brownout sliver: the ladder
        // must fall to the stale-plan or greedy rung, never stall.
        let full = sched.plan(&window, &Cluster::testbed15(), 1.0);
        let starved = sched.plan(&window, &Cluster::testbed15(), 0.0);
        assert!(
            matches!(starved.rung, "stale-plan" | "greedy"),
            "{}",
            starved.rung
        );
        assert!(starved.work < full.work, "brownout plans are cheaper");
        let hits = sched.rung_hits();
        assert_eq!(hits.iter().map(|(_, n)| n).sum::<u64>(), 2);
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
        assert_eq!(out.order[0], 1, "the one-round job dispatches first");
        assert_eq!(
            out.order,
            sched.plan(&window, &Cluster::testbed15(), 1.0).order
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
    fn ladder_state_survives_a_save_load_round_trip() {
        let (a, _) = window_of((0..6).map(|i| spec(i, ModelKind::ResNet50, 2)).collect());
        let window = a.peek_window(6);
        let mut warm = LadderServe::new();
        let _ = warm.plan(&window, &Cluster::testbed15(), 1.0);
        let _ = warm.plan(&window, &Cluster::testbed15(), 0.1);

        let mut cold = LadderServe::new();
        cold.load_state(&warm.save_state());
        assert_eq!(cold.save_state(), warm.save_state(), "state is bit-exact");
        // Identical state ⇒ identical future plans (the stale-plan rung
        // reads prev_h, so a lossy restore would diverge here).
        let a = warm.plan(&window, &Cluster::testbed15(), 0.0);
        let b = cold.plan(&window, &Cluster::testbed15(), 0.0);
        assert_eq!(a.order, b.order);
        assert_eq!(a.work, b.work);
        assert_eq!(a.rung, b.rung);
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
