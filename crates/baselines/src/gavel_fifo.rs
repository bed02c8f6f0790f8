//! Gavel_FIFO (Section 7.1): FIFO job scheduling customized for
//! heterogeneous GPUs per Gavel \[29\] — jobs start in arrival order, each
//! gets a *dedicated* gang of the fastest GPUs available for its whole
//! lifetime, and a job that cannot get its demanded GPU count blocks the
//! queue behind it (traditional batch-system head-of-line behaviour).

use crate::common::{
    continue_on_gang, fastest_idle, ready_by_job, release_completed, repair_gangs, Reservations,
};
use hare_sim::{Policy, SimView};
use std::collections::BTreeSet;

/// FIFO with heterogeneity-aware (fastest-first) gang placement.
#[derive(Debug, Default)]
pub struct GavelFifo {
    /// Dedicated GPU set per job, once placed (cleared at completion).
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    /// GPUs currently down (fault injection).
    down: BTreeSet<usize>,
}

impl GavelFifo {
    /// New policy instance.
    pub fn new() -> Self {
        GavelFifo::default()
    }

    fn ensure_len(&mut self, n: usize) {
        if self.placed.len() < n {
            self.placed.resize(n, None);
        }
    }
}

impl Policy for GavelFifo {
    fn name(&self) -> String {
        "Gavel_FIFO".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        self.ensure_len(p.jobs.len());
        release_completed(view, &mut self.placed, &mut self.reservations);
        // The speed-sorted idle list depends only on `view`, which is
        // fixed for the whole call: sort once, filter per use below.
        let fast_all = fastest_idle(view);
        if !self.down.is_empty() {
            repair_gangs(
                fast_all.clone(),
                &self.down,
                &mut self.placed,
                &mut self.reservations,
            );
        }
        let ready = ready_by_job(view);
        let mut idle: Vec<usize> = view.idle_gpus.to_vec();

        // 1. Placed jobs run their released rounds on their own gang.
        for (&job, tasks) in &ready {
            if let Some(gang) = &self.placed[job] {
                continue_on_gang(tasks, gang, &mut idle, out);
            }
        }

        // 2. Admit unplaced jobs strictly in arrival order (= job index:
        // traces are arrival-sorted). The first job that cannot fit blocks
        // everything behind it.
        for job in 0..p.jobs.len() {
            if self.placed[job].is_some() || !view.arrived[job] {
                continue;
            }
            if crate::common::job_done(view, job) {
                continue;
            }
            let Some(tasks) = ready.get(&job) else {
                // Arrived but its round is not released yet (still
                // syncing — cannot happen for unplaced jobs, whose round 0
                // is released at arrival) — skip defensively.
                continue;
            };
            let need = p.jobs[job].sync_scale as usize;
            let fast: Vec<usize> = fast_all
                .iter()
                .copied()
                .filter(|&g| idle.contains(&g) && self.reservations.is_free(g))
                .collect();
            if fast.len() < need {
                break; // FIFO head-of-line blocking
            }
            let gang: Vec<usize> = fast[..need].to_vec();
            for (&task, &gpu) in tasks.iter().zip(gang.iter()) {
                out.push((task, gpu));
                idle.retain(|&g| g != gpu);
            }
            // Dedicate the gang for the job's lifetime.
            self.reservations.reserve(&gang);
            self.placed[job] = Some(gang);
        }
    }

    fn on_gpu_failure(&mut self, gpu: usize, _requeued: &[usize]) {
        self.down.insert(gpu);
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.down.remove(&gpu);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_cluster::Cluster;
    use hare_sim::{SimWorkload, Simulation};
    use hare_workload::{testbed_trace, ProfileDb};

    fn workload(n: usize) -> SimWorkload {
        let db = ProfileDb::with_noise(1, 0.0);
        let mut trace = testbed_trace(5);
        trace.truncate(n);
        SimWorkload::build(Cluster::testbed15(), trace, &db)
    }

    #[test]
    fn completes_all_jobs() {
        let w = workload(8);
        let mut policy = GavelFifo::new();
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut policy)
            .expect("simulation");
        assert_eq!(report.completion.len(), 8);
        assert_eq!(report.scheme, "Gavel_FIFO");
    }

    #[test]
    fn jobs_start_in_arrival_order() {
        let w = workload(8);
        let mut policy = GavelFifo::new();
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut policy)
            .expect("simulation");
        // First-arrived jobs should not complete after much-later arrivals
        // with similar loads... the robust FIFO property: start order is
        // arrival order, which we observe through completion - duration
        // consistency. Here: job 0 must be among the earliest completions
        // of jobs with comparable rounds. Minimal check: job 0 starts
        // immediately, so its completion is at most its serial time on the
        // slowest GPU plus sync slack.
        let p = &w.problem;
        let info = &p.jobs[0];
        let worst_round = info.train.iter().max().unwrap().as_secs_f64() * info.sync_scale as f64
            + info.sync.iter().max().unwrap().as_secs_f64() * 4.0;
        let bound = info.arrival.as_secs_f64() + worst_round * info.rounds as f64;
        assert!(
            report.completion[0].as_secs_f64() <= bound + 1.0,
            "job 0 was delayed: {} > {bound}",
            report.completion[0]
        );
    }

    #[test]
    fn uses_fastest_gpus_first() {
        let w = workload(2);
        let mut policy = GavelFifo::new();
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut policy)
            .expect("simulation");
        // With only two jobs on a 15-GPU cluster, all work should land on
        // V100s (GPUs 0..8 are the V100s in testbed15).
        for (g, gr) in report.gpus.iter().enumerate() {
            if g >= 8 {
                assert!(
                    gr.busy.is_zero(),
                    "non-V100 GPU {g} should stay idle with 2 small jobs"
                );
            }
        }
    }
}
