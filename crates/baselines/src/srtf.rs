//! SRTF — Shortest Remaining Time First (Section 7.1).
//!
//! Always admits the waiting job that could complete earliest. Like every
//! pre-Hare scheduler the paper compares against, it is job-level and
//! non-preemptive ("a job cannot be preempted once it starts to run",
//! Section 5.1): an admitted job receives a dedicated gang of idle GPUs
//! and keeps it until completion. The SRTF discipline only orders
//! *admissions*; unlike Gavel_FIFO (which the paper explicitly describes
//! as customized for heterogeneity), classic SRTF is placement-oblivious,
//! so the gang is drawn kind-blind.

use crate::common::{
    best_round_secs, continue_on_gang, oblivious_order, ready_by_job, release_completed,
    repair_gangs, Reservations,
};
use hare_sim::{Policy, SimView};
use std::collections::BTreeSet;

/// Shortest-remaining-time-first admission with dedicated gangs.
#[derive(Debug, Default)]
pub struct Srtf {
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    /// GPUs currently down (fault injection).
    down: BTreeSet<usize>,
    /// Cached per-job best-case round seconds (static over a run), so the
    /// admission key — remaining rounds × this — folds over the GPUs once
    /// per job instead of inside the sort's comparator.
    round_best: Vec<f64>,
}

impl Srtf {
    /// New policy instance.
    pub fn new() -> Self {
        Srtf::default()
    }

    fn ensure_len(&mut self, n: usize) {
        if self.placed.len() < n {
            self.placed.resize(n, None);
        }
    }
}

impl Policy for Srtf {
    fn name(&self) -> String {
        "SRTF".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        self.ensure_len(p.jobs.len());
        while self.round_best.len() < p.jobs.len() {
            self.round_best
                .push(best_round_secs(view, self.round_best.len()));
        }
        release_completed(view, &mut self.placed, &mut self.reservations);
        // Repairs draw kind-blind, like every other SRTF placement.
        let mut repair_pool: Vec<usize> = view.idle_gpus.to_vec();
        oblivious_order(&mut repair_pool);
        repair_gangs(
            repair_pool,
            &self.down,
            &mut self.placed,
            &mut self.reservations,
        );
        let ready = ready_by_job(view);
        let mut idle: Vec<usize> = view.idle_gpus.to_vec();

        // Placed jobs continue on their dedicated gang.
        for (&job, tasks) in &ready {
            if let Some(gang) = &self.placed[job] {
                continue_on_gang(tasks, gang, &mut idle, out);
            }
        }

        // Admit waiting jobs, shortest remaining first, onto the fastest
        // free GPUs. No head-of-line blocking: a smaller job may slip past
        // one that cannot fit. The key — remaining rounds × the cached
        // best-case round time — is computed once per job rather than
        // inside the comparator.
        let mut waiting: Vec<(f64, usize)> = ready
            .keys()
            .copied()
            .filter(|&j| self.placed[j].is_none())
            .map(|j| {
                let remaining = p.jobs[j].rounds - view.synced_rounds[j];
                (remaining as f64 * self.round_best[j], j)
            })
            .collect();
        waiting.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Placement-oblivious: a fixed kind-blind permutation (index order
        // would accidentally correlate with speed — see SchedHomo).
        let mut free: Vec<usize> = idle
            .iter()
            .copied()
            .filter(|&g| self.reservations.is_free(g))
            .collect();
        oblivious_order(&mut free);
        for (_, job) in waiting {
            let need = p.jobs[job].sync_scale as usize;
            if free.len() < need {
                continue;
            }
            let gang: Vec<usize> = free.drain(..need).collect();
            for (&task, &gpu) in ready[&job].iter().zip(gang.iter()) {
                out.push((task, gpu));
            }
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
    use hare_cluster::{Cluster, GpuKind, SimTime};
    use hare_sim::{SimWorkload, Simulation};
    use hare_workload::{JobId, JobSpec, ModelKind, ProfileDb};

    fn direct_workload(specs: Vec<JobSpec>) -> SimWorkload {
        let db = ProfileDb::with_noise(1, 0.0);
        SimWorkload::build(Cluster::homogeneous(GpuKind::V100, 2), specs, &db)
    }

    #[test]
    fn short_job_admitted_first() {
        // A blocker occupies the only GPU; a long and a short job arrive
        // while it runs. At the blocker's completion SRTF must admit the
        // short job before the long one despite the long one's earlier id.
        let db = ProfileDb::with_noise(1, 0.0);
        let blocker = JobSpec::new(JobId(0), ModelKind::ResNet50, 4, 1);
        let long =
            JobSpec::new(JobId(1), ModelKind::BertBase, 40, 1).arriving_at(SimTime::from_secs(1));
        let short =
            JobSpec::new(JobId(2), ModelKind::GraphSage, 2, 1).arriving_at(SimTime::from_secs(1));
        let w = SimWorkload::build(
            Cluster::homogeneous(GpuKind::V100, 1),
            vec![blocker, long, short],
            &db,
        );
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut Srtf::new())
            .expect("simulation");
        assert!(report.completion[2] < report.completion[1]);
        // The short job runs right after the blocker.
        let slack = report.completion[2].as_secs_f64() - report.completion[0].as_secs_f64();
        let own = (w.problem.jobs[2].train[0] * 2).as_secs_f64();
        assert!(
            slack < own * 2.0 + 1.0,
            "short job waited too long: {slack}"
        );
    }

    #[test]
    fn no_preemption_once_started() {
        // A long job starts at t=0 on the only GPU; a short job arriving
        // later must wait for it to finish completely (non-preemptive).
        let db = ProfileDb::with_noise(1, 0.0);
        let long = JobSpec::new(JobId(0), ModelKind::ResNet50, 20, 1);
        let short =
            JobSpec::new(JobId(1), ModelKind::GraphSage, 1, 1).arriving_at(SimTime::from_secs(1));
        let w = SimWorkload::build(
            Cluster::homogeneous(GpuKind::V100, 1),
            vec![long, short],
            &db,
        );
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut Srtf::new())
            .expect("simulation");
        assert!(
            report.completion[1] > report.completion[0],
            "short job must not preempt the running long job"
        );
    }

    #[test]
    fn smaller_job_slips_past_blocked_gang() {
        // Job 0 needs 2 GPUs but only 1 exists... use 2 GPUs: job 0 (gang
        // of 2) runs; job 1 (1 GPU) arrives and must wait; job 2 with gang
        // 2 also waits. No deadlock, all complete.
        let gang = JobSpec::new(JobId(0), ModelKind::ResNet50, 4, 2);
        let single =
            JobSpec::new(JobId(1), ModelKind::FastGcn, 2, 1).arriving_at(SimTime::from_secs(1));
        let gang2 =
            JobSpec::new(JobId(2), ModelKind::ResNet50, 4, 2).arriving_at(SimTime::from_secs(2));
        let w = direct_workload(vec![gang, single, gang2]);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut Srtf::new())
            .expect("simulation");
        assert_eq!(report.completion.len(), 3);
        // The single-GPU job slips in before the second gang (it is
        // shorter and fits as soon as any GPU frees).
        assert!(report.completion[1] < report.completion[2]);
    }

    #[test]
    fn completes_mixed_testbed_trace() {
        let db = ProfileDb::with_noise(1, 0.0);
        let mut trace = hare_workload::testbed_trace(9);
        trace.truncate(10);
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut Srtf::new())
            .expect("simulation");
        assert_eq!(report.completion.len(), 10);
    }
}
