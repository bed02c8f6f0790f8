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

use crate::common::{admit_in_order, oblivious_order, GangPolicy, GangRule};
use hare_sim::SimWorkload;

/// Shortest-remaining-time-first admission with dedicated gangs.
pub type Srtf = GangPolicy<SrtfRule>;

/// SRTF's admission rule: waiting jobs by remaining rounds × best-case
/// round time (fastest-GPU task time plus its sync), shortest first, onto
/// kind-blind gangs. No head-of-line blocking: a smaller job may slip past
/// one that cannot fit.
#[derive(Copy, Clone, Debug, Default)]
pub struct SrtfRule;

impl GangRule for SrtfRule {
    const NAME: &'static str = "SRTF";

    fn admission_key(&self, w: &SimWorkload, job: usize) -> f64 {
        let info = &w.problem.jobs[job];
        let best_round = info
            .train
            .iter()
            .zip(&info.sync)
            .map(|(t, s)| t.as_secs_f64() + s.as_secs_f64())
            .fold(f64::MAX, f64::min);
        info.rounds as f64 * best_round
    }

    /// Placement-oblivious: a fixed kind-blind permutation, for repairs
    /// as for admissions.
    fn gpu_order(&self, w: &SimWorkload) -> Vec<usize> {
        oblivious_order(w)
    }

    fn admit(
        &self,
        w: &SimWorkload,
        waiting: &[usize],
        free: Vec<usize>,
    ) -> Vec<(usize, Vec<usize>)> {
        admit_in_order(w, waiting, free, false)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_cluster::{Cluster, GpuKind, SimTime};
    use hare_sim::Simulation;
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
