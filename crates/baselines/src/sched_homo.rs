//! Sched_Homo — Zhang et al. [47] (Section 7.1).
//!
//! Exploits both inter-job and intra-job parallelism to minimize weighted
//! job completion time, but assumes *homogeneous* GPUs and forbids job-level
//! preemption. Reproduced as: jobs ranked by weighted shortest remaining
//! work using the **mean** task time across GPUs (a heterogeneity-oblivious
//! estimate — all GPUs look identical to it); an admitted job receives a
//! gang of `sync_scale` GPUs chosen *without regard to speed* (lowest index
//! first) and keeps exactly those GPUs until it completes.

use crate::common::{
    continue_on_gang, mean_round_secs, oblivious_order, ready_by_job, release_completed,
    repair_gangs, Reservations,
};
use hare_sim::{Policy, SimView};
use std::collections::BTreeSet;

/// Heterogeneity-oblivious weighted-SRPT gang scheduler with dedicated GPUs.
#[derive(Debug, Default)]
pub struct SchedHomo {
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    /// GPUs currently down (fault injection).
    down: BTreeSet<usize>,
    /// Cached per-job mean round seconds (static over a run), so the
    /// admission key — remaining rounds × this / weight — averages over
    /// the GPUs once per job instead of inside the sort's comparator.
    round_mean: Vec<f64>,
}

impl SchedHomo {
    /// New policy instance.
    pub fn new() -> Self {
        SchedHomo::default()
    }

    fn ensure_len(&mut self, n: usize) {
        if self.placed.len() < n {
            self.placed.resize(n, None);
        }
    }
}

impl Policy for SchedHomo {
    fn name(&self) -> String {
        "Sched_Homo".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        self.ensure_len(p.jobs.len());
        while self.round_mean.len() < p.jobs.len() {
            self.round_mean
                .push(mean_round_secs(view, self.round_mean.len()));
        }
        release_completed(view, &mut self.placed, &mut self.reservations);
        // Repairs draw kind-blind, like every other Sched_Homo placement.
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

        // Admit waiting jobs by weighted remaining *mean* work (oblivious
        // to which GPUs are actually fast), smallest normalized first. The
        // key — remaining rounds × the cached round mean / weight — is
        // computed once per job rather than inside the comparator.
        let mut waiting: Vec<(f64, usize)> = ready
            .keys()
            .copied()
            .filter(|&j| self.placed[j].is_none())
            .map(|j| {
                let remaining = p.jobs[j].rounds - view.synced_rounds[j];
                (remaining as f64 * self.round_mean[j] / p.jobs[j].weight, j)
            })
            .collect();
        waiting.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.reservations.filter_free(&mut idle);
        // Oblivious choice: a fixed kind-blind pseudo-random permutation.
        // (A scheduler that believes GPUs are homogeneous has no reason to
        // prefer any index.)
        oblivious_order(&mut idle);
        for (_, job) in waiting {
            let need = p.jobs[job].sync_scale as usize;
            if idle.len() < need {
                continue;
            }
            let gang: Vec<usize> = idle.drain(..need).collect();
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
    use hare_cluster::{Cluster, GpuKind};
    use hare_sim::{SimWorkload, Simulation};
    use hare_workload::{JobId, JobSpec, ModelKind, ProfileDb};

    #[test]
    fn completes_testbed_trace() {
        let db = ProfileDb::with_noise(1, 0.0);
        let mut trace = hare_workload::testbed_trace(13);
        trace.truncate(10);
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut SchedHomo::new())
            .expect("simulation");
        assert_eq!(report.completion.len(), 10);
        assert_eq!(report.scheme, "Sched_Homo");
    }

    #[test]
    fn dedicated_gang_is_never_shared() {
        // Two 2-task jobs on a 2-GPU cluster: the second job must wait for
        // the first to completely finish (non-preemptive dedication), so
        // its completion is after the first one's.
        let db = ProfileDb::with_noise(1, 0.0);
        let a = JobSpec::new(JobId(0), ModelKind::ResNet50, 5, 2);
        let b = JobSpec::new(JobId(1), ModelKind::ResNet50, 5, 2);
        let w = SimWorkload::build(Cluster::homogeneous(GpuKind::V100, 2), vec![a, b], &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut SchedHomo::new())
            .expect("simulation");
        let c0 = report.completion[0];
        let c1 = report.completion[1];
        // Strictly serialized: the later job completes ~2x the earlier one.
        let (first, second) = if c0 < c1 { (c0, c1) } else { (c1, c0) };
        assert!(
            second.as_secs_f64() > first.as_secs_f64() * 1.8,
            "jobs overlapped on dedicated gangs: {first} vs {second}"
        );
    }

    #[test]
    fn oblivious_placement_ignores_gpu_speed() {
        // One job, heterogeneous 1xV100 + 1xK80 cluster (indices 0, 1),
        // sync_scale 1: Sched_Homo picks GPU 0 because it is first, not
        // because it is fast — we verify the *mechanism* by checking it
        // also picks index order when K80 comes first.
        let db = ProfileDb::with_noise(1, 0.0);
        let job = JobSpec::new(JobId(0), ModelKind::ResNet50, 3, 1);
        let cluster = Cluster::from_counts(&[(GpuKind::K80, 1), (GpuKind::V100, 1)], 4);
        let w = SimWorkload::build(cluster, vec![job], &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut SchedHomo::new())
            .expect("simulation");
        // The K80 (index 0) did all the work despite a V100 sitting idle.
        assert!(!report.gpus[0].busy.is_zero());
        assert!(report.gpus[1].busy.is_zero());
    }
}
