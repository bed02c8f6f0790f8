//! Sched_Homo — Zhang et al. \[47\] (Section 7.1).
//!
//! Exploits both inter-job and intra-job parallelism to minimize weighted
//! job completion time, but assumes *homogeneous* GPUs and forbids job-level
//! preemption. Reproduced as: jobs ranked by weighted shortest remaining
//! work using the **mean** task time across GPUs (a heterogeneity-oblivious
//! estimate — all GPUs look identical to it); an admitted job receives a
//! gang of `sync_scale` GPUs chosen *without regard to speed* (a fixed
//! kind-blind permutation) and keeps exactly those GPUs until it completes.

use crate::common::{admit_in_order, oblivious_order, GangPolicy, GangRule};
use hare_sim::SimWorkload;

/// Heterogeneity-oblivious weighted-SRPT gang scheduler with dedicated GPUs.
pub type SchedHomo = GangPolicy<SchedHomoRule>;

/// Sched_Homo's admission rule: waiting jobs by remaining rounds × mean
/// round time across GPUs / weight, smallest first (oblivious to which
/// GPUs are actually fast), onto kind-blind gangs, with no head-of-line
/// blocking.
#[derive(Copy, Clone, Debug, Default)]
pub struct SchedHomoRule;

impl GangRule for SchedHomoRule {
    const NAME: &'static str = "Sched_Homo";

    fn admission_key(&self, w: &SimWorkload, job: usize) -> f64 {
        let info = &w.problem.jobs[job];
        let mean_round =
            info.train.iter().map(|t| t.as_secs_f64()).sum::<f64>() / info.train.len() as f64;
        info.rounds as f64 * mean_round / info.weight
    }

    /// A fixed kind-blind pseudo-random permutation: a scheduler that
    /// believes GPUs are homogeneous has no reason to prefer any index.
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
    use hare_cluster::{Cluster, GpuKind};
    use hare_sim::Simulation;
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
