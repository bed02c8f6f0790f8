//! Sched_Allox — AlloX \[24\] (Section 7.1).
//!
//! AlloX transforms placement in a heterogeneous cluster into a min-cost
//! bipartite matching between jobs and (resource, position) slots: placing
//! job `j` at queue position `k` of resource `m` contributes
//! `k · t_{j,m}` to the total completion time, so the matching minimizes
//! ΣC while picking each job's *affine* hardware. It is fully
//! heterogeneity-aware but strictly job-level: a job is an unsplittable
//! unit that receives a dedicated gang (of its `sync_scale`) anchored on
//! the matched GPU, runs every round as a strict gang there, and never
//! exploits the relaxed scale-fixed flexibility Hare adds — the gap the
//! paper's Fig. 1(b)/(c) illustrates.
//!
//! Online operation: whenever the waiting jobs or the free GPUs change,
//! the waiting jobs are re-matched against free GPUs × positions 1..P;
//! position-1 matches are committed in cost order, each committing a gang
//! of the matched GPU plus the fastest remaining free GPUs (same kind
//! preferred).

use crate::common::{fastest_first, GangPolicy, GangRule};
use hare_sim::SimWorkload;
use hare_solver::min_cost_matching;

/// AlloX-style min-cost-matching job-level scheduler.
pub type SchedAllox = GangPolicy<SchedAlloxRule>;

/// Sched_Allox's admission rule: the min-cost matching of waiting jobs
/// (in arrival order) onto free GPUs × queue positions.
#[derive(Copy, Clone, Debug, Default)]
pub struct SchedAlloxRule;

impl GangRule for SchedAlloxRule {
    const NAME: &'static str = "Sched_Allox";

    /// AlloX is heterogeneity-aware: repairs draw the fastest free GPU.
    fn gpu_order(&self, w: &SimWorkload) -> Vec<usize> {
        fastest_first(w)
    }

    fn admit(
        &self,
        w: &SimWorkload,
        waiting: &[usize],
        mut idle: Vec<usize>,
    ) -> Vec<(usize, Vec<usize>)> {
        let p = &w.problem;
        let gpus = w.cluster.gpus();
        // Matching columns run in GPU index order.
        idle.sort_unstable();
        // The per-slot cost is the job's remaining time (all of its
        // rounds: it has not started) if anchored on that GPU's kind,
        // weighted by queue position.
        let positions = waiting.len().div_ceil(idle.len());
        let cols: Vec<(usize, usize)> = idle
            .iter()
            .flat_map(|&g| (1..=positions).map(move |k| (g, k)))
            .collect();
        let cost: Vec<Vec<f64>> = waiting
            .iter()
            .map(|&j| {
                let info = &p.jobs[j];
                let remaining = info.rounds as f64;
                cols.iter()
                    .map(|&(g, k)| {
                        // Gang round time if anchored on GPU g's kind.
                        let round = info.train[g].as_secs_f64() + info.sync[g].as_secs_f64();
                        info.weight * k as f64 * remaining * round
                    })
                    .collect()
            })
            .collect();
        let matching = min_cost_matching(&cost);

        // Commit position-1 matches in increasing cost; each consumes a
        // gang of sync_scale free GPUs anchored on the matched one.
        let mut commits: Vec<(f64, usize, usize)> = matching
            .assignment
            .iter()
            .enumerate()
            .filter_map(|(row, &col)| {
                let (gpu, k) = cols[col];
                (k == 1).then(|| (cost[row][col], waiting[row], gpu))
            })
            .collect();
        commits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut gangs = Vec::new();
        for (_, job, anchor) in commits {
            if !idle.contains(&anchor) {
                continue; // consumed by an earlier commit's gang
            }
            let need = p.jobs[job].sync_scale as usize;
            if idle.len() < need {
                continue;
            }
            // Gang: the anchor plus same-kind free GPUs, then the fastest
            // remaining ones.
            let kind = gpus[anchor].kind;
            let mut gang = vec![anchor];
            let mut rest: Vec<usize> = idle.iter().copied().filter(|&g| g != anchor).collect();
            rest.sort_by(|&a, &b| {
                let ka = gpus[a].kind;
                let kb = gpus[b].kind;
                (kb == kind)
                    .cmp(&(ka == kind))
                    // total_cmp: never panics, even on a NaN speedup from
                    // a corrupt profile; NaNs order deterministically.
                    .then(kb.generic_speedup().total_cmp(&ka.generic_speedup()))
                    .then(a.cmp(&b))
            });
            gang.extend(rest.into_iter().take(need - 1));
            if gang.len() < need {
                continue;
            }
            idle.retain(|g| !gang.contains(g));
            gangs.push((job, gang));
        }
        gangs
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
        let mut trace = hare_workload::testbed_trace(17);
        trace.truncate(10);
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut SchedAllox::new())
            .expect("simulation");
        assert_eq!(report.completion.len(), 10);
        assert_eq!(report.scheme, "Sched_Allox");
    }

    #[test]
    fn matching_prefers_affine_gpus() {
        // Two jobs, a V100 and a K80 both idle. ResNet50 gains 7x from the
        // V100; GraphSAGE only 2x. The matching should give the V100 to
        // ResNet50 (total cost is lower that way).
        let db = ProfileDb::with_noise(1, 0.0);
        let resnet = JobSpec::new(JobId(0), ModelKind::ResNet50, 6, 1);
        let sage = JobSpec::new(JobId(1), ModelKind::GraphSage, 6, 1);
        let cluster = Cluster::from_counts(&[(GpuKind::V100, 1), (GpuKind::K80, 1)], 4);
        let w = SimWorkload::build(cluster, vec![resnet, sage], &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut SchedAllox::new())
            .expect("simulation");
        // GPU 0 is the V100: ResNet50's serial work must be there.
        let expected_v100 = w.problem.jobs[0].train[0] * 6;
        let diff = report.gpus[0].busy.as_secs_f64() - expected_v100.as_secs_f64();
        assert!(
            diff.abs() < expected_v100.as_secs_f64() * 0.05,
            "V100 busy {} != resnet work {}",
            report.gpus[0].busy,
            expected_v100
        );
    }

    #[test]
    fn gang_prefers_same_kind() {
        // A scale-2 job on a mixed cluster with 2 V100 + 2 K80: the gang
        // should be the two V100s (affinity + same kind), so the K80s stay
        // idle.
        let db = ProfileDb::with_noise(1, 0.0);
        let job = JobSpec::new(JobId(0), ModelKind::ResNet50, 4, 2);
        let cluster = Cluster::from_counts(&[(GpuKind::V100, 2), (GpuKind::K80, 2)], 4);
        let w = SimWorkload::build(cluster, vec![job], &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut SchedAllox::new())
            .expect("simulation");
        assert!(!report.gpus[0].busy.is_zero());
        assert!(!report.gpus[1].busy.is_zero());
        assert!(report.gpus[2].busy.is_zero());
        assert!(report.gpus[3].busy.is_zero());
    }

    #[test]
    fn job_keeps_its_gang_for_life() {
        // Two scale-2 jobs, 2 GPUs: strict serialization (no sharing).
        let db = ProfileDb::with_noise(1, 0.0);
        let a = JobSpec::new(JobId(0), ModelKind::ResNet50, 5, 2);
        let b = JobSpec::new(JobId(1), ModelKind::ResNet50, 5, 2);
        let w = SimWorkload::build(Cluster::homogeneous(GpuKind::V100, 2), vec![a, b], &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut SchedAllox::new())
            .expect("simulation");
        let (first, second) = {
            let c0 = report.completion[0];
            let c1 = report.completion[1];
            if c0 < c1 {
                (c0, c1)
            } else {
                (c1, c0)
            }
        };
        assert!(second.as_secs_f64() > first.as_secs_f64() * 1.8);
    }
}
