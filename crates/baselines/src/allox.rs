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
//! Online operation: at every dispatch opportunity the waiting jobs are
//! re-matched against free GPUs × positions 1..P; position-1 matches are
//! committed in cost order, each committing a gang of the matched GPU plus
//! the fastest remaining free GPUs (same kind preferred).

use crate::common::{
    continue_on_gang, fastest_idle, ready_by_job, release_completed, repair_gangs, Reservations,
};
use hare_sim::{Policy, SimView};
use hare_solver::min_cost_matching;
use std::collections::BTreeSet;

/// The matching's dynamic input: waiting jobs with their synced-round
/// progress, plus the free idle GPUs (see `SchedAllox::noop_input`).
type MatchInput = (Vec<(usize, u32)>, Vec<usize>);

/// AlloX-style min-cost-matching job-level scheduler.
#[derive(Debug, Default)]
pub struct SchedAllox {
    /// Dedicated gang per job, once matched.
    placed: Vec<Option<Vec<usize>>>,
    reservations: Reservations,
    /// GPUs currently down (fault injection).
    down: BTreeSet<usize>,
    /// The last matching input that committed nothing, or `None`.
    ///
    /// Whether any position-1 match commits is a pure function of the
    /// waiting jobs (with their synced-round progress) and the free idle
    /// GPUs — everything else the matching reads is static workload data.
    /// While admission is blocked (typically: fewer free GPUs than the
    /// cheapest waiting gang needs) every event replays exactly this
    /// input, so the O(n³) matching can be skipped until the input moves.
    noop_input: Option<MatchInput>,
}

impl SchedAllox {
    /// New policy instance.
    pub fn new() -> Self {
        SchedAllox::default()
    }

    fn ensure_len(&mut self, n: usize) {
        if self.placed.len() < n {
            self.placed.resize(n, None);
        }
    }
}

impl Policy for SchedAllox {
    fn name(&self) -> String {
        "Sched_Allox".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        self.ensure_len(p.jobs.len());
        release_completed(view, &mut self.placed, &mut self.reservations);
        // AlloX is heterogeneity-aware: repairs draw the fastest free GPU.
        repair_gangs(
            fastest_idle(view),
            &self.down,
            &mut self.placed,
            &mut self.reservations,
        );
        let ready = ready_by_job(view);
        let mut idle: Vec<usize> = view.idle_gpus.to_vec();

        // Placed jobs: run their released round as a gang on their own GPUs.
        for (&job, tasks) in &ready {
            if let Some(gang) = &self.placed[job] {
                continue_on_gang(tasks, gang, &mut idle, out);
            }
        }

        // Waiting jobs: min-cost matching onto free GPUs × positions. The
        // per-slot cost is the job's remaining time if anchored on that
        // GPU's kind, weighted by queue position.
        let waiting: Vec<usize> = ready
            .keys()
            .copied()
            .filter(|&j| self.placed[j].is_none())
            .collect();
        self.reservations.filter_free(&mut idle);
        if waiting.is_empty() || idle.is_empty() {
            return;
        }
        let input: MatchInput = (
            waiting
                .iter()
                .map(|&j| (j, view.synced_rounds[j]))
                .collect(),
            idle.clone(),
        );
        if self.noop_input.as_ref() == Some(&input) {
            return; // same blocked input as last time: nothing can commit
        }
        let positions = waiting.len().div_ceil(idle.len());
        let cols: Vec<(usize, usize)> = idle
            .iter()
            .flat_map(|&g| (1..=positions).map(move |k| (g, k)))
            .collect();
        let cost: Vec<Vec<f64>> = waiting
            .iter()
            .map(|&j| {
                let info = &p.jobs[j];
                let remaining = (info.rounds - view.synced_rounds[j]) as f64;
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

        let mut committed = false;
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
            let kind = view.workload.cluster.gpus()[anchor].kind;
            let mut gang = vec![anchor];
            let mut rest: Vec<usize> = idle.iter().copied().filter(|&g| g != anchor).collect();
            rest.sort_by(|&a, &b| {
                let ka = view.workload.cluster.gpus()[a].kind;
                let kb = view.workload.cluster.gpus()[b].kind;
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
            for (&task, &gpu) in ready[&job].iter().zip(gang.iter()) {
                out.push((task, gpu));
            }
            self.reservations.reserve(&gang);
            self.placed[job] = Some(gang);
            committed = true;
        }
        self.noop_input = (!committed).then_some(input);
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
