//! Gandiva-style time-slicing (related work, Section 8).
//!
//! Gandiva_fair and Gavel share GPUs by rotating jobs through fixed time
//! slices. The paper criticizes this as coarse-grained — and stresses that
//! such schedulers "ignore the task switching cost". This policy reproduces
//! the approach at the simulator's task granularity: every time a GPU
//! frees, it serves the ready task of the *least recently served* job
//! (fair round-robin), maximizing interleaving — and therefore switching
//! frequency, which is exactly why it needs Hare-grade fast switching to
//! stay competitive.

use hare_sim::{Policy, SimView};
use std::collections::BTreeMap;

/// Fair round-robin time slicing across jobs.
#[derive(Debug, Default)]
pub struct TimeSlice {
    /// Logical clock of the last service per job.
    last_served: Vec<u64>,
    tick: u64,
}

impl TimeSlice {
    /// New policy instance.
    pub fn new() -> Self {
        TimeSlice::default()
    }

    fn ensure_len(&mut self, n: usize) {
        if self.last_served.len() < n {
            self.last_served.resize(n, 0);
        }
    }
}

impl Policy for TimeSlice {
    fn name(&self) -> String {
        "TimeSlice".into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        self.ensure_len(view.workload.problem.jobs.len());
        // Ready tasks by owning job (each job's ready tasks belong to its
        // single released round).
        let mut ready: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for t in view.ready.iter() {
            ready
                .entry(view.workload.problem.tasks[t].job)
                .or_default()
                .push(t);
        }
        let mut idle: Vec<usize> = view.idle_gpus.iter().collect();
        // Serve jobs least-recently-served first; one task per grant, so
        // wide jobs do not monopolize a dispatch round.
        let mut order: Vec<usize> = ready.keys().copied().collect();
        loop {
            order.sort_by_key(|&j| (self.last_served[j], j));
            let mut granted = false;
            for &job in &order {
                if idle.is_empty() {
                    return;
                }
                let served: Vec<usize> = out.iter().map(|&(t, _)| t).collect();
                let Some(&task) = ready[&job].iter().find(|t| !served.contains(t)) else {
                    continue;
                };
                // Fastest idle GPU for the grant (Gavel-style placement).
                let (pos, &gpu) = idle
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &g)| (view.workload.problem.train(task, g), g))
                    .expect("idle is non-empty: checked at loop top");
                idle.remove(pos);
                self.tick += 1;
                self.last_served[job] = self.tick;
                out.push((task, gpu));
                granted = true;
            }
            if !granted {
                return;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_cluster::{Cluster, GpuKind};
    use hare_memory::SwitchPolicy;
    use hare_sim::{SimWorkload, Simulation};
    use hare_workload::{JobId, JobSpec, ModelKind, ProfileDb};

    fn two_jobs_one_gpu() -> SimWorkload {
        let db = ProfileDb::with_noise(1, 0.0);
        let a = JobSpec::new(JobId(0), ModelKind::ResNet50, 6, 1);
        let b = JobSpec::new(JobId(1), ModelKind::GraphSage, 6, 1);
        SimWorkload::build(Cluster::homogeneous(GpuKind::V100, 1), vec![a, b], &db)
    }

    #[test]
    fn interleaves_jobs_fairly() {
        let w = two_jobs_one_gpu();
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut TimeSlice::new())
            .expect("simulation");
        // Both jobs progress together: completions are close (within one
        // job's serial time of each other), unlike run-to-completion.
        let c0 = report.completion[0].as_secs_f64();
        let c1 = report.completion[1].as_secs_f64();
        let serial0 = (w.problem.jobs[0].train[0] * 6).as_secs_f64();
        assert!(
            (c0 - c1).abs() < serial0,
            "time slicing should interleave: {c0:.1} vs {c1:.1}"
        );
    }

    #[test]
    fn slicing_pays_for_switching_without_hare() {
        let w = two_jobs_one_gpu();
        let run = |policy| {
            Simulation::new(&w)
                .with_noise(0.0)
                .with_switch_policy(policy)
                .run(&mut TimeSlice::new())
                .expect("simulation")
        };
        let hare = run(SwitchPolicy::Hare);
        let default = run(SwitchPolicy::Default);
        // The interleaving forces a cross-job switch per task; under the
        // Default runtime that overhead dominates.
        assert!(
            default.makespan.as_secs_f64() > hare.makespan.as_secs_f64() * 1.5,
            "default {} vs hare {}",
            default.makespan,
            hare.makespan
        );
    }

    #[test]
    fn completes_testbed_trace() {
        let db = ProfileDb::with_noise(1, 0.0);
        let mut trace = hare_workload::testbed_trace(23);
        trace.truncate(10);
        let w = SimWorkload::build(Cluster::testbed15(), trace, &db);
        let report = Simulation::new(&w)
            .with_noise(0.0)
            .run(&mut TimeSlice::new())
            .expect("simulation");
        assert_eq!(report.completion.len(), 10);
    }
}
