//! Bridge from workload traces to scheduling problems.
//!
//! The paper's preparation stage (Section 3) profiles every (job, GPU kind)
//! pair and feeds expected task times to the scheduling algorithm. This
//! module reproduces that stage: it turns a [`JobSpec`] trace plus a
//! [`Cluster`] and a [`ProfileDb`] into a [`SchedProblem`] (expected times)
//! bundled with the per-job model metadata the simulator needs to realize
//! actual times, switching costs and synchronization traffic.

use hare_cluster::{Cluster, SimDuration};
use hare_core::{JobInfo, SchedProblem};
use hare_workload::{JobSpec, ModelKind, ProfileDb};
use serde::{Deserialize, Serialize};

/// A scheduling problem plus everything needed to *execute* it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimWorkload {
    /// The cluster (GPU kinds, machines, network).
    pub cluster: Cluster,
    /// Expected-time scheduling problem (what schedulers see).
    pub problem: SchedProblem,
    /// Original job specs, index-aligned with `problem.jobs`.
    pub specs: Vec<JobSpec>,
}

impl SimWorkload {
    /// Build the preparation-stage output for a trace.
    ///
    /// Per job and GPU: expected task training time = profiled batch time ×
    /// batches-per-task, looked up once per GPU kind; expected sync time =
    /// one push + one pull of the gradient payload over an uncontended NIC
    /// share (the scheduler cannot know the actual colocation in advance —
    /// the simulator charges the real, contended time).
    pub fn build(cluster: Cluster, specs: Vec<JobSpec>, db: &ProfileDb) -> SimWorkload {
        assert!(!specs.is_empty(), "empty trace");
        let net = *cluster.network();
        let jobs: Vec<JobInfo> = specs
            .iter()
            .map(|spec| {
                // A profile depends on the GPU only through its kind.
                let train: Vec<SimDuration> = cluster.per_kind(|kind| {
                    let profile = db.profile(spec.model, kind, spec.batch_size);
                    profile.batch_time * spec.batches_per_task as u64
                });
                let payload = net.payload(spec.model.spec().param_bytes);
                let single_flow = net.nic.mul_f64(net.efficiency).transfer_time(payload) * 2;
                let sync = vec![single_flow; cluster.gpu_count()];
                JobInfo {
                    weight: spec.weight,
                    arrival: spec.arrival,
                    rounds: spec.rounds,
                    sync_scale: spec.sync_scale,
                    train,
                    sync,
                }
            })
            .collect();
        let problem = SchedProblem::new(cluster.gpu_count(), jobs);
        SimWorkload {
            cluster,
            problem,
            specs,
        }
    }

    /// Model trained by a job.
    pub fn model_of(&self, job: usize) -> ModelKind {
        self.specs[job].model
    }

    /// Model trained by a task.
    pub fn task_model(&self, task: usize) -> ModelKind {
        self.model_of(self.problem.tasks[task].job)
    }

    /// Duration of one training *step* (mini-batch) of a task on a GPU —
    /// the granularity early task cleaning operates at.
    pub fn step_time(&self, task: usize, gpu: usize) -> SimDuration {
        let job = self.problem.tasks[task].job;
        self.problem.train(task, gpu) / self.specs[job].batches_per_task.max(1) as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_cluster::GpuKind;
    use hare_workload::{testbed_trace, JobId};

    fn workload() -> SimWorkload {
        let db = ProfileDb::with_noise(1, 0.0);
        SimWorkload::build(Cluster::testbed15(), testbed_trace(7), &db)
    }

    #[test]
    fn problem_matches_trace_shape() {
        let w = workload();
        assert_eq!(w.problem.jobs.len(), 40);
        assert_eq!(w.problem.n_gpus, 15);
        assert!(w.problem.validate().is_ok());
        let expected: usize = w
            .specs
            .iter()
            .map(|s| (s.rounds * s.sync_scale) as usize)
            .sum();
        assert_eq!(w.problem.n_tasks(), expected);
    }

    #[test]
    fn times_follow_gpu_kind() {
        let w = workload();
        // Every V100 column must be strictly faster than the K80 column
        // for every job (the profile is kind-level).
        let v100 = w
            .cluster
            .gpus()
            .iter()
            .position(|g| g.kind == GpuKind::V100)
            .unwrap();
        let k80 = w
            .cluster
            .gpus()
            .iter()
            .position(|g| g.kind == GpuKind::K80)
            .unwrap();
        for job in &w.problem.jobs {
            assert!(job.train[v100] < job.train[k80]);
        }
    }

    #[test]
    fn same_kind_gpus_have_equal_expected_times() {
        let w = workload();
        let v100s: Vec<usize> = w
            .cluster
            .gpus()
            .iter()
            .filter(|g| g.kind == GpuKind::V100)
            .map(|g| g.id.index())
            .collect();
        for job in &w.problem.jobs {
            for pair in v100s.windows(2) {
                assert_eq!(job.train[pair[0]], job.train[pair[1]]);
            }
        }
    }

    #[test]
    fn per_kind_lookups_equal_per_gpu_lookups_and_miss_alike() {
        let cluster = Cluster::testbed15();
        let specs = testbed_trace(7);
        let db = ProfileDb::new(3);
        let w = SimWorkload::build(cluster.clone(), specs.clone(), &db);
        // The per-GPU evaluation on a fresh database with the same seed
        // gives the same times and the same misses; only hits fall.
        let per_gpu = ProfileDb::new(3);
        for (job, spec) in specs.iter().enumerate() {
            for (g, gpu) in cluster.gpus().iter().enumerate() {
                let p = per_gpu.profile(spec.model, gpu.kind, spec.batch_size);
                let want = p.batch_time * spec.batches_per_task as u64;
                assert_eq!(w.problem.jobs[job].train[g], want, "job {job} gpu {g}");
            }
        }
        let (hits, misses) = db.stats();
        assert_eq!(misses, per_gpu.stats().1);
        let kinds = cluster.kinds_present().len() as u64;
        assert_eq!(
            hits + misses,
            specs.len() as u64 * kinds,
            "one lookup per kind"
        );
    }

    #[test]
    fn sync_stays_below_training() {
        // SchedProblem::new would panic otherwise; check explicitly too.
        let w = workload();
        for job in &w.problem.jobs {
            let t_min = job.train.iter().min().unwrap();
            let s_max = job.sync.iter().max().unwrap();
            assert!(s_max <= t_min);
        }
    }

    #[test]
    fn step_time_divides_task_time() {
        let w = workload();
        let t0 = 0usize;
        let job = w.problem.tasks[t0].job;
        let steps = w.specs[job].batches_per_task as u64;
        let full = w.problem.train(t0, 0);
        assert_eq!(
            w.step_time(t0, 0) * steps,
            SimDuration::from_micros(full.as_micros() / steps * steps)
        );
    }

    #[test]
    fn round_range_matches_round_tasks() {
        // Checked against a filter of the task list, not against
        // `round_tasks`, which is built from `round_range`.
        let w = workload();
        let p = &w.problem;
        for (job, info) in p.jobs.iter().enumerate() {
            for round in [0, info.rounds / 2, info.rounds - 1] {
                let filtered: Vec<usize> = (0..p.n_tasks())
                    .filter(|&i| p.tasks[i].job == job && p.tasks[i].round == round)
                    .collect();
                assert_eq!(
                    p.round_range(job, round).collect::<Vec<_>>(),
                    filtered,
                    "job {job} round {round}"
                );
            }
        }
    }

    #[test]
    fn specs_align_with_jobs() {
        let w = workload();
        for (i, spec) in w.specs.iter().enumerate() {
            assert_eq!(spec.id, JobId(i as u32));
            assert_eq!(w.problem.jobs[i].arrival, spec.arrival);
            assert_eq!(w.problem.jobs[i].rounds, spec.rounds);
        }
    }
}
