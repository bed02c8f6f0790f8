//! The `Hare_Sched` problem (Section 5.1).
//!
//! A set `N` of jobs runs on a set `M` of heterogeneous GPUs. Job `n` has
//! arrival `a_n`, weight `w_n` and rounds `R_n`; round `r` launches the
//! task set `D_r`, and tasks synchronize through the PS at round
//! boundaries. Training time `T^c_{i,m}` and synchronization time
//! `T^s_{i,m}` are per-GPU; the paper's Fig. 11 justifies dropping the
//! round subscript (times are stable across rounds), so times live on the
//! *job* here and every task of a job shares them.

use hare_cluster::{SimDuration, SimTime};
use hare_solver::{Instance, JobMeta, ProblemError, Row, TaskMeta};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Index of a GPU in the problem (dense, matches `Cluster` GPU ids).
pub type GpuIdx = usize;
/// Index of a job.
pub type JobIdx = usize;
/// Index of a task in [`SchedProblem::tasks`].
pub type TaskIdx = usize;

/// One job of the scheduling problem.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobInfo {
    /// Objective weight `w_n`.
    pub weight: f64,
    /// Arrival time `a_n`.
    pub arrival: SimTime,
    /// Number of rounds `|R_n|`.
    pub rounds: u32,
    /// Tasks per round `|D_r|` (the fixed synchronization scale).
    pub sync_scale: u32,
    /// Training time of one task on each GPU (`T^c_{i,m}`).
    pub train: Vec<SimDuration>,
    /// Synchronization time of one task on each GPU (`T^s_{i,m}`).
    pub sync: Vec<SimDuration>,
}

/// One task; times are inherited from its job.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskInfo {
    /// Owning job.
    pub job: JobIdx,
    /// Round within the job.
    pub round: u32,
    /// Index within the round (0..sync_scale), for display only.
    pub slot: u32,
}

/// The full scheduling problem.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedProblem {
    /// Number of GPUs `|M|`.
    pub n_gpus: usize,
    /// Jobs `N`.
    pub jobs: Vec<JobInfo>,
    /// All tasks `D`, grouped job-major then round-major (dense).
    pub tasks: Vec<TaskInfo>,
    /// Index of each job's first task, so [`SchedProblem::round_range`] is
    /// O(1). Derived from `jobs` in [`SchedProblem::new`].
    first_task: Vec<TaskIdx>,
}

impl SchedProblem {
    /// Build from jobs, expanding each into `rounds × sync_scale` tasks.
    pub fn new(n_gpus: usize, jobs: Vec<JobInfo>) -> Self {
        assert!(n_gpus > 0, "no GPUs");
        let mut tasks = Vec::new();
        let mut first_task = Vec::with_capacity(jobs.len());
        for (j, job) in jobs.iter().enumerate() {
            assert_eq!(job.train.len(), n_gpus, "job {j}: train vector length");
            assert_eq!(job.sync.len(), n_gpus, "job {j}: sync vector length");
            first_task.push(tasks.len());
            for r in 0..job.rounds {
                for k in 0..job.sync_scale {
                    tasks.push(TaskInfo {
                        job: j,
                        round: r,
                        slot: k,
                    });
                }
            }
        }
        let p = SchedProblem {
            n_gpus,
            jobs,
            tasks,
            first_task,
        };
        p.validate().expect("invalid problem");
        p
    }

    /// Structural validation with a typed error (shared with the solver's
    /// [`Instance`] validation so callers handle one error type).
    pub fn validate(&self) -> Result<(), ProblemError> {
        if self.n_gpus == 0 {
            return Err(ProblemError::NoMachines);
        }
        if self.jobs.is_empty() {
            return Err(ProblemError::NoJobs);
        }
        let bad_job = |j: usize, why: String| -> Result<(), ProblemError> {
            Err(ProblemError::Job { job: j, why })
        };
        for (j, job) in self.jobs.iter().enumerate() {
            if !(job.weight > 0.0 && job.weight.is_finite()) {
                return bad_job(j, format!("weight {}", job.weight));
            }
            if job.rounds == 0 || job.sync_scale == 0 {
                return bad_job(j, "empty rounds/scale".into());
            }
            if job.train.len() != self.n_gpus || job.sync.len() != self.n_gpus {
                return bad_job(j, "time vector length".into());
            }
            if job.train.iter().any(|t| t.is_zero()) {
                return bad_job(j, "zero training time".into());
            }
            // The paper's standing assumption: training dominates sync.
            // Both vectors are non-empty here: their length equals
            // n_gpus, checked > 0 above.
            let t_min = job.train.iter().min().expect("train.len() == n_gpus > 0");
            let s_max = job.sync.iter().max().expect("sync.len() == n_gpus > 0");
            if s_max > t_min {
                return bad_job(
                    j,
                    format!(
                        "sync {s_max} exceeds training {t_min} — violates the paper's assumption"
                    ),
                );
            }
        }
        // `tasks` and the first-task table are expanded from `jobs` in
        // `new`; a job edited since then leaves them stale.
        let mut expected = 0usize;
        for (j, job) in self.jobs.iter().enumerate() {
            if self.first_task.get(j) != Some(&expected) {
                return Err(ProblemError::Inconsistent(format!(
                    "job {j}: first task is not at expanded index {expected}"
                )));
            }
            expected += (job.rounds * job.sync_scale) as usize;
        }
        if self.tasks.len() != expected {
            return Err(ProblemError::Inconsistent(format!(
                "task count {} != expanded {}",
                self.tasks.len(),
                expected
            )));
        }
        Ok(())
    }

    /// Number of tasks `|D|`.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Training time of task `i` on GPU `m`.
    pub fn train(&self, i: TaskIdx, m: GpuIdx) -> SimDuration {
        self.jobs[self.tasks[i].job].train[m]
    }

    /// Synchronization time of task `i` on GPU `m`.
    pub fn sync(&self, i: TaskIdx, m: GpuIdx) -> SimDuration {
        self.jobs[self.tasks[i].job].sync[m]
    }

    /// Arrival of the job owning task `i`.
    pub fn arrival_of(&self, i: TaskIdx) -> SimTime {
        self.jobs[self.tasks[i].job].arrival
    }

    /// Task-index range of one (job, round), in slot order. O(1): tasks
    /// are dense and job/round-major, so the range starts `round` rounds
    /// past the job's first task.
    pub fn round_range(&self, job: JobIdx, round: u32) -> Range<TaskIdx> {
        let scale = self.jobs[job].sync_scale as usize;
        let start = self.first_task[job] + round as usize * scale;
        start..start + scale
    }

    /// Task indices of one (job, round), in slot order.
    pub fn round_tasks(&self, job: JobIdx, round: u32) -> Vec<TaskIdx> {
        self.round_range(job, round).collect()
    }

    /// The heterogeneity factor α (Lemma 3):
    /// `max_i { T^c_max/T^c_min, T^s_max/T^s_min }`.
    pub fn alpha(&self) -> f64 {
        let mut alpha: f64 = 1.0;
        // Time vectors are non-empty for any validated problem (length
        // n_gpus > 0), so the min/max always exist.
        let micros =
            |d: Option<&SimDuration>| d.expect("time vectors are non-empty").as_micros() as f64;
        for job in &self.jobs {
            let t_max = micros(job.train.iter().max());
            let t_min = micros(job.train.iter().min());
            alpha = alpha.max(t_max / t_min);
            let s_max = micros(job.sync.iter().max());
            let s_min = micros(job.sync.iter().min());
            if s_min > 0.0 {
                alpha = alpha.max(s_max / s_min);
            }
        }
        alpha
    }

    /// Convert to the solver's float instance (seconds), with one time row
    /// per job shared by all of its tasks.
    pub fn to_instance(&self) -> Instance {
        let secs = |v: &[SimDuration]| v.iter().map(|d| d.as_secs_f64()).collect();
        Instance {
            n_machines: self.n_gpus,
            jobs: self
                .jobs
                .iter()
                .map(|j| JobMeta {
                    weight: j.weight,
                    release: j.arrival.as_secs_f64(),
                    rounds: j.rounds,
                })
                .collect(),
            rows: self
                .jobs
                .iter()
                .map(|j| Row::new(secs(&j.train), secs(&j.sync)))
                .collect(),
            tasks: self
                .tasks
                .iter()
                .map(|t| TaskMeta {
                    job: t.job,
                    round: t.round,
                    row: t.job,
                })
                .collect(),
        }
    }

    /// The paper's Fig.-1 toy problem (3 jobs, 3 GPUs) in typed form.
    pub fn fig1() -> SchedProblem {
        let secs = |v: &[f64]| -> Vec<SimDuration> {
            v.iter().map(|&s| SimDuration::from_secs_f64(s)).collect()
        };
        let zero = vec![SimDuration::ZERO; 3];
        SchedProblem::new(
            3,
            vec![
                JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 1,
                    sync_scale: 2,
                    train: secs(&[1.0, 1.5, 2.0]),
                    sync: zero.clone(),
                },
                JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 3,
                    sync_scale: 1,
                    train: secs(&[1.0, 1.5, 1.5]),
                    sync: zero.clone(),
                },
                JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 2,
                    sync_scale: 2,
                    train: secs(&[0.5, 1.0, 1.5]),
                    sync: zero,
                },
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_expands_correctly() {
        let p = SchedProblem::fig1();
        assert_eq!(p.n_tasks(), 2 + 3 + 4);
        assert_eq!(p.round_tasks(0, 0), vec![0, 1]);
        assert_eq!(p.round_tasks(1, 2), vec![4]);
        assert_eq!(p.round_tasks(2, 1), vec![7, 8]);
        assert!((p.alpha() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn times_are_shared_within_a_job() {
        let p = SchedProblem::fig1();
        assert_eq!(p.train(7, 0), SimDuration::from_millis(500));
        assert_eq!(p.train(8, 2), SimDuration::from_millis(1500));
        assert_eq!(p.sync(0, 1), SimDuration::ZERO);
    }

    #[test]
    fn to_instance_round_trips_structure() {
        let p = SchedProblem::fig1();
        let inst = p.to_instance();
        assert!(inst.validate().is_ok());
        assert_eq!(inst.n_tasks(), p.n_tasks());
        assert_eq!(inst.jobs.len(), p.jobs.len());
        assert!((inst.alpha() - p.alpha()).abs() < 1e-9);
        assert!((inst.row(0).p()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn to_instance_stores_one_row_per_job() {
        let mut jobs = SchedProblem::fig1().jobs;
        jobs[1].sync = vec![SimDuration::from_millis(250); 3];
        let p = SchedProblem::new(3, jobs);
        let inst = p.to_instance();
        assert_eq!(inst.rows.len(), p.jobs.len());
        for (j, job) in p.jobs.iter().enumerate() {
            let secs = |v: &[SimDuration]| v.iter().map(|d| d.as_secs_f64()).collect::<Vec<_>>();
            assert_eq!(inst.rows[j].p(), secs(&job.train), "job {j}");
            assert_eq!(inst.rows[j].s(), secs(&job.sync), "job {j}");
        }
        for (i, task) in p.tasks.iter().enumerate() {
            assert_eq!(inst.tasks[i].row, task.job, "task {i}");
        }
    }

    #[test]
    fn edited_round_counts_are_rejected() {
        // Same task total, but job 1's tasks no longer start at index 2.
        let mut p = SchedProblem::fig1();
        p.jobs[0].rounds = 2;
        p.jobs[1].rounds = 1;
        assert!(matches!(p.validate(), Err(ProblemError::Inconsistent(_))));
    }

    #[test]
    fn sync_dominating_training_is_rejected() {
        let mut p = SchedProblem::fig1();
        p.jobs[0].sync = vec![SimDuration::from_secs(10); 3];
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_training_time_rejected() {
        let mut p = SchedProblem::fig1();
        p.jobs[1].train[1] = SimDuration::ZERO;
        assert!(p.validate().is_err());
    }
}
