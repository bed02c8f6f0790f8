//! Plain-number scheduling instances.
//!
//! The solver crate works on a minimal, float-valued view of the
//! `Hare_Sched` problem (Section 5.1): jobs with weights, releases and
//! synchronized rounds; tasks with per-machine training times `T^c` and
//! synchronization times `T^s`. `hare-core` converts its typed problem into
//! this form before calling the relaxation or the exact solver.
//!
//! The paper drops the round subscript from `T^c`/`T^s` (Fig. 11), so all
//! tasks of a job share one time row. An [`Instance`] stores each distinct
//! row once, as a [`Row`] that also caches its machine reductions
//! (`p_min`, `p_max`, `ps_min`), and each task points at its row: memory
//! scales with rows × machines, and the solvers read a task's reductions
//! in O(1) instead of folding its row on every use.

use serde::{Deserialize, Serialize};

/// A structural defect in a scheduling instance or problem: empty machine
/// or job sets, out-of-domain numbers (NaN, negative, or zero durations),
/// or inconsistent job/round/task bookkeeping. Returned by
/// [`Instance::validate`] (and by `hare-core`'s problem validation) so
/// garbage is rejected with a typed error instead of propagating into the
/// LP.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProblemError {
    /// The machine/GPU set is empty.
    NoMachines,
    /// There are no jobs.
    NoJobs,
    /// A job-level field is out of domain or inconsistent.
    Job {
        /// Offending job index.
        job: usize,
        /// What is wrong with it.
        why: String,
    },
    /// A task-level field is out of domain or inconsistent.
    Task {
        /// Offending task index.
        task: usize,
        /// What is wrong with it.
        why: String,
    },
    /// Bookkeeping across jobs/rounds/tasks is inconsistent.
    Inconsistent(String),
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::NoMachines => write!(f, "no machines"),
            ProblemError::NoJobs => write!(f, "no jobs"),
            ProblemError::Job { job, why } => write!(f, "job {job}: {why}"),
            ProblemError::Task { task, why } => write!(f, "task {task}: {why}"),
            ProblemError::Inconsistent(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// Per-job metadata.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobMeta {
    /// Objective weight `w_n > 0`.
    pub weight: f64,
    /// Release (arrival) time `a_n >= 0`.
    pub release: f64,
    /// Number of synchronized rounds `|R_n| >= 1`.
    pub rounds: u32,
}

/// One per-machine time row: training times `T^c_{i,m}` and
/// synchronization times `T^s_{i,m}`, shared by every task that points at
/// it. Its machine reductions, read through [`Instance::p_min`],
/// [`Instance::p_max`] and [`Instance::ps_min`], are computed once, in
/// [`Row::new`]; the fields are private so they cannot go stale.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    p: Vec<f64>,
    s: Vec<f64>,
    p_min: f64,
    p_max: f64,
    ps_min: f64,
}

impl Row {
    /// A row from training times `p` and sync times `s` (one entry per
    /// machine each).
    pub fn new(p: Vec<f64>, s: Vec<f64>) -> Row {
        let p_min = p.iter().cloned().fold(f64::MAX, f64::min);
        let p_max = p.iter().cloned().fold(f64::MIN, f64::max);
        let ps_min = p
            .iter()
            .zip(&s)
            .map(|(&p, &s)| p + s)
            .fold(f64::MAX, f64::min);
        Row {
            p,
            s,
            p_min,
            p_max,
            ps_min,
        }
    }

    /// Training time on each machine (`T^c_{i,m}`).
    pub fn p(&self) -> &[f64] {
        &self.p
    }

    /// Synchronization time on each machine (`T^s_{i,m}`).
    pub fn s(&self) -> &[f64] {
        &self.s
    }

    /// What makes this row unusable on `n_machines` machines, if anything.
    fn defect(&self, n_machines: usize) -> Option<&'static str> {
        if self.p.len() != n_machines || self.s.len() != n_machines {
            Some("wrong machine-vector length")
        } else if self.p.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
            Some("non-positive training time")
        } else if self.s.iter().any(|&v| !(v >= 0.0 && v.is_finite())) {
            Some("negative sync time")
        } else {
            None
        }
    }
}

/// Per-task metadata.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskMeta {
    /// Owning job (index into [`Instance::jobs`]).
    pub job: usize,
    /// Round within the job, `0..jobs[job].rounds`.
    pub round: u32,
    /// The task's time row (index into [`Instance::rows`]).
    pub row: usize,
}

/// A task-level scheduling instance over unrelated machines.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Number of machines (GPUs).
    pub n_machines: usize,
    /// Jobs.
    pub jobs: Vec<JobMeta>,
    /// Distinct time rows; every row is used by at least one task.
    pub rows: Vec<Row>,
    /// Tasks, any order; rounds are linked via (`job`, `round`).
    pub tasks: Vec<TaskMeta>,
}

impl Instance {
    /// Validate shape and positivity; returns a typed description of the
    /// first problem found. Rejects NaN, negative, or zero training
    /// durations and empty machine/job sets before they can poison the LP.
    pub fn validate(&self) -> Result<(), ProblemError> {
        if self.n_machines == 0 {
            return Err(ProblemError::NoMachines);
        }
        if self.jobs.is_empty() {
            return Err(ProblemError::NoJobs);
        }
        let bad_job = |job: usize, why: String| Err(ProblemError::Job { job, why });
        let bad_task = |task: usize, why: String| Err(ProblemError::Task { task, why });
        for (j, job) in self.jobs.iter().enumerate() {
            if !(job.weight > 0.0 && job.weight.is_finite()) {
                return bad_job(j, format!("weight {}", job.weight));
            }
            if !(job.release >= 0.0 && job.release.is_finite()) {
                return bad_job(j, format!("release {}", job.release));
            }
            if job.rounds == 0 {
                return bad_job(j, "zero rounds".into());
            }
        }
        let mut seen = vec![vec![0u32; 0]; self.jobs.len()];
        for (j, job) in self.jobs.iter().enumerate() {
            seen[j] = vec![0; job.rounds as usize];
        }
        // Each row is checked once; a defect is reported against the
        // first task that uses the row.
        let defects: Vec<Option<&str>> = self
            .rows
            .iter()
            .map(|row| row.defect(self.n_machines))
            .collect();
        let mut used = vec![false; self.rows.len()];
        for (t, task) in self.tasks.iter().enumerate() {
            if task.job >= self.jobs.len() {
                return bad_task(t, format!("job {} out of range", task.job));
            }
            if task.round >= self.jobs[task.job].rounds {
                return bad_task(t, format!("round {} out of range", task.round));
            }
            let Some(&defect) = defects.get(task.row) else {
                return bad_task(t, format!("row {} out of range", task.row));
            };
            if let Some(why) = defect {
                return bad_task(t, why.into());
            }
            used[task.row] = true;
            seen[task.job][task.round as usize] += 1;
        }
        if let Some(row) = used.iter().position(|&u| !u) {
            return Err(ProblemError::Inconsistent(format!(
                "row {row} is used by no task"
            )));
        }
        for (j, rounds) in seen.iter().enumerate() {
            for (r, &count) in rounds.iter().enumerate() {
                if count == 0 {
                    return Err(ProblemError::Job {
                        job: j,
                        why: format!("round {r} has no tasks"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The time row of task `t`.
    pub fn row(&self, t: usize) -> &Row {
        &self.rows[self.tasks[t].row]
    }

    /// Fastest training time of task `t` across machines.
    pub fn p_min(&self, t: usize) -> f64 {
        self.row(t).p_min
    }

    /// Slowest training time of task `t` across machines.
    pub fn p_max(&self, t: usize) -> f64 {
        self.row(t).p_max
    }

    /// Fastest combined training+sync time of task `t` across machines.
    pub fn ps_min(&self, t: usize) -> f64 {
        self.row(t).ps_min
    }

    /// The heterogeneity factor α of Lemma 3:
    /// `max_i { T^c_max/T^c_min , T^s_max/T^s_min }`, over the rows (every
    /// row belongs to some task).
    pub fn alpha(&self) -> f64 {
        let mut alpha: f64 = 1.0;
        for row in &self.rows {
            alpha = alpha.max(row.p_max / row.p_min);
            let smax = row.s.iter().cloned().fold(f64::MIN, f64::max);
            let smin = row.s.iter().cloned().fold(f64::MAX, f64::min);
            if smin > 0.0 {
                alpha = alpha.max(smax / smin);
            }
        }
        alpha
    }

    /// Task indices of one (job, round).
    pub fn round_tasks(&self, job: usize, round: u32) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.job == job && t.round == round)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }
}

/// Convenience builder for tests and examples: machines are implicit in the
/// length of each task's time vectors, and tasks with equal time vectors
/// share one [`Row`].
pub struct InstanceBuilder {
    n_machines: usize,
    jobs: Vec<JobMeta>,
    rows: Vec<Row>,
    tasks: Vec<TaskMeta>,
}

impl InstanceBuilder {
    /// Start an instance over `n_machines` machines.
    pub fn new(n_machines: usize) -> Self {
        InstanceBuilder {
            n_machines,
            jobs: Vec::new(),
            rows: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// Add a job; returns its index.
    pub fn job(&mut self, weight: f64, release: f64) -> usize {
        self.jobs.push(JobMeta {
            weight,
            release,
            rounds: 0,
        });
        self.jobs.len() - 1
    }

    /// Add one round to `job` with the given per-task time vectors
    /// (`p` per machine; sync times default to zero unless provided).
    pub fn round(&mut self, job: usize, tasks_p: &[Vec<f64>]) -> &mut Self {
        self.round_with_sync(
            job,
            tasks_p,
            &vec![vec![0.0; self.n_machines]; tasks_p.len()],
        )
    }

    /// Add one round with explicit sync times.
    pub fn round_with_sync(
        &mut self,
        job: usize,
        tasks_p: &[Vec<f64>],
        tasks_s: &[Vec<f64>],
    ) -> &mut Self {
        assert_eq!(tasks_p.len(), tasks_s.len());
        let round = self.jobs[job].rounds;
        self.jobs[job].rounds += 1;
        for (p, s) in tasks_p.iter().zip(tasks_s) {
            assert_eq!(p.len(), self.n_machines);
            assert_eq!(s.len(), self.n_machines);
            let row = match self.rows.iter().position(|r| r.p == *p && r.s == *s) {
                Some(row) => row,
                None => {
                    self.rows.push(Row::new(p.clone(), s.clone()));
                    self.rows.len() - 1
                }
            };
            self.tasks.push(TaskMeta { job, round, row });
        }
        self
    }

    /// Finish; panics if the instance is invalid.
    pub fn build(self) -> Instance {
        let inst = Instance {
            n_machines: self.n_machines,
            jobs: self.jobs,
            rows: self.rows,
            tasks: self.tasks,
        };
        if let Err(e) = inst.validate() {
            panic!("invalid instance: {e}");
        }
        inst
    }
}

/// The paper's Fig.-1 toy instance: 3 jobs, 3 GPUs, single-batch training
/// times from the figure's table. J1: one round of 2 parallel tasks; J2:
/// 3 rounds of 1 task; J3: 2 rounds of 2 tasks ("synchronizes every two
/// tasks"). Used by tests, examples and the `fig1` experiment binary.
pub fn fig1_instance() -> Instance {
    // Single-batch training time per GPU (GPU1, GPU2, GPU3):
    //   J1: [1.0, 1.5, 2.0], J2: [1.0, 1.5, 1.5], J3: [0.5, 1.0, 1.5]
    let mut b = InstanceBuilder::new(3);
    let j1 = b.job(1.0, 0.0);
    let j2 = b.job(1.0, 0.0);
    let j3 = b.job(1.0, 0.0);
    b.round(j1, &[vec![1.0, 1.5, 2.0], vec![1.0, 1.5, 2.0]]);
    for _ in 0..3 {
        b.round(j2, &[vec![1.0, 1.5, 1.5]]);
    }
    for _ in 0..2 {
        b.round(j3, &[vec![0.5, 1.0, 1.5], vec![0.5, 1.0, 1.5]]);
    }
    b.build()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_instances() {
        let inst = fig1_instance();
        assert!(inst.validate().is_ok());
        assert_eq!(inst.n_tasks(), 2 + 3 + 4);
        assert_eq!(inst.jobs[2].rounds, 2);
        assert_eq!(inst.round_tasks(2, 1).len(), 2);
    }

    #[test]
    fn alpha_of_fig1() {
        let inst = fig1_instance();
        // J3's 1.5/0.5 = 3 dominates.
        assert!((inst.alpha() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn p_min_max() {
        let inst = fig1_instance();
        let t = inst.round_tasks(0, 0)[0];
        assert_eq!(inst.p_min(t), 1.0);
        assert_eq!(inst.p_max(t), 2.0);
        assert_eq!(inst.ps_min(t), 1.0);
    }

    #[test]
    fn validation_catches_missing_round_tasks() {
        let inst = Instance {
            n_machines: 1,
            jobs: vec![JobMeta {
                weight: 1.0,
                release: 0.0,
                rounds: 2,
            }],
            rows: vec![Row::new(vec![1.0], vec![0.0])],
            tasks: vec![TaskMeta {
                job: 0,
                round: 0,
                row: 0,
            }],
        };
        let err = inst.validate().unwrap_err();
        assert!(err.to_string().contains("round 1"), "{err}");
    }

    /// `inst` with task `t` moved onto its own copy of its row, edited by
    /// `edit(p, s)`.
    fn with_task_times(
        mut inst: Instance,
        t: usize,
        edit: impl Fn(&mut [f64], &mut [f64]),
    ) -> Instance {
        let (mut p, mut s) = (inst.row(t).p().to_vec(), inst.row(t).s().to_vec());
        edit(&mut p, &mut s);
        inst.rows.push(Row::new(p, s));
        inst.tasks[t].row = inst.rows.len() - 1;
        inst
    }

    #[test]
    fn validation_catches_bad_times() {
        let inst = with_task_times(fig1_instance(), 0, |p, _| p[1] = 0.0);
        assert!(matches!(
            inst.validate(),
            Err(ProblemError::Task { task: 0, .. })
        ));
        let inst2 = with_task_times(fig1_instance(), 0, |_, s| s[0] = -1.0);
        assert!(inst2.validate().is_err());
        let inst3 = with_task_times(fig1_instance(), 1, |p, _| p[0] = f64::NAN);
        assert!(inst3.validate().is_err());
        let empty = Instance {
            n_machines: 0,
            jobs: vec![],
            rows: vec![],
            tasks: vec![],
        };
        assert_eq!(empty.validate(), Err(ProblemError::NoMachines));
    }

    #[test]
    fn a_bad_row_is_reported_at_its_first_task() {
        // J3's four tasks share one row; breaking it names task 5, the
        // first of them.
        let mut inst = fig1_instance();
        let row = inst.tasks[5].row;
        assert!(inst.tasks[5..].iter().all(|t| t.row == row));
        inst.rows[row] = Row::new(vec![0.5, 0.0, 1.5], vec![0.0; 3]);
        assert!(matches!(
            inst.validate(),
            Err(ProblemError::Task { task: 5, .. })
        ));
        let mut dangling = fig1_instance();
        dangling.tasks[2].row = dangling.rows.len();
        assert!(matches!(
            dangling.validate(),
            Err(ProblemError::Task { task: 2, .. })
        ));
        let mut unused = fig1_instance();
        unused.rows.push(Row::new(vec![1.0; 3], vec![0.0; 3]));
        assert!(matches!(
            unused.validate(),
            Err(ProblemError::Inconsistent(_))
        ));
    }

    #[test]
    fn builder_interns_equal_rows() {
        // Fig. 1 has three distinct time rows, one per job.
        let inst = fig1_instance();
        assert_eq!(inst.rows.len(), 3);
        for (t, task) in inst.tasks.iter().enumerate() {
            assert_eq!(task.row, task.job, "task {t}");
        }
    }
}
