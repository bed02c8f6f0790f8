//! Schedules: the output of every scheduler in this workspace.
//!
//! A schedule fixes each task's start time `x̃ᵢ` and GPU `ỹᵢ`. Validation
//! checks the `Hare_Sched` constraints (4)–(8) plus, optionally, the strict
//! scale-fixed gang property (Section 2.2.3); metric accessors compute the
//! quantities the evaluation reports (weighted JCT, makespan, per-GPU busy
//! time and utilization).

use crate::problem::{GpuIdx, SchedProblem, TaskIdx};
use crate::sync::SyncMode;
use hare_cluster::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A complete task-level schedule.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Start time `x̃ᵢ` per task.
    pub start: Vec<SimTime>,
    /// GPU assignment `ỹᵢ` per task.
    pub gpu: Vec<GpuIdx>,
}

impl Schedule {
    /// An empty (all-zero) schedule shell for `n` tasks.
    pub fn with_capacity(n: usize) -> Self {
        Schedule {
            start: vec![SimTime::ZERO; n],
            gpu: vec![0; n],
        }
    }

    /// Completion time of task `i` *including* synchronization
    /// (`x̃ᵢ + T^c + T^s` on its assigned GPU).
    pub fn task_completion(&self, p: &SchedProblem, i: TaskIdx) -> SimTime {
        self.start[i] + p.train(i, self.gpu[i]) + p.sync(i, self.gpu[i])
    }

    /// Time the GPU is released by task `i` (`x̃ᵢ + T^c`; sync overlaps the
    /// next task, Algorithm 1 line 16).
    pub fn gpu_release(&self, p: &SchedProblem, i: TaskIdx) -> SimTime {
        self.start[i] + p.train(i, self.gpu[i])
    }

    /// Completion time `C_n` of every job (the latest completion of its
    /// tasks), in one pass over the tasks.
    pub fn job_completions(&self, p: &SchedProblem) -> Vec<SimTime> {
        let mut done: Vec<Option<SimTime>> = vec![None; p.jobs.len()];
        for (i, task) in p.tasks.iter().enumerate() {
            let c = self.task_completion(p, i);
            let slot = &mut done[task.job];
            *slot = Some(slot.map_or(c, |d| d.max(c)));
        }
        done.into_iter()
            .map(|c| c.expect("job has tasks"))
            .collect()
    }

    /// The objective: Σ wₙ Cₙ in seconds.
    pub fn weighted_completion(&self, p: &SchedProblem) -> f64 {
        p.jobs
            .iter()
            .zip(self.job_completions(p))
            .map(|(job, c)| job.weight * c.as_secs_f64())
            .sum()
    }

    /// Per-job JCT (completion − arrival), the quantity Fig. 13's CDF plots.
    pub fn jcts(&self, p: &SchedProblem) -> Vec<SimDuration> {
        p.jobs
            .iter()
            .zip(self.job_completions(p))
            .map(|(job, c)| c.saturating_since(job.arrival))
            .collect()
    }

    /// Weighted sum of JCTs (sojourn form of the objective).
    pub fn weighted_jct(&self, p: &SchedProblem) -> f64 {
        self.jcts(p)
            .iter()
            .zip(&p.jobs)
            .map(|(jct, job)| job.weight * jct.as_secs_f64())
            .sum()
    }

    /// Latest completion over all jobs.
    pub fn makespan(&self, p: &SchedProblem) -> SimTime {
        self.job_completions(p)
            .into_iter()
            .max()
            .expect("non-empty problem")
    }

    /// Task indices per GPU, each sorted by start time.
    pub fn gpu_sequences(&self, p: &SchedProblem) -> Vec<Vec<TaskIdx>> {
        let mut seqs = vec![Vec::new(); p.n_gpus];
        for i in 0..p.n_tasks() {
            seqs[self.gpu[i]].push(i);
        }
        for seq in &mut seqs {
            seq.sort_by_key(|&i| (self.start[i], i));
        }
        seqs
    }

    /// Total training time placed on each GPU.
    pub fn busy_time(&self, p: &SchedProblem) -> Vec<SimDuration> {
        let mut busy = vec![SimDuration::ZERO; p.n_gpus];
        for i in 0..p.n_tasks() {
            busy[self.gpu[i]] += p.train(i, self.gpu[i]);
        }
        busy
    }

    /// Busy fraction per GPU over the makespan window.
    pub fn utilization(&self, p: &SchedProblem) -> Vec<f64> {
        let span = self.makespan(p).as_secs_f64();
        self.busy_time(p)
            .iter()
            .map(|b| {
                if span > 0.0 {
                    b.as_secs_f64() / span
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Check constraints (4)–(8) of `Hare_Sched`, plus gang start/distinct
    /// GPUs under [`SyncMode::Strict`]. Returns the first violation found.
    pub fn validate(&self, p: &SchedProblem, mode: SyncMode) -> Result<(), String> {
        if self.start.len() != p.n_tasks() || self.gpu.len() != p.n_tasks() {
            return Err("schedule length mismatch".into());
        }
        // (5): assignment in range.
        for (i, &g) in self.gpu.iter().enumerate() {
            if g >= p.n_gpus {
                return Err(format!("task {i}: GPU {g} out of range"));
            }
        }
        // (4): arrival.
        for i in 0..p.n_tasks() {
            if self.start[i] < p.arrival_of(i) {
                return Err(format!(
                    "task {i}: starts {} before arrival {}",
                    self.start[i],
                    p.arrival_of(i)
                ));
            }
        }
        // (7): round precedence.
        for (j, job) in p.jobs.iter().enumerate() {
            for r in 1..job.rounds {
                let prev_done = p
                    .round_range(j, r - 1)
                    .map(|i| self.task_completion(p, i))
                    .max()
                    .expect("every round has at least one task");
                for i in p.round_range(j, r) {
                    if self.start[i] < prev_done {
                        return Err(format!(
                            "task {i} (job {j} round {r}): starts {} before round {} completes {}",
                            self.start[i],
                            r - 1,
                            prev_done
                        ));
                    }
                }
            }
        }
        // (8): non-overlap on each GPU (training occupies the GPU; sync
        // overlaps the successor).
        for (g, seq) in self.gpu_sequences(p).iter().enumerate() {
            for w in seq.windows(2) {
                let (a, b) = (w[0], w[1]);
                let release = self.gpu_release(p, a);
                if self.start[b] < release {
                    return Err(format!(
                        "GPU {g}: task {b} starts {} before task {a} releases {}",
                        self.start[b], release
                    ));
                }
            }
        }
        // Strict gangs: simultaneous starts on distinct GPUs.
        if mode == SyncMode::Strict {
            for (j, job) in p.jobs.iter().enumerate() {
                for r in 0..job.rounds {
                    let tasks = p.round_range(j, r);
                    let first = self.start[tasks.start];
                    let mut gpus: Vec<GpuIdx> = Vec::with_capacity(tasks.len());
                    for i in tasks {
                        if self.start[i] != first {
                            return Err(format!("job {j} round {r}: strict gang start mismatch"));
                        }
                        if gpus.contains(&self.gpu[i]) {
                            return Err(format!("job {j} round {r}: gang shares a GPU"));
                        }
                        gpus.push(self.gpu[i]);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// The exact-optimal Fig.-1 schedule (total weighted JCT 8.5, as the
    /// paper's Fig. 1(c) reports), found by `hare-solver`'s branch-and-
    /// bound. It showcases both intra-job parallelism and relaxed
    /// scale-fixed stacking: all four J3 tasks run back-to-back on GPU0.
    fn fig1_optimal() -> (SchedProblem, Schedule) {
        let p = SchedProblem::fig1();
        let mut s = Schedule::with_capacity(p.n_tasks());
        let sec = SimTime::from_secs_f64;
        let place = |s: &mut Schedule, i: usize, g: usize, t: f64| {
            s.gpu[i] = g;
            s.start[i] = sec(t);
        };
        // J1 (tasks 0,1): GPU0 [0,1) and GPU1 [0,1.5) -> C1 = 1.5.
        place(&mut s, 0, 0, 0.0);
        place(&mut s, 1, 1, 0.0);
        // J2 (tasks 2,3,4): GPU2 [0,1.5), GPU1 [1.5,3.0), GPU0 [3,4) -> C2 = 4.
        place(&mut s, 2, 2, 0.0);
        place(&mut s, 3, 1, 1.5);
        place(&mut s, 4, 0, 3.0);
        // J3 (tasks 5..8): stacked on GPU0 [1,1.5),[1.5,2),[2,2.5),[2.5,3)
        // -> C3 = 3.
        place(&mut s, 5, 0, 1.0);
        place(&mut s, 6, 0, 1.5);
        place(&mut s, 7, 0, 2.0);
        place(&mut s, 8, 0, 2.5);
        (p, s)
    }

    #[test]
    fn fig1_optimal_is_valid_relaxed_but_not_strict() {
        let (p, s) = fig1_optimal();
        assert!(s.validate(&p, SyncMode::Relaxed).is_ok());
        // J3's rounds share GPU0 with staggered starts — forbidden under
        // strict scale-fixed gang semantics.
        assert!(s.validate(&p, SyncMode::Strict).is_err());
    }

    #[test]
    fn metrics_compute() {
        let (p, s) = fig1_optimal();
        let done = s.job_completions(&p);
        assert!((done[0].as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((done[1].as_secs_f64() - 4.0).abs() < 1e-9);
        assert!((done[2].as_secs_f64() - 3.0).abs() < 1e-9);
        assert!((s.weighted_completion(&p) - 8.5).abs() < 1e-9);
        assert_eq!(s.makespan(&p).as_secs_f64(), 4.0);
        let busy = s.busy_time(&p);
        // GPU0: J1 task (1.0) + J3 4x0.5 (2.0) + J2 round 2 (1.0) = 4.0.
        assert_eq!(busy[0], SimDuration::from_secs(4));
        let seqs = s.gpu_sequences(&p);
        assert_eq!(seqs[0], vec![0, 5, 6, 7, 8, 4]);
        // GPU0 is 100% busy over the makespan.
        assert!((s.utilization(&p)[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlap_is_detected() {
        let p = SchedProblem::fig1();
        let mut s = Schedule::with_capacity(p.n_tasks());
        // Everything at t=0 on GPU0: massive overlap.
        let err = s.validate(&p, SyncMode::Relaxed).unwrap_err();
        assert!(err.contains("GPU 0") || err.contains("round"), "{err}");
        // Fix one task to start before arrival: arrival check.
        s.start[0] = SimTime::ZERO;
        assert!(s.validate(&p, SyncMode::Relaxed).is_err());
    }

    #[test]
    fn precedence_violation_detected() {
        let p = SchedProblem::fig1();
        let mut s = Schedule::with_capacity(p.n_tasks());
        // Spread tasks over GPUs to avoid overlap, but put J2's rounds all
        // at t=0 on different GPUs — violates (7) (and (8) partly).
        s.gpu = vec![0, 1, 0, 1, 2, 1, 2, 1, 2];
        let err = s.validate(&p, SyncMode::Relaxed).unwrap_err();
        assert!(err.contains("round"), "{err}");
    }

    #[test]
    fn sync_overlaps_successor_on_gpu() {
        // A GPU may start the next task right after T^c even though the
        // previous task's sync is still in flight.
        let sec = |s: f64| SimDuration::from_secs_f64(s);
        let p = SchedProblem::new(
            1,
            vec![
                crate::problem::JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 1,
                    sync_scale: 1,
                    train: vec![sec(2.0)],
                    sync: vec![sec(1.0)],
                },
                crate::problem::JobInfo {
                    weight: 1.0,
                    arrival: SimTime::ZERO,
                    rounds: 1,
                    sync_scale: 1,
                    train: vec![sec(2.0)],
                    sync: vec![sec(0.5)],
                },
            ],
        );
        let s = Schedule {
            start: vec![SimTime::ZERO, SimTime::from_secs(2)],
            gpu: vec![0, 0],
        };
        assert!(s.validate(&p, SyncMode::Relaxed).is_ok());
        let done = s.job_completions(&p);
        assert!((done[0].as_secs_f64() - 3.0).abs() < 1e-9);
        assert!((done[1].as_secs_f64() - 4.5).abs() < 1e-9);
    }
}
