//! The incremental gang core shared by the four dedicated-gang baselines.
//!
//! Gavel_FIFO, SRTF, Sched_Homo and Sched_Allox share one skeleton: an
//! admitted job receives a dedicated gang of `sync_scale` GPUs, keeps it
//! until it completes, and runs every released round on it. They differ
//! only in the order they admit waiting jobs, the order they prefer GPUs
//! in, and how they pick gangs: a [`GangRule`]. [`GangPolicy`] holds the
//! rest — the placed gangs, their reservations, the waiting queue, the
//! placed jobs with released tasks still to start, and the repair of gangs
//! broken by GPU failures.
//!
//! The core never rebuilds its state from the view: it follows
//! [`SimView::changes`] and the failure callbacks. Repair and admission are
//! pure functions of three sets — the waiting jobs, the free GPUs (idle
//! and unreserved) and the down GPUs — so they rerun only when one of
//! those can have changed since they last ran. A pass that committed a
//! gang changed two of them, so the next call reruns too: a smaller
//! Sched_Allox matching can commit more.

use hare_sim::{Change, DenseSet, Policy, SimView, SimWorkload};
use std::collections::BTreeSet;

/// What sets one gang baseline apart from the others.
pub trait GangRule {
    /// Display name (used in reports and tables).
    const NAME: &'static str;

    /// The job's key in the admission queue, smallest first; ties go to
    /// the lower job index. Read once per job before the run's first
    /// dispatch: a waiting job has not run, so its remaining work is all
    /// of its work. The default, a constant, admits in arrival order (job
    /// index: traces are arrival-sorted).
    fn admission_key(&self, w: &SimWorkload, job: usize) -> f64 {
        let _ = (w, job);
        0.0
    }

    /// Every GPU of the cluster in the scheme's placement preference.
    /// Repairs draw replacements in this order, and
    /// [`GangRule::admit`] receives the free GPUs in it.
    fn gpu_order(&self, w: &SimWorkload) -> Vec<usize>;

    /// Pick gangs for waiting jobs. `waiting` is in admission order and
    /// `free` holds the idle unreserved GPUs in [`GangRule::gpu_order`].
    /// Returns the `(job, gang)` pairs to start, in start order, each gang
    /// `sync_scale` distinct GPUs of `free`.
    fn admit(
        &self,
        w: &SimWorkload,
        waiting: &[usize],
        free: Vec<usize>,
    ) -> Vec<(usize, Vec<usize>)>;
}

/// A dedicated-gang scheduler: the shared core driven by a [`GangRule`].
#[derive(Debug, Default)]
pub struct GangPolicy<R> {
    rule: R,
    /// Position of each job in the rule's admission order; empty until
    /// the first dispatch.
    rank: Vec<usize>,
    /// Every GPU, in the rule's placement preference.
    gpu_order: Vec<usize>,
    /// Dedicated gang per placed job, until it completes.
    placed: Vec<Option<Vec<usize>>>,
    /// GPUs held by a gang. The engine marks a gang member idle as soon
    /// as its task finishes training, but the member stays its job's
    /// while the job synchronizes between rounds.
    reserved: Vec<bool>,
    /// Arrived jobs without a gang, as `(rank, job)`.
    waiting: BTreeSet<(usize, usize)>,
    /// Placed jobs that may have released tasks not yet started: a new
    /// round, a task requeued by a failure, or tasks waiting for a busy,
    /// down or repaired gang member. Ascending and duplicate-free, so
    /// gangs continue in job order.
    pending: Vec<usize>,
    /// Tasks requeued by failures since the last dispatch.
    requeued: Vec<usize>,
    /// GPUs currently down (fault injection).
    down: BTreeSet<usize>,
    /// The waiting, free or down set may have changed since repair and
    /// admission last ran.
    dirty: bool,
}

impl<R: GangRule + Default> GangPolicy<R> {
    /// New policy instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<R: GangRule> GangPolicy<R> {
    /// Size the per-job and per-GPU state and fix both orders.
    fn start(&mut self, w: &SimWorkload) {
        let n_jobs = w.problem.jobs.len();
        let keys: Vec<f64> = (0..n_jobs).map(|j| self.rule.admission_key(w, j)).collect();
        let mut order: Vec<usize> = (0..n_jobs).collect();
        order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]).then(a.cmp(&b)));
        self.rank = vec![0; n_jobs];
        for (rank, &job) in order.iter().enumerate() {
            self.rank[job] = rank;
        }
        self.gpu_order = self.rule.gpu_order(w);
        self.placed = vec![None; n_jobs];
        self.reserved = vec![false; w.cluster.gpu_count()];
    }

    /// Fold one engine change into the queues.
    fn apply(&mut self, change: &Change) {
        match *change {
            Change::Released { job, .. } => {
                if self.placed[job].is_some() {
                    self.mark_pending(job);
                } else {
                    self.waiting.insert((self.rank[job], job));
                    self.dirty = true;
                }
            }
            Change::Completed { job } => {
                if let Some(gang) = self.placed[job].take() {
                    for g in gang {
                        self.reserved[g] = false;
                    }
                    self.dirty = true;
                }
                if let Ok(i) = self.pending.binary_search(&job) {
                    self.pending.remove(i);
                }
            }
            Change::GpuIdle { gpu } | Change::GpuBusy { gpu } => {
                if !self.reserved[gpu] {
                    self.dirty = true;
                }
            }
        }
    }

    /// Add a placed job to `pending`, keeping it sorted.
    fn mark_pending(&mut self, job: usize) {
        if let Err(i) = self.pending.binary_search(&job) {
            self.pending.insert(i, job);
        }
    }

    /// The idle unreserved GPUs, in the rule's order.
    fn free(&self, idle: &DenseSet) -> Vec<usize> {
        self.gpu_order
            .iter()
            .copied()
            .filter(|&g| idle.contains(g) && !self.reserved[g])
            .collect()
    }

    /// Swap every down gang member for the next free GPU, jobs in index
    /// order and members in gang order, so a failure never upgrades a
    /// scheme beyond its own placement preference. When no replacement
    /// is free the hole stays: the paired task waits until a GPU frees
    /// (which reruns repair) or the member recovers.
    fn repair(&mut self, idle: &DenseSet) {
        if self.down.is_empty() {
            return;
        }
        let mut pool = self.free(idle).into_iter();
        for gang in self.placed.iter_mut().flatten() {
            for member in gang.iter_mut() {
                if self.down.contains(member) {
                    let Some(new) = pool.next() else { return };
                    self.reserved[*member] = false;
                    self.reserved[new] = true;
                    *member = new;
                }
            }
        }
    }

    /// Start the released tasks of pending jobs on their gangs' idle
    /// members, tasks ascending and members in gang order. A job stays
    /// pending while a task still lacks a member.
    fn continue_gangs(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        let p = &view.workload.problem;
        let placed = &self.placed;
        self.pending.retain(|&job| {
            let gang = placed[job].as_ref().expect("pending jobs are placed");
            let mut members = gang.iter().filter(|&&g| view.idle_gpus.contains(g));
            let round = p.round_range(job, view.synced_rounds[job]);
            for task in round.filter(|&t| view.ready.contains(t)) {
                let Some(&gpu) = members.next() else {
                    return true;
                };
                out.push((task, gpu));
            }
            false
        });
    }

    /// Run the rule over the waiting jobs and free GPUs and start the
    /// gangs it picks. Returns whether any gang started.
    fn admit(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) -> bool {
        if self.waiting.is_empty() {
            return false;
        }
        let free = self.free(view.idle_gpus);
        if free.is_empty() {
            return false;
        }
        let waiting: Vec<usize> = self.waiting.iter().map(|&(_, job)| job).collect();
        let gangs = self.rule.admit(view.workload, &waiting, free);
        let committed = !gangs.is_empty();
        for (job, gang) in gangs {
            // An unplaced job's first round is all ready.
            out.extend(
                view.workload
                    .problem
                    .round_range(job, 0)
                    .zip(gang.iter().copied()),
            );
            for &g in &gang {
                debug_assert!(!self.reserved[g], "GPU {g} doubly reserved");
                self.reserved[g] = true;
            }
            self.waiting.remove(&(self.rank[job], job));
            self.placed[job] = Some(gang);
        }
        committed
    }
}

impl<R: GangRule> Policy for GangPolicy<R> {
    fn name(&self) -> String {
        R::NAME.into()
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        if self.rank.is_empty() {
            self.start(view.workload);
        }
        for change in view.changes {
            self.apply(change);
        }
        for task in std::mem::take(&mut self.requeued) {
            let job = view.workload.problem.tasks[task].job;
            if self.placed[job].is_some() {
                self.mark_pending(job);
            }
        }
        if self.dirty {
            self.repair(view.idle_gpus);
        }
        self.continue_gangs(view, out);
        if self.dirty {
            self.dirty = self.admit(view, out);
        }
    }

    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        self.down.insert(gpu);
        self.requeued.extend_from_slice(requeued);
        self.dirty = true;
    }

    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.down.remove(&gpu);
    }
}

/// Admit waiting jobs in order onto the leading free GPUs. With
/// `blocking`, the first job that does not fit stops admission (FIFO
/// head-of-line blocking); without it, smaller jobs behind slip past.
pub(crate) fn admit_in_order(
    w: &SimWorkload,
    waiting: &[usize],
    mut free: Vec<usize>,
    blocking: bool,
) -> Vec<(usize, Vec<usize>)> {
    let mut gangs = Vec::new();
    for &job in waiting {
        let need = w.problem.jobs[job].sync_scale as usize;
        if free.len() < need {
            if blocking {
                break;
            }
            continue;
        }
        gangs.push((job, free.drain(..need).collect()));
    }
    gangs
}

/// All GPUs, fastest first (by generic FP32 speedup, ties by index) —
/// Gavel's "assign jobs to fastest available GPUs".
pub(crate) fn fastest_first(w: &SimWorkload) -> Vec<usize> {
    let gpus = w.cluster.gpus();
    let mut order: Vec<usize> = (0..gpus.len()).collect();
    order.sort_by(|&a, &b| {
        let sa = gpus[a].kind.generic_speedup();
        let sb = gpus[b].kind.generic_speedup();
        // total_cmp: a NaN speedup (corrupt profile) must not panic the
        // scheduler mid-run; it just sorts deterministically to one end.
        sb.total_cmp(&sa).then(a.cmp(&b))
    });
    order
}

/// All GPUs in a fixed kind-blind pseudo-random permutation, for the
/// heterogeneity-oblivious policies (index order would accidentally
/// correlate with speed, since cluster builders list kinds in blocks).
pub(crate) fn oblivious_order(w: &SimWorkload) -> Vec<usize> {
    let mut order: Vec<usize> = (0..w.cluster.gpu_count()).collect();
    order.sort_by_key(|&g| (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    order
}

#[cfg(test)]
mod tests {
    /// Regression: the float-keyed sorts in the policies (fastest-first by
    /// speedup, HareOnline dispatch by priority, AlloX gang filling by
    /// speedup) once used `partial_cmp().expect(..)`, which panics the
    /// whole simulation when any key is NaN. They all use `total_cmp`
    /// now; this pins the contract on the exact comparator shape they
    /// share: no panic, deterministic order, NaN sorted to a fixed end.
    #[test]
    fn float_keyed_sorts_tolerate_nan_without_panicking() {
        // Descending-value comparator, as in fastest_first / AlloX.
        let mut desc: Vec<(usize, f64)> =
            vec![(0, 1.0), (1, f64::NAN), (2, 2.5), (3, f64::NAN), (4, 0.5)];
        desc.sort_by(|&(a, sa), &(b, sb)| sb.total_cmp(&sa).then(a.cmp(&b)));
        let order: Vec<usize> = desc.iter().map(|&(i, _)| i).collect();
        // Positive NaN is total_cmp's maximum, so descending puts it first;
        // what matters is that the order is total and reproducible.
        assert_eq!(order, vec![1, 3, 2, 0, 4]);

        // Ascending-priority comparator, as in HareOnline::dispatch.
        let mut asc: Vec<(usize, f64)> =
            vec![(0, f64::INFINITY), (1, 3.0), (2, f64::NAN), (3, 1.0)];
        asc.sort_by(|&(a, pa), &(b, pb)| pa.total_cmp(&pb).then(a.cmp(&b)));
        let order: Vec<usize> = asc.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, vec![3, 1, 0, 2], "NaN sorts after +inf, stably");
    }
}
