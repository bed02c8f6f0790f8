//! The scheduling-policy interface of the simulator, and offline replay.
//!
//! Online baselines (FIFO, SRTF, …) implement [`Policy`] directly in
//! `hare-baselines`; Hare computes a [`hare_core::Schedule`] first and
//! replays its per-GPU task sequences through [`OfflineReplay`] — order
//! is preserved, timing is whatever the simulated cluster actually
//! delivers (noise, switching, network contention).

use crate::build::SimWorkload;
use crate::dense::DenseSet;
use hare_cluster::SimTime;
use hare_core::Schedule;
use std::collections::VecDeque;
use std::ops::Range;

/// What a policy sees at each dispatch opportunity: the engine's live
/// sets, read in place, and a log of what changed since the policy's
/// previous [`Policy::dispatch`] call.
pub struct SimView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The workload being executed.
    pub workload: &'a SimWorkload,
    /// Tasks whose round is released (arrival reached, previous round
    /// synced) and that have not started yet. Iterates in ascending task
    /// index.
    pub ready: &'a DenseSet,
    /// GPUs with no task assigned. Iterates in ascending GPU index.
    pub idle_gpus: &'a DenseSet,
    /// Every change to `ready`, `idle_gpus` and job completion since the
    /// policy's previous `dispatch` call that the policy did not cause
    /// itself, in event order (see [`Change`]). A policy's own
    /// assignments are not logged, and neither are tasks requeued by a
    /// failure: those arrive through [`Policy::on_gpu_failure`].
    pub changes: &'a [Change],
    /// Per job: next round to *finish* (== number of fully synced rounds);
    /// equals `rounds` when the job is done.
    pub synced_rounds: &'a [u32],
    /// Per job: whether it has arrived.
    pub arrived: &'a [bool],
    /// Fraction of the scheduler's replan budget currently available, in
    /// (0, 1]; 1.0 when the control plane is healthy. Shrunk by open
    /// [`crate::faults::SolverDegradation`] windows. Budget-aware
    /// policies scale their per-replan `hare_solver::SolveBudget` by
    /// it; others are free to ignore it.
    pub solver_budget_frac: f64,
}

/// Simulated seconds charged per unit of deterministic solver work (a
/// simplex pivot, a branch-and-bound node or a per-task pass): 100k units
/// ≈ 1 s of decision latency. Budgeted online Hare and [`crate::ServeLoop`]
/// both price their plans at this rate.
pub const SECS_PER_WORK_UNIT: f64 = 1e-5;

/// One entry of [`SimView::changes`]: a change to the dispatch inputs
/// that the engine made on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Change {
    /// A round's tasks joined the ready set: round 0 when the job
    /// arrives, round `r + 1` when round `r` syncs.
    Released {
        /// The job whose round was released.
        job: usize,
        /// The round's task indices.
        tasks: Range<usize>,
    },
    /// The job synced its last round.
    Completed {
        /// The completed job.
        job: usize,
    },
    /// A GPU joined the idle set: its task finished training (a losing
    /// speculation twin included) or it recovered from a failure.
    GpuIdle {
        /// The GPU.
        gpu: usize,
    },
    /// A GPU left the idle set without the policy dispatching to it: it
    /// failed, or the engine launched a speculative twin on it.
    GpuBusy {
        /// The GPU.
        gpu: usize,
    },
}

/// A scheduling policy driven by the simulator.
pub trait Policy {
    /// Display name (used in reports and tables).
    fn name(&self) -> String;

    /// Offered a dispatch opportunity: append (ready task, idle GPU) pairs
    /// to start now onto `out` (cleared by the engine before the call —
    /// the buffer is reused across calls so steady-state dispatching
    /// allocates nothing). Each task must be in `view.ready`, each GPU in
    /// `view.idle_gpus`, and no GPU may be used twice. Leaving `out`
    /// empty means "wait for the next event".
    ///
    /// Opportunities arrive whenever the view may have changed: after
    /// every simulation event that can alter the ready/idle sets or job
    /// progress, and again after each non-empty dispatch until the policy
    /// passes or a set drains. Events that provably change nothing a
    /// policy may read are *not* offered — a
    /// [`crate::Event::SwitchDone`] only moves a busy GPU from switching
    /// to training — so a policy must not rely on being polled at such
    /// moments. Nor is an opportunity offered while either set is empty.
    ///
    /// `view.changes` covers everything since the previous call, so it
    /// accumulates across the events whose offer was skipped, and the
    /// engine clears it after each call: the repeat offers after a
    /// non-empty dispatch see an empty log. A policy that keeps its own
    /// queues can update them from the log, its own assignments and
    /// [`Policy::on_gpu_failure`]'s requeued tasks alone, and never scan
    /// the sets.
    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>);

    /// Notification that `gpu` failed (failure injection): the engine will
    /// not offer it as idle until it recovers (if ever), and `requeued`
    /// lists the task (if any) that was running there and has been
    /// returned to the ready set. This is the only report of a requeued
    /// task; the change log does not repeat it. Policies holding per-GPU
    /// state (planned queues, dedicated gangs) must migrate it and re-own
    /// the requeued tasks. The default does nothing — correct for
    /// policies that re-derive their decisions from the view on every
    /// dispatch.
    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        let _ = (gpu, requeued);
    }

    /// Notification that a transiently-failed `gpu` rejoined (fault
    /// injection): it is idle again, with cold caches and no resident
    /// model. Policies holding per-GPU queues should rebalance work onto
    /// it; the default does nothing — correct for policies that re-derive
    /// their decisions from the view.
    fn on_gpu_recovery(&mut self, gpu: usize) {
        let _ = gpu;
    }
}

/// Replay a precomputed schedule's per-GPU sequences in order: an idle
/// GPU starts its queue head as soon as that task is ready.
///
/// The replay dispatches on what changed. It keeps the idle GPUs whose
/// head is ready and updates them from [`SimView::changes`] — a GPU
/// going idle or busy, a released round holding a queue head — so an
/// offer costs the size of its log, not of the cluster. It reads the
/// whole view only on its first call and after a failure or recovery,
/// whose queue migration and requeued tasks the log does not carry.
pub struct OfflineReplay {
    name: String,
    /// Remaining task queue per GPU (planned order).
    queues: Vec<VecDeque<usize>>,
    /// Per task, the GPU whose queue holds it: where a released task may
    /// be the head.
    queue_of: Vec<u32>,
    /// Planned start per task — queue positions always keep ascending
    /// planned starts, which keeps the replay's wait graph acyclic even
    /// after failure migration.
    planned: Vec<SimTime>,
    /// Generic speedup per GPU (failure migration prefers faster, emptier
    /// survivors).
    speedup: Vec<f64>,
    /// GPUs reported failed.
    failed: Vec<usize>,
    /// Idle GPUs whose queue head is ready; filled from the change log
    /// within a call and emptied by its dispatches.
    runnable: DenseSet,
    /// Rebuild `runnable` from the whole view on the next call.
    rescan: bool,
}

impl OfflineReplay {
    /// Build from a schedule (its per-GPU sequences, sorted by planned
    /// start, become the executors' task sequences — exactly the artifact
    /// Hare's scheduler ships to executors in Section 3).
    pub fn new(name: impl Into<String>, workload: &SimWorkload, schedule: &Schedule) -> Self {
        let queues = schedule
            .gpu_sequences(&workload.problem)
            .into_iter()
            .map(VecDeque::from)
            .collect();
        OfflineReplay {
            name: name.into(),
            queues,
            queue_of: schedule.gpu.iter().map(|&g| g as u32).collect(),
            planned: schedule.start.clone(),
            speedup: workload
                .cluster
                .gpus()
                .iter()
                .map(|g| g.kind.generic_speedup())
                .collect(),
            failed: Vec::new(),
            runnable: DenseSet::new(workload.problem.n_gpus),
            // The engine's initial sets are not in the change log.
            rescan: true,
        }
    }

    /// Tasks not yet dispatched.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Distribute `orphans` (sorted by planned start) over the live GPUs:
    /// each lands on the survivor with the least speed-normalized backlog
    /// (queue length over generic throughput), *inserted by planned start
    /// time*, not appended — every wait edge then still points at an
    /// earlier-planned task, so the replay's wait graph stays acyclic and
    /// deadlock-free.
    fn assign_by_planned_start(&mut self, orphans: Vec<usize>) {
        for task in orphans {
            let target = (0..self.queues.len())
                .filter(|g| !self.failed.contains(g))
                .min_by(|&a, &b| {
                    let ka = (self.queues[a].len() as f64 + 1.0) / self.speedup[a];
                    let kb = (self.queues[b].len() as f64 + 1.0) / self.speedup[b];
                    ka.total_cmp(&kb).then(a.cmp(&b))
                })
                .expect("at least one surviving GPU");
            let queue = &mut self.queues[target];
            let pos = queue
                .iter()
                .position(|&t| self.planned[t] > self.planned[task])
                .unwrap_or(queue.len());
            queue.insert(pos, task);
            self.queue_of[task] = target as u32;
        }
    }

    /// Is `gpu`'s queue head ready to start?
    fn head_ready(&self, gpu: usize, view: &SimView<'_>) -> bool {
        self.queues[gpu]
            .front()
            .is_some_and(|&head| view.ready.contains(head))
    }
}

impl Policy for OfflineReplay {
    fn name(&self) -> String {
        self.name.clone()
    }

    /// Migrate the dead GPU's remaining queue to the surviving queues
    /// (greedy rebalancing — the executor restart path of a real
    /// deployment).
    fn on_gpu_failure(&mut self, gpu: usize, requeued: &[usize]) {
        let mut orphans: Vec<usize> = self.queues[gpu].drain(..).collect();
        // The task that was mid-flight on the dead GPU re-enters the plan
        // ahead of everything it preceded.
        orphans.extend_from_slice(requeued);
        orphans.sort_by_key(|&t| (self.planned[t], t));
        self.failed.push(gpu);
        self.assign_by_planned_start(orphans);
        self.rescan = true;
    }

    /// A transiently-failed GPU rejoined: take every undispatched task
    /// back and redistribute over the (now larger) live set, so the
    /// recovered GPU earns a share of the backlog instead of idling.
    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.failed.retain(|&g| g != gpu);
        let mut orphans: Vec<usize> = self.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
        orphans.sort_by_key(|&t| (self.planned[t], t));
        self.assign_by_planned_start(orphans);
        self.rescan = true;
    }

    /// Start every idle GPU whose queue head is ready, in ascending GPU
    /// order. Every such GPU starts, so `runnable` is empty between calls
    /// and the next call's log says all that can refill it.
    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        if std::mem::take(&mut self.rescan) {
            for gpu in view.idle_gpus.iter() {
                if self.head_ready(gpu, view) {
                    self.runnable.insert(gpu);
                }
            }
        } else {
            for change in view.changes {
                match change {
                    Change::GpuIdle { gpu } => {
                        if self.head_ready(*gpu, view) {
                            self.runnable.insert(*gpu);
                        }
                    }
                    Change::GpuBusy { gpu } => {
                        self.runnable.remove(*gpu);
                    }
                    Change::Released { tasks, .. } => {
                        for task in tasks.clone() {
                            let gpu = self.queue_of[task] as usize;
                            if self.queues[gpu].front() == Some(&task)
                                && view.idle_gpus.contains(gpu)
                            {
                                self.runnable.insert(gpu);
                            }
                        }
                    }
                    Change::Completed { .. } => {}
                }
            }
        }
        for gpu in self.runnable.iter() {
            let head = self.queues[gpu]
                .pop_front()
                .expect("runnable GPU has a head");
            out.push((head, gpu));
        }
        self.runnable.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hare_cluster::Cluster;
    use hare_workload::{testbed_trace, ProfileDb};

    fn tiny_workload() -> SimWorkload {
        let db = ProfileDb::with_noise(1, 0.0);
        let mut trace = testbed_trace(3);
        trace.truncate(4);
        SimWorkload::build(Cluster::testbed15(), trace, &db)
    }

    /// The set of `members` over `0..capacity`.
    fn set(capacity: usize, members: impl IntoIterator<Item = usize>) -> DenseSet {
        let mut s = DenseSet::new(capacity);
        for i in members {
            s.insert(i);
        }
        s
    }

    fn dispatch(p: &mut impl Policy, view: &SimView<'_>) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        p.dispatch(view, &mut out);
        out
    }

    #[test]
    fn replay_respects_order_and_readiness() {
        let w = tiny_workload();
        let out = hare_core::hare_schedule(&w.problem);
        let mut replay = OfflineReplay::new("hare", &w, &out.schedule);
        let total = replay.pending();
        assert_eq!(total, w.problem.n_tasks());

        // Ready = nothing -> no dispatch even with all GPUs idle.
        let idle = DenseSet::full(15);
        let view = SimView {
            now: SimTime::ZERO,
            workload: &w,
            ready: &DenseSet::new(w.problem.n_tasks()),
            idle_gpus: &idle,
            changes: &[],
            synced_rounds: &vec![0; w.problem.jobs.len()],
            arrived: &vec![true; w.problem.jobs.len()],
            solver_budget_frac: 1.0,
        };
        assert!(dispatch(&mut replay, &view).is_empty());

        // Release the rounds that hold the queue heads, logged as the engine
        // logs a release; the heads dispatch to their own GPUs.
        let seqs = out.schedule.gpu_sequences(&w.problem);
        let mut rounds: Vec<(usize, u32)> = seqs
            .iter()
            .filter_map(|q| q.first())
            .map(|&t| (w.problem.tasks[t].job, w.problem.tasks[t].round))
            .collect();
        rounds.sort_unstable();
        rounds.dedup();
        let released: Vec<Change> = rounds
            .iter()
            .map(|&(job, round)| Change::Released {
                job,
                tasks: w.problem.round_range(job, round),
            })
            .collect();
        let ready = set(
            w.problem.n_tasks(),
            rounds
                .iter()
                .flat_map(|&(job, round)| w.problem.round_range(job, round)),
        );
        let view = SimView {
            now: SimTime::ZERO,
            workload: &w,
            ready: &ready,
            idle_gpus: &idle,
            changes: &released,
            synced_rounds: &vec![0; w.problem.jobs.len()],
            arrived: &vec![true; w.problem.jobs.len()],
            solver_budget_frac: 1.0,
        };
        let assignments = dispatch(&mut replay, &view);
        assert!(!assignments.is_empty());
        for (task, gpu) in &assignments {
            assert_eq!(seqs[*gpu].first(), Some(task));
        }
        assert_eq!(replay.pending(), total - assignments.len());
    }

    #[test]
    fn replay_skips_a_gpu_that_left_the_idle_set() {
        let w = tiny_workload();
        let out = hare_core::hare_schedule(&w.problem);
        let mut replay = OfflineReplay::new("hare", &w, &out.schedule);
        let seqs = out.schedule.gpu_sequences(&w.problem);
        let gpu = (0..15).find(|&g| !seqs[g].is_empty()).expect("a busy GPU");
        let head = seqs[gpu][0];
        let (job, round) = (w.problem.tasks[head].job, w.problem.tasks[head].round);
        let n_jobs = w.problem.jobs.len();
        let mut offer = |ready: &DenseSet, idle: &DenseSet, changes: &[Change]| {
            let mut out = Vec::new();
            replay.dispatch(
                &SimView {
                    now: SimTime::ZERO,
                    workload: &w,
                    ready,
                    idle_gpus: idle,
                    changes,
                    synced_rounds: &vec![0; n_jobs],
                    arrived: &vec![true; n_jobs],
                    solver_budget_frac: 1.0,
                },
                &mut out,
            );
            out
        };
        // First call: nothing ready, `gpu` busy.
        let nothing = DenseSet::new(w.problem.n_tasks());
        let others = set(15, (0..15).filter(|&g| g != gpu));
        assert!(offer(&nothing, &others, &[]).is_empty());
        // `gpu` went idle, a speculation twin took it, then its head's
        // round was released: one log, and `gpu` is busy at the end.
        let ready = set(w.problem.n_tasks(), w.problem.round_range(job, round));
        let log = [
            Change::GpuIdle { gpu },
            Change::GpuBusy { gpu },
            Change::Released {
                job,
                tasks: w.problem.round_range(job, round),
            },
        ];
        let started = offer(&ready, &others, &log);
        assert!(
            started.iter().all(|&(_, g)| g != gpu),
            "dispatched to busy GPU {gpu}: {started:?}"
        );
    }

    #[test]
    fn recovery_rebalances_pending_queues() {
        let w = tiny_workload();
        let out = hare_core::hare_schedule(&w.problem);
        let mut replay = OfflineReplay::new("hare", &w, &out.schedule);
        let total = replay.pending();
        replay.on_gpu_failure(0, &[]);
        assert_eq!(replay.pending(), total, "failure migration loses no task");
        assert!(replay.queues[0].is_empty());
        replay.on_gpu_recovery(0);
        assert_eq!(replay.pending(), total, "recovery rebalance loses no task");
        // Queues stay sorted by planned start (the acyclicity invariant).
        for q in &replay.queues {
            let tasks: Vec<usize> = q.iter().copied().collect();
            for pair in tasks.windows(2) {
                assert!(replay.planned[pair[0]] <= replay.planned[pair[1]]);
            }
        }
        // The recovered GPU is live again: fail every other GPU and the
        // whole backlog must land on it.
        let survivors: Vec<usize> = (1..replay.queues.len()).collect();
        for g in survivors {
            replay.on_gpu_failure(g, &[]);
        }
        assert_eq!(replay.queues[0].len(), total);
    }

    #[test]
    fn replay_keeps_gpu_idle_for_unready_head() {
        let w = tiny_workload();
        let out = hare_core::hare_schedule(&w.problem);
        let mut replay = OfflineReplay::new("hare", &w, &out.schedule);
        let seqs = out.schedule.gpu_sequences(&w.problem);
        let busy_gpu = (0..15).find(|&g| seqs[g].len() >= 2).expect("a 2-task GPU");
        // Second task of that GPU is ready, head is not: nothing dispatches
        // on that GPU (order preservation).
        let second = seqs[busy_gpu][1];
        let view = SimView {
            now: SimTime::ZERO,
            workload: &w,
            ready: &set(w.problem.n_tasks(), [second]),
            idle_gpus: &set(15, [busy_gpu]),
            changes: &[],
            synced_rounds: &vec![0; w.problem.jobs.len()],
            arrived: &vec![true; w.problem.jobs.len()],
            solver_budget_frac: 1.0,
        };
        assert!(dispatch(&mut replay, &view).is_empty());
    }
}
