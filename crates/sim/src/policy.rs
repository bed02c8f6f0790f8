//! The scheduling-policy interface of the simulator, and offline replay.
//!
//! Online baselines (FIFO, SRTF, …) implement [`Policy`] directly in
//! `hare-baselines`; offline schedulers (Hare, Sched_Homo, Sched_Allox)
//! compute a [`hare_core::Schedule`] first and replay its per-GPU task
//! sequences through [`OfflineReplay`] — order is preserved, timing is
//! whatever the simulated cluster actually delivers (noise, switching,
//! network contention).

use crate::build::SimWorkload;
use hare_cluster::SimTime;
use hare_core::Schedule;
use std::collections::VecDeque;

/// What a policy sees at each dispatch opportunity.
pub struct SimView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The workload being executed.
    pub workload: &'a SimWorkload,
    /// Tasks whose round is released (arrival reached, previous round
    /// synced) and that have not started yet, ascending task index.
    pub ready: &'a [usize],
    /// GPUs with no task assigned, ascending GPU index.
    pub idle_gpus: &'a [usize],
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

/// A scheduling policy driven by the simulator.
pub trait Policy {
    /// Display name (used in reports and tables).
    fn name(&self) -> String;

    /// Offered a dispatch opportunity: append (ready task, idle GPU) pairs
    /// to start now onto `out` (cleared by the engine before the call —
    /// the buffer is reused across calls so steady-state dispatching
    /// allocates nothing). Each task must appear in `view.ready`, each GPU
    /// in `view.idle_gpus`, and no GPU may be used twice. Leaving `out`
    /// empty means "wait for the next event".
    ///
    /// Opportunities arrive whenever the view may have changed: after
    /// every simulation event that can alter the ready/idle sets or job
    /// progress, and again after each non-empty dispatch until the policy
    /// passes or a set drains. Events that provably change nothing a
    /// policy may read (a switch completing on a still-busy GPU) are *not*
    /// offered, so a policy must not rely on being polled at such moments.
    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>);

    /// Notification that `gpu` failed (failure injection): the engine will
    /// not offer it as idle until it recovers (if ever), and `requeued`
    /// lists the task (if any) that was running there and has been
    /// returned to the ready set. Policies holding per-GPU state (planned
    /// queues, dedicated gangs) must migrate it and re-own the requeued
    /// tasks. The default does nothing — correct for policies that
    /// re-derive their decisions from the view on every dispatch.
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

/// Replay a precomputed schedule's per-GPU sequences in order.
pub struct OfflineReplay {
    name: String,
    /// Remaining task queue per GPU (planned order).
    queues: Vec<VecDeque<usize>>,
    /// Planned start per task — queue positions always keep ascending
    /// planned starts, which keeps the replay's wait graph acyclic even
    /// after failure migration.
    planned: Vec<SimTime>,
    /// Generic speedup per GPU (failure migration prefers faster, emptier
    /// survivors).
    speedup: Vec<f64>,
    /// GPUs reported failed.
    failed: Vec<usize>,
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
            planned: schedule.start.clone(),
            speedup: workload
                .cluster
                .gpus()
                .iter()
                .map(|g| g.kind.generic_speedup())
                .collect(),
            failed: Vec::new(),
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
        }
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
    }

    /// A transiently-failed GPU rejoined: take every undispatched task
    /// back and redistribute over the (now larger) live set, so the
    /// recovered GPU earns a share of the backlog instead of idling.
    fn on_gpu_recovery(&mut self, gpu: usize) {
        self.failed.retain(|&g| g != gpu);
        let mut orphans: Vec<usize> = self.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
        orphans.sort_by_key(|&t| (self.planned[t], t));
        self.assign_by_planned_start(orphans);
    }

    fn dispatch(&mut self, view: &SimView<'_>, out: &mut Vec<(usize, usize)>) {
        for &gpu in view.idle_gpus {
            if let Some(&head) = self.queues[gpu].front() {
                // `view.ready` is ascending by contract.
                if view.ready.binary_search(&head).is_ok() {
                    self.queues[gpu].pop_front();
                    out.push((head, gpu));
                }
            }
        }
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
        let idle: Vec<usize> = (0..15).collect();
        let view = SimView {
            now: SimTime::ZERO,
            workload: &w,
            ready: &[],
            idle_gpus: &idle,
            synced_rounds: &vec![0; w.problem.jobs.len()],
            arrived: &vec![true; w.problem.jobs.len()],
            solver_budget_frac: 1.0,
        };
        assert!(dispatch(&mut replay, &view).is_empty());

        // Make the heads of two queues ready; they dispatch to their own GPUs.
        let seqs = out.schedule.gpu_sequences(&w.problem);
        let mut heads: Vec<usize> = seqs.iter().filter_map(|q| q.first().copied()).collect();
        heads.sort_unstable();
        let view = SimView {
            now: SimTime::ZERO,
            workload: &w,
            ready: &heads,
            idle_gpus: &idle,
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
            ready: &[second],
            idle_gpus: &[busy_gpu],
            synced_rounds: &vec![0; w.problem.jobs.len()],
            arrived: &vec![true; w.problem.jobs.len()],
            solver_budget_frac: 1.0,
        };
        assert!(dispatch(&mut replay, &view).is_empty());
    }
}
