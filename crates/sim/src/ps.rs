//! Per-job parameter servers.
//!
//! Each DML job gets its own `Hare_Parameter_Server` (Section 6): workers
//! push gradients as they finish a task, and the round's synchronization
//! completes when the slowest worker's push+pull finishes. The transfer
//! times come from the cluster's [`hare_cluster::NetworkModel`], so
//! colocated workers contend for their machine's NIC exactly as in the
//! Fig.-18 bandwidth study.
//!
//! Round admission is the relaxed scale-fixed barrier of Section 2.2.3 as
//! a counting quorum: exactly `sync_scale` gradients enter each round's
//! average, in arrival order, and a push after the job's last round — a
//! late copy from a recovered GPU or a straggler that lost a speculation
//! race — is *dropped*, not an error. The count stays fixed (so
//! convergence certainty is preserved) no matter how many physical
//! executions faults and speculation produce: the paper's sync scheme
//! acting as a fault-tolerance mechanism.

use hare_cluster::{Bytes, MachineId, NetworkModel, SimTime};
use serde::{Deserialize, Serialize};

/// Synchronization state of one job.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParameterServer {
    job: usize,
    param_bytes: Bytes,
    sync_scale: u32,
    rounds: u32,
    /// Round currently collecting gradients.
    round: u32,
    /// Train finish time of each of this round's pushes.
    finished: Vec<SimTime>,
    /// Worker machine of each of this round's pushes, parallel to
    /// `finished`.
    machines: Vec<MachineId>,
    /// Gradients accepted into round averages.
    accepted: u64,
    /// Gradients dropped after the job's last round.
    dropped: u64,
}

/// Completion record of one round's synchronization.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncOutcome {
    /// The round that synchronized.
    pub round: u32,
    /// When the slowest worker finished push+pull (the barrier the next
    /// round waits for).
    pub done_at: SimTime,
    /// True when this was the job's final round.
    pub job_complete: bool,
}

impl ParameterServer {
    /// A PS for a job with `sync_scale` workers per round and `rounds`
    /// rounds, shipping `param_bytes` of FP32 parameters.
    pub fn new(job: usize, sync_scale: u32, rounds: u32, param_bytes: Bytes) -> Self {
        assert!(sync_scale > 0 && rounds > 0);
        ParameterServer {
            job,
            param_bytes,
            sync_scale,
            rounds,
            round: 0,
            finished: Vec::with_capacity(sync_scale as usize),
            machines: Vec::with_capacity(sync_scale as usize),
            accepted: 0,
            dropped: 0,
        }
    }

    /// Job this PS belongs to.
    pub fn job(&self) -> usize {
        self.job
    }

    /// Round currently collecting gradients.
    pub fn current_round(&self) -> u32 {
        self.round
    }

    /// Gradients still missing from the current round (0 once the job has
    /// no round left to fill).
    pub fn missing(&self) -> u32 {
        if self.round >= self.rounds {
            0
        } else {
            self.sync_scale - self.finished.len() as u32
        }
    }

    /// Total gradients accepted into round averages so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Gradients dropped by the relaxed quorum (late duplicates, pushes
    /// after the final round).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A worker finished training a task of the current round at `at` on
    /// `machine`. When this was the round's last push, returns the sync
    /// outcome and advances to the next round; the barrier comes from
    /// [`NetworkModel::round_barrier`] with `extra_flows` other
    /// jobs' gradient flows contending on the network (the engine passes
    /// the number of concurrently synchronizing jobs) and NIC degradation
    /// `machine_factors` / `backbone` (`&[]` and 1.0 for a healthy
    /// network). A push beyond the job's rounds is dropped and returns
    /// `None` (count via [`ParameterServer::dropped`]).
    pub fn push_gradient(
        &mut self,
        at: SimTime,
        machine: MachineId,
        net: &NetworkModel,
        extra_flows: u32,
        machine_factors: &[f64],
        backbone: f64,
    ) -> Option<SyncOutcome> {
        if self.round >= self.rounds {
            self.dropped += 1;
            return None;
        }
        self.accepted += 1;
        self.finished.push(at);
        self.machines.push(machine);
        debug_assert!(self.finished.len() <= self.sync_scale as usize);
        if self.finished.len() < self.sync_scale as usize {
            return None;
        }

        // All gradients of the round are in: each worker's sync spans
        // [train finish, finish + its transfer time], and the barrier is
        // the slowest worker.
        let done_at = net.round_barrier(
            self.param_bytes,
            &self.finished,
            &self.machines,
            extra_flows,
            machine_factors,
            backbone,
        );

        let round = self.round;
        self.round += 1;
        self.finished.clear();
        self.machines.clear();
        Some(SyncOutcome {
            round,
            done_at,
            job_complete: self.round == self.rounds,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel::default()
    }

    #[test]
    fn barrier_waits_for_all_workers() {
        let mut ps = ParameterServer::new(0, 3, 2, Bytes::mib(100));
        let n = net();
        assert_eq!(ps.missing(), 3);
        assert!(ps
            .push_gradient(SimTime::from_secs(1), MachineId(0), &n, 0, &[], 1.0)
            .is_none());
        assert_eq!(ps.missing(), 2);
        assert!(ps
            .push_gradient(SimTime::from_secs(2), MachineId(1), &n, 0, &[], 1.0)
            .is_none());
        let out = ps
            .push_gradient(SimTime::from_secs(5), MachineId(2), &n, 0, &[], 1.0)
            .expect("third push completes the round");
        assert_eq!(out.round, 0);
        assert!(!out.job_complete);
        assert!(out.done_at > SimTime::from_secs(5));
        assert_eq!(ps.current_round(), 1);
        assert_eq!(ps.accepted(), 3);
    }

    #[test]
    fn final_round_flags_completion() {
        let mut ps = ParameterServer::new(3, 1, 1, Bytes::mib(10));
        let out = ps
            .push_gradient(SimTime::from_secs(4), MachineId(0), &net(), 0, &[], 1.0)
            .unwrap();
        assert!(out.job_complete);
    }

    #[test]
    fn colocated_workers_sync_slower() {
        let n = net();
        let run = |machines: [MachineId; 2]| {
            let mut ps = ParameterServer::new(0, 2, 1, Bytes::mib(200));
            ps.push_gradient(SimTime::ZERO, machines[0], &n, 0, &[], 1.0);
            ps.push_gradient(SimTime::ZERO, machines[1], &n, 0, &[], 1.0)
                .unwrap()
                .done_at
        };
        let spread = run([MachineId(0), MachineId(1)]);
        let packed = run([MachineId(0), MachineId(0)]);
        assert!(packed > spread, "NIC sharing must slow the barrier");
    }

    #[test]
    fn extra_push_is_dropped_by_quorum() {
        // Two rounds of one worker, then a stray third push — a late
        // duplicate from a recovered GPU or a lost speculation race. The
        // relaxed quorum drops it instead of corrupting PS state.
        let mut ps = ParameterServer::new(0, 1, 2, Bytes::mib(1));
        let n = net();
        assert!(ps
            .push_gradient(SimTime::ZERO, MachineId(0), &n, 0, &[], 1.0)
            .is_some());
        assert!(ps
            .push_gradient(SimTime::ZERO, MachineId(0), &n, 0, &[], 1.0)
            .is_some());
        assert!(ps
            .push_gradient(SimTime::ZERO, MachineId(0), &n, 0, &[], 1.0)
            .is_none());
        assert_eq!(ps.dropped(), 1);
        assert_eq!(ps.accepted(), 2);
        assert_eq!(ps.current_round(), 2);
        assert_eq!(ps.missing(), 0);
    }

    #[test]
    fn each_round_takes_exactly_sync_scale_gradients() {
        let mut ps = ParameterServer::new(0, 3, 2, Bytes::mib(1));
        let n = net();
        for round in 0..2 {
            for pushed in 1..=3u32 {
                let out = ps.push_gradient(SimTime::ZERO, MachineId(0), &n, 0, &[], 1.0);
                // Only the round's third gradient closes it.
                assert_eq!(out.map(|o| o.round), (pushed == 3).then_some(round));
                assert_eq!(
                    ps.missing(),
                    if pushed == 3 {
                        3 * (1 - round)
                    } else {
                        3 - pushed
                    }
                );
            }
        }
        assert_eq!((ps.accepted(), ps.dropped()), (6, 0));
    }

    #[test]
    fn pushes_after_the_last_round_are_dropped_and_counted() {
        let mut ps = ParameterServer::new(0, 1, 1, Bytes::mib(1));
        let n = net();
        let out = ps
            .push_gradient(SimTime::ZERO, MachineId(0), &n, 0, &[], 1.0)
            .unwrap();
        assert!(out.job_complete);
        for _ in 0..2 {
            assert!(ps
                .push_gradient(SimTime::ZERO, MachineId(0), &n, 0, &[], 1.0)
                .is_none());
        }
        assert_eq!((ps.accepted(), ps.dropped()), (1, 2));
        assert_eq!(ps.current_round(), 1);
    }

    #[test]
    fn degraded_push_slows_the_barrier() {
        let n = net();
        let run = |factors: &[f64]| {
            let mut ps = ParameterServer::new(0, 2, 1, Bytes::mib(200));
            ps.push_gradient(SimTime::ZERO, MachineId(0), &n, 0, factors, 1.0);
            ps.push_gradient(SimTime::ZERO, MachineId(1), &n, 0, factors, 1.0)
                .unwrap()
                .done_at
        };
        assert!(run(&[0.2, 1.0]) > run(&[]), "a cut NIC must slow the sync");
    }
}
