//! Synchronization semantics (Section 2.2.3).
//!
//! * **Strict scale-fixed** (Tiresias, Gandiva): a round's `|D_r|` tasks
//!   must start simultaneously on `|D_r|` distinct GPUs; if that many GPUs
//!   are not free, the whole round waits.
//! * **Relaxed scale-fixed** (Hare): the task *count* per round stays fixed
//!   (convergence certainty is preserved — the same gradients are averaged)
//!   but tasks may start at different times and even share a GPU
//!   sequentially (Fig. 4(b)).
//!
//! The gang-slot helper implements the strict semantics for the baselines;
//! the relaxed barrier is the simulator's parameter server
//! (`hare_sim::ParameterServer`), which accepts exactly `|D_r|` gradients
//! per round.

use hare_cluster::SimTime;
use serde::{Deserialize, Serialize};

/// Which synchronization scheme a schedule must satisfy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncMode {
    /// Gang scheduling: simultaneous start on distinct GPUs.
    Strict,
    /// Hare's relaxed scheme: fixed count, flexible placement.
    Relaxed,
}

/// Find the earliest strict-gang slot: the earliest time `t >= ready` at
/// which `k` GPUs are simultaneously free, given each GPU's next available
/// time. Returns `(start, gpu_indices)` with the `k` earliest-available
/// GPUs (ties broken by index — deterministic).
pub fn find_gang_slot(avail: &[SimTime], k: usize, ready: SimTime) -> (SimTime, Vec<usize>) {
    assert!(
        k >= 1 && k <= avail.len(),
        "gang of {k} on {} GPUs",
        avail.len()
    );
    let mut order: Vec<usize> = (0..avail.len()).collect();
    order.sort_by_key(|&m| (avail[m], m));
    let chosen: Vec<usize> = order[..k].to_vec();
    // The gang can start when the *last* of the k earliest GPUs frees up.
    let start = chosen
        .iter()
        .map(|&m| avail[m])
        .max()
        .expect("k >= 1 gang members: asserted above")
        .max(ready);
    (start, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn gang_takes_k_earliest_gpus() {
        let avail = vec![t(5), t(1), t(3), t(2)];
        let (start, gpus) = find_gang_slot(&avail, 2, SimTime::ZERO);
        assert_eq!(gpus, vec![1, 3]);
        assert_eq!(start, t(2));
    }

    #[test]
    fn gang_waits_for_ready_time() {
        let avail = vec![t(1), t(2)];
        let (start, _) = find_gang_slot(&avail, 2, t(10));
        assert_eq!(start, t(10));
    }

    #[test]
    fn fig4_relaxed_vs_strict_start() {
        // Fig. 4: three running tasks finish at 2, 3 and 6; a 3-task job
        // arrives. Strict: start = 6 (all three GPUs free). Relaxed: two
        // tasks can run sequentially on the GPU that frees at 2 — modelled
        // by the schedulers; here we confirm the strict slot is 6.
        let avail = vec![t(2), t(3), t(6)];
        let (strict_start, _) = find_gang_slot(&avail, 3, SimTime::ZERO);
        assert_eq!(strict_start, t(6));
        // A relaxed scheduler could start its first task at 2.
        let (relaxed_first, gpus) = find_gang_slot(&avail, 1, SimTime::ZERO);
        assert_eq!(relaxed_first, t(2));
        assert_eq!(gpus, vec![0]);
    }

    #[test]
    fn full_cluster_gang() {
        let avail = vec![t(4), t(4), t(4)];
        let (start, gpus) = find_gang_slot(&avail, 3, SimTime::ZERO);
        assert_eq!(start, t(4));
        assert_eq!(gpus, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "gang of 4")]
    fn oversized_gang_panics() {
        find_gang_slot(&[t(0); 3], 4, SimTime::ZERO);
    }
}
