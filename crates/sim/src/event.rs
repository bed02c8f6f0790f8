//! Deterministic event queue.
//!
//! Events are totally ordered by (time, sequence number): two events at the
//! same instant fire in insertion order, so a simulation is a pure function
//! of its inputs — the property the paper's simulator-vs-testbed validation
//! (Fig. 12) depends on and that all our experiments inherit.
//!
//! The queue never removes an event before it fires. An occupancy event
//! that a GPU failure made stale still pops, and the engine discards it by
//! its stale occupancy generation (see [`Event::SwitchDone`]).

use hare_cluster::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happened. The order derived here is never consulted: the queue's
/// sequence number is unique, so it settles every comparison first.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// A job's arrival time was reached.
    JobArrival {
        /// Job index.
        job: usize,
    },
    /// A GPU finished the switch into a task and starts computing.
    SwitchDone {
        /// Task index.
        task: usize,
        /// GPU index.
        gpu: usize,
        /// GPU occupancy generation at scheduling time: the engine bumps a
        /// per-GPU counter on every failure, so events scheduled before a
        /// fault are recognized as stale after the GPU recovers (a plain
        /// "is it failed" check would mistake them for live work).
        gen: u32,
    },
    /// A task finished its training computation on a GPU.
    TrainDone {
        /// Task index.
        task: usize,
        /// GPU index.
        gpu: usize,
        /// GPU occupancy generation (see `SwitchDone::gen`).
        gen: u32,
    },
    /// A round's gradient synchronization completed at the PS.
    SyncDone {
        /// Job index.
        job: usize,
        /// Round index.
        round: u32,
    },
    /// A GPU fails (failure injection); transient faults schedule a
    /// matching [`Event::GpuRecovery`].
    GpuFailure {
        /// GPU index.
        gpu: usize,
    },
    /// A transiently-failed GPU rejoins the cluster (fault injection): it
    /// re-enters the idle set with cold caches and the policy is notified
    /// via [`crate::policy::Policy::on_gpu_recovery`].
    GpuRecovery {
        /// GPU index.
        gpu: usize,
    },
}

/// Min-heap of timestamped events with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// `(time, seq, event)`: `seq` is the insertion order (the
    /// determinism tie-break), unique per event.
    heap: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    /// Next insertion-order sequence number.
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule an event.
    pub fn push(&mut self, at: SimTime, event: Event) {
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse((t, _, event))| (t, event))
    }

    /// Events still queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), Event::JobArrival { job: 3 });
        q.push(SimTime::from_secs(1), Event::JobArrival { job: 1 });
        q.push(SimTime::from_secs(2), Event::JobArrival { job: 2 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        // Descending payloads: the events' own order must not decide ties.
        for job in (0..10).rev() {
            q.push(t, Event::JobArrival { job });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, Event::SyncDone { job: 0, round: 0 });
        q.push(
            SimTime::ZERO,
            Event::TrainDone {
                task: 0,
                gpu: 0,
                gen: 0,
            },
        );
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
