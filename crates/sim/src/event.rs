//! Deterministic event queue.
//!
//! Events are totally ordered by (time, sequence number): two events at the
//! same instant fire in insertion order, so a simulation is a pure function
//! of its inputs — the property the paper's simulator-vs-testbed validation
//! (Fig. 12) depends on and that all our experiments inherit.
//!
//! Two lanes hold the events and share one sequence counter: a binary
//! heap for any push, and a FIFO for pushes the caller knows arrive in
//! time order ([`EventQueue::push_in_order`]; the engine's same-job
//! switches, always `now + 500 µs`). A pop takes the smaller `(time, seq)`
//! of the two heads, so the pop order is the one heap's by construction;
//! the lane only saves the heap's sift on each of those events.
//!
//! The queue never removes an event before it fires. An occupancy event
//! that a GPU failure made stale still pops, and the engine discards it by
//! its stale occupancy generation (see [`Event::SwitchDone`]).

use hare_cluster::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// Min-queue of timestamped events with deterministic tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// `(time, seq, event)`: `seq` is the insertion order (the
    /// determinism tie-break), unique per event.
    heap: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    /// In-order lane: ascending `(time, seq)` by construction.
    lane: VecDeque<(SimTime, u64, Event)>,
    /// Next insertion-order sequence number, shared by both lanes.
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

    /// Schedule an event whose time the caller knows is no earlier than
    /// that of any earlier `push_in_order`: it joins the in-order lane
    /// without a heap sift. An earlier time goes to the heap instead, so a
    /// caller that breaks the order costs speed, never order.
    pub fn push_in_order(&mut self, at: SimTime, event: Event) {
        if self.lane.back().is_some_and(|&(last, _, _)| at < last) {
            return self.push(at, event);
        }
        self.lane.push_back((at, self.next_seq, event));
        self.next_seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let lane_first = match (self.lane.front(), self.heap.peek()) {
            (Some(&(lt, ls, _)), Some(Reverse((ht, hs, _)))) => (lt, ls) < (*ht, *hs),
            (lane, _) => lane.is_some(),
        };
        if lane_first {
            self.lane.pop_front().map(|(t, _, event)| (t, event))
        } else {
            self.heap.pop().map(|Reverse((t, _, event))| (t, event))
        }
    }

    /// Events still queued.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
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

    use proptest::prelude::*;
    use std::collections::BinaryHeap;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Interleaved `push`, `push_in_order` (in order, or early and so
        /// falling back to the heap) and `pop` against one reference heap
        /// of `(time, seq)`: the same events pop in the same order,
        /// including ties at equal times across the two lanes.
        #[test]
        fn two_lanes_pop_in_the_one_heap_order(
            ops in prop::collection::vec((0u32..4, 0u64..6), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let (mut seq, mut floor, mut lane_back) = (0usize, 0u64, 0u64);
            for (op, dt) in ops {
                match op {
                    // Heap push anywhere at or after the clock.
                    0 => {
                        let at = floor + dt;
                        q.push(SimTime::from_micros(at), Event::JobArrival { job: seq });
                        reference.push(Reverse((at, seq)));
                        seq += 1;
                    }
                    // In-order push: a small step (often 0, a tie) past
                    // the lane's last time, or before it (a fallback).
                    1 | 2 => {
                        let at = if op == 1 {
                            lane_back.max(floor) + dt % 2
                        } else {
                            floor + dt
                        };
                        if at >= lane_back {
                            lane_back = at;
                        }
                        q.push_in_order(SimTime::from_micros(at), Event::JobArrival { job: seq });
                        reference.push(Reverse((at, seq)));
                        seq += 1;
                    }
                    _ => {
                        let got = q.pop();
                        let want = reference.pop();
                        prop_assert_eq!(
                            got.map(|(t, e)| (t.as_micros(), e)),
                            want.map(|Reverse((t, job))| (t, Event::JobArrival { job }))
                        );
                        if let Some((t, _)) = got {
                            floor = t.as_micros();
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some(Reverse((t, job))) = reference.pop() {
                let got = q.pop();
                prop_assert_eq!(got, Some((SimTime::from_micros(t), Event::JobArrival { job })));
            }
            prop_assert!(q.is_empty() && q.pop().is_none());
        }
    }

    #[test]
    fn in_order_lane_ties_with_the_heap_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push_in_order(t, Event::JobArrival { job: 0 });
        q.push(t, Event::JobArrival { job: 1 });
        q.push_in_order(t, Event::JobArrival { job: 2 });
        // Earlier than the lane's last entry: falls back to the heap.
        q.push_in_order(SimTime::ZERO, Event::JobArrival { job: 3 });
        q.push(t, Event::JobArrival { job: 4 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![3, 0, 1, 2, 4]);
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
