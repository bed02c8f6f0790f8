//! Shared checkpoint storage (the HDFS of the paper's Fig. 9).
//!
//! Every job's checkpoint lives in a shared store; an executor that starts
//! a job's task on a *machine that has not touched that job yet* must first
//! fetch the checkpoint over the storage network (Section 6: the working
//! process "loads the checkpoint from storage"). Later tasks of the job on
//! the same machine hit the local copy ("the model structure is small so
//! that we can save it locally"). Concurrent fetches share the store's
//! aggregate read bandwidth.
//!
//! The simulator charges the fetch as part of the first switch onto each
//! machine; with the default aggregate bandwidth the cost is small but
//! visible under cold-start storms.

use crate::faults::{SlowdownProfile, StorageFault, StorageFaultKind};
use hare_cluster::{Bandwidth, Bytes, MachineId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Shared checkpoint store with machine-local caching.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckpointStore {
    /// Aggregate read bandwidth of the store (HDFS datanodes combined).
    pub read_bandwidth: Bandwidth,
    /// (job, machine) pairs that already hold a local copy.
    cached: Vec<(usize, MachineId)>,
    /// Total bytes fetched from the shared store.
    fetched: Bytes,
    /// Fetches served from machine-local copies.
    local_hits: u64,
    /// Outage / latency-spike windows (fault injection) as piecewise
    /// slowdowns: outages stall progress, slowdowns stretch it.
    faults: SlowdownProfile,
    /// Extra wall-clock beyond the fault-free fetch times, accumulated.
    stalled: SimDuration,
}

impl Default for CheckpointStore {
    fn default() -> Self {
        // A modest HDFS deployment: ~4 GB/s aggregate read throughput.
        CheckpointStore::new(Bandwidth::gigabytes_per_sec(4.0))
    }
}

impl CheckpointStore {
    /// A store with the given aggregate read bandwidth.
    pub fn new(read_bandwidth: Bandwidth) -> Self {
        CheckpointStore {
            read_bandwidth,
            cached: Vec::new(),
            fetched: Bytes::ZERO,
            local_hits: 0,
            faults: SlowdownProfile::new(&[]),
            stalled: SimDuration::ZERO,
        }
    }

    /// Install outage / latency-spike windows (the engine passes the fault
    /// plan's storage faults before the run starts).
    pub fn set_faults(&mut self, faults: &[StorageFault]) {
        let windows: Vec<_> = faults
            .iter()
            .map(|f| {
                let slowdown = match f.kind {
                    StorageFaultKind::Outage => f64::INFINITY,
                    StorageFaultKind::Slowdown(s) => s,
                };
                (f.from, f.until, slowdown)
            })
            .collect();
        self.faults = SlowdownProfile::new(&windows);
    }

    /// Charge a checkpoint access for `job` on `machine`: zero when the
    /// machine already holds a copy, otherwise the shared-bandwidth fetch
    /// time of `bytes` with `concurrent_readers` other fetches in flight.
    /// The copy is cached on the machine afterwards. Equivalent to
    /// [`CheckpointStore::access_at`] at time zero — only correct when no
    /// fault windows are installed.
    pub fn access(
        &mut self,
        job: usize,
        machine: MachineId,
        bytes: Bytes,
        concurrent_readers: u32,
    ) -> SimDuration {
        self.access_at(SimTime::ZERO, job, machine, bytes, concurrent_readers)
    }

    /// [`CheckpointStore::access`] at simulation time `now`: a fetch that
    /// overlaps an outage window stalls until the window closes; one that
    /// overlaps a latency spike is stretched by its slowdown factor
    /// (piecewise, so a fetch can straddle window edges).
    pub fn access_at(
        &mut self,
        now: SimTime,
        job: usize,
        machine: MachineId,
        bytes: Bytes,
        concurrent_readers: u32,
    ) -> SimDuration {
        if self.cached.contains(&(job, machine)) {
            self.local_hits += 1;
            return SimDuration::ZERO;
        }
        self.cached.push((job, machine));
        self.fetched += bytes;
        let clean = self
            .read_bandwidth
            .shared(concurrent_readers + 1)
            .transfer_time(bytes);
        if self.faults.is_trivial() {
            return clean;
        }
        let wall = self.faults.finish_over(now, clean).saturating_since(now);
        self.stalled += wall.saturating_sub(clean);
        wall
    }

    /// A job completed: its checkpoints can be garbage-collected.
    pub fn evict_job(&mut self, job: usize) {
        self.cached.retain(|&(j, _)| j != job);
    }

    /// Total bytes fetched from the shared store so far.
    pub fn fetched(&self) -> Bytes {
        self.fetched
    }

    /// Accesses served machine-locally so far.
    pub fn local_hits(&self) -> u64 {
        self.local_hits
    }

    /// Wall-clock added to fetches by outage / latency windows so far.
    pub fn stalled(&self) -> SimDuration {
        self.stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_fetches_then_caches() {
        let mut store = CheckpointStore::default();
        let m = MachineId(0);
        let t1 = store.access(7, m, Bytes::mib(400), 0);
        assert!(t1 > SimDuration::ZERO);
        let t2 = store.access(7, m, Bytes::mib(400), 0);
        assert_eq!(t2, SimDuration::ZERO);
        assert_eq!(store.local_hits(), 1);
        assert_eq!(store.fetched(), Bytes::mib(400));
    }

    #[test]
    fn different_machines_fetch_separately() {
        let mut store = CheckpointStore::default();
        store.access(1, MachineId(0), Bytes::mib(100), 0);
        let t = store.access(1, MachineId(1), Bytes::mib(100), 0);
        assert!(t > SimDuration::ZERO);
        assert_eq!(store.fetched(), Bytes::mib(200));
    }

    #[test]
    fn concurrency_shares_bandwidth() {
        let mut a = CheckpointStore::default();
        let mut b = CheckpointStore::default();
        let lone = a.access(1, MachineId(0), Bytes::gib(1), 0);
        let crowded = b.access(1, MachineId(0), Bytes::gib(1), 7);
        let ratio = crowded.as_micros() as f64 / lone.as_micros() as f64;
        assert!((ratio - 8.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn eviction_forces_refetch() {
        let mut store = CheckpointStore::default();
        store.access(3, MachineId(2), Bytes::mib(50), 0);
        store.evict_job(3);
        let t = store.access(3, MachineId(2), Bytes::mib(50), 0);
        assert!(t > SimDuration::ZERO);
    }

    #[test]
    fn outage_stalls_fetch_until_window_closes() {
        let mut healthy = CheckpointStore::default();
        let clean = healthy.access(1, MachineId(0), Bytes::gib(1), 0);

        let mut store = CheckpointStore::default();
        store.set_faults(&[StorageFault {
            from: SimTime::from_secs(100),
            until: SimTime::from_secs(160),
            kind: StorageFaultKind::Outage,
        }]);
        // Fetch starting inside the outage waits for it to close.
        let stalled = store.access_at(SimTime::from_secs(120), 1, MachineId(0), Bytes::gib(1), 0);
        assert_eq!(stalled, SimDuration::from_secs(40) + clean);
        assert_eq!(store.stalled(), SimDuration::from_secs(40));
        // A fetch clear of the window is unaffected.
        let clear = store.access_at(SimTime::from_secs(500), 1, MachineId(1), Bytes::gib(1), 0);
        assert_eq!(clear, clean);
    }

    #[test]
    fn latency_spike_stretches_fetch() {
        let mut healthy = CheckpointStore::default();
        let clean = healthy.access(1, MachineId(0), Bytes::gib(1), 0);

        let mut store = CheckpointStore::default();
        store.set_faults(&[StorageFault {
            from: SimTime::ZERO,
            until: SimTime::from_secs(10_000),
            kind: StorageFaultKind::Slowdown(3.0),
        }]);
        let slow = store.access_at(SimTime::from_secs(5), 1, MachineId(0), Bytes::gib(1), 0);
        let ratio = slow.as_micros() as f64 / clean.as_micros() as f64;
        assert!((ratio - 3.0).abs() < 0.01, "ratio {ratio}");
    }
}
