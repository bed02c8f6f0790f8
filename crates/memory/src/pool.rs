//! Device memory pool.
//!
//! Models a GPU's device memory as typed, owned regions. The switching
//! protocols differ in *how* they return memory: the Default protocol frees
//! everything synchronously; PipeSwitch drops only the pointers (fast but
//! leaves content readable — the security issue Section 4 cites); Hare's
//! early cleaning both frees *and wipes* regions progressively during the
//! backward pass. The pool therefore tracks wiped vs. merely-released bytes
//! so tests can assert the security property.

use hare_cluster::Bytes;
use hare_workload::JobId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a device-memory region holds.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RegionKind {
    /// Model parameters (reusable across tasks of the same job).
    Weights,
    /// Per-batch activations / intermediate gradients.
    Activations,
    /// Scratch workspace (cuDNN algorithms etc.).
    Workspace,
}

/// Handle to an allocated region.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct AllocId(u64);

/// Allocation failure: the pool cannot satisfy the request.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested.
    pub requested: Bytes,
    /// Bytes currently free.
    pub available: Bytes,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {}, available {}",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OomError {}

/// One live region.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Owning job.
    pub owner: JobId,
    /// Content type.
    pub kind: RegionKind,
    /// Size.
    pub bytes: Bytes,
}

/// A GPU's device memory.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemoryPool {
    capacity: Bytes,
    used: Bytes,
    peak: Bytes,
    wiped: Bytes,
    released_unwiped: Bytes,
    /// Live regions in allocation order, so ids ascend. A GPU holds only
    /// a handful, and every switch allocates and frees activations: a
    /// vector does that without the tree's node churn.
    regions: Vec<(AllocId, Region)>,
    next_id: u64,
}

impl MemoryPool {
    /// An empty pool of the given capacity.
    pub fn new(capacity: Bytes) -> Self {
        assert!(capacity > Bytes::ZERO, "zero-capacity pool");
        MemoryPool {
            capacity,
            used: Bytes::ZERO,
            peak: Bytes::ZERO,
            wiped: Bytes::ZERO,
            released_unwiped: Bytes::ZERO,
            regions: Vec::new(),
            next_id: 0,
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Bytes currently free.
    pub fn available(&self) -> Bytes {
        self.capacity - self.used
    }

    /// High-water mark of `used()`.
    pub fn peak(&self) -> Bytes {
        self.peak
    }

    /// Bytes that were securely wiped on release so far.
    pub fn wiped(&self) -> Bytes {
        self.wiped
    }

    /// Bytes released *without* wiping so far (the PipeSwitch leak surface).
    pub fn released_unwiped(&self) -> Bytes {
        self.released_unwiped
    }

    /// Allocate a region; fails without side effects when it does not fit.
    pub fn alloc(
        &mut self,
        owner: JobId,
        kind: RegionKind,
        bytes: Bytes,
    ) -> Result<AllocId, OomError> {
        assert!(bytes > Bytes::ZERO, "zero-size allocation");
        if self.used + bytes > self.capacity {
            return Err(OomError {
                requested: bytes,
                available: self.available(),
            });
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.regions.push((id, Region { owner, kind, bytes }));
        self.used += bytes;
        self.peak = self.peak.max(self.used);
        Ok(id)
    }

    /// Release a region. `wipe` zeroes the content (early task cleaning);
    /// `!wipe` only drops the pointer (PipeSwitch behaviour).
    ///
    /// Returns the region's size. Panics on double-free / unknown ids —
    /// those are always bugs in the caller.
    pub fn free(&mut self, id: AllocId, wipe: bool) -> Bytes {
        let pos = self.position(id).expect("free of unknown AllocId");
        let (_, region) = self.regions.remove(pos);
        self.account_release(region.bytes, wipe);
        region.bytes
    }

    /// Release every region of one owner; returns the total freed.
    pub fn free_owner(&mut self, owner: JobId, wipe: bool) -> Bytes {
        let mut freed = Bytes::ZERO;
        self.regions.retain(|(_, r)| {
            let keep = r.owner != owner;
            if !keep {
                freed += r.bytes;
            }
            keep
        });
        self.account_release(freed, wipe);
        freed
    }

    /// Move `bytes` from used to wiped or released-unwiped.
    fn account_release(&mut self, bytes: Bytes, wipe: bool) {
        self.used -= bytes;
        if wipe {
            self.wiped += bytes;
        } else {
            self.released_unwiped += bytes;
        }
    }

    /// Index of a live region in `regions` (sorted by id).
    fn position(&self, id: AllocId) -> Option<usize> {
        self.regions.binary_search_by_key(&id, |&(i, _)| i).ok()
    }

    /// Look up a live region.
    pub fn region(&self, id: AllocId) -> Option<&Region> {
        self.position(id).map(|pos| &self.regions[pos].1)
    }

    /// Bytes held by one owner, optionally filtered by kind.
    pub fn owned_bytes(&self, owner: JobId, kind: Option<RegionKind>) -> Bytes {
        self.regions_of(owner)
            .filter(|(_, r)| kind.is_none_or(|k| r.kind == k))
            .map(|(_, r)| r.bytes)
            .sum()
    }

    /// All live regions of one owner, in ascending id order.
    pub fn regions_of(&self, owner: JobId) -> impl Iterator<Item = (AllocId, &Region)> + '_ {
        self.regions
            .iter()
            .filter(move |(_, r)| r.owner == owner)
            .map(|(id, r)| (*id, r))
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn job(i: u32) -> JobId {
        JobId(i)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = MemoryPool::new(Bytes::gib(1));
        let id = p
            .alloc(job(0), RegionKind::Weights, Bytes::mib(100))
            .unwrap();
        assert_eq!(p.used(), Bytes::mib(100));
        assert_eq!(p.available(), Bytes::gib(1) - Bytes::mib(100));
        assert_eq!(p.free(id, true), Bytes::mib(100));
        assert_eq!(p.used(), Bytes::ZERO);
        assert_eq!(p.peak(), Bytes::mib(100));
    }

    #[test]
    fn oom_is_clean() {
        let mut p = MemoryPool::new(Bytes::mib(100));
        let _a = p
            .alloc(job(0), RegionKind::Weights, Bytes::mib(80))
            .unwrap();
        let err = p
            .alloc(job(0), RegionKind::Activations, Bytes::mib(30))
            .unwrap_err();
        assert_eq!(err.requested, Bytes::mib(30));
        assert_eq!(err.available, Bytes::mib(20));
        // Failed alloc must not leak accounting.
        assert_eq!(p.used(), Bytes::mib(80));
        assert_eq!(p.region_count(), 1);
    }

    #[test]
    fn wipe_accounting_separates_protocols() {
        let mut p = MemoryPool::new(Bytes::gib(1));
        let a = p
            .alloc(job(0), RegionKind::Activations, Bytes::mib(10))
            .unwrap();
        let b = p
            .alloc(job(0), RegionKind::Activations, Bytes::mib(20))
            .unwrap();
        p.free(a, true); // Hare: wiped
        p.free(b, false); // PipeSwitch: pointer-only
        assert_eq!(p.wiped(), Bytes::mib(10));
        assert_eq!(p.released_unwiped(), Bytes::mib(20));
    }

    #[test]
    fn free_owner_sweeps_everything() {
        let mut p = MemoryPool::new(Bytes::gib(1));
        p.alloc(job(1), RegionKind::Weights, Bytes::mib(50))
            .unwrap();
        p.alloc(job(1), RegionKind::Activations, Bytes::mib(70))
            .unwrap();
        p.alloc(job(2), RegionKind::Weights, Bytes::mib(30))
            .unwrap();
        let freed = p.free_owner(job(1), true);
        assert_eq!(freed, Bytes::mib(120));
        assert_eq!(p.used(), Bytes::mib(30));
        assert_eq!(p.owned_bytes(job(2), None), Bytes::mib(30));
        assert_eq!(p.owned_bytes(job(1), None), Bytes::ZERO);
    }

    #[test]
    fn owned_bytes_filters_by_kind() {
        let mut p = MemoryPool::new(Bytes::gib(1));
        p.alloc(job(3), RegionKind::Weights, Bytes::mib(11))
            .unwrap();
        p.alloc(job(3), RegionKind::Workspace, Bytes::mib(5))
            .unwrap();
        assert_eq!(
            p.owned_bytes(job(3), Some(RegionKind::Weights)),
            Bytes::mib(11)
        );
        assert_eq!(p.owned_bytes(job(3), None), Bytes::mib(16));
    }

    #[test]
    #[should_panic(expected = "unknown AllocId")]
    fn double_free_panics() {
        let mut p = MemoryPool::new(Bytes::mib(10));
        let id = p.alloc(job(0), RegionKind::Weights, Bytes::mib(1)).unwrap();
        p.free(id, false);
        p.free(id, false);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut p = MemoryPool::new(Bytes::mib(100));
        let a = p
            .alloc(job(0), RegionKind::Weights, Bytes::mib(60))
            .unwrap();
        p.free(a, true);
        p.alloc(job(0), RegionKind::Weights, Bytes::mib(30))
            .unwrap();
        assert_eq!(p.peak(), Bytes::mib(60));
    }
}
