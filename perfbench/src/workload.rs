//! What every workload hands back from one pass over its inputs.

use crate::spans::Ctx;
use crate::wrap::PlanSample;
use std::collections::BTreeMap;

/// One workload: inputs built at set-up, replayed by every pass.
pub trait Workload {
    /// Run the timed work once. `check` asks for the output checks, which
    /// must run through [`Ctx::exclude`] so they stay untimed.
    fn pass(&mut self, ctx: &Ctx, check: bool) -> PassOut;
}

/// The results of one pass.
#[derive(Default)]
pub struct PassOut {
    /// Deterministic counters: identical on every pass of one seed.
    pub counts: BTreeMap<String, u64>,
    /// Jobs offered to the system (summed over schemes).
    pub offered: u64,
    /// Jobs completed (summed over schemes).
    pub completed: u64,
    /// Simulated mean job completion time, seconds.
    pub mean_jct_s: f64,
    /// Simulated makespan (or serve end), seconds.
    pub makespan_s: f64,
    /// Engine events processed.
    pub events: u64,
    /// Every queue-scheduler decision the pass made.
    pub plans: Vec<PlanSample>,
    /// Wall time of crash recovery.
    pub recover_s: f64,
    /// Per-layer values only the workload can compute (traced passes).
    pub layer: BTreeMap<String, f64>,
    /// Failed output checks.
    pub failures: Vec<String>,
}

impl PassOut {
    pub fn count(&mut self, key: &str, v: u64) {
        self.counts.insert(key.to_string(), v);
    }

    /// Record a simulated quality figure as a counter too (its bit
    /// pattern), so the repeat check covers the schedules themselves.
    pub fn count_f64(&mut self, key: &str, v: f64) {
        self.counts.insert(key.to_string(), v.to_bits());
    }
}

/// A deterministic 64-bit mix of the workload seed and a salt, so each
/// input stream gets its own seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
