//! Admission control and overload governance for the continuous-service
//! mode (DESIGN.md §12).
//!
//! Three cooperating pieces keep the scheduler stable when offered load
//! exceeds capacity:
//!
//! * [`AdmissionController`] — the front door. Every offered job passes a
//!   per-tenant **token bucket** (rate + burst quota) and, if it clears,
//!   enters a **bounded pending queue** ordered by start-time fair
//!   queueing (weighted fair-share across tenants). Outcomes are typed
//!   ([`AdmissionOutcome`]): admitted, deferred until the bucket refills,
//!   or rejected with a reason. The controller keeps **exact conservation
//!   accounting**: at any instant
//!   `offered == admitted + rejected + deferred_pending`
//!   ([`AdmissionCounters::conserved`]), a property the chaos proptest
//!   pins down.
//! * [`PressureCurve`] — maps the two overload signals (pending-queue
//!   depth, recent decision-latency p99) to a target solver-budget
//!   fraction in `[floor, 1]`.
//! * [`BudgetController`] — quantizes that target onto a fixed level
//!   ladder with **hysteresis**: descent (brownout) is immediate, ascent
//!   (recovery) requires the pressure to stay low for `ascend_dwell`
//!   consecutive updates and climbs one level at a time, so a signal
//!   flapping around a boundary cannot make the solver budget oscillate.
//!
//! Everything here is pure state-machine code driven by simulation time —
//! deterministic, no clocks, no threads.

use crate::snapshot::{Reader, Writer};
use hare_cluster::{SimDuration, SimTime};
use hare_workload::JobSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dense tenant identifier.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TenantId(pub u32);

/// Why an offered job was turned away.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The tenant's token bucket was empty and the deferral pool full
    /// (or a deferred retry still found no tokens).
    RateLimited,
    /// The bounded pending queue was full.
    QueueFull,
    /// The controller is draining: no new work is admitted.
    Draining,
}

/// Typed outcome of one [`AdmissionController::offer`].
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AdmissionOutcome {
    /// In the pending queue.
    Admitted,
    /// Parked until the tenant's bucket refills; retried (once) by
    /// [`AdmissionController::poll`] at the given instant.
    Deferred {
        /// When the deferral ripens.
        retry_at: SimTime,
    },
    /// Turned away.
    Rejected(RejectReason),
}

/// Per-tenant token-bucket quota.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TokenBucketConfig {
    /// Sustained admissions per second per tenant.
    pub rate_per_sec: f64,
    /// Burst allowance (bucket capacity, in jobs).
    pub burst: f64,
}

impl Default for TokenBucketConfig {
    fn default() -> Self {
        TokenBucketConfig {
            rate_per_sec: 0.05,
            burst: 8.0,
        }
    }
}

/// Admission-control configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Pending-queue capacity (jobs waiting for a scheduling decision).
    pub queue_capacity: usize,
    /// Deferral-pool capacity (jobs parked on an empty bucket).
    pub defer_capacity: usize,
    /// Per-tenant quota.
    pub bucket: TokenBucketConfig,
    /// Fair-share weight per tenant id; tenants beyond the vector get
    /// weight 1. Higher weight drains faster.
    pub tenant_weights: Vec<f64>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 256,
            defer_capacity: 64,
            bucket: TokenBucketConfig::default(),
            tenant_weights: Vec::new(),
        }
    }
}

impl AdmissionConfig {
    /// An effectively unthrottled controller (huge queue, huge quota) —
    /// the baseline the sweep compares resilience against.
    pub fn unthrottled() -> Self {
        AdmissionConfig {
            queue_capacity: usize::MAX / 2,
            defer_capacity: 0,
            bucket: TokenBucketConfig {
                rate_per_sec: 1e9,
                burst: 1e9,
            },
            tenant_weights: Vec::new(),
        }
    }

    fn weight(&self, t: TenantId) -> f64 {
        self.tenant_weights
            .get(t.0 as usize)
            .copied()
            .unwrap_or(1.0)
    }
}

/// Conservation accounting. The invariant — checked after every state
/// transition by the chaos proptest — is
/// `offered == admitted + rejected() + deferred_pending`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionCounters {
    /// Jobs ever offered (external arrivals; a deferred retry is not a
    /// second offer).
    pub offered: u64,
    /// Jobs admitted to the pending queue (directly or via a ripened
    /// deferral).
    pub admitted: u64,
    /// Rejections because the tenant bucket stayed empty.
    pub rejected_rate_limited: u64,
    /// Rejections because the pending queue was full.
    pub rejected_queue_full: u64,
    /// Rejections because the controller was draining.
    pub rejected_draining: u64,
    /// Jobs currently parked in the deferral pool.
    pub deferred_pending: u64,
    /// Total deferrals ever issued (observability; not part of the
    /// conservation identity).
    pub deferrals: u64,
    /// Admitted jobs shed from the pending queue under genuine overload
    /// (a *post-admission* event, outside the identity).
    pub shed: u64,
    /// Admitted jobs dropped by the graceful drain — the residual queue
    /// when the run winds down. Kept separate from `shed` so that
    /// counter measures real overload loss, not the drain formality.
    pub drained: u64,
    /// Requeue re-admissions after a lease expiry (a job re-entering the
    /// queue is not a new offer; also outside the identity).
    pub readmitted: u64,
}

impl AdmissionCounters {
    /// Total rejections across all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_rate_limited + self.rejected_queue_full + self.rejected_draining
    }

    /// The conservation identity.
    pub fn conserved(&self) -> bool {
        self.offered == self.admitted + self.rejected() + self.deferred_pending
    }
}

/// One pending-queue entry.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PendingJob {
    /// Submitting tenant.
    pub tenant: TenantId,
    /// The job.
    pub spec: JobSpec,
    /// When it entered the queue.
    pub admitted_at: SimTime,
    /// Start-time fair-queueing tag (virtual start).
    start_tag: f64,
    /// Dispatch handle, unique per admission.
    pub seq: u64,
}

#[derive(Clone, Debug, Default)]
struct TenantState {
    tokens: f64,
    last_refill: SimTime,
    /// Virtual finish tag of this tenant's most recent admission.
    last_finish: f64,
    initialized: bool,
}

#[derive(Clone, Debug)]
struct Deferred {
    tenant: TenantId,
    spec: JobSpec,
    retry_at: SimTime,
}

/// The admission controller: token buckets in front of a bounded,
/// fair-queued pending queue.
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    tenants: BTreeMap<TenantId, TenantState>,
    /// WFQ order: keyed by (virtual finish tag bits, seq). Tags are
    /// finite and non-negative, so the bit order equals numeric order.
    queue: BTreeMap<(u64, u64), PendingJob>,
    /// seq → queue key, for O(log n) removal by handle.
    by_seq: BTreeMap<u64, (u64, u64)>,
    deferred: Vec<Deferred>,
    /// Global virtual time: start tag of the last dispatched entry.
    vtime: f64,
    next_seq: u64,
    draining: bool,
    counters: AdmissionCounters,
}

impl AdmissionController {
    /// A controller with the given configuration.
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.bucket.rate_per_sec > 0.0 && cfg.bucket.burst >= 1.0);
        AdmissionController {
            cfg,
            ..AdmissionController::default()
        }
    }

    /// Current pending-queue depth.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }

    /// Conservation counters (a copy; cheap).
    pub fn counters(&self) -> AdmissionCounters {
        self.counters
    }

    /// True once [`Self::begin_drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Stop admitting: every later offer is `Rejected(Draining)`, and
    /// parked deferrals are rejected immediately (their retry can never
    /// be admitted).
    pub fn begin_drain(&mut self) {
        self.draining = true;
        let parked = self.deferred.len() as u64;
        self.deferred.clear();
        self.counters.deferred_pending -= parked;
        self.counters.rejected_draining += parked;
    }

    /// Shed the whole pending queue under overload pressure; returns the
    /// shed jobs, oldest virtual tag first. Counts into
    /// [`AdmissionCounters::shed`] — for the graceful end-of-run drop use
    /// [`Self::drain_all`], which counts separately.
    pub fn shed_all(&mut self) -> Vec<PendingJob> {
        let shed: Vec<PendingJob> = std::mem::take(&mut self.queue).into_values().collect();
        self.by_seq.clear();
        self.counters.shed += shed.len() as u64;
        shed
    }

    /// Drop the whole pending queue as part of a graceful drain; returns
    /// the dropped jobs, oldest virtual tag first. Counts into
    /// [`AdmissionCounters::drained`], not `shed`.
    pub fn drain_all(&mut self) -> Vec<PendingJob> {
        let dropped: Vec<PendingJob> = std::mem::take(&mut self.queue).into_values().collect();
        self.by_seq.clear();
        self.counters.drained += dropped.len() as u64;
        dropped
    }

    /// Count jobs dropped at drain that were no longer in the pending
    /// queue (e.g. the serve loop's requeue pool) into `drained`, so the
    /// end-of-run accounting identity stays exact.
    pub(crate) fn count_drained(&mut self, n: u64) {
        self.counters.drained += n;
    }

    /// Re-admit a job whose worker lost its lease. Bypasses the token
    /// bucket and the queue bound (the job already paid admission once
    /// and the scheduler owes it service); keeps the original
    /// `admitted_at` so queue-wait accounting spans the disruption, and
    /// assigns fresh fair-queue tags and a fresh `seq` handle, which is
    /// returned.
    pub fn readmit(&mut self, job: PendingJob) -> u64 {
        self.counters.readmitted += 1;
        self.enqueue(job.admitted_at, job.tenant, job.spec);
        self.next_seq - 1
    }

    fn refill(&mut self, tenant: TenantId, now: SimTime) {
        let bucket = self.cfg.bucket;
        let s = self.tenants.entry(tenant).or_default();
        if !s.initialized {
            s.tokens = bucket.burst;
            s.last_refill = now;
            s.initialized = true;
            return;
        }
        let dt = now.saturating_since(s.last_refill).as_secs_f64();
        s.tokens = (s.tokens + dt * bucket.rate_per_sec).min(bucket.burst);
        s.last_refill = now;
    }

    /// Offer one job. Must be called with non-decreasing `now`.
    pub fn offer(&mut self, now: SimTime, tenant: TenantId, spec: JobSpec) -> AdmissionOutcome {
        self.counters.offered += 1;
        if self.draining {
            self.counters.rejected_draining += 1;
            return AdmissionOutcome::Rejected(RejectReason::Draining);
        }
        self.refill(tenant, now);
        let s = self.tenants.get_mut(&tenant).expect("refilled above");
        if s.tokens >= 1.0 {
            if self.queue.len() >= self.cfg.queue_capacity {
                self.counters.rejected_queue_full += 1;
                return AdmissionOutcome::Rejected(RejectReason::QueueFull);
            }
            s.tokens -= 1.0;
            self.enqueue(now, tenant, spec);
            self.counters.admitted += 1;
            return AdmissionOutcome::Admitted;
        }
        // Bucket empty: defer until one token has accrued, if the pool
        // has room; otherwise this tenant is over quota — reject.
        if self.deferred.len() >= self.cfg.defer_capacity {
            self.counters.rejected_rate_limited += 1;
            return AdmissionOutcome::Rejected(RejectReason::RateLimited);
        }
        let wait = (1.0 - s.tokens) / self.cfg.bucket.rate_per_sec;
        let retry_at = now + SimDuration::from_secs_f64(wait);
        self.deferred.push(Deferred {
            tenant,
            spec,
            retry_at,
        });
        self.counters.deferred_pending += 1;
        self.counters.deferrals += 1;
        AdmissionOutcome::Deferred { retry_at }
    }

    /// Retry ripened deferrals (single retry each: admit if the bucket
    /// and queue allow, reject otherwise). Call at each time step.
    pub fn poll(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].retry_at > now {
                i += 1;
                continue;
            }
            let d = self.deferred.remove(i);
            self.counters.deferred_pending -= 1;
            self.refill(d.tenant, now);
            let s = self.tenants.get_mut(&d.tenant).expect("refilled above");
            if s.tokens >= 1.0 {
                if self.queue.len() >= self.cfg.queue_capacity {
                    self.counters.rejected_queue_full += 1;
                } else {
                    s.tokens -= 1.0;
                    self.enqueue(now, d.tenant, d.spec);
                    self.counters.admitted += 1;
                }
            } else {
                // Another arrival drained the bucket first: over quota.
                self.counters.rejected_rate_limited += 1;
            }
        }
    }

    /// Start-time fair queueing (SFQ): virtual start = max(global
    /// virtual time, tenant's last finish); finish = start + 1/weight.
    /// Dispatch order is by finish tag, so a tenant's share of dispatch
    /// slots is proportional to its weight regardless of offered rate.
    fn enqueue(&mut self, now: SimTime, tenant: TenantId, spec: JobSpec) {
        let weight = self.cfg.weight(tenant);
        let s = self.tenants.entry(tenant).or_default();
        let start = self.vtime.max(s.last_finish);
        let finish = start + 1.0 / weight;
        s.last_finish = finish;
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = (finish.to_bits(), seq);
        self.queue.insert(
            key,
            PendingJob {
                tenant,
                spec,
                admitted_at: now,
                start_tag: start,
                seq,
            },
        );
        self.by_seq.insert(seq, key);
    }

    /// The first `k` pending jobs in fair-queue order — the scheduler's
    /// planning window.
    pub fn peek_window(&self, k: usize) -> Vec<&PendingJob> {
        self.queue.values().take(k).collect()
    }

    /// Remove (dispatch) a pending job by its `seq` handle, advancing
    /// the fair-queueing virtual clock.
    pub fn take(&mut self, seq: u64) -> Option<PendingJob> {
        let key = self.by_seq.remove(&seq)?;
        let job = self.queue.remove(&key).expect("by_seq and queue agree");
        self.vtime = self.vtime.max(job.start_tag);
        Some(job)
    }

    /// Pop the fair-queue head, if any.
    pub fn pop(&mut self) -> Option<PendingJob> {
        let (&key, _) = self.queue.iter().next()?;
        self.by_seq.remove(&key.1);
        let job = self.queue.remove(&key).expect("key just observed");
        self.vtime = self.vtime.max(job.start_tag);
        Some(job)
    }

    /// Save the complete controller state for a crash snapshot
    /// (DESIGN.md §13) as seven `|` groups: counters, virtual time, next
    /// seq, the draining flag, token buckets, the pending queue and the
    /// deferral pool.
    pub(crate) fn save(&self, w: &mut Writer) {
        let c = &self.counters;
        w.int(c.offered)
            .int(c.admitted)
            .int(c.rejected_rate_limited)
            .int(c.rejected_queue_full)
            .int(c.rejected_draining)
            .int(c.deferred_pending)
            .int(c.deferrals)
            .int(c.shed)
            .int(c.drained)
            .int(c.readmitted)
            .group()
            .f64(self.vtime)
            .group()
            .int(self.next_seq)
            .group()
            .int(self.draining)
            .group()
            .list(&self.tenants, |w, (t, ts)| {
                w.int(t.0)
                    .f64(ts.tokens)
                    .time(ts.last_refill)
                    .f64(ts.last_finish)
                    .int(ts.initialized)
            })
            .group()
            .list(&self.queue, |w, (key, job)| {
                job.save(w.f64(f64::from_bits(key.0)))
            })
            .group()
            .list(&self.deferred, |w, d| {
                w.int(d.tenant.0).job(&d.spec).time(d.retry_at)
            });
    }

    /// Inverse of [`Self::save`]: a controller with configuration `cfg`
    /// in the saved state.
    pub(crate) fn load(cfg: AdmissionConfig, r: &mut Reader<'_>) -> Option<Self> {
        let mut a = AdmissionController::new(cfg);
        a.counters = AdmissionCounters {
            offered: r.int("offered")?,
            admitted: r.int("admitted")?,
            rejected_rate_limited: r.int("rejected_rate_limited")?,
            rejected_queue_full: r.int("rejected_queue_full")?,
            rejected_draining: r.int("rejected_draining")?,
            deferred_pending: r.int("deferred_pending")?,
            deferrals: r.int("deferrals")?,
            shed: r.int("shed")?,
            drained: r.int("drained")?,
            readmitted: r.int("readmitted")?,
        };
        a.vtime = r.group()?.f64("vtime")?;
        a.next_seq = r.group()?.int("next_seq")?;
        a.draining = r.group()?.flag("draining")?;
        let tenants = r.group()?.list(|r| {
            let t = TenantId(r.int("tenant")?);
            let ts = TenantState {
                tokens: r.f64("tokens")?,
                last_refill: r.time("last_refill")?,
                last_finish: r.f64("last_finish")?,
                initialized: r.flag("initialized")?,
            };
            Some((t, ts))
        })?;
        a.tenants = tenants.into_iter().collect();
        let queue = r
            .group()?
            .list(|r| Some((r.f64("finish tag")?.to_bits(), PendingJob::load(r)?)))?;
        for (tag, job) in queue {
            // Each pending job has its own dispatch handle.
            if a.by_seq.insert(job.seq, (tag, job.seq)).is_some() {
                return None;
            }
            a.queue.insert((tag, job.seq), job);
        }
        a.deferred = r.group()?.list(|r| {
            Some(Deferred {
                tenant: TenantId(r.int("tenant")?),
                spec: r.job()?,
                retry_at: r.time("retry_at")?,
            })
        })?;
        Some(a)
    }
}

impl PendingJob {
    /// Save as 12 fields: tenant, the 8 job fields, admission instant,
    /// start tag, seq.
    pub(crate) fn save<'w>(&self, w: &'w mut Writer) -> &'w mut Writer {
        w.int(self.tenant.0)
            .job(&self.spec)
            .time(self.admitted_at)
            .f64(self.start_tag)
            .int(self.seq)
    }

    /// Inverse of [`Self::save`].
    pub(crate) fn load(r: &mut Reader<'_>) -> Option<PendingJob> {
        Some(PendingJob {
            tenant: TenantId(r.int("tenant")?),
            spec: r.job()?,
            admitted_at: r.time("admitted_at")?,
            start_tag: r.f64("start_tag")?,
            seq: r.int("seq")?,
        })
    }
}

/// Maps overload signals to a target solver-budget fraction.
///
/// Each signal contributes a linear ramp: 0 below its low watermark, 1
/// above its high watermark. The *stronger* signal wins, and the target
/// is `1 - pressure × (1 - floor)` — full budget when calm, `floor` under
/// saturation (the greedy rung still always runs: plans never stop).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PressureCurve {
    /// Queue depth at which brownout begins.
    pub depth_low: usize,
    /// Queue depth at which the budget hits the floor.
    pub depth_high: usize,
    /// Decision-latency p99 (seconds) at which brownout begins.
    pub latency_low: f64,
    /// Decision-latency p99 (seconds) at which the budget hits the floor.
    pub latency_high: f64,
    /// Minimum budget fraction (> 0 keeps the lower rungs running).
    pub floor: f64,
}

impl Default for PressureCurve {
    fn default() -> Self {
        PressureCurve {
            depth_low: 8,
            depth_high: 64,
            latency_low: 1.0,
            latency_high: 10.0,
            floor: 0.02,
        }
    }
}

impl PressureCurve {
    /// A curve that never leaves full budget (the unthrottled baseline).
    pub fn disabled() -> Self {
        PressureCurve {
            depth_low: usize::MAX / 2,
            depth_high: usize::MAX / 2,
            latency_low: f64::INFINITY,
            latency_high: f64::INFINITY,
            floor: 1.0,
        }
    }

    fn ramp(x: f64, lo: f64, hi: f64) -> f64 {
        if x <= lo {
            0.0
        } else if x >= hi {
            1.0
        } else {
            (x - lo) / (hi - lo)
        }
    }

    /// Target budget fraction for the given signals, in `[floor, 1]`.
    pub fn target(&self, depth: usize, latency_p99: f64) -> f64 {
        let d = Self::ramp(depth as f64, self.depth_low as f64, self.depth_high as f64);
        let l = Self::ramp(latency_p99, self.latency_low, self.latency_high);
        let pressure = d.max(l);
        1.0 - pressure * (1.0 - self.floor.clamp(0.0, 1.0))
    }
}

/// The discrete budget ladder the controller moves on, full budget first.
/// Matches the anytime ladder's useful operating points: full exact/
/// relaxation budget down to a sliver that only fits stale-plan repair
/// and the greedy rung.
pub const BUDGET_LEVELS: [f64; 5] = [1.0, 0.5, 0.25, 0.1, 0.02];

/// Hysteresis-bearing quantizer from [`PressureCurve::target`] onto
/// [`BUDGET_LEVELS`]. Descends immediately (overload must brown out
/// *now*); ascends one level at a time, and only after `ascend_dwell`
/// consecutive updates of sustained headroom — so boundary noise cannot
/// make the solver budget oscillate.
#[derive(Clone, Debug)]
pub struct BudgetController {
    curve: PressureCurve,
    idx: usize,
    dwell: u32,
    ascend_dwell: u32,
    transitions: u32,
    min_idx: usize,
}

impl BudgetController {
    /// A controller starting at full budget.
    pub fn new(curve: PressureCurve, ascend_dwell: u32) -> Self {
        BudgetController {
            curve,
            idx: 0,
            dwell: 0,
            ascend_dwell: ascend_dwell.max(1),
            transitions: 0,
            min_idx: 0,
        }
    }

    /// Feed the current signals; returns the budget fraction to use.
    pub fn update(&mut self, depth: usize, latency_p99: f64) -> f64 {
        let target = self.curve.target(depth, latency_p99);
        // Deepest (largest-index) level whose fraction still fits under
        // the target; saturates at the ladder floor.
        let desired = BUDGET_LEVELS
            .iter()
            .position(|&l| l <= target)
            .unwrap_or(BUDGET_LEVELS.len() - 1);
        if desired > self.idx {
            self.idx = desired;
            self.dwell = 0;
            self.transitions += 1;
        } else if desired < self.idx {
            self.dwell += 1;
            if self.dwell >= self.ascend_dwell {
                self.idx -= 1;
                self.dwell = 0;
                self.transitions += 1;
            }
        } else {
            self.dwell = 0;
        }
        self.min_idx = self.min_idx.max(self.idx);
        BUDGET_LEVELS[self.idx]
    }

    /// The level currently in force.
    pub fn level(&self) -> f64 {
        BUDGET_LEVELS[self.idx]
    }

    /// Level changes so far (both directions).
    pub fn transitions(&self) -> u32 {
        self.transitions
    }

    /// The deepest brownout level reached so far.
    pub fn min_level(&self) -> f64 {
        BUDGET_LEVELS[self.min_idx]
    }

    /// Ladder index of the level currently in force (for WAL records).
    pub(crate) fn level_idx(&self) -> usize {
        self.idx
    }

    /// Save the hysteresis state as 4 fields: level, dwell, transitions,
    /// deepest level.
    pub(crate) fn save(&self, w: &mut Writer) {
        w.int(self.idx as u64)
            .int(self.dwell)
            .int(self.transitions)
            .int(self.min_idx as u64);
    }

    /// Inverse of [`Self::save`].
    pub(crate) fn load(
        curve: PressureCurve,
        ascend_dwell: u32,
        r: &mut Reader<'_>,
    ) -> Option<Self> {
        let level = |i: &usize| *i < BUDGET_LEVELS.len();
        let mut b = BudgetController::new(curve, ascend_dwell);
        b.idx = r.int("level").filter(level)?;
        b.dwell = r.int("dwell")?;
        b.transitions = r.int("transitions")?;
        b.min_idx = r.int("deepest level").filter(level)?;
        Some(b)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_workload::{JobId, ModelKind};

    fn job(i: u32) -> JobSpec {
        JobSpec::new(JobId(i), ModelKind::ResNet50, 4, 1)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The line `save` writes.
    fn saved(save: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer::default();
        save(&mut w);
        w.finish()
    }

    #[test]
    fn admits_within_quota_and_defers_beyond() {
        let mut a = AdmissionController::new(AdmissionConfig {
            bucket: TokenBucketConfig {
                rate_per_sec: 0.1,
                burst: 2.0,
            },
            ..AdmissionConfig::default()
        });
        let tn = TenantId(0);
        assert_eq!(a.offer(t(0), tn, job(0)), AdmissionOutcome::Admitted);
        assert_eq!(a.offer(t(0), tn, job(1)), AdmissionOutcome::Admitted);
        // Bucket empty: third job defers until a token accrues (10s).
        match a.offer(t(0), tn, job(2)) {
            AdmissionOutcome::Deferred { retry_at } => assert_eq!(retry_at, t(10)),
            other => panic!("expected deferral, got {other:?}"),
        }
        assert_eq!(a.depth(), 2);
        assert!(a.counters().conserved());
        // Ripen it: poll after the retry instant admits it.
        a.poll(t(10));
        assert_eq!(a.depth(), 3);
        let c = a.counters();
        assert_eq!((c.offered, c.admitted, c.deferred_pending), (3, 3, 0));
        assert!(c.conserved());
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let mut a = AdmissionController::new(AdmissionConfig {
            queue_capacity: 2,
            bucket: TokenBucketConfig {
                rate_per_sec: 100.0,
                burst: 100.0,
            },
            ..AdmissionConfig::default()
        });
        assert_eq!(
            a.offer(t(0), TenantId(0), job(0)),
            AdmissionOutcome::Admitted
        );
        assert_eq!(
            a.offer(t(0), TenantId(1), job(1)),
            AdmissionOutcome::Admitted
        );
        assert_eq!(
            a.offer(t(0), TenantId(2), job(2)),
            AdmissionOutcome::Rejected(RejectReason::QueueFull)
        );
        assert_eq!(a.depth(), 2);
        assert!(a.counters().conserved());
    }

    #[test]
    fn draining_rejects_everything_and_flushes_deferrals() {
        let mut a = AdmissionController::new(AdmissionConfig {
            bucket: TokenBucketConfig {
                rate_per_sec: 0.01,
                burst: 1.0,
            },
            ..AdmissionConfig::default()
        });
        assert_eq!(
            a.offer(t(0), TenantId(0), job(0)),
            AdmissionOutcome::Admitted
        );
        assert!(matches!(
            a.offer(t(0), TenantId(0), job(1)),
            AdmissionOutcome::Deferred { .. }
        ));
        a.begin_drain();
        assert_eq!(
            a.offer(t(1), TenantId(1), job(2)),
            AdmissionOutcome::Rejected(RejectReason::Draining)
        );
        let c = a.counters();
        assert_eq!(c.deferred_pending, 0, "drain flushes the deferral pool");
        assert_eq!(c.rejected_draining, 2);
        assert!(c.conserved());
        let shed = a.shed_all();
        assert_eq!(shed.len(), 1);
        assert_eq!(a.counters().shed, 1);
        assert_eq!(a.depth(), 0);
    }

    #[test]
    fn fair_queueing_interleaves_a_flooding_tenant() {
        // Tenant 0 floods 8 jobs, then tenant 1 submits 2; SFQ must not
        // make tenant 1 wait behind the whole flood.
        let mut a = AdmissionController::new(AdmissionConfig {
            bucket: TokenBucketConfig {
                rate_per_sec: 100.0,
                burst: 100.0,
            },
            ..AdmissionConfig::default()
        });
        for i in 0..8 {
            assert_eq!(
                a.offer(t(0), TenantId(0), job(i)),
                AdmissionOutcome::Admitted
            );
        }
        for i in 8..10 {
            assert_eq!(
                a.offer(t(0), TenantId(1), job(i)),
                AdmissionOutcome::Admitted
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| a.pop()).map(|p| p.tenant.0).collect();
        // Tenant 1's first job dispatches 2nd, its second 4th: finish
        // tags interleave 1:1 until tenant 1's backlog is drained.
        assert_eq!(order[..4], [0, 1, 0, 1], "full order {order:?}");
    }

    #[test]
    fn weights_bias_the_dispatch_share() {
        let mut a = AdmissionController::new(AdmissionConfig {
            bucket: TokenBucketConfig {
                rate_per_sec: 1000.0,
                burst: 1000.0,
            },
            tenant_weights: vec![2.0, 1.0],
            ..AdmissionConfig::default()
        });
        for i in 0..12 {
            a.offer(t(0), TenantId(i % 2), job(i));
        }
        let first6: Vec<u32> = (0..6).filter_map(|_| a.pop()).map(|p| p.tenant.0).collect();
        let heavy = first6.iter().filter(|&&x| x == 0).count();
        assert_eq!(heavy, 4, "weight-2 tenant gets 2/3 of slots: {first6:?}");
    }

    #[test]
    fn take_by_seq_matches_peek_window() {
        let mut a = AdmissionController::new(AdmissionConfig::default());
        for i in 0..5u32 {
            a.offer(t(i as u64), TenantId(i), job(i));
        }
        let seqs: Vec<u64> = a.peek_window(3).iter().map(|p| p.seq).collect();
        assert_eq!(seqs.len(), 3);
        let taken = a.take(seqs[1]).unwrap();
        assert_eq!(taken.seq, seqs[1]);
        assert_eq!(a.depth(), 4);
        assert!(a.take(seqs[1]).is_none(), "double-take returns None");
    }

    #[test]
    fn drain_all_counts_separately_from_shed() {
        let mut a = AdmissionController::new(AdmissionConfig {
            bucket: TokenBucketConfig {
                rate_per_sec: 100.0,
                burst: 100.0,
            },
            ..AdmissionConfig::default()
        });
        for i in 0..4 {
            a.offer(t(0), TenantId(i % 2), job(i));
        }
        let dropped = a.drain_all();
        assert_eq!(dropped.len(), 4);
        let c = a.counters();
        assert_eq!(
            (c.drained, c.shed),
            (4, 0),
            "drain is not overload shedding"
        );
        assert!(c.conserved());
    }

    #[test]
    fn readmit_requeues_with_fresh_seq_and_original_admission_time() {
        let mut a = AdmissionController::new(AdmissionConfig::default());
        a.offer(t(3), TenantId(1), job(0));
        let j = a.pop().unwrap();
        let old_seq = j.seq;
        let new_seq = a.readmit(j);
        assert_ne!(new_seq, old_seq, "requeue gets a fresh dispatch handle");
        assert_eq!(a.depth(), 1);
        let back = a.pop().unwrap();
        assert_eq!(back.seq, new_seq);
        assert_eq!(back.admitted_at, t(3), "queue-wait spans the disruption");
        let c = a.counters();
        assert_eq!((c.admitted, c.readmitted), (1, 1));
        assert!(c.conserved(), "readmission is outside the offer identity");
    }

    #[test]
    fn state_encoding_round_trips_bit_exactly() {
        let cfg = AdmissionConfig {
            queue_capacity: 8,
            defer_capacity: 4,
            bucket: TokenBucketConfig {
                rate_per_sec: 0.2,
                burst: 3.0,
            },
            tenant_weights: vec![2.0, 1.0],
        };
        let mut a = AdmissionController::new(cfg.clone());
        for i in 0..7 {
            a.offer(t(i as u64 * 2), TenantId(i % 3), job(i));
        }
        let _ = a.pop();
        let encoded = saved(|w| a.save(w));
        let mut b = Reader::value(&encoded, |r| AdmissionController::load(cfg, r)).unwrap();
        assert_eq!(saved(|w| b.save(w)), encoded, "load∘save is the identity");
        assert_eq!(b.counters(), a.counters());
        assert_eq!(b.depth(), a.depth());
        // Behavioral equivalence: both controllers drain identically.
        let from_a: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let from_b: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(from_a, from_b);
        // And a job round-trips exactly, including float weights.
        let spec = job(9).with_weight(2.5).arriving_at(t(17));
        let enc = saved(|w| {
            w.job(&spec);
        });
        assert_eq!(Reader::value(&enc, Reader::job).unwrap(), spec);
    }

    #[test]
    fn budget_state_encoding_round_trips() {
        let mut b = BudgetController::new(PressureCurve::default(), 3);
        b.update(1000, 0.0);
        b.update(0, 0.0);
        let enc = saved(|w| b.save(w));
        let load = |r: &mut Reader<'_>| BudgetController::load(PressureCurve::default(), 3, r);
        let c = Reader::value(&enc, load).unwrap();
        assert_eq!(saved(|w| c.save(w)), enc);
        assert_eq!(c.level(), b.level());
        assert_eq!(c.min_level(), b.min_level());
        assert_eq!(c.transitions(), b.transitions());
        assert!(
            Reader::value("9:0:0:0", load).is_err(),
            "level out of range"
        );
    }

    #[test]
    fn pressure_curve_ramps_and_floors() {
        let c = PressureCurve {
            depth_low: 10,
            depth_high: 20,
            latency_low: 1.0,
            latency_high: 2.0,
            floor: 0.1,
        };
        assert_eq!(c.target(0, 0.0), 1.0);
        assert!((c.target(15, 0.0) - 0.55).abs() < 1e-12, "mid-ramp");
        assert!(
            (c.target(100, 0.0) - 0.1).abs() < 1e-12,
            "floor under saturation"
        );
        // The stronger signal wins.
        assert!((c.target(0, 5.0) - 0.1).abs() < 1e-12);
        assert_eq!(PressureCurve::disabled().target(usize::MAX / 4, 1e9), 1.0);
    }

    #[test]
    fn controller_descends_immediately_and_ascends_with_dwell() {
        let mut b = BudgetController::new(PressureCurve::default(), 3);
        assert_eq!(b.update(0, 0.0), 1.0);
        // Saturated: straight to the floor level in one update.
        assert_eq!(b.update(1000, 0.0), 0.02);
        assert_eq!(b.transitions(), 1);
        // Pressure gone: needs 3 calm updates per level to climb.
        assert_eq!(b.update(0, 0.0), 0.02);
        assert_eq!(b.update(0, 0.0), 0.02);
        assert_eq!(b.update(0, 0.0), 0.1, "one level up after dwell");
        assert_eq!(b.min_level(), 0.02);
    }

    #[test]
    fn controller_does_not_oscillate_on_boundary_noise() {
        // A signal flapping across the 0.5-level boundary: after the
        // initial descent the level must hold (dwell resets on every
        // pressured update).
        let mut b = BudgetController::new(
            PressureCurve {
                depth_low: 0,
                depth_high: 100,
                ..PressureCurve::default()
            },
            3,
        );
        let depths = [60usize, 40, 60, 40, 60, 40, 60, 40];
        let mut levels = Vec::new();
        for &d in &depths {
            levels.push(b.update(d, 0.0));
        }
        assert!(
            levels[1..].iter().all(|&l| l == levels[1]),
            "no oscillation: {levels:?}"
        );
        assert!(b.transitions() <= 2, "transitions {}", b.transitions());
    }

    #[test]
    fn controller_recovers_fully_when_pressure_drains() {
        let mut b = BudgetController::new(PressureCurve::default(), 2);
        b.update(1000, 0.0);
        for _ in 0..20 {
            b.update(0, 0.0);
        }
        assert_eq!(b.level(), 1.0, "full recovery");
        assert_eq!(b.min_level(), 0.02, "deepest brownout remembered");
    }

    mod chaos {
        use super::*;
        use proptest::prelude::*;

        /// One step of the chaos schedule.
        #[derive(Clone, Debug)]
        enum Op {
            /// Offer a job from the tenant after advancing by `dt_ms`.
            Offer { tenant: u32, dt_ms: u32 },
            /// Pop the fair-queue head.
            Pop,
            /// Retry ripened deferrals.
            Poll,
            /// Begin drain (idempotent).
            Drain,
            /// Shed the pending queue (overload).
            Shed,
            /// Drop the pending queue gracefully (drain accounting).
            DrainAll,
            /// Pop the head and immediately re-admit it (lease requeue).
            Readmit,
        }

        fn op() -> impl Strategy<Value = Op> {
            // Weighted mix: offers dominate so queues actually fill.
            (0u8..16, 0u32..4, 0u32..30_000).prop_map(|(sel, tenant, dt_ms)| match sel {
                0..=5 => Op::Offer { tenant, dt_ms },
                6..=8 => Op::Pop,
                9..=10 => Op::Poll,
                11 => Op::Drain,
                12 => Op::Shed,
                13 => Op::DrainAll,
                _ => Op::Readmit,
            })
        }

        fn tight_cfg() -> AdmissionConfig {
            AdmissionConfig {
                queue_capacity: 6,
                defer_capacity: 4,
                bucket: TokenBucketConfig {
                    rate_per_sec: 0.2,
                    burst: 3.0,
                },
                tenant_weights: vec![2.0, 1.0, 1.0],
            }
        }

        proptest! {
            /// The conservation identity and the queue bound hold after
            /// *every* transition of an arbitrary offer/pop/poll/drain/
            /// shed schedule — not just at quiescence.
            #[test]
            fn conservation_holds_under_chaos(ops in proptest::collection::vec(op(), 1..200)) {
                let mut a = AdmissionController::new(tight_cfg());
                let mut now = SimTime::ZERO;
                let mut popped = 0u64;
                let mut shed = 0u64;
                let mut drained = 0u64;
                for (i, o) in ops.iter().enumerate() {
                    match *o {
                        Op::Offer { tenant, dt_ms } => {
                            now += SimDuration::from_millis(dt_ms as u64);
                            a.offer(now, TenantId(tenant), job(i as u32));
                        }
                        Op::Pop => {
                            if a.pop().is_some() {
                                popped += 1;
                            }
                        }
                        Op::Poll => a.poll(now),
                        Op::Drain => a.begin_drain(),
                        Op::Shed => {
                            shed += a.shed_all().len() as u64;
                        }
                        Op::DrainAll => {
                            drained += a.drain_all().len() as u64;
                        }
                        Op::Readmit => {
                            if let Some(j) = a.pop() {
                                popped += 1;
                                a.readmit(j);
                            }
                        }
                    }
                    let c = a.counters();
                    prop_assert!(
                        c.conserved(),
                        "step {i}: offered {} != admitted {} + rejected {} + deferred {}",
                        c.offered, c.admitted, c.rejected(), c.deferred_pending
                    );
                    prop_assert!(a.depth() <= tight_cfg().queue_capacity, "queue bound");
                    // Every queue entry ever made (fresh admission or
                    // lease requeue) is exactly accounted for: still
                    // queued, dispatched, shed, or drained.
                    prop_assert_eq!(c.shed, shed, "controller and test agree on sheds");
                    prop_assert_eq!(c.drained, drained, "and on drains");
                    prop_assert_eq!(
                        c.admitted + c.readmitted,
                        a.depth() as u64 + popped + c.shed + c.drained,
                        "admitted + readmitted = queued + popped + shed + drained"
                    );
                    if a.is_draining() {
                        prop_assert_eq!(c.deferred_pending, 0, "drain keeps no deferrals");
                    }
                }
            }
        }
    }
}
