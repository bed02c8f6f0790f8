//! Trace-driven discrete-event simulator for DML job scheduling on
//! heterogeneous GPUs — the reproduction of the paper's Python simulator
//! (Section 7.1), with the fast-task-switching runtime (Section 4) and the
//! PS-based synchronization model wired in.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod admission;
pub mod build;
mod dense;
pub mod engine;
pub mod event;
pub mod faults;
pub mod histogram;
pub mod metrics;
pub mod policy;
pub mod ps;
pub mod recovery;
pub mod serve;
pub mod shard;
pub mod snapshot;
pub mod storage;
pub mod trace;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionCounters, AdmissionOutcome, BudgetController,
    PendingJob, PressureCurve, RejectReason, TenantId, TokenBucketConfig, BUDGET_LEVELS,
};
pub use build::SimWorkload;
pub use dense::DenseSet;
pub use engine::{planned_report, Simulation};
pub use event::{Event, EventQueue};
pub use faults::{
    FaultPlan, FaultProfile, GpuFault, NetworkFault, SchedulerCrash, ServeFaultPlan,
    SilentWorkerFault, SimError, SolverDegradation, SpeculationConfig, StorageFault,
    StorageFaultKind, StragglerWindow,
};
pub use histogram::Histogram;
pub use metrics::{
    completion_stats, completion_stats_parts, jct_cdf, CompletionStats, FaultMetrics, GpuReport,
    SimReport, UtilSpan,
};
pub use policy::{Change, OfflineReplay, Policy, SimView, SECS_PER_WORK_UNIT};
pub use ps::{ParameterServer, SyncOutcome};
pub use recovery::{crc32, LeaseConfig, RecoveryError, RecoveryStats, WalFile, WalOptions};
pub use serve::{PlanOutcome, QueueScheduler, ServeConfig, ServeLoop, ServeReport};
pub use shard::{CellSummary, GatewayConfig, ShardReport, ShardedTrace};
pub use storage::CheckpointStore;
pub use trace::{ChromeTraceSink, SimInstant, TaskPhase};
