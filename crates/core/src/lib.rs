//! The core of the Hare reproduction: the `Hare_Sched` problem model,
//! Algorithm 1 with its relaxation-driven midpoint ordering, the relaxed
//! scale-fixed synchronization semantics, schedule validation against
//! constraints (4)–(8), and the Theorem-4 theoretical machinery.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod algorithm;
pub mod anytime;
pub mod gantt;
pub mod problem;
pub mod schedule;
pub mod sync;
pub mod theory;

pub use algorithm::{
    hare_schedule, relaxed_round_assign, AssignmentRule, HareOutput, HareScheduler, PriorityOrder,
};
pub use anytime::{anytime_schedule, AnytimeOptions, AnytimeOutput, Rung, StalePlan};
pub use gantt::render as render_gantt;
pub use problem::{GpuIdx, JobIdx, JobInfo, SchedProblem, TaskIdx, TaskInfo};
pub use schedule::Schedule;
pub use sync::{find_gang_slot, SyncMode};
pub use theory::{approx_ratio_bound, certify, TheoryReport};
