//! The comparison schedulers of Section 7.1 — Gavel_FIFO, SRTF, Sched_Homo
//! (Zhang et al. \[47\]) and Sched_Allox (AlloX \[24\]) — implemented against
//! the simulator's [`hare_sim::Policy`] interface, plus the five-scheme
//! comparison suite every end-to-end experiment drives.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod allox;
pub mod common;
pub mod gavel_fifo;
pub mod hare_online;
pub mod sched_homo;
pub mod serve_sched;
pub mod srtf;
pub mod suite;
pub mod timeslice;

pub use allox::SchedAllox;
pub use gavel_fifo::GavelFifo;
pub use hare_online::{HareOnline, ReplanBudget};
pub use sched_homo::SchedHomo;
pub use serve_sched::{LadderServe, SrtfServe};
pub use srtf::Srtf;
pub use suite::{
    build_simulation, run_all, run_scheme, run_scheme_counted, run_scheme_faulted,
    run_scheme_sharded, RunOptions, Scheme,
};
pub use timeslice::TimeSlice;
