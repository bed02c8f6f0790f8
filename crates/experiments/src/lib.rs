//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 7). Each artifact has a dedicated binary — run e.g.
//! `cargo run --release -p hare-experiments --bin fig12`. See DESIGN.md §3
//! for the experiment index and EXPERIMENTS.md for measured-vs-paper
//! results.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod harness;
pub mod journal;
pub mod scenarios;

pub use harness::{
    mean_std, paper_line, parallel_map, parallel_over_seeds, parse_args, workspace_root,
    write_record, Table,
};
pub use journal::{journaled_cells, Journal};
pub use scenarios::{sweep_table, testbed_workload, LargeScale};
