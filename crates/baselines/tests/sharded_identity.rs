//! Sharded-vs-unsharded identity guard.
//!
//! The sharded datacenter engine must be a pure decomposition: with one
//! cell, the partition, the gateway routing, and the merge are all
//! identity maps, so the merged report must be *bit-identical* to the
//! unsharded engine's — both through `SimReport::to_json` against the
//! same committed golden fixtures the unsharded path maintains, and
//! through full `PartialEq` plus the processed-event count, which the
//! merge reports beside the report. Multi-cell runs cannot match the
//! global event interleaving, but they must conserve jobs and GPUs
//! exactly and complete every job.

use hare_baselines::{run_scheme_counted, run_scheme_sharded, RunOptions, Scheme};
use hare_cluster::{Cluster, SimTime};
use hare_sim::{GatewayConfig, ShardedTrace, SimWorkload};
use hare_workload::{ProfileDb, TraceConfig};
use std::fs;
use std::path::PathBuf;

/// The golden-fixture workload of `golden_reports.rs`: 12 jobs, seed 7,
/// on the 15-GPU testbed.
fn fixture_trace() -> Vec<hare_workload::JobSpec> {
    TraceConfig {
        n_jobs: 12,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate()
}

fn fixture_json(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(format!("{name}.json"));
    fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); bless via the golden_reports test",
            path.display()
        )
    })
}

#[test]
fn one_cell_sharded_run_matches_the_golden_fixtures() {
    let cluster = Cluster::testbed15();
    let db = ProfileDb::new(7);
    let sharded = ShardedTrace::route(&cluster, 1, &GatewayConfig::default(), fixture_trace());
    let opts = RunOptions::default();
    for scheme in Scheme::ALL {
        let merged = run_scheme_sharded(scheme, &sharded, &db, opts);
        assert_eq!(
            merged.report.to_json(),
            fixture_json(&format!("{}_healthy", scheme.name())),
            "{}: 1-cell sharded run drifted from the unsharded golden fixture",
            scheme.name()
        );
        assert_eq!(merged.cells.len(), 1);
        assert_eq!(merged.cells[0].jobs, 12);
        assert_eq!(merged.events_total, merged.cells[0].events);
        assert!(merged.events_total > 0);
    }
}

#[test]
fn one_cell_sharded_run_equals_the_unsharded_report_exactly() {
    let cluster = Cluster::testbed15();
    let db = ProfileDb::new(7);
    let trace = fixture_trace();
    let sharded = ShardedTrace::route(&cluster, 1, &GatewayConfig::default(), trace.clone());
    let w = SimWorkload::build(cluster, trace, &db);
    let opts = RunOptions::default();
    for scheme in Scheme::ALL {
        let merged = run_scheme_sharded(scheme, &sharded, &db, opts);
        let (unsharded, events) = run_scheme_counted(scheme, &w, opts);
        assert_eq!(
            merged.report,
            unsharded,
            "{}: 1-cell sharded report differs from the unsharded engine",
            scheme.name()
        );
        assert_eq!(
            merged.events_total,
            events,
            "{}: 1-cell sharded run processed a different number of events",
            scheme.name()
        );
    }
}

#[test]
fn multi_cell_run_conserves_jobs_and_gpus() {
    let cluster = Cluster::testbed15();
    let db = ProfileDb::new(7);
    let trace = fixture_trace();
    let n_jobs = trace.len();
    let sharded = ShardedTrace::route(&cluster, 2, &GatewayConfig::default(), trace);
    for scheme in [Scheme::Hare, Scheme::GavelFifo] {
        let merged = run_scheme_sharded(scheme, &sharded, &db, RunOptions::default());
        let r = &merged.report;
        assert_eq!(r.completion.len(), n_jobs);
        assert_eq!(r.gpus.len(), cluster.gpu_count());
        // Every routed job completed within its cell (arrivals start at
        // t=0 in this trace, so completions are strictly positive), and
        // cell job/event counts sum to the global totals.
        let routed: usize = merged.cells.iter().map(|c| c.jobs).sum();
        assert_eq!(routed, n_jobs);
        assert!(r.completion.iter().all(|&c| c > SimTime::ZERO));
        let cell_gpus: usize = merged.cells.iter().map(|c| c.gpus).sum();
        assert_eq!(cell_gpus, cluster.gpu_count());
        assert_eq!(
            merged.events_total,
            merged.cells.iter().map(|c| c.events).sum::<u64>()
        );
        assert_eq!(
            r.makespan,
            merged
                .cells
                .iter()
                .map(|c| c.makespan)
                .max()
                .expect("cells"),
            "global makespan is the max over cell makespans"
        );
        // Per-GPU work must land on every cell's GPUs, not just cell 0's.
        let busy_gpus = r.gpus.iter().filter(|g| g.busy.as_micros() > 0).count();
        assert!(busy_gpus > 8, "only {busy_gpus}/15 GPUs did any work");
    }
}
