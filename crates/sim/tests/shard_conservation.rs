//! Property tests for the shard gateway: routing is a conservation law.
//!
//! Whatever the cluster shape, cell count, gateway weights, and trace,
//! every arrival must land in exactly one cell, per-cell job counts must
//! sum to the global count, and the routing tables must be mutually
//! consistent (route_of and the per-cell inverse agree). A smaller number
//! of full end-to-end cases additionally runs Hare in every cell and
//! checks the merged report completes each routed job.

use hare_cluster::{Cluster, GpuKind, Heterogeneity, SimTime};
use hare_core::HareScheduler;
use hare_sim::{GatewayConfig, OfflineReplay, ShardedTrace, SimWorkload, Simulation};
use hare_workload::{large_scale_trace, DomainMix, JobId, ProfileDb};
use proptest::prelude::*;

/// Cluster shapes with distinct kind mixes and machine counts.
fn cluster_strategy() -> impl Strategy<Value = Cluster> {
    (0usize..3, 1u32..=4).prop_map(|(shape, m)| match shape {
        0 => Cluster::testbed15(),
        1 => Cluster::from_counts(&[(GpuKind::V100, (m + 1) * 4)], 4),
        _ => Cluster::from_counts(&[(GpuKind::V100, m * 4), (GpuKind::K80, m * 4)], 4),
    })
}

fn gateway_strategy() -> impl Strategy<Value = GatewayConfig> {
    (0.0f64..4.0, 0.0f64..4.0).prop_map(|(w_load, w_het)| GatewayConfig { w_load, w_het })
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routing_conserves_every_arrival(
        cluster in cluster_strategy(),
        n_cells_raw in 1usize..6,
        n_jobs in 1u32..80,
        seed in 0u64..1_000,
        gw in gateway_strategy(),
    ) {
        let n_cells = n_cells_raw.min(cluster.machine_count());
        let jobs = large_scale_trace(n_jobs, DomainMix::default(), seed);
        let sharded = ShardedTrace::route(&cluster, n_cells, &gw, jobs.clone());

        // Cell counts sum to the global job count.
        prop_assert_eq!(sharded.n_jobs(), jobs.len());
        let routed: usize = sharded.cell_specs().iter().map(Vec::len).sum();
        prop_assert_eq!(routed, jobs.len());

        // Every arrival is in exactly one cell, with consistent tables:
        // route_of(g) points at a spec that matches the original job, and
        // local ids are dense per cell.
        for (global, spec) in jobs.iter().enumerate() {
            let (c, l) = sharded.route_of(global);
            prop_assert!(c < n_cells);
            let routed = &sharded.cell_specs()[c][l];
            prop_assert_eq!(routed.id, JobId(l as u32));
            prop_assert_eq!(routed.model, spec.model);
            prop_assert_eq!(routed.arrival, spec.arrival);
            prop_assert_eq!(routed.rounds, spec.rounds);
            prop_assert_eq!(routed.sync_scale, spec.sync_scale);
        }
        for specs in sharded.cell_specs() {
            for (l, spec) in specs.iter().enumerate() {
                prop_assert_eq!(spec.id, JobId(l as u32));
            }
        }

        // Determinism: the same inputs route the same way.
        let again = ShardedTrace::route(&cluster, n_cells, &gw, jobs);
        for g in 0..sharded.n_jobs() {
            prop_assert_eq!(sharded.route_of(g), again.route_of(g));
        }
    }
}

/// The gateway balances. Striped cells of a high-heterogeneity cluster
/// each hold every GPU kind, so the heterogeneity term is zero and each
/// arrival goes to the cell whose best-case ms over summed
/// `generic_speedup` ends lowest. That greedy rule leaves any two cells'
/// loads within one job: the largest routed job's best-case ms over the
/// smallest cell's summed speedup.
#[test]
fn striped_cells_end_within_one_job_of_each_other() {
    for gpus in [128u32, 256, 512] {
        let cluster = Cluster::with_heterogeneity(Heterogeneity::High, gpus);
        let kinds = cluster.kinds_present();
        for n_cells in [2usize, 4, 8] {
            for seed in 0..20u64 {
                let jobs = large_scale_trace(200, DomainMix::default(), seed);
                let sharded =
                    ShardedTrace::route(&cluster, n_cells, &GatewayConfig::default(), jobs);
                let speed: Vec<f64> = sharded
                    .partition()
                    .cells()
                    .iter()
                    .map(|cell| {
                        let cell = cell.cluster();
                        assert_eq!(cell.kinds_present(), kinds, "a cell lacks a kind");
                        cell.gpus().iter().map(|g| g.kind.generic_speedup()).sum()
                    })
                    .collect();
                let load: Vec<f64> = sharded
                    .cell_specs()
                    .iter()
                    .zip(&speed)
                    .map(|(specs, s)| specs.iter().map(|j| j.best_case_ms(&kinds)).sum::<f64>() / s)
                    .collect();
                let largest_job = sharded
                    .cell_specs()
                    .iter()
                    .flatten()
                    .map(|j| j.best_case_ms(&kinds))
                    .fold(0.0, f64::max);
                let bound = largest_job / speed.iter().copied().fold(f64::INFINITY, f64::min);
                let lo = load.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = load.iter().copied().fold(0.0, f64::max);
                // The relative slack absorbs rounding in the gateway's
                // `(queued + job) / speed` against this test's sums.
                assert!(
                    hi - lo <= bound * (1.0 + 1e-9),
                    "{gpus} GPUs, {n_cells} cells, seed {seed}: loads {load:?} spread {} > {bound}",
                    hi - lo
                );
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end: Hare plans within every cell and the merged report
    /// completes every routed job exactly once.
    #[test]
    fn sharded_hare_completes_every_routed_job(
        n_cells in 1usize..4,
        n_jobs in 4u32..16,
        seed in 0u64..50,
    ) {
        let cluster = Cluster::testbed15();
        let db = ProfileDb::new(7);
        let jobs = large_scale_trace(n_jobs, DomainMix::default(), seed);
        let sharded = ShardedTrace::route(&cluster, n_cells, &GatewayConfig::default(), jobs);
        let merged = sharded
            .run_with(|_ci, cell, specs| {
                let w = SimWorkload::build(cell.cluster().clone(), specs.to_vec(), &db);
                let out = HareScheduler::default().schedule(&w.problem);
                let mut policy = OfflineReplay::new("Hare", &w, &out.schedule);
                Simulation::new(&w).with_noise(0.0).run_counted(&mut policy)
            })
            .expect("sharded run failed");
        prop_assert_eq!(merged.report.completion.len(), n_jobs as usize);
        prop_assert!(merged.report.completion.iter().all(|&c| c > SimTime::ZERO));
        prop_assert_eq!(&merged.report.scheme, "Hare");
        let cell_jobs: usize = merged.cells.iter().map(|c| c.jobs).sum();
        prop_assert_eq!(cell_jobs, n_jobs as usize);
        let max_jobs = merged.cells.iter().map(|c| c.jobs).max().unwrap_or(0);
        prop_assert_eq!(merged.largest_cell_share(), max_jobs as f64 / n_jobs as f64);
        prop_assert!(merged.events_total > 0);
    }
}
