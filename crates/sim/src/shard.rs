//! Sharded datacenter-scale simulation.
//!
//! One flat event loop cannot absorb a 10k-GPU, 100k-job run: the
//! preparation stage alone materializes a jobs × GPUs expected-time matrix
//! (tens of GB at that scale) and every event serializes through a single
//! queue. The shard layer splits the run along the paper's natural
//! boundary — Hare schedules within a pool of GPUs it fully owns — into
//! machine-disjoint *cells* ([`hare_cluster::CellPartition`]), routes each
//! arriving job to exactly one cell through a deterministic gateway, and
//! runs an independent simulation per cell. Cells share no mutable state,
//! so a driver is free to run them on one thread per cell; the bundled
//! [`ShardedTrace::run_with`] driver runs them sequentially, building and
//! dropping one cell's workload at a time so peak memory is one cell's
//! matrices plus the job specs.
//!
//! # Gateway
//!
//! The gateway scores every cell for each arrival (in arrival order) and
//! picks the lowest score, ties to the lowest cell index. The score is
//! `w_load · load + w_het · het`:
//!
//! * **load** — the cell's queued best-case ms including this job,
//!   divided by the cell's summed `generic_speedup` (≈128 for a 64-GPU
//!   high-heterogeneity cell), so slow cells fill slower;
//! * **heterogeneity** — in ms, the extra per-job time this cell's best
//!   GPU kind costs over the global best kind (a V100-less cell is a bad
//!   home for a V100-hungry model). It is zero on cells that hold every
//!   kind the cluster has, so striped cells are routed by load alone.
//!
//! Scores are plain `f64` arithmetic over profile-derived expectations —
//! no clocks, no randomness — so routing is a pure function of the trace
//! and the partition.
//!
//! # Determinism and the merge point
//!
//! Per-cell reports are merged into one [`SimReport`]: completions scatter
//! through the routing table, GPU rows scatter through the cell→global id
//! maps, fault/storage counters sum, and the job-level aggregates are
//! recomputed over the *global* job order with the same arithmetic
//! ([`crate::metrics::completion_stats_parts`]) the engine itself uses.
//! With one cell the partition, routing and merge are all identity maps,
//! so the sharded output is bit-identical to the unsharded engine — the
//! golden identity tests pin exactly that.

use crate::faults::SimError;
use crate::metrics::{completion_stats_parts, FaultMetrics, GpuReport, SimReport};
use hare_cluster::{Cell, CellPartition, Cluster, GpuId, GpuKind, SimTime};
use hare_workload::{JobId, JobSpec};

/// Weights of the gateway's routing score. The two terms are in
/// different units (see each field), so the weights are not exchange
/// rates between comparable quantities.
#[derive(Copy, Clone, Debug)]
pub struct GatewayConfig {
    /// Weight of the load term: the cell's queued best-case ms divided by
    /// its summed `generic_speedup` (≈128 for a 64-GPU high-heterogeneity
    /// cell).
    pub w_load: f64,
    /// Weight of the heterogeneity term, in ms: extra time on this cell's
    /// best kind versus the global best kind.
    pub w_het: f64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            w_load: 1.0,
            w_het: 1.0,
        }
    }
}

/// A workload routed over a cell partition: per-cell job lists (dense
/// local ids) plus the maps back to the global job order.
#[derive(Clone, Debug)]
pub struct ShardedTrace {
    partition: CellPartition,
    /// Per-cell specs, ids renumbered to the cell-local dense space.
    cell_specs: Vec<Vec<JobSpec>>,
    /// Per-cell inverse routing: local job index → global job index.
    cell_jobs: Vec<Vec<u32>>,
    /// Global job index → (cell, local job index).
    routes: Vec<(u32, u32)>,
    /// Global per-job arrival column (for the merged aggregates).
    arrivals: Vec<SimTime>,
    /// Global per-job weight column (for the merged aggregates).
    weights: Vec<f64>,
}

impl ShardedTrace {
    /// Partition `cluster` into `n_cells` and route `jobs` (consumed in
    /// arrival order, e.g. a lazy [`hare_workload::StreamedTrace`])
    /// through the gateway. Every job lands in exactly one cell; job ids
    /// are renumbered per cell, and the global order is remembered for
    /// the merge. Panics on an empty trace, mirroring
    /// [`crate::SimWorkload::build`].
    pub fn route(
        cluster: &Cluster,
        n_cells: usize,
        gw: &GatewayConfig,
        jobs: impl IntoIterator<Item = JobSpec>,
    ) -> ShardedTrace {
        let partition = cluster.partition_cells(n_cells);
        let n = partition.len();
        let cell_kinds: Vec<Vec<GpuKind>> = partition
            .cells()
            .iter()
            .map(|c| c.cluster().kinds_present())
            .collect();
        let cell_speed: Vec<f64> = partition
            .cells()
            .iter()
            .map(|c| {
                c.cluster()
                    .gpus()
                    .iter()
                    .map(|g| g.kind.generic_speedup())
                    .sum()
            })
            .collect();
        let global_kinds = cluster.kinds_present();
        let mut pending_ms = vec![0.0f64; n];
        let mut cell_specs: Vec<Vec<JobSpec>> = vec![Vec::new(); n];
        let mut cell_jobs: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut routes = Vec::new();
        let mut arrivals = Vec::new();
        let mut weights = Vec::new();
        for mut spec in jobs {
            let est_best = spec.best_case_ms(&global_kinds);
            // (score, cell, est on that cell); strict < keeps the lowest
            // cell index on ties, so routing is fully deterministic.
            let mut best: Option<(f64, usize, f64)> = None;
            for (c, kinds) in cell_kinds.iter().enumerate() {
                let est_c = spec.best_case_ms(kinds);
                let load = (pending_ms[c] + est_c) / cell_speed[c];
                let het = est_c - est_best;
                let score = gw.w_load * load + gw.w_het * het;
                if best.is_none_or(|b| score < b.0) {
                    best = Some((score, c, est_c));
                }
            }
            let (_, c, est_c) = best.expect("partition has at least one cell");
            pending_ms[c] += est_c;
            let local = cell_specs[c].len() as u32;
            routes.push((c as u32, local));
            cell_jobs[c].push(arrivals.len() as u32);
            arrivals.push(spec.arrival);
            weights.push(spec.weight);
            spec.id = JobId(local);
            cell_specs[c].push(spec);
        }
        assert!(!routes.is_empty(), "empty trace");
        ShardedTrace {
            partition,
            cell_specs,
            cell_jobs,
            routes,
            arrivals,
            weights,
        }
    }

    /// The underlying cell partition.
    pub fn partition(&self) -> &CellPartition {
        &self.partition
    }

    /// Per-cell job specs (cell-local dense ids), cell-index order.
    pub fn cell_specs(&self) -> &[Vec<JobSpec>] {
        &self.cell_specs
    }

    /// Where a global job landed: (cell index, cell-local job index).
    pub fn route_of(&self, job: usize) -> (usize, usize) {
        let (c, l) = self.routes[job];
        (c as usize, l as usize)
    }

    /// Total jobs routed.
    pub fn n_jobs(&self) -> usize {
        self.routes.len()
    }

    /// Run every cell through `run_cell` and merge the per-cell reports
    /// into one global [`ShardReport`]. `run_cell` receives the cell
    /// index, the cell, and its job specs, and returns the cell's report
    /// plus its processed-event count (see
    /// [`crate::Simulation::run_counted`]); cells with no routed jobs are
    /// skipped and contribute all-zero GPU rows. Cells are driven
    /// sequentially, lowest index first, so the caller can build and drop
    /// one cell's workload at a time.
    pub fn run_with<F>(&self, mut run_cell: F) -> Result<ShardReport, SimError>
    where
        F: FnMut(usize, &Cell, &[JobSpec]) -> Result<(SimReport, u64), SimError>,
    {
        let n_jobs = self.routes.len();
        let n_gpus: usize = self
            .partition
            .cells()
            .iter()
            .map(|c| c.cluster().gpu_count())
            .sum();
        let mut completion = vec![SimTime::ZERO; n_jobs];
        let mut gpus = vec![GpuReport::default(); n_gpus];
        let mut faults = FaultMetrics::default();
        let mut storage_fetched = hare_cluster::Bytes::ZERO;
        let mut storage_local_hits = 0u64;
        let mut events_total = 0u64;
        let mut scheme: Option<String> = None;
        let mut timelines = vec![Vec::new(); n_gpus];
        let mut saw_timelines = false;
        let mut all_timelines = true;
        let mut cells = Vec::with_capacity(self.partition.len());
        for (ci, cell) in self.partition.cells().iter().enumerate() {
            let specs = &self.cell_specs[ci];
            if specs.is_empty() {
                cells.push(CellSummary {
                    cell: ci,
                    jobs: 0,
                    gpus: cell.cluster().gpu_count(),
                    events: 0,
                    makespan: SimTime::ZERO,
                });
                continue;
            }
            let (rep, events) = run_cell(ci, cell, specs)?;
            assert_eq!(
                rep.completion.len(),
                specs.len(),
                "cell {ci}: report covers {} of {} routed jobs",
                rep.completion.len(),
                specs.len()
            );
            match &scheme {
                None => scheme = Some(rep.scheme.clone()),
                Some(s) => assert_eq!(*s, rep.scheme, "cells ran different schemes"),
            }
            for (local, &done) in rep.completion.iter().enumerate() {
                completion[self.cell_jobs[ci][local] as usize] = done;
            }
            for (local, g) in rep.gpus.iter().enumerate() {
                gpus[cell.to_global_gpu(GpuId(local as u32)).index()] = g.clone();
            }
            match rep.timelines {
                Some(lines) => {
                    saw_timelines = true;
                    for (local, line) in lines.into_iter().enumerate() {
                        timelines[cell.to_global_gpu(GpuId(local as u32)).index()] = line;
                    }
                }
                None => all_timelines = false,
            }
            add_faults(&mut faults, &rep.faults);
            storage_fetched += rep.storage_fetched;
            storage_local_hits += rep.storage_local_hits;
            events_total += events;
            cells.push(CellSummary {
                cell: ci,
                jobs: specs.len(),
                gpus: rep.gpus.len(),
                events,
                makespan: rep.makespan,
            });
        }
        let stats = completion_stats_parts(&completion, &self.arrivals, &self.weights);
        Ok(ShardReport {
            report: SimReport {
                scheme: scheme.unwrap_or_default(),
                makespan: stats.makespan,
                completion,
                jct: stats.jct,
                weights: stats.weights,
                weighted_completion: stats.weighted_completion,
                weighted_jct: stats.weighted_jct,
                gpus,
                storage_fetched,
                storage_local_hits,
                faults,
                timelines: (saw_timelines && all_timelines).then_some(timelines),
            },
            cells,
            events_total,
        })
    }
}

/// Field-wise sum of fault counters (the merge is additive: cells are
/// disjoint, so no event is counted twice).
fn add_faults(into: &mut FaultMetrics, f: &FaultMetrics) {
    into.gpu_failures += f.gpu_failures;
    into.gpu_recoveries += f.gpu_recoveries;
    into.recovery_latency += f.recovery_latency;
    into.lost_work += f.lost_work;
    into.reexec_work += f.reexec_work;
    into.reexecuted_tasks += f.reexecuted_tasks;
    into.degraded_rounds += f.degraded_rounds;
    into.dropped_gradients += f.dropped_gradients;
    into.gradients_accepted += f.gradients_accepted;
    into.speculated_tasks += f.speculated_tasks;
    into.straggler_delay += f.straggler_delay;
    into.storage_stall += f.storage_stall;
}

/// Per-cell accounting of one sharded run.
#[derive(Clone, Debug)]
pub struct CellSummary {
    /// Cell index.
    pub cell: usize,
    /// Jobs the gateway routed here.
    pub jobs: usize,
    /// GPUs in the cell.
    pub gpus: usize,
    /// Events the cell's engine processed.
    pub events: u64,
    /// The cell's local makespan.
    pub makespan: SimTime,
}

/// A merged sharded run: the global report plus per-cell accounting.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// The merged global report — with one cell, bit-identical to the
    /// unsharded engine's.
    pub report: SimReport,
    /// Per-cell accounting, cell-index order.
    pub cells: Vec<CellSummary>,
    /// Events processed across all cells.
    pub events_total: u64,
}

impl ShardReport {
    /// The largest cell's share of the routed jobs, in `(0, 1]`: the
    /// gateway's imbalance, against a fair share of `1 / cells.len()`.
    pub fn largest_cell_share(&self) -> f64 {
        let max = self.cells.iter().map(|c| c.jobs).max().unwrap_or(0);
        let total: usize = self.cells.iter().map(|c| c.jobs).sum();
        max as f64 / total as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use hare_workload::{large_scale_trace, DomainMix};

    fn trace(n_jobs: u32) -> Vec<JobSpec> {
        large_scale_trace(n_jobs, DomainMix::default(), 7)
    }

    #[test]
    fn every_job_routes_to_exactly_one_cell() {
        let cluster = Cluster::testbed15();
        let jobs = trace(40);
        let sharded = ShardedTrace::route(&cluster, 2, &GatewayConfig::default(), jobs.clone());
        assert_eq!(sharded.n_jobs(), 40);
        let per_cell: usize = sharded.cell_specs().iter().map(Vec::len).sum();
        assert_eq!(per_cell, 40, "cell job counts must sum to the global");
        for (global, spec) in jobs.iter().enumerate() {
            let (c, l) = sharded.route_of(global);
            let routed = &sharded.cell_specs()[c][l];
            // Same job, renumbered into the cell's dense id space.
            assert_eq!(routed.model, spec.model);
            assert_eq!(routed.arrival, spec.arrival);
            assert_eq!(routed.id, JobId(l as u32));
            assert_eq!(sharded.cell_jobs[c][l] as usize, global);
        }
    }

    #[test]
    fn one_cell_routing_is_the_identity() {
        let cluster = Cluster::testbed15();
        let jobs = trace(12);
        let sharded = ShardedTrace::route(&cluster, 1, &GatewayConfig::default(), jobs.clone());
        assert_eq!(sharded.cell_specs().len(), 1);
        assert_eq!(sharded.cell_specs()[0], jobs, "1-cell specs pass through");
        for global in 0..jobs.len() {
            assert_eq!(sharded.route_of(global), (0, global));
        }
    }

    #[test]
    fn load_term_spreads_identical_jobs() {
        // 40 identical-model jobs over 2 equal cells: the load term must
        // prevent all of them piling into cell 0.
        let cluster = Cluster::from_counts(&[(GpuKind::V100, 16)], 4);
        let jobs = trace(40);
        let sharded = ShardedTrace::route(&cluster, 2, &GatewayConfig::default(), jobs);
        let counts: Vec<usize> = sharded.cell_specs().iter().map(Vec::len).collect();
        assert!(
            counts.iter().all(|&c| c >= 10),
            "gateway left a cell starved: {counts:?}"
        );
    }

    #[test]
    fn routing_is_deterministic() {
        let cluster = Cluster::testbed15();
        let a = ShardedTrace::route(&cluster, 2, &GatewayConfig::default(), trace(60));
        let b = ShardedTrace::route(&cluster, 2, &GatewayConfig::default(), trace(60));
        assert_eq!(a.routes, b.routes);
    }
}
